"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import pytest

from repro.sim import Event, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = {}

    def task():
        yield sim.timeout(1.5)
        done["t"] = sim.now

    sim.spawn(task())
    sim.run()
    assert done["t"] == pytest.approx(1.5)


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()
    result = {}

    def task():
        v = yield sim.timeout(1.0, value="hello")
        result["v"] = v

    sim.spawn(task())
    sim.run()
    assert result["v"] == "hello"


def test_events_process_in_time_order():
    sim = Simulator()
    order = []

    def task(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.spawn(task(3.0, "c"))
    sim.spawn(task(1.0, "a"))
    sim.spawn(task(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo_by_schedule_order():
    sim = Simulator()
    order = []

    def task(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcd":
        sim.spawn(task(tag))
    sim.run()
    assert order == list("abcd")


def test_process_return_value_propagates():
    sim = Simulator()

    def inner():
        yield sim.timeout(1.0)
        return 42

    def outer(results):
        value = yield sim.spawn(inner())
        results.append(value)

    results = []
    sim.spawn(outer(results))
    sim.run()
    assert results == [42]


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def joiner(log):
        try:
            yield sim.spawn(failing())
        except ValueError as exc:
            log.append(str(exc))

    log = []
    sim.spawn(joiner(log))
    sim.run()
    assert log == ["boom"]


def test_unhandled_process_exception_fails_process_event():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    proc = sim.spawn(failing())
    sim.run()
    assert proc.triggered
    assert not proc.ok
    with pytest.raises(RuntimeError):
        _ = proc.value


def test_event_succeed_once_only():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def _sleepers(world, sleep):
    """Three tasks interleaving ``sleep(d)`` with Timeouts; returns the
    log of wake-ups as (name, time) in processing order."""
    sim = world.sim
    log = []

    def task(name, delays):
        for d in delays:
            yield sleep(sim, d)
            log.append((name, sim.now))
        yield sim.timeout(0.25)
        log.append((name, sim.now))

    sim.spawn(task("a", [3.0, 0.5]), name="a")
    sim.spawn(task("b", [0.0, 3.0, 0.5]), name="b")

    def timeouts():
        yield sim.timeout(3.0)
        log.append(("t", sim.now))
        yield sim.timeout(0.5)
        log.append(("t", sim.now))
    sim.spawn(timeouts(), name="t")
    return log


@pytest.mark.parametrize("sim_cls", ["Simulator", "HeapSimulator"])
def test_yielded_float_sleeps_like_a_timeout(sim_cls, monkeypatch):
    """``yield 3.0`` is ``yield sim.timeout(3.0)``: the same wake times,
    the same order against Timeouts at the same instant, and, captured
    mid-sleep, the same schedule descriptions and state digest."""
    import repro.runtime.world as world_mod
    from repro.runtime import World
    from repro.snap import capture_state, state_digest
    from repro.snap.state import _kernel_state
    from tests.oracles import HeapSimulator

    if sim_cls == "HeapSimulator":
        monkeypatch.setattr(world_mod, "Simulator", HeapSimulator)

    def run(sleep, steps):
        world = World(num_nodes=1, procs_per_node=1)
        log = _sleepers(world, sleep)
        world.sim.run_steps(steps)
        mid = (_kernel_state(world.sim), state_digest(capture_state(world)))
        world.sim.run()
        return log, world.sim.now, mid

    for steps in (3, 5, 7):
        floats = run(lambda sim, d: d, steps)
        timeouts = run(lambda sim, d: sim.timeout(d), steps)
        assert floats == timeouts
    kernel = floats[2][0]
    assert {"kind": "Timeout", "triggered": True, "delay": 0.5,
            "callbacks": ["Process._resume"]} in [e[3] for e in kernel["heap"]]
    assert "Timeout" in {t["waiting_on"] for t in kernel["tasks"].values()}


@pytest.mark.parametrize("bad", [float("nan"), -1.0, -1e-300])
def test_yielded_bad_float_fails_the_task_like_timeout(bad):
    sim = Simulator()

    def sleeper():
        yield bad

    proc = sim.spawn(sleeper())
    sim.run()
    assert proc.triggered and not proc.ok
    with pytest.raises(ValueError) as raised:
        _ = proc.value
    with pytest.raises(ValueError) as expected:
        sim.timeout(bad)
    assert str(raised.value) == str(expected.value)
    assert sim.now == 0.0


def test_yield_non_event_raises():
    """Only an Event or a float delay may be yielded: an int is not a
    delay (a ``timeout(0)`` and a yielded ``0.0`` describe differently)."""
    for bad in (3, "x", None):
        sim = Simulator()

        def task():
            yield bad

        proc = sim.spawn(task())
        sim.run()
        assert proc.triggered and not proc.ok
        with pytest.raises(SimulationError, match="yielded"):
            _ = proc.value


def test_spawn_requires_generator():
    sim = Simulator()

    def not_a_gen():
        return 5

    with pytest.raises(TypeError):
        sim.spawn(not_a_gen)  # function, not generator


def test_run_until_time_stops_clock_there():
    sim = Simulator()

    def ticker(log):
        while True:
            yield sim.timeout(1.0)
            log.append(sim.now)

    log = []
    sim.spawn(ticker(log))
    sim.run(until=5.5)
    assert sim.now == pytest.approx(5.5)
    assert log == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0])


def test_run_until_event_returns_value():
    sim = Simulator()

    def task():
        yield sim.timeout(2.0)
        return "done"

    proc = sim.spawn(task())
    assert sim.run(until=proc) == "done"
    assert sim.now == pytest.approx(2.0)


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    never = sim.event()

    def waiter():
        yield never

    sim.spawn(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=never)


def test_max_steps_guard():
    sim = Simulator()

    def spinner():
        while True:
            yield sim.timeout(0.0)

    sim.spawn(spinner())
    with pytest.raises(SimulationError, match="max_steps"):
        sim.run(max_steps=100)


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def task(delay, value):
        yield sim.timeout(delay)
        return value

    def main(out):
        procs = [sim.spawn(task(3.0, "x")), sim.spawn(task(1.0, "y"))]
        values = yield sim.all_of(procs)
        out.append(values)

    out = []
    sim.spawn(main(out))
    sim.run()
    assert out == [["x", "y"]]
    assert sim.now == pytest.approx(3.0)


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    ev = sim.all_of([])
    sim.run()
    assert ev.processed and ev.value == []


def test_all_of_fails_on_first_child_failure():
    sim = Simulator()

    def ok():
        yield sim.timeout(5.0)

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("child failed")

    def main(log):
        try:
            yield sim.all_of([sim.spawn(ok()), sim.spawn(bad())])
        except ValueError as exc:
            log.append((sim.now, str(exc)))

    log = []
    sim.spawn(main(log))
    sim.run()
    assert log[0][1] == "child failed"
    assert log[0][0] == pytest.approx(1.0)


def test_callback_on_already_processed_event_runs_immediately():
    sim = Simulator()
    ev = sim.timeout(1.0)
    sim.run()
    hits = []
    ev.add_callback(lambda e: hits.append(e.value))
    assert hits == [None]


def test_nested_process_tree_times():
    sim = Simulator()

    def leaf(d):
        yield sim.timeout(d)
        return d

    def mid():
        a = yield sim.spawn(leaf(1.0))
        b = yield sim.spawn(leaf(2.0))
        return a + b

    proc = sim.spawn(mid())
    assert sim.run(until=proc) == pytest.approx(3.0)
    assert sim.now == pytest.approx(3.0)


def test_deterministic_step_count():
    def build():
        sim = Simulator()

        def task(i):
            for _ in range(10):
                yield sim.timeout(0.5 + 0.1 * i)

        for i in range(5):
            sim.spawn(task(i))
        sim.run()
        return sim.steps, sim.now

    assert build() == build()


def test_completed_processes_are_pruned():
    """The process table must not grow with completed tasks (it is only
    needed for deadlock reporting, which concerns *alive* processes)."""
    sim = Simulator()

    def task():
        yield sim.timeout(1.0)

    for _ in range(100):
        sim.spawn(task())
    assert len(sim._processes) == 100
    sim.run()
    assert len(sim._processes) == 0


def test_deadlock_report_still_sees_alive_processes():
    sim = Simulator()

    def finishes():
        yield sim.timeout(1.0)

    def stuck():
        yield Event(sim)  # never triggered

    for _ in range(10):
        sim.spawn(finishes())
    target = sim.spawn(stuck())
    sim.spawn(stuck())
    with pytest.raises(SimulationError, match=r"blocked tasks \(2\)"):
        sim.run(until=target)
    assert len(sim._processes) == 2  # only the stuck ones remain
