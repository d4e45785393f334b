"""Scheduler equivalence: the calendar queue vs the reference heap.

The calendar queue of :class:`repro.sim.core.Simulator` is a pure
host-side optimisation: for ANY workload, mechanism and seed it must
dispatch the exact same events in the exact same order as the textbook
binary heap (``tests/oracles.py::HeapSimulator``), so the two produce
byte-identical state digests at EVERY kernel step — mid-run cut points
included, since observers (checker, snapshot controller) read state
between arbitrary events. Hypothesis drives the workload shapes; the
Fig 1(a) golden table pins the scheduler to the published numbers.
"""

import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.runtime.world as world_mod
from repro.bench import MsgRateConfig, run_msgrate
from repro.sim.core import Simulator
from repro.snap import capture_state, state_digest
from tests.helpers import lockstep
from tests.oracles import HeapSimulator
from tests.test_golden_tables import parse_fig1a
from tests.test_snap_property import make_build, workload_specs

SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def on_heap(build):
    """``build`` with every World it makes scheduled by the heap oracle."""
    def pinned(*args, **kwargs):
        with mock.patch.object(world_mod, "Simulator", HeapSimulator):
            return build(*args, **kwargs)
    return pinned


def _digest(world) -> str:
    return state_digest(capture_state(world))


#: Sleeps an extra task per process takes between the MPI traffic: a
#: shared grid of times, so wake-ups collide with the library's own.
SLEEPS = st.lists(st.sampled_from([0.0, 8e-8, 1e-7, 2.5e-7, 1e-6, 3e-6]),
                  min_size=1, max_size=6)


def with_sleepers(build, sleeps):
    """``build`` plus, on every process, a task that takes ``sleeps`` in
    turn, alternately as a yielded delay and as a Timeout (the MPI
    library's own costs are yielded delays)."""
    def mixed():
        world = build()
        for proc in world.procs:
            def sleeper(sim=world.sim, rank=proc.rank):
                for i, delay in enumerate(sleeps):
                    if (i + rank) % 2:
                        yield delay
                    else:
                        yield sim.timeout(delay)
            proc.spawn(sleeper(), name=f"sleeper{proc.rank}")
        return world
    return mixed


@given(spec=workload_specs(), sleeps=SLEEPS, frac=st.floats(0.0, 1.0))
@SETTINGS
def test_engines_digest_identical_at_any_cut(spec, sleeps, frac):
    """Random workloads x mechanisms x seeds, each process also sleeping
    on yielded delays and Timeouts: equal digests at a random cut point
    AND at completion, with equal step counts."""
    build = with_sleepers(make_build(spec), sleeps)
    heap_ref = on_heap(build)()
    heap_ref.run()
    total = heap_ref.sim.steps
    assert total > 0
    cut = min(total - 1, int(total * frac))

    heap = on_heap(build)()
    cal = build()
    assert type(cal.sim) is Simulator
    assert type(heap.sim) is HeapSimulator
    heap.sim.run_steps(cut)
    cal.sim.run_steps(cut)
    assert _digest(heap) == _digest(cal)
    heap.run()
    cal.run()
    assert cal.sim.steps == heap.sim.steps == total
    assert _digest(cal) == _digest(heap) == _digest(heap_ref)


def test_engines_never_diverge_in_lockstep():
    """Run one kernel step at a time, heap and calendar states are equal
    after every step."""
    spec = {"kind": "ring", "seed": 11, "threads": 2, "nmsg": 3,
            "nbytes": 4096, "instruments": True, "faults": True}
    build = make_build(spec)
    div = lockstep(on_heap(build), build)
    assert div is None, div


@pytest.mark.parametrize("mode", ["everywhere", "threads-tags",
                                  "threads-original"])
def test_fig1a_heap_calendar_byte_identical(mode):
    cfg = MsgRateConfig(mode=mode, cores=2, msgs_per_core=8)

    def rates(run):
        r = run(cfg)
        return r.rate, r.span, r.messages
    # Exact float equality: same events, same order, same arithmetic.
    assert rates(run_msgrate) == rates(on_heap(run_msgrate))


def test_fig1a_golden_under_calendar():
    """The production scheduler reproduces the EXPERIMENTS.md Fig 1(a)
    cells (the golden table is exact, not a tolerance band)."""
    from repro.netsim import NetworkConfig
    golden = parse_fig1a()
    for mode, cores in [("everywhere", 8), ("threads-original", 8),
                        ("threads-tags", 8)]:
        r = run_msgrate(MsgRateConfig(mode=mode, cores=cores,
                                      msgs_per_core=64),
                        net=NetworkConfig.omnipath())
        assert round(r.rate / 1e6, 1) == golden[(mode, cores)]


# ------------------------------------------- the scheduler's own contract
SCHEDULERS = pytest.mark.parametrize("sim_cls", [Simulator, HeapSimulator])


@SCHEDULERS
def test_timeout_rejects_nan_and_accepts_signed_zero(sim_cls):
    sim = sim_cls()
    # The one validation site: Timeout.__init__, before or after a run.
    for _ in range(2):
        with pytest.raises(ValueError, match="nan"):
            sim.timeout(math.nan)
        with pytest.raises(ValueError, match="-1"):
            sim.timeout(-1.0)
        sim.timeout(0.0)
        sim.timeout(-0.0)

        def churn():
            for _ in range(4):
                yield sim.timeout(1.0)
        sim.spawn(churn())
        sim.run()
        assert not math.isnan(sim.now)


@SCHEDULERS
def test_run_steps_with_processed_stop_event_runs_nothing(sim_cls):
    sim = sim_cls()
    stop = sim.event().succeed()
    sim.run()
    assert stop.processed
    sim.timeout(1.0)
    sim.timeout(2.0)
    assert sim.run_steps(10, stop_event=stop) == 0
    assert sim.steps == 1 and sim.now == 0.0
    assert sim.run_steps(10) == 2
