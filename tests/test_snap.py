"""Unit tests for repro.snap: state capture, stopped runs, verified
reproduction (replay), lockstep comparison, and resumable sweeps."""

import contextlib
import os
import re
import textwrap
from unittest import mock

import numpy as np
import pytest

from repro.check.session import Session, current_session
from repro.cli import main
from repro.faults import parse_plan
from repro.mpi import vci as vci_mod
from repro.obs import MetricsRegistry, Tracer
from repro.runtime import World
from repro.scenarios import ScenarioSpec, run_scenario
from repro.serve import cache_key, expand_job, run_local
from repro.sim import SimulationError
from repro.snap import state as snap_state
from repro.snap import (
    canonical_json,
    capture_state,
    diff_states,
    prune_state,
    reproduce,
    run_replay,
    state_digest,
)
from tests.helpers import lockstep
from tests.oracles import LinearMatchingEngine


def pingpong_world(seed=0, nmsg=8, threads=2, metrics=None, tracer=None,
                   faults=None):
    """A small deterministic workload touching pt2pt + unexpected paths."""
    w = World(num_nodes=2, procs_per_node=1, threads_per_proc=threads,
              seed=seed, metrics=metrics, tracer=tracer, faults=faults)

    def sender(proc):
        for i in range(nmsg):
            yield from proc.comm_world.Send(np.full(8, float(i)), dest=1,
                                            tag=i % 3)

    def receiver(proc):
        for i in range(nmsg):
            buf = np.zeros(8)
            yield from proc.comm_world.Recv(buf, source=0, tag=i % 3)

    w.procs[0].spawn(sender(w.procs[0]))
    w.procs[1].spawn(receiver(w.procs[1]))
    return w


# ---------------------------------------------------------------- state
def test_capture_is_deterministic_across_builds():
    d1 = state_digest(capture_state(pingpong_world()))
    d2 = state_digest(capture_state(pingpong_world()))
    assert d1 == d2


def test_capture_excludes_process_global_counters():
    """Request ids / wire sequence numbers span all worlds in the
    process; a world built later must still capture identically."""
    w1 = pingpong_world()
    w1.run()  # burn through global rid/seq counters
    d_after = state_digest(capture_state(pingpong_world()))
    assert d_after == state_digest(capture_state(pingpong_world()))


def test_capture_differs_across_seeds_and_steps():
    base = state_digest(capture_state(pingpong_world(seed=0)))
    assert base != state_digest(capture_state(pingpong_world(seed=1)))
    w = pingpong_world(seed=0)
    w.sim.run_steps(5)
    assert base != state_digest(capture_state(w))


def test_diff_states_names_the_paths():
    a = capture_state(pingpong_world(seed=0))
    b = capture_state(pingpong_world(seed=1))
    paths = diff_states(a, b)
    assert any("rng" in p for p in paths)


def test_prune_state_drops_matching_paths():
    a = capture_state(pingpong_world(seed=0))
    b = capture_state(pingpong_world(seed=1))
    pa, pb = (prune_state(x, ("rng",)) for x in (a, b))
    assert state_digest(pa) == state_digest(pb)


def test_capture_covers_instruments_and_faults(monkeypatch):
    w = pingpong_world(metrics=MetricsRegistry(), tracer=Tracer(),
                       faults=parse_plan("drop=0.05,dup=0.02"))
    w.run()
    # An empty pristine cache makes this capture build the throwaway
    # contexts that describe unbuilt NIC slots: they see sim.metrics and
    # must still record nothing, as the capture itself must not.
    monkeypatch.setattr(snap_state, "_PRISTINE", {})
    series, records = len(w.metrics), len(w.tracer)
    state = capture_state(w)
    assert (len(w.metrics), len(w.tracer)) == (series, records)
    assert snap_state._PRISTINE
    assert state["metrics"] is not None
    assert state["trace"] is not None and state["trace"]["records"] > 0
    assert state["faults"] is not None
    assert all(p["transport"] is not None
               for p in state["procs"].values())


def test_snapshot_bytes_are_deterministic():
    w1, w2 = pingpong_world(), pingpong_world()
    for w in (w1, w2):
        w.sim.run_steps(10)
    assert canonical_json(capture_state(w1)) \
        == canonical_json(capture_state(w2))


# ------------------------------------------------- verified reproduction
def test_restore_verifies_byte_identity():
    """A recipe that runs 17 steps has its end stop there; the verifier's
    second run reaches the same state."""
    built = []

    def recipe():
        built.append(pingpong_world())
        built[-1].sim.run_steps(17)

    record, _ = reproduce({"seed": 0}, recipe)
    assert record.verified and record.reason == "end" and not record.paths
    assert (record.recipe, record.world, record.step) == ({"seed": 0}, 0, 17)
    assert len(built) == 2 and built[1].sim.steps == 17
    assert record.digest == state_digest(capture_state(built[1]))
    assert record.clock == built[1].sim.now


def test_restore_detects_wrong_recipe():
    """A second run that is another recipe (another seed, through the
    callable) is not verified, and the report names the paths that
    differ between the two captures."""
    seeds = iter([0, 1])
    record, _ = reproduce({}, lambda: pingpong_world(seed=next(seeds)).run())
    assert record is not None and not record.verified
    assert any("rng" in path for path in record.paths), record.paths


def test_a_perturbed_scenario_recipe_is_not_verified():
    spec = ScenarioSpec(app="racer", mechanism="default", nodes=2,
                        threads=1, seed=3)
    record, outcome = reproduce({"scenario": spec.to_dict()},
                                lambda: run_scenario(spec))
    assert record.verified and outcome == run_scenario(spec)
    # The end stop's digest is the one the executor reports.
    assert record.digest == outcome["digest"]
    specs = iter([spec, spec.with_(seed=4)])
    record, _ = reproduce({"scenario": spec.to_dict()},
                          lambda: run_scenario(next(specs)))
    assert not record.verified
    assert any("rng" in path for path in record.paths), record.paths


def test_a_recipe_that_builds_no_world_is_decided_by_its_value():
    record, value = reproduce({}, lambda: 7)
    assert (record.verified, record.world, record.step, value) \
        == (True, -1, 0, 7)
    values = iter([7, 8])
    record, _ = reproduce({}, lambda: next(values))
    assert not record.verified


def test_a_reproduction_has_at_most_one_stop():
    with pytest.raises(ValueError):
        reproduce({}, pingpong_world, until=1e-6, to_finding="CHK102")


def test_run_steps_horizon_does_not_clamp_clock():
    w = pingpong_world()
    n = w.sim.run_steps(10_000, horizon=1e-7)
    assert n > 0
    assert w.sim._now <= 1e-7  # stopped *before* the horizon, not at it


# ------------------------------------------------------------- sessions
def every(n):
    """A session stopping its worlds every ``n`` steps; ``.stops`` lists
    the steps it stopped them at."""
    session = Session()
    session.stops = []
    session.stop_step = n

    def on_stop(world):
        session.stops.append(world.sim.steps)
        session.stop_step += n

    session.on_stop = on_stop
    return session


def test_sliced_run_is_byte_identical():
    w_ref = pingpong_world()
    w_ref.run()
    ref = state_digest(capture_state(w_ref))

    with every(7) as session:
        w = pingpong_world()
        w.run()
    assert state_digest(capture_state(w)) == ref
    assert w.sim.steps == w_ref.sim.steps
    assert session.stops == list(range(7, w.sim.steps + 1, 7))


def test_sliced_run_all_returns_task_values():
    with every(1) as session:
        w = World(num_nodes=2, procs_per_node=1)

        def worker(proc):
            yield proc.compute(1e-6)
            return proc.rank * 10

        tasks = [p.spawn(worker(p)) for p in w.procs]
        assert w.run_all(tasks) == [0, 10]
    assert session.stops == list(range(1, w.sim.steps + 1))


def test_a_stopped_run_keeps_the_run_contract():
    """Deadlock, ``max_steps`` and the horizon clamp are the kernel's:
    a stopped run reports and ends exactly as an unstopped one."""
    def stuck(proc):
        yield proc.sim.event()

    outcomes = []
    for session in (None, every(2)):
        with session or contextlib.nullcontext():
            w = pingpong_world()
            with pytest.raises(SimulationError, match="exceeded max_steps"):
                w.run(max_steps=5)
            w.run(until=3e-7)
            now, steps = w.sim.now, w.sim.steps
            with pytest.raises(SimulationError, match="deadlock") as err:
                w.run_all([w.procs[0].spawn(stuck(w.procs[0]))])
        outcomes.append((now, steps, w.sim.steps, str(err.value)))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 3e-7


def test_session_restores_the_outer_one():
    assert current_session() is None
    with Session() as outer:
        with Session() as inner:
            assert current_session() is inner
        assert current_session() is outer
    assert current_session() is None


# --------------------------------------------------------------- replay
PROGRAM = textwrap.dedent("""\
    import numpy as np
    from repro.runtime import World

    world = World(num_nodes=2, procs_per_node=1)

    def rank0(proc):
        comm = proc.comm_world
        for i in range(10):
            yield from comm.Send(np.full(2, float(i)), dest=1, tag=100 + i)

        def racer(i):
            req = yield from comm.Isend(np.full(2, float(i)), dest=1, tag=7)
            yield from req.wait()
        t1 = proc.spawn(racer(1), name="s1")
        t2 = proc.spawn(racer(2), name="s2")
        yield proc.sim.all_of([t1, t2])

    def rank1(proc):
        buf = np.zeros(2)
        for i in range(10):
            yield from proc.comm_world.Recv(buf, source=0, tag=100 + i)
        yield from proc.comm_world.Recv(buf, source=0, tag=7)
        yield from proc.comm_world.Recv(buf, source=0, tag=7)

    tasks = [world.procs[0].spawn(rank0(world.procs[0])),
             world.procs[1].spawn(rank1(world.procs[1]))]
    world.run_all(tasks)
""")


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "prog.py"
    path.write_text(PROGRAM)
    return str(path)


def test_replay_until_resumes_from_checkpoint(program):
    result, status = run_replay(program, [], until=3e-6)
    assert status == 0 and result is not None
    assert result.reason == "until" and result.verified
    assert result.recipe == {"program": program, "argv": []}
    assert len(result.digest) == 64 and not result.paths


def test_replay_to_finding_reproduces_chk102(program):
    result, status = run_replay(program, [], to_finding="CHK102")
    assert status == 0 and result is not None
    assert result.reason == "finding" and result.verified
    assert result.finding["rule"] == "CHK102"


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "analyze")


def _fixture_rules():
    """``(fixture, rule)`` for every ``bad_*`` fixture a CHK rule names
    in its first line — finalize-time rules (CHK103/109/110) included."""
    rules = []
    for name in sorted(os.listdir(FIXTURES)):
        if name.startswith("bad_"):
            with open(os.path.join(FIXTURES, name), encoding="utf-8") as f:
                found = re.search(r"CHK\d{3}", f.readline())
            if found:
                rules.append((name, found.group()))
    return rules


def test_every_checker_fixture_replays_to_its_finding():
    rules = _fixture_rules()
    assert len(rules) == 11
    for name, rule in rules:
        result, status = run_replay(os.path.join(FIXTURES, name), [],
                                    to_finding=rule)
        assert status == 0 and result is not None, name
        assert result.verified and result.finding["rule"] == rule, name


def test_replay_stops_a_world_built_in_the_programs_own_session(
        program, tmp_path):
    """The program's own ``checking()`` block owns its world, and the
    enclosing replay session still stops it — where it stops the same
    world built outside any block."""
    path = tmp_path / "own_session.py"
    path.write_text(PROGRAM.replace(
        "world = World(num_nodes=2, procs_per_node=1)",
        "from repro.check import CheckConfig, checking\n"
        "with checking(CheckConfig(emit_warnings=False)) as own:\n"
        "    world = World(num_nodes=2, procs_per_node=1)"))
    plain, _ = run_replay(program, [], until=3e-6)
    nested, status = run_replay(str(path), [], until=3e-6)
    assert status == 0 and nested.verified
    assert (nested.world, nested.step) == (plain.world, plain.step)


def test_replay_needs_exactly_one_target(program):
    with pytest.raises(ValueError):
        run_replay(program, [])
    with pytest.raises(ValueError):
        run_replay(program, [], until=1e-6, to_finding="CHK102")


def test_replay_cli(program, capsys):
    assert main(["replay", program, "--until", "3e-6"]) == 0
    out = capsys.readouterr().out
    assert "reproduction verified: True" in out
    assert main(["replay", program]) == 2  # no target
    assert main(["replay", program, "--until", "1", "--to-finding",
                 "CHK101"]) == 2  # both targets


BAD_TARGETS = {
    "nan": (["--until", "nan"], {"until": float("nan")}),
    "inf": (["--until", "inf"], {"until": float("inf")}),
    "negative": (["--until", "-1"], {"until": -1.0}),
    "unknown-rule": (["--to-finding", "chk999"], {"to_finding": "chk999"}),
}


@pytest.mark.parametrize("name", sorted(BAD_TARGETS))
def test_replay_refuses_a_bad_target_before_running(name, tmp_path, capsys):
    flags, kwargs = BAD_TARGETS[name]
    ran = tmp_path / "ran"
    path = tmp_path / "marks.py"
    path.write_text(f"open({str(ran)!r}, 'w').close()\n" + PROGRAM)
    assert main(["replay", str(path), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    with pytest.raises(ValueError):
        run_replay(str(path), [], **kwargs)
    assert not ran.exists()


def test_replay_to_finding_verified_without_fork(program, monkeypatch):
    monkeypatch.delattr(os, "fork")
    result, _ = run_replay(program, [], to_finding="CHK102")
    assert result is not None and result.verified
    assert result.digest  # captured at the finding's step, not past it


def test_replay_rejects_program_that_differs_between_executions(
        tmp_path, monkeypatch, capsys):
    """Verification is a second execution: a program that is not the
    same program twice must not be reported reproduced."""
    monkeypatch.setenv("REPLAY_TEST_RUNS", "0")
    path = tmp_path / "unstable.py"
    path.write_text(PROGRAM.replace(
        "world = World(num_nodes=2, procs_per_node=1)", textwrap.dedent("""\
        import os
        runs = int(os.environ["REPLAY_TEST_RUNS"])
        os.environ["REPLAY_TEST_RUNS"] = str(runs + 1)
        world = World(num_nodes=2, procs_per_node=1, seed=runs)""")))
    result, status = run_replay(str(path), [], until=3e-6)
    assert status == 0 and result is not None
    assert not result.verified
    assert any("rng" in p for p in result.paths), result.paths
    assert main(["replay", str(path), "--until", "3e-6"]) == 1
    out = capsys.readouterr().out
    assert "reproduction verified: False" in out and "differs at $.rng" in out


def test_replay_target_in_second_world(tmp_path):
    path = tmp_path / "two_worlds.py"
    path.write_text(textwrap.dedent("""\
        import numpy as np
        from repro.runtime import World

        first = World(num_nodes=2, procs_per_node=1)
        first.run_all([
            first.procs[0].spawn(first.procs[0].comm_world.Send(
                np.zeros(2), dest=1, tag=0)),
            first.procs[1].spawn(first.procs[1].comm_world.Recv(
                np.zeros(2), source=0, tag=0))])
        assert first.sim.now < 3e-6
        """) + PROGRAM)
    for target in ({"until": 3e-6}, {"to_finding": "CHK102"}):
        result, _ = run_replay(str(path), [], **target)
        assert result is not None and result.verified, target
        assert result.world == 1


def test_replay_target_in_second_run_call_and_program_prints_once(
        tmp_path, capsys):
    path = tmp_path / "two_phases.py"
    path.write_text(textwrap.dedent("""\
        import sys
        import numpy as np
        from repro.runtime import World

        world = World(num_nodes=2, procs_per_node=1)
        p0, p1 = world.procs

        def send(proc, tag):
            yield proc.sim.timeout(tag * 1e-6 - proc.sim.now)
            for i in range(10):
                yield from proc.comm_world.Send(np.full(2, float(i)),
                                                dest=1, tag=tag + i)

        def recv(proc, tag):
            buf = np.zeros(2)
            for i in range(10):
                yield from proc.comm_world.Recv(buf, source=0, tag=tag + i)

        world.run_all([p0.spawn(send(p0, 0)), p1.spawn(recv(p1, 0))])
        print("phase one ended at step", world.sim.steps)
        print("phase one ended", file=sys.stderr)
        assert world.sim.now < 100e-6
        world.run_all([p0.spawn(send(p0, 100)), p1.spawn(recv(p1, 100))])
        """))
    assert main(["replay", str(path), "--until", "102e-6"]) == 0
    out, err = capsys.readouterr()
    assert "reproduction verified: True" in out
    # The second execution is silent on stdout only.
    assert out.count("phase one ended") == 1
    assert err.count("phase one ended") == 2
    phase_one_steps = int(out.split("phase one ended at step")[1].split()[0])
    result, _ = run_replay(str(path), [], until=102e-6)
    assert result.verified and result.step > phase_one_steps


def test_replay_until_the_horizon_a_run_call_ended_at(tmp_path):
    """``world.run(until=T)`` moves the clock to ``T`` and the horizon
    stop fires in the next call, with no event in between: the second
    run stops there too, not at the last event before ``T``."""
    path = tmp_path / "run_until.py"
    path.write_text(PROGRAM.replace(
        "world.run_all(tasks)", "world.run(until=3e-6)\nworld.run()"))
    result, status = run_replay(str(path), [], until=3e-6)
    assert status == 0 and result is not None
    assert result.verified and not result.paths
    assert result.clock == 3e-6


# ------------------------------------------------- lockstep comparison
def test_bisect_identical_configs_never_diverge():
    div = lockstep(pingpong_world, pingpong_world)
    assert div is None, div


def test_bisect_finds_seed_divergence():
    div = lockstep(lambda: pingpong_world(seed=0),
                   lambda: pingpong_world(seed=1))
    assert div is not None and div[0] == 0
    assert any("rng" in p for p in div[1]), div


def test_bisect_linear_vs_indexed_engines_agree():
    def build_linear():
        with mock.patch.object(vci_mod, "MatchingEngine",
                               LinearMatchingEngine):
            return pingpong_world()

    # The logical matching state is byte-identical at every step ...
    div = lockstep(pingpong_world, build_linear, ignore=("engine.internals",))
    assert div is None, div
    # ... but the private internals differ.
    assert lockstep(pingpong_world, build_linear) is not None


def test_bisect_refines_mid_run_divergence():
    """A ninth message shows only once the eighth is under way: the first
    step at which the two runs differ lies mid-run, exactly."""
    step, paths = lockstep(pingpong_world, lambda: pingpong_world(nmsg=9))
    assert 0 < step < 60 and paths
    before = [pingpong_world(), pingpong_world(nmsg=9)]
    for w in before:
        w.sim.run_steps(step - 1)
    assert len({state_digest(capture_state(w)) for w in before}) == 1


# ----------------------------------------------------- resumable sweeps
SELFTEST = {"n": 5}


def _store_files(root):
    return sorted(os.listdir(os.path.join(root, "cache")))


def _executed(state, workers=1):
    """Re-run the selftest job on ``state``; (results, points executed)."""
    doc = run_local(state, "selftest", SELFTEST, workers=workers)[0]
    return doc["results"], SELFTEST["n"] - doc["cache_hits"]


def _tear(state, name):
    with open(os.path.join(state, "cache", name), "w") as fh:
        fh.write("{trunca")  # crash mid-write


def test_run_points_checkpoints_and_resumes(tmp_path):
    state = str(tmp_path / "ck")
    ref, executed = _executed(state)
    assert executed == 5
    _, points = expand_job("selftest", SELFTEST)
    names = _store_files(state)
    assert names == sorted(
        f"point-{cache_key('selftest', p)}.json" for p in points)

    # Simulate a crash: lose two store files and tear a third; exactly
    # those three points execute again.
    for name in names[:2]:
        os.unlink(os.path.join(state, "cache", name))
    _tear(state, names[2])
    assert _executed(state) == (ref, 3)
    assert _executed(state) == (ref, 0)


def test_run_points_parallel_checkpoints(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.serve.service.usable_cpus", lambda: 2)
    state = str(tmp_path / "ck")
    ref, executed = _executed(state, workers=2)
    assert executed == 5 and len(_store_files(state)) == 5
    assert _executed(state, workers=2) == (ref, 0)


def test_point_store_ignores_corrupt_checkpoint(tmp_path):
    state = str(tmp_path / "ck")
    _executed(state)
    _tear(state, _store_files(state)[-1])
    assert _executed(state) == (
        [{"i": i, "value": i * i} for i in range(5)], 1)


def test_sweep_resume_rows_byte_identical(tmp_path, capsys):
    args = ["msgrate", "--modes", "everywhere", "--cores", "1", "2",
            "--messages", "8", "--checkpoint-dir", str(tmp_path / "ck")]
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(csv_a)]) == 0
    cold = capsys.readouterr().out.split("[")[0]
    assert main(args + ["--csv", str(csv_b)]) == 0
    assert capsys.readouterr().out.split("[")[0] == cold
    assert csv_a.read_bytes() == csv_b.read_bytes()
