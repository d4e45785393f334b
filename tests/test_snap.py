"""Unit tests for repro.snap: state capture, snapshots, restore,
sliced sessions, replay, bisect, and resumable sweeps."""

import json
import os
import textwrap
from unittest import mock

import numpy as np
import pytest

from repro.cli import main
from repro.errors import SnapshotFormatError, SnapshotMismatchError
from repro.faults import parse_plan
from repro.mpi import vci as vci_mod
from repro.obs import MetricsRegistry, Tracer
from repro.runtime import World
from repro.serve import cache_key, expand_job, run_local
from repro.snap import (
    SnapController,
    capture_state,
    default_snap_controller,
    diff_states,
    fast_forward,
    first_divergence,
    load_snapshot,
    prune_state,
    recording,
    restore_snapshot,
    run_replay,
    save_snapshot,
    state_digest,
    take_snapshot,
)
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


def test_capture_covers_instruments_and_faults():
    w = pingpong_world(metrics=MetricsRegistry(), tracer=Tracer(),
                       faults=parse_plan("drop=0.05,dup=0.02"))
    w.run()
    state = capture_state(w)
    assert state["metrics"] is not None
    assert state["trace"] is not None and state["trace"]["records"] > 0
    assert state["faults"] is not None
    assert all(p["transport"] is not None
               for p in state["procs"].values())


# ------------------------------------------------------------- snapshot
def test_snapshot_save_load_roundtrip(tmp_path):
    w = pingpong_world()
    w.sim.run_steps(10)
    snap = take_snapshot(w, recipe={"seed": 0})
    path = save_snapshot(snap, tmp_path / "s.json")
    loaded = load_snapshot(path)
    assert loaded.digest == snap.digest
    assert loaded.step == snap.step and loaded.clock == snap.clock
    assert loaded.recipe == {"seed": 0}


def test_snapshot_bytes_are_deterministic(tmp_path):
    w1, w2 = pingpong_world(), pingpong_world()
    for w in (w1, w2):
        w.sim.run_steps(10)
    p1 = save_snapshot(take_snapshot(w1), tmp_path / "a.json")
    p2 = save_snapshot(take_snapshot(w2), tmp_path / "b.json")
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_snapshot_load_rejects_corruption(tmp_path):
    w = pingpong_world()
    w.sim.run_steps(10)
    path = save_snapshot(take_snapshot(w), tmp_path / "s.json")
    payload = json.load(open(path))
    payload["state"]["kernel"]["now"] += 1.0
    json.dump(payload, open(path, "w"))
    with pytest.raises(SnapshotFormatError, match="digest"):
        load_snapshot(path)


def test_snapshot_load_rejects_wrong_version(tmp_path):
    w = pingpong_world()
    path = save_snapshot(take_snapshot(w), tmp_path / "s.json")
    payload = json.load(open(path))
    payload["version"] = 999
    json.dump(payload, open(path, "w"))
    with pytest.raises(SnapshotFormatError, match="version"):
        load_snapshot(path)


# -------------------------------------------------------------- restore
def test_restore_verifies_byte_identity():
    w = pingpong_world()
    w.sim.run_steps(17)
    snap = take_snapshot(w)
    w2 = restore_snapshot(snap, pingpong_world)
    assert w2.sim.steps == 17
    assert state_digest(capture_state(w2)) == snap.digest


def test_restore_detects_wrong_recipe():
    w = pingpong_world(seed=0)
    w.sim.run_steps(17)
    snap = take_snapshot(w)
    with pytest.raises(SnapshotMismatchError) as err:
        restore_snapshot(snap, lambda: pingpong_world(seed=1))
    assert err.value.paths  # names the diverging state paths


def test_fast_forward_rejects_overshoot():
    w = pingpong_world()
    w.sim.run_steps(20)
    with pytest.raises(SnapshotMismatchError, match="past"):
        fast_forward(w, 10)
    with pytest.raises(SnapshotMismatchError, match="ran out of events"):
        fast_forward(pingpong_world(nmsg=1), 10**6)


def test_run_steps_horizon_does_not_clamp_clock():
    w = pingpong_world()
    n = w.sim.run_steps(10_000, horizon=1e-7)
    assert n > 0
    assert w.sim._now <= 1e-7  # stopped *before* the horizon, not at it


# ------------------------------------------------------------- sessions
def test_sliced_run_is_byte_identical():
    w_ref = pingpong_world()
    w_ref.run()
    ref = state_digest(capture_state(w_ref))

    boundaries = []
    ctrl = SnapController(interval=7)
    ctrl.on_boundary = lambda w: boundaries.append(w.sim.steps)
    with recording(ctrl):
        w = pingpong_world()
        w.run()
    assert state_digest(capture_state(w)) == ref
    assert w.sim.steps == w_ref.sim.steps
    assert boundaries and all(b % 7 == 0 for b in boundaries)


def test_sliced_run_all_returns_task_values():
    ctrl = SnapController(interval=5)
    with recording(ctrl):
        w = World(num_nodes=2, procs_per_node=1)

        def worker(proc):
            yield proc.compute(1e-6)
            return proc.rank * 10

        tasks = [p.spawn(worker(p)) for p in w.procs]
        assert w.run_all(tasks) == [0, 10]


def test_recording_restores_previous_default():
    assert default_snap_controller() is None
    with recording(SnapController()):
        assert default_snap_controller() is not None
    assert default_snap_controller() is None


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


def test_replay_until_resumes_from_checkpoint(program, tmp_path):
    snap_path = str(tmp_path / "at_target.json")
    result, status = run_replay(program, [], until=3e-6,
                                snapshot_path=snap_path)
    assert status == 0 and result is not None
    assert result.reason == "until" and result.verified
    snap = load_snapshot(snap_path)
    assert snap.step == result.step and snap.digest == result.digest


def test_replay_to_finding_reproduces_chk102(program):
    result, status = run_replay(program, [], to_finding="CHK102")
    assert status == 0 and result is not None
    assert result.reason == "finding" and result.verified
    assert result.finding["rule"] == "CHK102"


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
    assert not result.verified and result.snapshot_path is None
    assert main(["replay", str(path), "--until", "3e-6"]) == 1
    assert "reproduction verified: False" in capsys.readouterr().out


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
    snap_path = str(tmp_path / "at_target.json")
    assert main(["replay", str(path), "--until", "102e-6",
                 "--snapshot", snap_path]) == 0
    out, err = capsys.readouterr()
    assert "reproduction verified: True" in out
    # The second execution is silent on stdout only.
    assert out.count("phase one ended") == 1
    assert err.count("phase one ended") == 2
    phase_one_steps = int(out.split("phase one ended at step")[1].split()[0])
    assert load_snapshot(snap_path).step > phase_one_steps


# --------------------------------------------------------------- bisect
def test_bisect_identical_configs_never_diverge():
    assert first_divergence(pingpong_world, pingpong_world) is None


def test_bisect_finds_seed_divergence():
    div = first_divergence(lambda: pingpong_world(seed=0),
                           lambda: pingpong_world(seed=1), interval=16)
    assert div is not None and div.step == 0
    assert any("rng" in p for p in div.paths)
    assert "divergence" in div.render()


def test_bisect_linear_vs_indexed_engines_agree():
    def build_linear():
        with mock.patch.object(vci_mod, "MatchingEngine",
                               LinearMatchingEngine):
            return pingpong_world()

    div = first_divergence(pingpong_world, build_linear, interval=16,
                           ignore=("engine.internals",))
    assert div is None  # logical matching state is byte-identical (PR 3)
    div = first_divergence(pingpong_world, build_linear, interval=16)
    assert div is not None  # ...but the private internals differ


def test_bisect_refines_mid_run_divergence():
    """A divergence that appears mid-run is pinned to its exact step."""
    def build_fast():
        return pingpong_world(seed=0)

    def build_slow():
        w = pingpong_world(seed=0)

        def straggler(proc):
            yield proc.compute(2e-6)
        w.procs[0].spawn(straggler(w.procs[0]))
        return w

    div = first_divergence(build_fast, build_slow, interval=8)
    assert div is not None and div.step == 0  # extra task visible at start


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
    monkeypatch.setattr("os.cpu_count", lambda: 2)
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
    args = ["sweep", "msgrate", "--modes", "everywhere", "--cores", "1",
            "2", "--messages", "8", "--checkpoint-dir", str(tmp_path / "ck")]
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(csv_a)]) == 0
    cold = capsys.readouterr().out.split("[")[0]
    assert main(args + ["--csv", str(csv_b)]) == 0
    assert capsys.readouterr().out.split("[")[0] == cold
    assert csv_a.read_bytes() == csv_b.read_bytes()
