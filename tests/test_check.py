"""Dynamic checker tests: every CHK rule fires on a minimal violating
program, warn/raise modes behave as documented, reports serialize, and
the checker is observer-only (simulated timings are byte-identical)."""

import json
import os
import sys
import warnings

import numpy as np
import pytest

from repro.check import CheckConfig, CheckWarning, checking
from repro.check.session import run_program
from repro.cli import main
from repro.errors import CheckError, MpiUsageError
from repro.mpi import ANY_SOURCE, Info
from repro.mpi.partitioned import precv_init, psend_init
from repro.mpi.rma import win_create
from repro.runtime import World
from repro.sim.sync import Lock

from tests.helpers import run_ranks

QUIET = CheckConfig(emit_warnings=False)


def checked_world(num_nodes=2, config=QUIET, **kw):
    return World(num_nodes=num_nodes, procs_per_node=1, check=config, **kw)


def rules_fired(world):
    return set(world.check_report().counts())


# ---------------------------------------------------------------- CHK101

def test_chk101_request_race_fires():
    world = checked_world()

    def rank0(proc):
        req = yield from proc.comm_world.Isend(np.zeros(4), dest=1, tag=0)

        def poker():
            req.test()
            yield proc.sim.timeout(0)

        t1 = proc.spawn(poker(), name="poker1")
        t2 = proc.spawn(poker(), name="poker2")
        yield proc.sim.all_of([t1, t2])
        yield from req.wait()

    def rank1(proc):
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)

    run_ranks(world, rank0, rank1)
    assert "CHK101" in rules_fired(world)


def test_chk101_not_fired_when_joined():
    """Sequential wait-after-test in one task is ordered: no race."""
    world = checked_world()

    def rank0(proc):
        req = yield from proc.comm_world.Isend(np.zeros(4), dest=1, tag=0)
        req.test()
        yield from req.wait()

    def rank1(proc):
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)

    run_ranks(world, rank0, rank1)
    assert world.check_report().clean


# ---------------------------------------------------------------- CHK102

def test_chk102_channel_collision_fires():
    world = checked_world()

    def rank0(proc):
        comm = proc.comm_world

        def sender(i):
            req = yield from comm.Isend(np.full(2, float(i)), dest=1, tag=7)
            yield from req.wait()

        t1 = proc.spawn(sender(1), name="s1")
        t2 = proc.spawn(sender(2), name="s2")
        yield proc.sim.all_of([t1, t2])

    def rank1(proc):
        buf = np.zeros(2)
        yield from proc.comm_world.Recv(buf, source=0, tag=7)
        yield from proc.comm_world.Recv(buf, source=0, tag=7)

    run_ranks(world, rank0, rank1)
    assert "CHK102" in rules_fired(world)


def test_chk102_distinct_tags_are_clean():
    world = checked_world()

    def rank0(proc):
        comm = proc.comm_world

        def sender(i):
            req = yield from comm.Isend(np.full(2, float(i)), dest=1, tag=i)
            yield from req.wait()

        t1 = proc.spawn(sender(1), name="s1")
        t2 = proc.spawn(sender(2), name="s2")
        yield proc.sim.all_of([t1, t2])

    def rank1(proc):
        buf = np.zeros(2)
        yield from proc.comm_world.Recv(buf, source=0, tag=1)
        yield from proc.comm_world.Recv(buf, source=0, tag=2)

    run_ranks(world, rank0, rank1)
    assert world.check_report().clean


# ---------------------------------------------------------------- CHK103

def test_chk103_lock_order_cycle_detected_at_finalize():
    world = checked_world(num_nodes=1)

    def rank0(proc):
        a = Lock(proc.sim, "A")
        b = Lock(proc.sim, "B")
        yield from a.acquire()
        yield from b.acquire()
        b.release()
        a.release()
        yield from b.acquire()
        yield from a.acquire()
        a.release()
        b.release()

    run_ranks(world, rank0)
    report = world.check_report()
    assert "CHK103" in report.counts()
    assert "deadlock" in report.render()


# ---------------------------------------------------------------- CHK104

def test_chk104_hint_violation_warn_mode_allows_wildcard():
    world = checked_world()
    info = Info({"mpi_assert_no_any_source": "1"})

    def rank0(proc):
        comm = yield from proc.comm_world.Dup(info)
        buf = np.zeros(2)
        yield from comm.Recv(buf, source=ANY_SOURCE, tag=0)
        assert buf[0] == 3.0

    def rank1(proc):
        comm = yield from proc.comm_world.Dup(info)
        yield from comm.Send(np.full(2, 3.0), dest=0, tag=0)

    run_ranks(world, rank0, rank1)
    assert "CHK104" in rules_fired(world)


def test_chk104_raise_mode_raises_check_error():
    world = checked_world(config=CheckConfig(mode="raise",
                                             emit_warnings=False))
    info = Info({"mpi_assert_no_any_source": "1"})

    def rank0(proc):
        comm = yield from proc.comm_world.Dup(info)
        yield from comm.Recv(np.zeros(2), source=ANY_SOURCE, tag=0)

    def rank1(proc):
        comm = yield from proc.comm_world.Dup(info)
        yield from comm.Send(np.zeros(2), dest=0, tag=0)

    with pytest.raises(CheckError):
        run_ranks(world, rank0, rank1)


def test_without_checker_hint_violation_raises_library_error():
    from repro.errors import HintViolationError
    world = World(num_nodes=2, procs_per_node=1)
    info = Info({"mpi_assert_no_any_source": "1"})

    def rank0(proc):
        comm = yield from proc.comm_world.Dup(info)
        yield from comm.Recv(np.zeros(2), source=ANY_SOURCE, tag=0)

    def rank1(proc):
        yield from proc.comm_world.Dup(info)

    with pytest.raises(HintViolationError):
        run_ranks(world, rank0, rank1)


# ------------------------------------------------------- CHK105 / CHK106

def test_chk105_partitioned_op_before_start():
    world = checked_world()

    def rank0(proc):
        buf = np.arange(4, dtype=np.float64)
        req = psend_init(proc.comm_world, buf, partitions=2, count=2,
                         dest=1, tag=0)
        yield from req.pready(0)  # never started: no-op under the checker

    def rank1(proc):
        yield proc.sim.timeout(0)

    run_ranks(world, rank0, rank1)
    assert "CHK105" in rules_fired(world)


def test_chk106_double_pready_is_noop_in_warn_mode():
    world = checked_world()

    def rank0(proc):
        buf = np.arange(4, dtype=np.float64)
        req = psend_init(proc.comm_world, buf, partitions=2, count=2,
                         dest=1, tag=0)
        yield from req.start()
        yield from req.pready(0)
        yield from req.pready(0)  # duplicate: recorded, then ignored
        yield from req.pready(1)
        yield from req.wait()

    def rank1(proc):
        buf = np.zeros(4)
        req = precv_init(proc.comm_world, buf, partitions=2, count=2,
                         source=0, tag=0)
        yield from req.start()
        yield from req.wait()
        assert np.allclose(buf, np.arange(4))

    run_ranks(world, rank0, rank1)
    assert "CHK106" in rules_fired(world)


# ------------------------------------------------------- CHK107 / CHK108

def test_chk107_double_lock_and_stray_unlock():
    world = checked_world()

    def rank0(proc):
        win = yield from win_create(proc.comm_world, np.zeros(8))
        yield from win.Lock(1)
        yield from win.Lock(1)     # double lock
        yield from win.Unlock(1)
        yield from win.Unlock(1)   # unlock without a matching lock

    def rank1(proc):
        yield from win_create(proc.comm_world, np.zeros(8))

    run_ranks(world, rank0, rank1)
    report = world.check_report()
    assert report.counts().get("CHK107") == 2
    assert len(report.by_rule("CHK107")) == 2


def test_chk108_overlapping_nonatomic_rma():
    world = checked_world()

    def rank0(proc):
        win = yield from win_create(proc.comm_world, np.zeros(8))

        def writer(value):
            yield from win.Put(np.full(4, value), target=1, disp=0)
            yield from win.Flush(1)

        t1 = proc.spawn(writer(1.0), name="w1")
        t2 = proc.spawn(writer(2.0), name="w2")
        yield proc.sim.all_of([t1, t2])

    def rank1(proc):
        yield from win_create(proc.comm_world, np.zeros(8))

    run_ranks(world, rank0, rank1)
    assert "CHK108" in rules_fired(world)


def test_chk108_disjoint_ranges_are_clean():
    world = checked_world()

    def rank0(proc):
        win = yield from win_create(proc.comm_world, np.zeros(8))

        def writer(value, disp):
            yield from win.Put(np.full(4, value), target=1, disp=disp)
            yield from win.Flush(1)

        t1 = proc.spawn(writer(1.0, 0), name="w1")
        t2 = proc.spawn(writer(2.0, 4), name="w2")
        yield proc.sim.all_of([t1, t2])

    def rank1(proc):
        yield from win_create(proc.comm_world, np.zeros(8))

    run_ranks(world, rank0, rank1)
    assert world.check_report().clean


# ------------------------------------------------------- CHK109 / CHK110

def test_chk109_leaked_request_reported_at_finalize():
    world = checked_world()

    def rank0(proc):
        yield from proc.comm_world.Irecv(np.zeros(2), source=1, tag=99)

    def rank1(proc):
        yield proc.sim.timeout(0)

    run_ranks(world, rank0, rank1)
    assert "CHK109" in rules_fired(world)


def test_chk110_unflushed_window_reported_at_finalize():
    world = checked_world()

    def rank0(proc):
        win = yield from win_create(proc.comm_world, np.zeros(8))
        yield from win.Put(np.arange(4, dtype=np.float64), target=1, disp=0)
        # no Flush/Unlock before the program ends

    def rank1(proc):
        yield from win_create(proc.comm_world, np.zeros(8))

    run_ranks(world, rank0, rank1)
    assert "CHK110" in rules_fired(world)


# ---------------------------------------------------------------- CHK111

def test_chk111_concurrent_collectives_still_raise():
    world = checked_world()

    def rank0(proc):
        comm = proc.comm_world

        def reducer():
            yield from comm.Allreduce(np.ones(2), np.zeros(2))

        t1 = proc.spawn(reducer(), name="c1")
        t2 = proc.spawn(reducer(), name="c2")
        yield proc.sim.all_of([t1, t2])

    def rank1(proc):
        yield from proc.comm_world.Allreduce(np.ones(2), np.zeros(2))

    with pytest.raises(MpiUsageError):
        run_ranks(world, rank0, rank1)
    assert "CHK111" in rules_fired(world)


# ----------------------------------------------------- modes and reports

def test_warn_mode_emits_check_warnings():
    world = checked_world(config=CheckConfig())  # emit_warnings=True

    def rank0(proc):
        req = psend_init(proc.comm_world, np.zeros(2), partitions=1,
                         count=2, dest=1, tag=0)
        yield from req.pready(0)

    def rank1(proc):
        yield proc.sim.timeout(0)

    with pytest.warns(CheckWarning, match="CHK105"):
        run_ranks(world, rank0, rank1)


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        CheckConfig(mode="explode")


def test_report_render_and_json_schema():
    world = checked_world()

    def rank0(proc):
        req = psend_init(proc.comm_world, np.zeros(2), partitions=1,
                         count=2, dest=1, tag=0)
        yield from req.pready(0)

    def rank1(proc):
        yield proc.sim.timeout(0)

    run_ranks(world, rank0, rank1)
    report = world.check_report()
    assert not report.clean
    text = report.render()
    assert text.startswith("== check") and "CHK105" in text
    data = json.loads(report.to_json())
    assert data["schema"] == 1
    assert data["violations"][0]["rule"] == "CHK105"
    assert data["counts"]["CHK105"] >= 1
    v = report.violations[0]
    assert v.rule_name == "partitioned-inactive"
    assert "CHK105" in v.describe()


def test_clean_report_on_unchecked_world():
    world = World(num_nodes=1, procs_per_node=1)
    assert world.check_report().clean


def test_max_violations_cap():
    world = checked_world(config=CheckConfig(emit_warnings=False,
                                             max_violations=1))

    def rank0(proc):
        req = psend_init(proc.comm_world, np.zeros(2), partitions=1,
                         count=2, dest=1, tag=0)
        yield from req.pready(0)
        yield from req.pready(0)
        yield from req.pready(0)

    def rank1(proc):
        yield proc.sim.timeout(0)

    run_ranks(world, rank0, rank1)
    assert len(world.checker.violations) == 1
    assert world.checker.dropped == 2


# ------------------------------------------------------- session default

def _chk105_program():
    """Builds one World with ``check=None`` and earns it one CHK105."""
    world = World(num_nodes=2, procs_per_node=1)

    def rank0(proc):
        req = psend_init(proc.comm_world, np.zeros(2), partitions=1,
                         count=2, dest=1, tag=0)
        yield from req.pready(0)

    def rank1(proc):
        yield proc.sim.timeout(0)

    run_ranks(world, rank0, rank1)
    return world


def test_checking_context_installs_default():
    with checking(CheckConfig(emit_warnings=False)) as session:
        _chk105_program()
    report = session.report()
    assert "CHK105" in report.counts()

    # outside the context, worlds are unchecked again
    assert World(num_nodes=1, procs_per_node=1).checker is None


def test_dropped_session_releases_its_worlds():
    """Nothing process-wide pins a checked world: once the session (never
    closed) and the caller let go, the world is collectable."""
    import gc
    import weakref

    with checking(QUIET) as session:
        ref = weakref.ref(_chk105_program())
    assert ref() is not None
    assert "CHK105" in session.report().counts()
    del session
    gc.collect()
    assert ref() is None


def test_nested_sessions_report_their_own_worlds():
    with checking(QUIET) as outer:
        first = _chk105_program()
        with checking(QUIET) as inner:
            second = _chk105_program()
            unchecked = World(num_nodes=1, procs_per_node=1, check=False)
        third = _chk105_program()
    assert outer.worlds == [first, third]
    assert inner.worlds == [second, unchecked]
    assert outer.report().counts() == {"CHK105": 2}
    assert inner.report().counts() == {"CHK105": 1}
    inner.close()  # "release now": a closed session reports empty
    assert inner.worlds == [] and inner.report().clean


def test_a_session_reports_in_its_own_mode(capsys):
    with checking(CheckConfig(mode="raise", emit_warnings=False)) as raising:
        pass
    assert raising.report().mode == "raise"  # not the (absent) innermost's
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "analyze",
                           "bad_request_race.py")
    assert main(["check", "--mode", "raise", "--json", fixture]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "raise" and "CHK101" in doc["counts"]


def test_check_restores_sys_argv(tmp_path):
    """``repro check`` hands the program its own ``sys.argv`` and puts the
    caller's back, also when the program raises."""
    seen = tmp_path / "argv.json"
    prog = tmp_path / "prog.py"
    prog.write_text("import json, sys\n"
                    f"json.dump(sys.argv, open({str(seen)!r}, 'w'))\n"
                    "if sys.argv[1:] == ['boom']:\n"
                    "    raise KeyError('boom')\n")
    before = list(sys.argv)
    assert main(["check", str(prog), "extra-arg"]) == 0
    assert sys.argv == before
    assert json.loads(seen.read_text()) == [str(prog), "extra-arg"]
    with pytest.raises(KeyError):
        main(["check", str(prog), "boom"])
    assert sys.argv == before


@pytest.mark.parametrize("code, status", [
    ("", 0), ("raise SystemExit", 0), ("raise SystemExit(0)", 0),
    ("raise SystemExit(3)", 3), ("raise SystemExit('bye')", 1)])
def test_run_program_maps_the_exit_status(tmp_path, code, status):
    prog = tmp_path / "prog.py"
    prog.write_text(code + "\n")
    assert run_program(str(prog), ["a"]) == status


# ----------------------------------------------- observer-only invariant

def _pingpong(world):
    def rank0(proc):
        comm = proc.comm_world
        buf = np.zeros(64)
        for i in range(8):
            yield from comm.Send(np.full(64, float(i)), dest=1, tag=i)
            yield from comm.Recv(buf, source=1, tag=i)

    def rank1(proc):
        comm = proc.comm_world
        buf = np.zeros(64)
        for i in range(8):
            yield from comm.Recv(buf, source=0, tag=i)
            yield from comm.Send(buf, dest=0, tag=i)

    run_ranks(world, rank0, rank1)
    return world.now


def test_checker_is_observer_only():
    """Simulated time with the checker enabled is byte-identical to an
    unchecked run — hooks never schedule events or charge time."""
    t_plain = _pingpong(World(num_nodes=2, procs_per_node=1))
    t_checked = _pingpong(checked_world())
    assert t_checked == t_plain


def test_disabled_rule_groups_do_not_fire():
    world = checked_world(config=CheckConfig(semantics=False,
                                             emit_warnings=False))

    def rank0(proc):
        win = yield from win_create(proc.comm_world, np.zeros(8))
        yield from win.Lock(1)
        yield from win.Lock(1)
        yield from win.Unlock(1)

    def rank1(proc):
        yield from win_create(proc.comm_world, np.zeros(8))

    run_ranks(world, rank0, rank1)
    assert "CHK107" not in rules_fired(world)


def test_rule_catalog_lookup():
    from repro.check import ALL_RULES, rule
    assert rule("CHK101").name == "request-race"
    assert rule("L201").name == "host-nondeterminism"
    ids = [r.id for r in ALL_RULES]
    assert len(ids) == len(set(ids))
    with pytest.raises(KeyError):
        rule("CHK999")


def test_warnings_suppressed_when_configured():
    world = checked_world()  # QUIET: emit_warnings=False

    def rank0(proc):
        req = psend_init(proc.comm_world, np.zeros(2), partitions=1,
                         count=2, dest=1, tag=0)
        yield from req.pready(0)

    def rank1(proc):
        yield proc.sim.timeout(0)

    with warnings.catch_warnings():
        warnings.simplefilter("error", CheckWarning)
        run_ranks(world, rank0, rank1)
    assert "CHK105" in rules_fired(world)
