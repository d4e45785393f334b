"""Where the checker keeps its state, and what that must never depend on.

Analysis state lives on the object it describes (a task's clock on its
``Process``, a primitive's published clock on the primitive, a request's
last access and completion edges on the ``Request``, a window's epochs
and last accesses on the ``Window``) and identity is a per-simulator
serial, never ``id()``. Three regressions follow from the time it was
otherwise — each fails on the commit before:

- a primitive allocated at a freed primitive's address inherited its
  clock: a happens-before edge nobody created, which hides races;
- CHK103 printed whichever rotation of a cycle started at the lock with
  the lowest address;
- per-request state was never dropped, so a checked run's memory grew
  with its message count.
"""

import gc
import types

import numpy as np
import pytest

from repro.check import CheckConfig
from repro.mpi.rma import win_create
from repro.runtime import World
from repro.sim import Simulator
from repro.sim.sync import Lock

from tests.helpers import checked_msgrate_world, run_ranks

QUIET = CheckConfig(emit_warnings=False)


# --------------------------------------- (a) a recycled address is a new lock

def test_lock_at_a_recycled_address_carries_no_clock():
    """Task 1 sends, then takes and drops a short-lived lock; task 2
    takes a *new* lock that happens to sit at the same address, then
    sends on the same channel. Nothing orders the two sends."""
    world = World(num_nodes=2, procs_per_node=1, check=QUIET)
    reborn = []

    def rank0(proc):
        comm = proc.comm_world

        def first():
            req = yield from comm.Isend(np.zeros(2), dest=1, tag=7)
            yield from req.wait()
            lock = Lock(proc.sim, "short-lived")
            yield from lock.acquire()
            lock.release()                   # publishes this task's clock
            address = id(lock)
            del lock                         # ... and frees the lock
            spares = []
            for _ in range(64):
                candidate = Lock(proc.sim, "reborn")
                if id(candidate) == address:
                    reborn.append(candidate)
                    break
                spares.append(candidate)

        def second():
            yield proc.sim.timeout(1e-3)     # later, but ordered by nothing
            if reborn:
                yield from reborn[0].acquire()
                req = yield from comm.Isend(np.ones(2), dest=1, tag=7)
                yield from req.wait()

        tasks = [proc.spawn(first(), name="first"),
                 proc.spawn(second(), name="second")]
        yield proc.sim.all_of(tasks)

    def rank1(proc):
        buf = np.zeros(2)
        for _ in range(2 if reborn else 1):
            yield from proc.comm_world.Recv(buf, source=0, tag=7)

    world.procs[0].spawn(rank0(world.procs[0]))
    world.run()
    if not reborn:
        pytest.skip("the allocator never handed the freed address out again")
    world.procs[1].spawn(rank1(world.procs[1]))
    world.run()
    report = world.check_report()
    assert report.counts() == {"CHK102": 1}
    (violation,) = report.violations
    assert violation.task == "second"
    assert violation.extra["other_task"] == "first"


# -------------------------------- (b) CHK103 names locks by creation order

def _lock_pair(sim, b_above_a: bool):
    """Locks ``A`` then ``B``, created in that order, with ``B`` at a
    higher (or lower) address than ``A``; None if the allocator will not
    produce the arrangement."""
    spares = [Lock(sim, "spare") for _ in range(16)]
    a = Lock(sim, "A")
    del spares[::2]                          # holes below and above A
    keep = []
    for _ in range(64):
        b = Lock(sim, "B")
        if (id(b) > id(a)) == b_above_a:
            return a, b
        keep.append(b)
    return None


def _cycle_text(b_above_a: bool):
    world = World(num_nodes=1, procs_per_node=1, check=QUIET)
    pair = _lock_pair(world.sim, b_above_a)
    if pair is None:
        return None
    a, b = pair

    def rank0(proc):
        for outer, inner in ((a, b), (b, a)):
            yield from outer.acquire()
            yield from inner.acquire()
            inner.release()
            outer.release()

    run_ranks(world, rank0)
    (violation,) = world.check_report().violations
    assert violation.rule_id == "CHK103"
    return violation.message


def test_chk103_text_does_not_depend_on_lock_addresses():
    texts = [_cycle_text(True), _cycle_text(False)]
    if None in texts:
        pytest.skip("the allocator would not place B on both sides of A")
    assert texts[0] == texts[1]
    # Rooted at the older lock, whichever address it has.
    assert "deadlock): A -> B (task" in texts[0]


def test_lock_serials_number_a_simulators_locks_in_creation_order():
    first, second = Simulator(), Simulator()
    assert [Lock(first).serial for _ in range(3)] == [0, 1, 2]
    assert Lock(second).serial == 0          # per simulator, like rids


# ------------------------------ (c) per-request state dies with the request

def _reachable_from_checker(msgs_per_core: int) -> int:
    """Objects reachable from the finished checker of one Fig 1(a)
    point, not looking through the simulator it observes. Integers are
    not counted: a counter above 256 is its own object where a smaller
    one is the interpreter's shared instance."""
    world = checked_msgrate_world("threads-original",
                                  msgs_per_core=msgs_per_core)
    checker = world.checker
    assert checker.finalize().clean
    opaque = (int, type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType)
    seen = {id(checker.sim)}
    stack = [checker]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def test_checker_state_does_not_grow_with_the_message_count():
    small, large = _reachable_from_checker(8), _reachable_from_checker(64)
    assert 0 < large <= small


# ------------------------------------ (d) a window's state is on the window

def test_rma_epochs_and_last_accesses_live_on_the_window():
    """CHK107's open epochs and CHK108's last write/read per target used
    to sit in checker dicts keyed by ``id(win)``: the last ``id()`` key."""
    world = World(num_nodes=2, procs_per_node=1, check=QUIET)
    windows = {}

    def rank(proc):
        win = yield from win_create(proc.comm_world, np.zeros(8))
        windows[proc.rank] = win
        if proc.rank == 0:
            yield from win.Lock(1)
            yield from win.Put(np.ones(4), target=1, disp=2)
            assert win._hb_locked == {1}
            yield from win.Unlock(1)
            yield from win.Get(np.zeros(2), target=1, disp=0)
            yield from win.Flush(1)

    run_ranks(world, rank, rank)
    checker = world.checker
    assert [v.rule_id for v in checker.finalize().violations] == ["CHK107"]
    assert not [name for name in vars(checker) if "rma" in name]
    origin, target = windows[0], windows[1]
    assert origin._hb_epochs_used and origin._hb_locked == set()
    (pid, counter, task), lo, hi = origin._hb_last_write[1]
    assert (lo, hi) == (2, 6) and counter > 0
    assert origin._hb_last_read[1][1:] == (0, 2)
    assert origin._hb_last_read[1][0][::2] == (pid, task)
    assert not target._hb_epochs_used
    assert target._hb_last_write == target._hb_last_read == {}
