"""RMA window tests (repro.mpi.rma)."""

import hashlib

import numpy as np
import pytest

from repro.check import CheckConfig, Checker
from repro.errors import MpiUsageError, RmaSemanticsError
from repro.mpi import Info
from repro.mpi.coll.ops import MAX, SUM
from repro.mpi.endpoints import comm_create_endpoints
from repro.mpi.rma import win_create
from repro.snap import capture_state, state_digest
from tests.helpers import flat_world, run_ranks, run_same


def test_put_and_flush(world2):
    def origin(proc):
        win = yield from win_create(proc.comm_world, np.zeros(8))
        yield from win.Put(np.arange(4, dtype=np.float64), target=1, disp=1)
        yield from win.Flush(1)
        yield from win.Fence()

    def target(proc):
        mem = np.zeros(8)
        win = yield from win_create(proc.comm_world, mem)
        yield from win.Fence()
        assert np.allclose(mem[1:5], np.arange(4))
        assert mem[0] == 0 and np.allclose(mem[5:], 0)

    run_ranks(world2, origin, target)


def test_get_roundtrip(world2):
    def origin(proc):
        win = yield from win_create(proc.comm_world, np.zeros(8))
        got = np.zeros(3)
        req = yield from win.Get(got, target=1, disp=2)
        yield from req.wait()
        assert np.allclose(got, [20.0, 30.0, 40.0])
        yield from win.Fence()

    def target(proc):
        mem = np.arange(8, dtype=np.float64) * 10
        win = yield from win_create(proc.comm_world, mem)
        yield from win.Fence()

    run_ranks(world2, origin, target)


def test_accumulate_sums_atomically(world2):
    """Concurrent accumulates from many threads to the same location must
    all land (atomicity)."""
    nthreads = 8

    def origin(proc):
        win = yield from win_create(proc.comm_world, np.zeros(4))

        def thread(i):
            yield from win.Accumulate(np.full(2, 1.0), target=1, disp=0,
                                      op=SUM)

        tasks = [proc.spawn(thread(i)) for i in range(nthreads)]
        yield proc.sim.all_of(tasks)
        yield from win.Flush(1)
        yield from win.Fence()

    def target(proc):
        mem = np.zeros(4)
        win = yield from win_create(proc.comm_world, mem)
        yield from win.Fence()
        assert np.allclose(mem[:2], nthreads)

    run_ranks(world2, origin, target)


def test_accumulate_with_max(world2):
    def origin(proc):
        win = yield from win_create(proc.comm_world, np.zeros(2))
        yield from win.Accumulate(np.array([5.0, 1.0]), target=1, disp=0,
                                  op=MAX)
        yield from win.Accumulate(np.array([2.0, 9.0]), target=1, disp=0,
                                  op=MAX)
        yield from win.Fence()

    def target(proc):
        mem = np.zeros(2)
        win = yield from win_create(proc.comm_world, mem)
        yield from win.Fence()
        assert np.allclose(mem, [5.0, 9.0])

    run_ranks(world2, origin, target)


def test_fetch_and_op_returns_old_value(world2):
    def origin(proc):
        win = yield from win_create(proc.comm_world, np.zeros(2))
        res = np.zeros(1)
        req = yield from win.Fetch_and_op(np.full(1, 4.0), res, target=1,
                                          disp=0, op=SUM)
        yield from req.wait()
        assert res[0] == 100.0
        req = yield from win.Fetch_and_op(np.full(1, 4.0), res, target=1,
                                          disp=0, op=SUM)
        yield from req.wait()
        assert res[0] == 104.0
        yield from win.Fence()

    def target(proc):
        mem = np.array([100.0, 0.0])
        win = yield from win_create(proc.comm_world, mem)
        yield from win.Fence()
        assert mem[0] == 108.0

    run_ranks(world2, origin, target)


def test_lock_unlock_epoch(world2):
    def origin(proc):
        win = yield from win_create(proc.comm_world, np.zeros(4))
        yield from win.Lock(1)
        yield from win.Put(np.full(2, 6.0), target=1, disp=0)
        yield from win.Unlock(1)  # flushes
        yield from win.Fence()

    def target(proc):
        mem = np.zeros(4)
        win = yield from win_create(proc.comm_world, mem)
        yield from win.Fence()
        assert np.allclose(mem[:2], 6.0)

    run_ranks(world2, origin, target)


def test_bounds_checked_against_target_size(world2):
    """Windows may expose different sizes per rank; bounds use the
    target's size."""
    def origin(proc):
        win = yield from win_create(proc.comm_world, np.zeros(2))
        assert win.sizes == [2, 10]
        yield from win.Put(np.zeros(10), target=1, disp=0)  # fits
        with pytest.raises(RmaSemanticsError):
            yield from win.Put(np.zeros(11), target=1, disp=0)
        with pytest.raises(RmaSemanticsError):
            yield from win.Put(np.zeros(2), target=1, disp=9)
        yield from win.Fence()

    def target(proc):
        win = yield from win_create(proc.comm_world, np.zeros(10))
        yield from win.Fence()

    run_ranks(world2, origin, target)


def test_invalid_target_rejected(world2):
    def origin(proc):
        win = yield from win_create(proc.comm_world, np.zeros(4))
        with pytest.raises(MpiUsageError):
            yield from win.Put(np.zeros(1), target=7, disp=0)
        yield from win.Fence()

    def target(proc):
        win = yield from win_create(proc.comm_world, np.zeros(4))
        yield from win.Fence()

    run_ranks(world2, origin, target)


def test_flush_all_covers_multiple_targets():
    world = flat_world(3)

    def worker(proc):
        mem = np.zeros(4)
        win = yield from win_create(proc.comm_world, mem)
        if proc.rank == 0:
            yield from win.Put(np.full(1, 1.0), target=1, disp=0)
            yield from win.Put(np.full(1, 2.0), target=2, disp=0)
            yield from win.Flush_all()
        yield from win.Fence()
        if proc.rank == 1:
            assert mem[0] == 1.0
        if proc.rank == 2:
            assert mem[0] == 2.0

    run_same(world, worker)


def test_default_ordering_atomics_use_single_vci(world2):
    def origin(proc):
        info = Info({"mpich_rma_num_vcis": "8"})
        win = yield from win_create(proc.comm_world, np.zeros(1024), info)
        atomic_vcis = {win._vci_index(1, d, atomic=True)
                       for d in range(0, 1024, 64)}
        nonatomic_vcis = {win._vci_index(1, d, atomic=False)
                          for d in range(0, 1024, 64)}
        assert len(atomic_vcis) == 1           # pinned to the base VCI
        assert len(nonatomic_vcis) > 2          # puts/gets spread
        yield from win.Fence()

    def target(proc):
        win = yield from win_create(proc.comm_world, np.zeros(1024))
        yield from win.Fence()

    run_ranks(world2, origin, target)


def test_ordering_none_spreads_atomics_by_hash(world2):
    def origin(proc):
        info = Info({"accumulate_ordering": "none",
                     "mpich_rma_num_vcis": "8"})
        win = yield from win_create(proc.comm_world, np.zeros(8192), info)
        vcis = [win._vci_index(1, d, atomic=True) for d in range(0, 8192, 256)]
        assert len(set(vcis)) > 2               # spread...
        counts = {v: vcis.count(v) for v in set(vcis)}
        assert max(counts.values()) >= 2 or len(set(vcis)) < len(vcis) or True
        yield from win.Fence()

    def target(proc):
        win = yield from win_create(proc.comm_world, np.zeros(8192), None)
        yield from win.Fence()

    run_ranks(world2, origin, target)


def test_endpoint_window_ops_use_endpoint_vcis(world2):
    """Lesson 16: endpoints within one window — parallel AND atomic."""
    N = 3

    def main(proc):
        eps = yield from comm_create_endpoints(proc.comm_world, N)
        mem = np.zeros(16)  # one region shared by this process's endpoints

        # win_create is collective over *all* endpoints: drive each
        # endpoint's call from its own thread.
        def create(ep):
            win = yield from win_create(ep, mem)
            return win

        wins = yield proc.sim.all_of([proc.spawn(create(ep)) for ep in eps])
        used = {w._vci_index(target=0, disp=0, atomic=True) for w in wins}
        assert used == {ep.vci_map.my_vci for ep in eps}
        assert len(used) == N

        if proc.rank == 0:
            def thread(win, ep):
                # every endpoint accumulates into remote ep-rank N..2N-1
                yield from win.Accumulate(np.full(2, 1.0),
                                          target=N + ep.local_index, disp=0,
                                          op=SUM)
                yield from win.Flush(N + ep.local_index)
            tasks = [proc.spawn(thread(w, e)) for w, e in zip(wins, eps)]
            yield proc.sim.all_of(tasks)
        # Synchronize across processes on the parent communicator (the
        # endpoint-comm Fence would need every endpoint to participate).
        yield from proc.comm_world.Barrier()
        if proc.rank == 1:
            assert np.allclose(mem[:2], N)  # all three accumulated once
        return True

    assert run_same(world2, main) == [True, True]


# ----------------------------------------------------------------------
# Byte identity of the origin path, recorded on the commit before the six
# operations were folded onto one shared prologue (PR 18): the order of
# the origin's steps (checker hook and Request before the post timeout,
# pending-table entry after it), the per-operation ``meta`` key sets and
# the VCI an operation rides all enter these.
# ----------------------------------------------------------------------

#: operation -> (element count, atomic, write) as ``on_rma_op`` sees it.
RMA_OPS = {
    "Put": (3, False, True),
    "Get": (3, False, False),
    "Accumulate": (3, True, True),
    "Fetch_and_op": (1, True, True),
    "Get_accumulate": (3, True, True),
    "Compare_and_swap": (1, True, True),
}

RMA_WINDOWS = ("plain", "unordered", "endpoints")

_T = 2          # origin threads (= endpoints per process)
_ELEMS = 1024   # four hash blocks: the two threads land in different ones


def _disp(tid, k):
    return 256 * tid + 4 * k


def _issue(win, opname, target, tid, k, out):
    """One ``opname`` from thread ``tid`` (its ``k``-th); fetched values
    land in ``out``."""
    disp = _disp(tid, k)
    src = np.arange(3.0) + 10 * tid + k + 1
    if opname == "Put":
        yield from win.Put(src, target, disp)
        return
    if opname == "Accumulate":
        yield from win.Accumulate(src, target, disp, op=SUM)
        return
    if opname == "Get":
        req = yield from win.Get(out, target, disp)
    elif opname == "Fetch_and_op":
        req = yield from win.Fetch_and_op(src[:1], out[:1], target, disp,
                                          op=MAX)
    elif opname == "Get_accumulate":
        req = yield from win.Get_accumulate(src, out, target, disp, op=SUM)
    else:
        # k = 0 compares against what the target holds (swap), k = 1
        # against a stale value (no swap).
        compare = np.array([1000.0 + disp + k])
        req = yield from win.Compare_and_swap(compare, src[:1], out[:1],
                                              target, disp)
    yield from req.wait()


def _rma_scenario(opname, window, **world_kwargs):
    """Two threads of rank 0 each issue ``opname`` twice at rank 1, flush,
    and everyone meets at a barrier. Returns ``(steps, end time, sha-256
    of every window's and every result buffer's bytes, state digest)``."""
    world = flat_world(2, threads_per_proc=_T, **world_kwargs)
    mems = [np.arange(float(_ELEMS)) + 1000 * r for r in range(2)]
    outs = [np.zeros(3) for _ in range(2 * _T)]

    def main(proc):
        mem = mems[proc.rank]
        if window == "endpoints":
            eps = yield from comm_create_endpoints(proc.comm_world, _T)
            wins = yield proc.sim.all_of(
                [proc.spawn(win_create(ep, mem)) for ep in eps])
        else:
            info = None if window == "plain" else Info(
                {"accumulate_ordering": "none", "mpich_rma_num_vcis": "4"})
            win = yield from win_create(proc.comm_world, mem, info)
            wins = [win] * _T

        def thread(tid):
            target = _T + tid if window == "endpoints" else 1
            for k in range(2):
                yield from _issue(wins[tid], opname, target, tid, k,
                                  outs[2 * tid + k])
            yield from wins[tid].Flush(target)

        if proc.rank == 0:
            yield proc.sim.all_of([proc.spawn(thread(t))
                                   for t in range(_T)])
        yield from proc.comm_world.Barrier()

    run_same(world, main)
    sha = hashlib.sha256()
    for buf in mems + outs:
        sha.update(buf.tobytes())
    return (world.sim.steps, repr(world.now), sha.hexdigest()[:16],
            state_digest(capture_state(world))[:16])


#: (operation, window) -> (unchecked outcome, checked outcome).
RMA_IDENTITY = {
    ('Put', 'plain'): (
        (49, '4.28492e-06', 'b9748d9fb6ca1fc1', '312b76a5dc5c8f2d'),
        (49, '4.28492e-06', 'b9748d9fb6ca1fc1', '6a7b7c668e14cb03')),
    ('Put', 'unordered'): (
        (46, '3.91916e-06', 'b9748d9fb6ca1fc1', 'a8c582ad4fc9d9e5'),
        (46, '3.91916e-06', 'b9748d9fb6ca1fc1', '1b2a01a2283d9223')),
    ('Put', 'endpoints'): (
        (57, '3.91916e-06', 'b9748d9fb6ca1fc1', '48bc11f922880245'),
        (57, '3.91916e-06', 'b9748d9fb6ca1fc1', '59ad73b8ce4ccfba')),
    ('Get', 'plain'): (
        (50, '6.26836e-06', 'a037697d8651bac5', 'd9bc1052fd0c2835'),
        (50, '6.26836e-06', 'a037697d8651bac5', '996b979d28e79a4f')),
    ('Get', 'unordered'): (
        (48, '6.08836e-06', 'a037697d8651bac5', '7ea46574d67a0b86'),
        (48, '6.08836e-06', 'a037697d8651bac5', 'db86e69ec9a3a92e')),
    ('Get', 'endpoints'): (
        (59, '6.08836e-06', 'a037697d8651bac5', '4b546d48eae5ae39'),
        (59, '6.08836e-06', 'a037697d8651bac5', '5df645c4328bbbb7')),
    ('Accumulate', 'plain'): (
        (49, '4.28492e-06', '053e79387cc62dd4', '312b76a5dc5c8f2d'),
        (49, '4.28492e-06', '053e79387cc62dd4', '6a7b7c668e14cb03')),
    ('Accumulate', 'unordered'): (
        (46, '3.91916e-06', '053e79387cc62dd4', 'a8c582ad4fc9d9e5'),
        (46, '3.91916e-06', '053e79387cc62dd4', '1b2a01a2283d9223')),
    ('Accumulate', 'endpoints'): (
        (57, '3.91916e-06', '053e79387cc62dd4', '48bc11f922880245'),
        (57, '3.91916e-06', '053e79387cc62dd4', '59ad73b8ce4ccfba')),
    ('Fetch_and_op', 'plain'): (
        (50, '6.262999999999999e-06', '74c00c251b2da048', 'ecb9c71c33ed70e7'),
        (50, '6.262999999999999e-06', '74c00c251b2da048', 'bdb12501b5addd11')),
    ('Fetch_and_op', 'unordered'): (
        (48, '6.08352e-06', '74c00c251b2da048', '6e5b4c07f7897960'),
        (48, '6.08352e-06', '74c00c251b2da048', 'eeb0a4e8b759eca2')),
    ('Fetch_and_op', 'endpoints'): (
        (59, '6.08352e-06', '74c00c251b2da048', 'ac3a28b505754e64'),
        (59, '6.08352e-06', '74c00c251b2da048', 'd353e414eb6754c1')),
    ('Get_accumulate', 'plain'): (
        (50, '6.2775599999999996e-06', 'afed22ea89897851', '004846e3787ee811'),
        (50, '6.2775599999999996e-06', 'afed22ea89897851', '518b6ee53cea5c57')),
    ('Get_accumulate', 'unordered'): (
        (48, '6.09756e-06', 'afed22ea89897851', 'db18645b59ceecf6'),
        (48, '6.09756e-06', 'afed22ea89897851', 'a13f52e6a59a06c9')),
    ('Get_accumulate', 'endpoints'): (
        (59, '6.09756e-06', 'afed22ea89897851', '66d3d30292724068'),
        (59, '6.09756e-06', 'afed22ea89897851', 'e165a5f9706e0b7d')),
    ('Compare_and_swap', 'plain'): (
        (50, '6.262999999999999e-06', '019d1c57a54fce28', 'ecb9c71c33ed70e7'),
        (50, '6.262999999999999e-06', '019d1c57a54fce28', 'bdb12501b5addd11')),
    ('Compare_and_swap', 'unordered'): (
        (48, '6.08352e-06', '019d1c57a54fce28', '6e5b4c07f7897960'),
        (48, '6.08352e-06', '019d1c57a54fce28', 'eeb0a4e8b759eca2')),
    ('Compare_and_swap', 'endpoints'): (
        (59, '6.08352e-06', '019d1c57a54fce28', 'ac3a28b505754e64'),
        (59, '6.08352e-06', '019d1c57a54fce28', 'd353e414eb6754c1')),
}


def test_rma_identity_covers_every_operation_and_window():
    assert set(RMA_IDENTITY) == {(op, win) for op in RMA_OPS
                                 for win in RMA_WINDOWS}


@pytest.mark.parametrize("opname,window", sorted(RMA_IDENTITY))
def test_rma_origin_path_is_byte_identical(opname, window):
    assert _rma_scenario(opname, window) == RMA_IDENTITY[opname, window][0]


@pytest.mark.parametrize("opname,window", sorted(RMA_IDENTITY))
def test_checked_rma_origin_path_is_byte_identical(opname, window,
                                                   monkeypatch):
    """Same bytes under the checker, and ``on_rma_op`` hears every
    operation once, with the arguments the operation was called with, in
    issue order (thread 0 then thread 1, first operations first)."""
    calls = []
    hook = Checker.__dict__["on_rma_op"]

    def recorded(self, win, *args, **kwargs):
        calls.append((win.comm.rank, args, kwargs))
        return hook(self, win, *args, **kwargs)

    monkeypatch.setattr(Checker, "on_rma_op", recorded)
    outcome = _rma_scenario(opname, window,
                            check=CheckConfig(emit_warnings=False))
    assert outcome == RMA_IDENTITY[opname, window][1]
    count, atomic, write = RMA_OPS[opname]
    assert calls == [
        (tid if window == "endpoints" else 0,
         (opname, _T + tid if window == "endpoints" else 1, _disp(tid, k),
          count),
         dict(atomic=atomic, write=write))
        for k in range(2) for tid in range(_T)]
