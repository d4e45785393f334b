"""Tests for the extended MPI surface: Split, Sendrecv, Probe, persistent
requests, additional collectives, RMA read-modify-write, partitioned
range/list helpers, and the Rankpoints alias."""

import dataclasses

import numpy as np
import pytest

from repro.check import CheckConfig
from repro.errors import MpiUsageError
from repro.mpi import ANY_SOURCE, ANY_TAG
from repro.mpi.coll.ops import MAX, SUM
from repro.mpi.endpoints import comm_create_endpoints, comm_create_rankpoints
from repro.mpi.partitioned import precv_init, psend_init
from repro.mpi.persistent import recv_init, send_init
from repro.mpi.request import Request, startall, waitall
from repro.mpi.rma import win_create
from repro.runtime import World

from tests.helpers import run_ranks, run_same


# ---------------------------------------------------------------- Split

def test_split_by_parity():
    world = World(num_nodes=6, procs_per_node=1)

    def worker(proc):
        sub = yield from proc.comm_world.Split(color=proc.rank % 2,
                                               key=proc.rank)
        assert sub.size == 3
        assert sub.rank == proc.rank // 2
        # subgroup members share data among themselves only
        out = np.zeros(1)
        yield from sub.Allreduce(np.full(1, float(proc.rank)), out)
        expected = sum(r for r in range(6) if r % 2 == proc.rank % 2)
        assert out[0] == expected
        return sub.context_id

    ctxs = run_same(world, worker)
    assert ctxs[0] == ctxs[2] == ctxs[4]
    assert ctxs[1] == ctxs[3] == ctxs[5]
    assert ctxs[0] != ctxs[1]


def test_split_key_reorders_ranks():
    world = World(num_nodes=3, procs_per_node=1)

    def worker(proc):
        # reverse order via descending keys
        sub = yield from proc.comm_world.Split(color=0, key=-proc.rank)
        return sub.rank

    assert run_same(world, worker) == [2, 1, 0]


def test_split_undefined_color_returns_none():
    world = World(num_nodes=3, procs_per_node=1)

    def worker(proc):
        color = None if proc.rank == 1 else 0
        sub = yield from proc.comm_world.Split(color=color)
        if proc.rank == 1:
            assert sub is None
            return -1
        return sub.size

    assert run_same(world, worker) == [2, -1, 2]


# ------------------------------------------------------------ Sendrecv / Probe

def test_sendrecv_ring(world4):
    def worker(proc):
        n = 4
        right, left = (proc.rank + 1) % n, (proc.rank - 1) % n
        out = np.full(2, float(proc.rank))
        inc = np.zeros(2)
        status = yield from proc.comm_world.Sendrecv(
            out, right, 7, inc, left, 7)
        assert np.allclose(inc, left)
        assert status.source == left

    run_same(world4, worker)


def test_blocking_probe_waits(world2):
    def sender(proc):
        yield proc.compute(5e-6)
        yield from proc.comm_world.Send(np.full(3, 1.5), dest=1, tag=9)

    def receiver(proc):
        src, tag, size = yield from proc.comm_world.Probe(ANY_SOURCE, ANY_TAG)
        assert (src, tag, size) == (0, 9, 24)
        assert proc.sim.now >= 5e-6
        buf = np.zeros(3)
        yield from proc.comm_world.Recv(buf, src, tag)

    run_ranks(world2, sender, receiver)


# ------------------------------------------------------------ persistent

def test_persistent_send_recv_cycles(world2):
    cycles = 4

    def sender(proc):
        buf = np.zeros(4)
        req = send_init(proc.comm_world, buf, dest=1, tag=3)
        for c in range(cycles):
            buf[:] = c
            yield from req.start()
            yield from req.wait()
        assert req.cycles == cycles

    def receiver(proc):
        buf = np.zeros(4)
        req = recv_init(proc.comm_world, buf, source=0, tag=3)
        for c in range(cycles):
            yield from req.start()
            yield from req.wait()
            assert np.allclose(buf, c)

    run_ranks(world2, sender, receiver)


def test_persistent_recv_allows_wildcards(world2):
    """Unlike partitioned receives (Lesson 15), persistent receives keep
    MPI's wildcard semantics."""
    comm = world2.comm_world(0)
    req = recv_init(comm, np.zeros(1), source=ANY_SOURCE, tag=ANY_TAG)
    assert req.kind == "recv"
    with pytest.raises(MpiUsageError):
        precv_init(comm, np.zeros(2), 2, 1, source=ANY_SOURCE, tag=0)


def test_persistent_double_start_rejected(world2):
    def sender(proc):
        req = send_init(proc.comm_world, np.zeros(2), dest=1, tag=0)
        yield from req.start()
        with pytest.raises(MpiUsageError):
            yield from req.start()
        yield from req.wait()

    def receiver(proc):
        buf = np.zeros(2)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)

    run_ranks(world2, sender, receiver)


def test_persistent_startall_waitall(world2):
    def sender(proc):
        bufs = [np.full(2, float(k)) for k in range(3)]
        reqs = [send_init(proc.comm_world, bufs[k], dest=1, tag=k)
                for k in range(3)]
        yield from startall(reqs)
        yield from waitall(reqs)

    def receiver(proc):
        reqs = []
        bufs = []
        for k in range(3):
            buf = np.zeros(2)
            bufs.append(buf)
            reqs.append(recv_init(proc.comm_world, buf, source=0, tag=k))
        yield from startall(reqs)
        yield from waitall(reqs)
        for k in range(3):
            assert np.allclose(bufs[k], k)

    run_ranks(world2, sender, receiver)


def test_persistent_wait_before_start_rejected(world2):
    req = send_init(world2.comm_world(0), np.zeros(1), dest=1, tag=0)

    def t(proc):
        with pytest.raises(MpiUsageError):
            yield from req.wait()

    world2.run_all([world2.procs[0].spawn(t(world2.procs[0]))])


# ------------------------------------------------------------ collectives

@pytest.mark.parametrize("n,root", [(2, 0), (4, 1), (5, 3), (8, 0)])
def test_gather(n, root):
    world = World(num_nodes=n, procs_per_node=1)

    def worker(proc):
        rb = np.zeros(2 * n) if proc.rank == root else None
        yield from proc.comm_world.Gather(
            np.full(2, float(proc.rank)), rb, root=root)
        if proc.rank == root:
            assert np.allclose(rb, np.repeat(np.arange(n), 2))

    run_same(world, worker)


@pytest.mark.parametrize("n,root", [(2, 1), (4, 0), (5, 2), (8, 7)])
def test_scatter(n, root):
    world = World(num_nodes=n, procs_per_node=1)

    def worker(proc):
        sb = np.arange(3.0 * n) if proc.rank == root else None
        out = np.zeros(3)
        yield from proc.comm_world.Scatter(sb, out, root=root)
        assert np.allclose(out, 3 * proc.rank + np.arange(3.0))

    run_same(world, worker)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_scan_inclusive(n):
    world = World(num_nodes=n, procs_per_node=1)

    def worker(proc):
        out = np.zeros(2)
        yield from proc.comm_world.Scan(np.full(2, float(proc.rank + 1)),
                                        out)
        assert np.allclose(out, (proc.rank + 1) * (proc.rank + 2) / 2)

    run_same(world, worker)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_reduce_scatter_block(n):
    world = World(num_nodes=n, procs_per_node=1)

    def worker(proc):
        send = np.arange(2.0 * n) + 10 * proc.rank
        out = np.zeros(2)
        yield from proc.comm_world.Reduce_scatter_block(send, out)
        base = np.arange(2.0) + 2 * proc.rank
        expected = sum(base + 10 * r for r in range(n))
        assert np.allclose(out, expected)

    run_same(world, worker)


def test_gather_root_needs_buffer():
    world = World(num_nodes=2, procs_per_node=1)

    def worker(proc):
        if proc.rank == 0:
            with pytest.raises(MpiUsageError):
                yield from proc.comm_world.Gather(np.zeros(1), None, root=0)
        else:
            yield from proc.comm_world.Gather(np.zeros(1), None, root=0)

    tasks = [world.procs[i].spawn(worker(world.procs[i])) for i in range(2)]
    world.run(max_steps=100000)
    assert tasks[0].triggered


def test_scan_with_max():
    world = World(num_nodes=4, procs_per_node=1)
    values = [3.0, 1.0, 7.0, 2.0]

    def worker(proc):
        out = np.zeros(1)
        yield from proc.comm_world.Scan(np.full(1, values[proc.rank]), out,
                                        op=MAX)
        assert out[0] == max(values[: proc.rank + 1])

    run_same(world, worker)


# ------------------------------------------------------------ RMA extras

def test_get_accumulate(world2):
    def origin(proc):
        win = yield from win_create(proc.comm_world, np.zeros(4))
        res = np.zeros(2)
        req = yield from win.Get_accumulate(np.full(2, 5.0), res, target=1,
                                            disp=1, op=SUM)
        yield from req.wait()
        assert np.allclose(res, [10.0, 20.0])  # old values fetched
        yield from win.Fence()

    def target(proc):
        mem = np.array([0.0, 10.0, 20.0, 0.0])
        win = yield from win_create(proc.comm_world, mem)
        yield from win.Fence()
        assert np.allclose(mem, [0.0, 15.0, 25.0, 0.0])

    run_ranks(world2, origin, target)


def test_compare_and_swap_success_and_failure(world2):
    def origin(proc):
        win = yield from win_create(proc.comm_world, np.zeros(1))
        res = np.zeros(1)
        # matching compare: swap happens
        req = yield from win.Compare_and_swap(
            np.array([7.0]), np.array([99.0]), res, target=1, disp=0)
        yield from req.wait()
        assert res[0] == 7.0
        # stale compare: no swap
        req = yield from win.Compare_and_swap(
            np.array([7.0]), np.array([123.0]), res, target=1, disp=0)
        yield from req.wait()
        assert res[0] == 99.0
        yield from win.Fence()

    def target(proc):
        mem = np.array([7.0])
        win = yield from win_create(proc.comm_world, mem)
        yield from win.Fence()
        assert mem[0] == 99.0

    run_ranks(world2, origin, target)


def test_compare_and_swap_compares_integers_exactly(world2):
    """Regression: the compare value crossed the wire as a double, so on
    an int64 window a target holding 2**53 + 1 "equalled" 2**53 — the
    nearest double of both — and was swapped."""
    held, stale = 2**53 + 1, 2**53
    assert np.int64(held) == float(stale)  # the comparison that went wrong

    def origin(proc):
        win = yield from win_create(proc.comm_world,
                                    np.zeros(1, dtype=np.int64))
        res = np.zeros(1, dtype=np.int64)
        req = yield from win.Compare_and_swap(
            np.array([stale]), np.array([5]), res, target=1, disp=0)
        yield from req.wait()
        assert res[0] == held
        req = yield from win.Compare_and_swap(
            np.array([held]), np.array([6]), res, target=1, disp=0)
        yield from req.wait()
        assert res[0] == held  # the first attempt swapped nothing
        yield from win.Fence()

    def target(proc):
        mem = np.array([held], dtype=np.int64)
        win = yield from win_create(proc.comm_world, mem)
        yield from win.Fence()
        assert mem[0] == 6

    run_ranks(world2, origin, target)


def test_lock_all_unlock_all(world2):
    def origin(proc):
        win = yield from win_create(proc.comm_world, np.zeros(2))
        yield from win.Lock_all()
        yield from win.Put(np.full(1, 4.0), target=1, disp=0)
        yield from win.Unlock_all()
        yield from win.Fence()

    def target(proc):
        mem = np.zeros(2)
        win = yield from win_create(proc.comm_world, mem)
        yield from win.Fence()
        assert mem[0] == 4.0

    run_ranks(world2, origin, target)


# ------------------------------------------------------------ partitioned

def test_pready_range_and_list(world2):
    def sender(proc):
        buf = np.arange(12.0)
        req = psend_init(proc.comm_world, buf, 6, 2, dest=1, tag=0)
        yield from req.start()
        yield from req.pready_range(0, 2)
        yield from req.pready_list([5, 3, 4])
        yield from req.wait()
        with pytest.raises(MpiUsageError):
            yield from req.pready_range(3, 1)

    def receiver(proc):
        buf = np.zeros(12)
        req = precv_init(proc.comm_world, buf, 6, 2, source=0, tag=0)
        yield from req.start()
        yield from req.wait()
        assert np.allclose(buf, np.arange(12.0))

    run_ranks(world2, sender, receiver)


# ------------------------------------------------------------ rankpoints

def test_rankpoints_alias(world2):
    """Section IV: MPI_Comm_create_rankpoints is the endpoints API under
    the user-facing name."""
    def main(proc):
        rps = yield from comm_create_rankpoints(proc.comm_world, 2)
        assert [r.rank for r in rps] == \
            ([0, 1] if proc.rank == 0 else [2, 3])

        def thread(rp):
            peer = (rp.rank + 2) % 4
            out = np.zeros(1)
            rreq = yield from rp.Irecv(out, peer, tag=0)
            sreq = yield from rp.Isend(np.full(1, float(rp.rank)), peer, 0)
            yield from rreq.wait()
            yield from sreq.wait()
            assert out[0] == peer

        yield proc.sim.all_of([proc.spawn(thread(rp)) for rp in rps])

    run_same(world2, main)


# ------------------------------------------------- waitall, mixed lists

@pytest.mark.parametrize("fail_after", [None, 1e-7, 8e-6])
def test_waitall_over_a_mixed_list(fail_after):
    """Rank 0 waits on: a receive already waited for, a pending one, a
    started persistent send, a started partitioned send, a request a
    timer fails after ``fail_after`` seconds (None: left out) — before
    ``waitall`` reaches it (1e-7) or while it waits on it (8e-6) — and
    one more receive. Statuses come back in order; the error is raised."""
    world = World(num_nodes=2, procs_per_node=1, seed=1,
                  check=CheckConfig(emit_warnings=False))
    sim = world.sim

    def fail(req):
        yield sim.timeout(fail_after)
        req.complete_with_error(ValueError("boom"))

    def rank0(proc):
        comm = proc.comm_world
        waited = yield from comm.Irecv(np.zeros(2), source=1, tag=1)
        yield from waited.wait()
        pending = yield from comm.Irecv(np.zeros(2), source=1, tag=2)
        persistent = send_init(comm, np.ones(2), dest=1, tag=3)
        yield from persistent.start()
        partitioned = psend_init(comm, np.ones(4), 2, 2, dest=1, tag=4)
        yield from partitioned.start()
        for i in range(2):
            yield from partitioned.pready(i)
        requests = [waited, pending, persistent, partitioned]
        if fail_after is not None:
            requests.append(Request(sim))
            proc.spawn(fail(requests[-1]))
        requests.append((yield from comm.Irecv(np.zeros(2), source=1,
                                               tag=5)))
        try:
            statuses = yield from waitall(requests)
        except ValueError as exc:
            return repr(exc)
        return [s and (s.source, s.tag) for s in statuses]

    def rank1(proc):
        comm = proc.comm_world
        partitioned = precv_init(comm, np.zeros(4), 2, 2, source=0, tag=4)
        yield from partitioned.start()
        yield from comm.Send(np.ones(2), dest=0, tag=1)
        yield sim.timeout(3e-6)
        yield from comm.Send(np.ones(2), dest=0, tag=2)
        yield from comm.Recv(np.zeros(2), source=0, tag=3)
        yield from partitioned.wait()
        yield sim.timeout(3e-6)
        yield from comm.Send(np.ones(2), dest=0, tag=5)

    result = run_ranks(world, rank0, rank1)[0]
    if fail_after is None:
        assert result == [(1, 1), (1, 2), (1, 3), None, (1, 5)]
        assert sim.checker.finalize().clean
    else:
        assert result == "ValueError('boom')"


# ------------------------------------------- Test: the lock it takes

#: lock held by another task? -> ((the lock's statistics, finish time),
#: what its observer heard from ``Test`` on): the ``Irecv`` and the
#: ``Test`` acquire a free lock; a held one costs the ``Test`` the
#: holder's remaining microsecond in the queue.
TEST_LOCK_HEARD = {
    False: (({"acquisitions": 2, "contended_acquisitions": 0,
              "total_wait_time": 0.0,
              "total_hold_time": 1.1500000000000001e-07,
              "max_queue_length": 0}, 6.25536e-06),
            [("acquire", 0.0, 0), ("hold", 7.5e-08, 0)]),
    True: (({"acquisitions": 3, "contended_acquisitions": 1,
             "total_wait_time": 1.0000000000000002e-06,
             "total_hold_time": 2.16e-06, "max_queue_length": 1},
            6.25536e-06),
           [("acquire", 0.0, 0), ("hold", 2e-06, 1),
            ("acquire", 1.0000000000000002e-06, 1),
            ("hold", 1.2000000000000012e-07, 0)]),
}


@pytest.mark.parametrize("held", [False, True])
def test_mpi_test_takes_the_vci_lock_like_any_other_call(held):
    """``Test`` on a free VCI lock takes it without a generator; on a
    held one it queues. Either way the lock's statistics, its observer
    and the checker hear what ``Lock.acquire`` would have told them
    (numbers recorded at the commit before the fast path)."""
    world = World(num_nodes=2, procs_per_node=1, seed=1,
                  check=CheckConfig(emit_warnings=False))
    sim = world.sim
    seen = []

    def rank0(proc):
        comm = proc.comm_world
        req = yield from comm.Irecv(np.zeros(2), source=1, tag=0)
        lock = req.vci.lock
        lock.observer = lambda *event: seen.append(event)

        def holder():
            yield from lock.acquire()
            yield sim.timeout(2e-6)
            lock.release()

        if held:
            proc.spawn(holder())
            yield sim.timeout(1e-6)
        assert lock.locked is held
        assert (yield from comm.Test(req)) is None
        yield from req.wait()
        return dataclasses.asdict(lock.stats), sim.now

    def rank1(proc):
        yield sim.timeout(5e-6)
        yield from proc.comm_world.Send(np.ones(2), dest=0, tag=0)

    outcome = run_ranks(world, rank0, rank1)[0]
    assert (outcome, seen) == TEST_LOCK_HEARD[held]
    assert world.sim.checker.finalize().clean
