"""Collective correctness tests across sizes (repro.mpi.coll): the
barrier, both allreduces, and the thread-team helpers."""

import hashlib

import numpy as np
import pytest

from repro.mpi.coll import SUM, Op, ThreadTeamReduce
from repro.mpi.coll.algorithms import (
    allreduce,
    recursive_doubling_rounds,
    ring_rounds,
)
from repro.mpi.endpoints import comm_create_endpoints
from repro.runtime import World

from tests.helpers import flat_world, run_same


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8])
def test_allreduce_sum_various_sizes(n):
    world = World(num_nodes=n, procs_per_node=1)

    def worker(proc):
        send = np.arange(6, dtype=np.float64) + proc.rank
        recv = np.zeros(6)
        yield from proc.comm_world.Allreduce(send, recv)
        expected = n * np.arange(6) + n * (n - 1) / 2
        assert np.allclose(recv, expected), (proc.rank, recv, expected)

    run_same(world, worker)


#: Allreduce applies any commutative elementwise ``Op`` (MPI_Op_create);
#: the library itself defines only ``SUM``.
@pytest.mark.parametrize("op,expected", [
    (Op("max", np.maximum), 3.0), (Op("min", np.minimum), 0.0), (SUM, 6.0),
    (Op("prod", np.multiply), 0.0)])
def test_allreduce_ops(op, expected):
    world = World(num_nodes=4, procs_per_node=1)

    def worker(proc):
        recv = np.zeros(2)
        yield from proc.comm_world.Allreduce(
            np.full(2, float(proc.rank)), recv, op=op)
        assert np.allclose(recv, expected)

    run_same(world, worker)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_barrier_synchronizes(n):
    world = World(num_nodes=n, procs_per_node=1)
    release = {}

    def worker(proc):
        yield proc.compute(proc.rank * 1e-3)  # staggered arrival
        yield from proc.comm_world.Barrier()
        release[proc.rank] = proc.sim.now

    run_same(world, worker)
    slowest_arrival = (n - 1) * 1e-3
    assert all(t >= slowest_arrival for t in release.values())


def test_collective_takes_time_proportional_to_size():
    world = World(num_nodes=4, procs_per_node=1)
    times = {}

    def worker(proc):
        small = np.zeros(8)
        t0 = proc.sim.now
        yield from proc.comm_world.Allreduce(small, small.copy())
        t_small = proc.sim.now - t0
        big = np.zeros(1 << 18)
        t0 = proc.sim.now
        yield from proc.comm_world.Allreduce(big, big.copy())
        times[proc.rank] = (t_small, proc.sim.now - t0)

    run_same(world, worker)
    for t_small, t_big in times.values():
        assert t_big > 10 * t_small


# ------------------------------------------------- thread-team helpers

def test_thread_team_reduce():
    world = World(num_nodes=1, procs_per_node=1)
    proc = world.procs[0]
    nthreads = 4
    team = ThreadTeamReduce(proc, nthreads, SUM)
    bufs = [np.full(8, float(tid + 1)) for tid in range(nthreads)]

    def thread(tid):
        yield from team.reduce(tid, bufs[tid])

    tasks = [proc.spawn(thread(t)) for t in range(nthreads)]
    world.run_all(tasks)
    assert np.allclose(bufs[0], 1 + 2 + 3 + 4)


def test_thread_team_reduce_single_thread():
    world = World(num_nodes=1, procs_per_node=1)
    proc = world.procs[0]
    team = ThreadTeamReduce(proc, 1, SUM)
    buf = np.full(4, 5.0)

    def thread():
        yield from team.reduce(0, buf)

    world.run_all([proc.spawn(thread())])
    assert np.allclose(buf, 5.0)


# ------------------------------------------------- ring allreduce

@pytest.mark.parametrize("n,count", [(2, 10), (3, 7), (5, 100), (8, 64)])
def test_ring_allreduce_matches_recursive_doubling(n, count):
    """Both schedules agree for float and integer buffers (an integer
    ring once reduced through a float64 scratch buffer and crashed)."""
    for dtype in (np.float64, np.int64, np.int32):
        results = {}
        for schedule in (ring_rounds, recursive_doubling_rounds):
            world = World(num_nodes=n, procs_per_node=1)
            outs = {}

            def worker(proc):
                out = np.zeros(count, dtype=dtype)
                yield from allreduce(
                    proc.comm_world,
                    np.arange(count, dtype=dtype) + proc.rank, out, SUM,
                    schedule)
                outs[proc.rank] = out

            run_same(world, worker)
            results[schedule] = outs
        expected = n * np.arange(count, dtype=dtype) + n * (n - 1) // 2
        for r in range(n):
            assert results[ring_rounds][r].dtype == dtype
            assert np.array_equal(results[ring_rounds][r], expected)
            assert np.array_equal(results[recursive_doubling_rounds][r],
                                  expected)


def test_integer_allreduce_beyond_the_ring_threshold():
    """64 KiB of int64 on 3 ranks picks the ring, which keeps the dtype."""
    world = World(num_nodes=3, procs_per_node=1)

    def worker(proc):
        out = np.zeros(8192, dtype=np.int64)
        yield from proc.comm_world.Allreduce(
            np.arange(8192, dtype=np.int64) * (proc.rank + 1), out)
        assert np.array_equal(out, 6 * np.arange(8192, dtype=np.int64))

    run_same(world, worker)


def test_allreduce_switches_to_ring_for_large_buffers():
    """Beyond the threshold the ring's bandwidth optimality makes large
    allreduces cheaper than recursive doubling on >2 ranks."""
    n, count = 8, 1 << 16  # 512 KiB

    def timed(schedule):
        world = World(num_nodes=n, procs_per_node=1)

        def worker(proc):
            out = np.zeros(count)
            yield from allreduce(proc.comm_world, np.ones(count), out, SUM,
                                 schedule)
            assert np.allclose(out, n)

        run_same(world, worker)
        return world.now

    assert timed(ring_rounds) < timed(recursive_doubling_rounds)


def test_small_allreduce_stays_recursive_doubling():
    """Below the threshold latency wins: Allreduce must not pay the ring's
    2(n-1) steps for tiny payloads."""
    world = World(num_nodes=8, procs_per_node=1)

    def worker(proc):
        out = np.zeros(4)
        yield from proc.comm_world.Allreduce(np.ones(4), out)
        assert np.allclose(out, 8.0)

    run_same(world, worker)
    small_time = world.now

    world2 = World(num_nodes=8, procs_per_node=1)

    def worker2(proc):
        out = np.zeros(4)
        yield from allreduce(proc.comm_world, np.ones(4), out, SUM,
                             ring_rounds)

    run_same(world2, worker2)
    assert small_time < world2.now


# ----------------------------------------------------------------------
# Byte identity of ``Endpoint.Allreduce``, recorded on the commit before
# its internode phase became a call into the shared recursive-doubling
# core (PR 18). ``elems < T`` leaves some endpoints an *empty* segment:
# they still exchange (zero-byte messages) and still yield a zero-cost
# reduction timeout — one kernel event each, which the step counts pin.
# ----------------------------------------------------------------------

def _endpoint_allreduce(P, T, elems):
    """``(steps, end time, sha-256 of every endpoint's result bytes)``."""
    world = flat_world(P, threads_per_proc=T)
    contribs = np.random.default_rng(P * 100 + T * 10 + elems).normal(
        size=(P * T, elems))
    outs = [np.zeros(elems) for _ in range(P * T)]

    def main(proc):
        eps = yield from comm_create_endpoints(proc.comm_world, T)

        def thread(ep):
            yield from ep.Allreduce(contribs[ep.rank].copy(), outs[ep.rank],
                                    op=SUM)

        yield proc.sim.all_of([proc.spawn(thread(ep)) for ep in eps])

    run_same(world, main)
    for out in outs:
        assert np.allclose(out, contribs.sum(axis=0))
    sha = hashlib.sha256(b"".join(out.tobytes() for out in outs))
    return world.sim.steps, repr(world.now), sha.hexdigest()[:16]


#: (processes, endpoints per process, elements) -> pinned outcome.
ENDPOINT_ALLREDUCE = {
    (2, 1, 1): (40, '1.49556e-06', '12a46a6b8a064a12'),
    (2, 1, 16): (40, '1.5478399999999999e-06', '0c9bcaef06e3bc28'),
    (2, 2, 1): (68, '1.5603199999999998e-06', 'dd3c8f2d26bf1d92'),
    (2, 2, 2): (68, '1.56376e-06', 'a403764691f253ac'),
    (2, 2, 32): (68, '1.67312e-06', '5cc99c90f9cdf86a'),
    (2, 3, 1): (96, '1.62732e-06', '008905ff669db322'),
    (2, 3, 3): (96, '1.6343599999999997e-06', '18c41b0510989f74'),
    (2, 3, 48): (96, '1.8368000000000001e-06', 'c62c8466048d6a0c'),
    (3, 1, 1): (67, '3.0898e-06', '4ae58fc5dff63410'),
    (3, 1, 16): (67, '3.1919599999999994e-06', 'd1f66828a7858dde'),
    (3, 2, 1): (117, '3.1553599999999996e-06', 'fb536422719456dd'),
    (3, 2, 2): (117, '3.158e-06', '117908b2131d468a'),
    (3, 2, 32): (117, '3.31724e-06', 'fb6c6b760d3355f6'),
    (3, 3, 1): (167, '3.2215599999999995e-06', '64a9931f4ac7d4d3'),
    (3, 3, 3): (167, '3.2286e-06', 'a7191e0141b87662'),
    (3, 3, 48): (167, '3.4809199999999997e-06', 'd5d80b46cb614a5c'),
    (5, 1, 1): (138, '4.19508e-06', '7c39372fe4c655af'),
    (5, 1, 16): (138, '4.32792e-06', '070f412bf72aeaea'),
    (5, 2, 1): (249, '4.2562800000000005e-06', '508f096833363a64'),
    (5, 2, 2): (249, '4.263280000000001e-06', '13f7999daf9ed8f7'),
    (5, 2, 32): (249, '4.4532e-06', '986f7ae0a38abcd3'),
    (5, 3, 1): (360, '4.32684e-06', '77e2536b67f1b1f4'),
    (5, 3, 3): (360, '4.3338800000000004e-06', '5768a1c8882fea86'),
    (5, 3, 48): (360, '4.616879999999999e-06', '7ade0a8192deb467'),
}


def test_endpoint_allreduce_pins_cover_the_grid():
    assert set(ENDPOINT_ALLREDUCE) == {
        (P, T, elems) for P in (2, 3, 5) for T in (1, 2, 3)
        for elems in (1, T, 16 * T)}


@pytest.mark.parametrize("P,T,elems", sorted(ENDPOINT_ALLREDUCE))
def test_endpoint_allreduce_is_byte_identical(P, T, elems):
    assert _endpoint_allreduce(P, T, elems) == ENDPOINT_ALLREDUCE[P, T, elems]


def _flat_allreduce(P, elems):
    """``(steps, end time, sha-256 of every rank's result bytes)`` of the
    flat recursive-doubling allreduce that shares the endpoint one's core."""
    world = flat_world(P)
    outs = [np.zeros(elems) for _ in range(P)]

    def main(proc):
        send = np.arange(elems) * 3.0 + proc.rank
        yield from proc.comm_world.Allreduce(send, outs[proc.rank], op=SUM)

    run_same(world, main)
    sha = hashlib.sha256(b"".join(out.tobytes() for out in outs))
    return world.sim.steps, repr(world.now), sha.hexdigest()[:16]


#: (processes, elements) -> outcome on the same parent commit.
FLAT_ALLREDUCE = {
    (2, 1): (21, '1.3747600000000001e-06', '5f07eef034c5a21f'),
    (2, 16): (21, '1.41504e-06', 'ab99ecb5778ea63c'),
    (3, 1): (39, '2.9690000000000003e-06', '1e4688b4c02d4afe'),
    (3, 16): (39, '3.05916e-06', '1d4eb6a196dc8695'),
    (5, 1): (92, '4.07428e-06', '2486faed11251a25'),
    (5, 16): (92, '4.19512e-06', '6f002f8df22a4cf6'),
    (6, 1): (109, '4.34376e-06', '64195d3985101bd6'),
    (6, 16): (109, '4.4742e-06', 'a0036ca46cf56b9f'),
}


@pytest.mark.parametrize("P,elems", sorted(FLAT_ALLREDUCE))
def test_flat_allreduce_is_byte_identical(P, elems):
    assert _flat_allreduce(P, elems) == FLAT_ALLREDUCE[P, elems]


@pytest.mark.parametrize("P", [2, 3, 5])
def test_zero_element_allreduce_takes_every_kernel_step(P):
    """The one place the shared core moved the flat allreduce: a combine
    of zero bytes is charged a zero-cost timeout (as the endpoint
    allreduce always did for an empty segment) where it used to be
    skipped — same simulated time, the kernel steps of any other size."""
    steps, end, _ = _flat_allreduce(P, 0)
    assert steps == FLAT_ALLREDUCE[P, 1][0]
    assert float(end) < float(FLAT_ALLREDUCE[P, 1][1])


def _ring_collectives(P, elems):
    """A barrier and a ring allreduce back to back:
    ``(steps, end time, sha-256 of every rank's result bytes)``."""
    world = flat_world(P)
    reduced = [np.zeros(elems) for _ in range(P)]

    def main(proc):
        comm = proc.comm_world
        comm.set_coll_algorithm("allreduce", "ring")
        send = np.arange(elems) * 3.0 + proc.rank
        yield from comm.Barrier()
        yield from comm.Allreduce(send, reduced[proc.rank], op=SUM)

    run_same(world, main)
    sha = hashlib.sha256(b"".join(out.tobytes() for out in reduced))
    return world.sim.steps, repr(world.now), sha.hexdigest()[:16]


#: (processes, elements) -> outcome recorded on the commit that still had
#: the allgather leg (and the other collectives), run without it.
RING_COLLECTIVES = {
    (2, 0): (47, '4.1180400000000005e-06', 'e3b0c44298fc1c14'),
    (2, 7): (49, '4.13428e-06', 'b0577250338cf163'),
    (2, 64): (49, '4.2642e-06', '14a3a0567f5e61a1'),
    (3, 0): (133, '8.23608e-06', 'e3b0c44298fc1c14'),
    (3, 7): (139, '8.259279999999996e-06', '96a6a695fc52d031'),
    (3, 64): (139, '8.435599999999998e-06', '6c6dbccc407145ef'),
    (5, 0): (396, '1.509947999999999e-05', 'e3b0c44298fc1c14'),
    (5, 7): (416, '1.5127320000000005e-05', '3f74a8c5f9066578'),
    (5, 64): (416, '1.533148e-05', '62c61cafb3c67f2f'),
}


@pytest.mark.parametrize("P,elems", sorted(RING_COLLECTIVES))
def test_ring_collectives_are_byte_identical(P, elems):
    assert _ring_collectives(P, elems) == RING_COLLECTIVES[P, elems]
