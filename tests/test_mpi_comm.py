"""Communicator management tests: dup, VCI assignment, hints, serial
collectives (repro.mpi.comm)."""

import numpy as np
import pytest

from repro.errors import MpiUsageError
from repro.mpi import Info, SingleVciMap, TagBitsVciMap
from repro.runtime import World

from tests.helpers import run_ranks, run_same


def test_comm_world_properties(world2):
    comm = world2.comm_world(0)
    assert comm.Get_rank() == 0
    assert comm.size == 2
    assert comm.context_id == 0
    assert comm.coll_context_id == 1
    assert isinstance(comm.vci_map, SingleVciMap)


def test_groups_are_shared_tuples_not_per_handle_lists():
    """A World's groups are O(P), not O(P^2): every rank's COMM_WORLD
    holds the World's one tuple, a duplicate shares its parent's, and a
    split builds one tuple per handle."""
    world = World(num_nodes=2, procs_per_node=2)
    groups = {id(p.comm_world.group) for p in world.procs}
    assert groups == {id(world.world_group)}
    assert world.world_group == (0, 1, 2, 3)

    def worker(proc):
        dup = yield from proc.comm_world.Dup()
        sub = yield from proc.comm_world.Split(color=proc.rank % 2,
                                               key=-proc.rank)
        return dup.group, sub.group

    results = run_same(world, worker)
    assert all(dup is world.world_group for dup, _sub in results)
    assert [sub for _dup, sub in results] == [(2, 0), (3, 1), (2, 0),
                                              (3, 1)]


def test_dup_gets_fresh_context_everywhere_consistent(world2):
    def worker(proc):
        c1 = yield from proc.comm_world.Dup()
        c2 = yield from proc.comm_world.Dup()
        return (c1.context_id, c2.context_id)

    results = run_same(world2, worker)
    assert results[0] == results[1]          # agree across ranks
    a, b = results[0]
    assert a != b and a != 0 and a % 4 == 0  # fresh, stride-4 ids


def test_dup_usable_for_pt2pt(world2):
    def worker(proc):
        dup = yield from proc.comm_world.Dup()
        if proc.rank == 0:
            yield from dup.Send(np.full(2, 8.0), dest=1, tag=0)
        else:
            buf = np.zeros(2)
            yield from dup.Recv(buf, source=0, tag=0)
            assert np.allclose(buf, 8.0)

    run_same(world2, worker)


def test_messages_do_not_cross_communicators(world2):
    """Same rank+tag on different comms must not match (the communicator
    isolation that makes comm-based parallelism legal)."""
    def sender(proc):
        dup = yield from proc.comm_world.Dup()
        yield from proc.comm_world.Send(np.full(1, 1.0), dest=1, tag=0)
        yield from dup.Send(np.full(1, 2.0), dest=1, tag=0)

    def receiver(proc):
        dup = yield from proc.comm_world.Dup()
        buf = np.zeros(1)
        yield from dup.Recv(buf, source=0, tag=0)
        assert buf[0] == 2.0
        yield from proc.comm_world.Recv(buf, source=0, tag=0)
        assert buf[0] == 1.0

    run_ranks(world2, sender, receiver)


def test_dups_spread_over_vcis():
    """With a large pool, distinct dups land on distinct VCIs (this is the
    communicator mechanism for exposing parallelism)."""
    world = World(num_nodes=2, procs_per_node=1, max_vcis_per_proc=64)

    def worker(proc):
        vcis = set()
        for _ in range(8):
            c = yield from proc.comm_world.Dup()
            vcis.add(c.vci_map.index)
        return len(vcis)

    distinct = run_same(world, worker)
    assert distinct[0] >= 6  # hash collisions possible but rare


def test_single_vci_pool_collapses_comm_parallelism():
    """With max_vcis=1 ("original" MPI_THREAD_MULTIPLE), every comm maps
    to VCI 0 no matter how many are created."""
    world = World(num_nodes=2, procs_per_node=1, max_vcis_per_proc=1)

    def worker(proc):
        ids = set()
        for _ in range(4):
            c = yield from proc.comm_world.Dup()
            ids.add(c.vci_map.index)
        return ids

    assert run_same(world, worker) == [{0}, {0}]


def test_dup_with_tag_hints_creates_tagbits_map(world2):
    def worker(proc):
        info = Info({
            "mpi_assert_no_any_tag": "true",
            "mpi_assert_no_any_source": "true",
            "mpich_num_vcis": "4",
            "mpich_num_tag_bits_vci": "2",
            "mpich_tag_vci_hash_type": "one-to-one",
        })
        comm = yield from proc.comm_world.Dup(info)
        assert isinstance(comm.vci_map, TagBitsVciMap)
        return comm.vci_map.n

    assert run_same(world2, worker) == [4, 4]


def test_concurrent_collectives_on_one_comm_rejected(world2):
    """MPI requires collectives on a communicator to be issued serially;
    two threads entering Allreduce on the same comm is an error."""
    def worker(proc):
        comm = proc.comm_world
        errors = []

        def coll_thread():
            try:
                yield from comm.Allreduce(np.zeros(1024), np.zeros(1024))
            except MpiUsageError as exc:
                errors.append(exc)

        t1 = proc.spawn(coll_thread())
        t2 = proc.spawn(coll_thread())
        yield proc.sim.all_of([t1, t2])
        return len(errors)

    # On each process exactly one of the two threads must fail...
    results = run_same(world2, worker, max_steps=None)
    assert all(n == 1 for n in results)


def test_sequential_collectives_fine(world2):
    def worker(proc):
        comm = proc.comm_world
        out = np.zeros(4)
        yield from comm.Allreduce(np.ones(4), out)
        yield from comm.Allreduce(np.ones(4), out)
        assert np.allclose(out, 2.0)

    run_same(world2, worker)


def test_collectives_on_distinct_dups_run_concurrently(world2):
    """The paper's legal route: parallel collectives need distinct comms."""
    def worker(proc):
        c1 = yield from proc.comm_world.Dup()
        c2 = yield from proc.comm_world.Dup()

        def coll(comm):
            out = np.zeros(8)
            yield from comm.Allreduce(np.full(8, 1.0), out)
            assert np.allclose(out, 2.0)

        t1 = proc.spawn(coll(c1))
        t2 = proc.spawn(coll(c2))
        yield proc.sim.all_of([t1, t2])

    run_same(world2, worker)


def test_double_free_rejected(world2):
    comm_obj = {}

    def worker(proc):
        c = yield from proc.comm_world.Dup()
        c.Free()
        with pytest.raises(MpiUsageError):
            c.Free()

    run_same(world2, worker)
