"""Partitioned communication tests (repro.mpi.partitioned)."""

import numpy as np
import pytest

from repro.errors import MpiUsageError
from repro.mpi import ANY_SOURCE, ANY_TAG, Info, startall, waitall
from repro.mpi.partitioned import precv_init, psend_init
from repro.runtime import World

from tests.helpers import run_ranks, run_same


def test_basic_partitioned_transfer(world2):
    def sender(proc):
        buf = np.arange(20, dtype=np.float64)
        req = psend_init(proc.comm_world, buf, partitions=5, count=4,
                         dest=1, tag=3)
        yield from req.start()
        for i in range(5):
            yield from req.pready(i)
        yield from req.wait()

    def receiver(proc):
        buf = np.zeros(20)
        req = precv_init(proc.comm_world, buf, partitions=5, count=4,
                         source=0, tag=3)
        yield from req.start()
        yield from req.wait()
        assert np.allclose(buf, np.arange(20))

    run_ranks(world2, sender, receiver)


def test_out_of_order_pready(world2):
    def sender(proc):
        buf = np.arange(8, dtype=np.float64)
        req = psend_init(proc.comm_world, buf, 4, 2, dest=1, tag=0)
        yield from req.start()
        for i in (3, 1, 0, 2):
            yield from req.pready(i)
        yield from req.wait()

    def receiver(proc):
        buf = np.zeros(8)
        req = precv_init(proc.comm_world, buf, 4, 2, source=0, tag=0)
        yield from req.start()
        yield from req.wait()
        assert np.allclose(buf, np.arange(8))

    run_ranks(world2, sender, receiver)


def test_persistence_across_cycles(world2):
    """Start/pready/wait can be repeated; matching happens only once."""
    cycles = 4

    def sender(proc):
        buf = np.zeros(6)
        req = psend_init(proc.comm_world, buf, 3, 2, dest=1, tag=0)
        for it in range(cycles):
            buf[:] = it
            yield from req.start()
            for i in range(3):
                yield from req.pready(i)
            yield from req.wait()

    def receiver(proc):
        buf = np.zeros(6)
        req = precv_init(proc.comm_world, buf, 3, 2, source=0, tag=0)
        engine_scans = []
        for it in range(cycles):
            yield from req.start()
            yield from req.wait()
            assert np.allclose(buf, it), (it, buf)
        return True

    assert run_ranks(world2, sender, receiver)[1] is True


def test_parrived_flags(world2):
    def sender(proc):
        buf = np.arange(4, dtype=np.float64)
        req = psend_init(proc.comm_world, buf, 2, 2, dest=1, tag=0)
        yield from req.start()
        yield from req.pready(0)
        yield proc.compute(1e-3)
        yield from req.pready(1)
        yield from req.wait()

    def receiver(proc):
        buf = np.zeros(4)
        req = precv_init(proc.comm_world, buf, 2, 2, source=0, tag=0)
        yield from req.start()
        # Poll partition 0 until it lands; partition 1 must still be absent
        # (sender delays it by 1 ms).
        while not (yield from req.parrived(0)):
            yield proc.compute(5e-6)
        arrived1 = yield from req.parrived(1)
        assert not arrived1
        yield from req.wait()
        assert np.allclose(buf, np.arange(4))

    run_ranks(world2, sender, receiver)


def test_multiple_threads_drive_partitions(world2):
    nthreads = 4

    def sender(proc):
        buf = np.arange(16, dtype=np.float64)
        req = psend_init(proc.comm_world, buf, nthreads, 4, dest=1, tag=0)
        yield from req.start()

        def thread(i):
            yield from req.pready(i)

        tasks = [proc.spawn(thread(i)) for i in range(nthreads)]
        yield proc.sim.all_of(tasks)
        yield from req.wait()
        # The shared-request lock saw every thread (Lesson 14).
        assert req.shared_lock.stats.acquisitions == nthreads

    def receiver(proc):
        buf = np.zeros(16)
        req = precv_init(proc.comm_world, buf, nthreads, 4, source=0, tag=0)
        yield from req.start()
        yield from req.wait()
        assert np.allclose(buf, np.arange(16))

    run_ranks(world2, sender, receiver)


def test_partition_vci_spreading(world2):
    """mpich_part_num_vcis spreads partitions over several VCIs."""
    def sender(proc):
        info = Info({"mpich_part_num_vcis": "4"})
        buf = np.zeros(16)
        req = psend_init(proc.comm_world, buf, 8, 2, dest=1, tag=0,
                         info=info)
        yield from req.start()
        for i in range(8):
            yield from req.pready(i)
        yield from req.wait()
        used = {req.vci_index_for_partition(i) for i in range(8)}
        assert len(used) == 4

    def receiver(proc):
        buf = np.zeros(16)
        req = precv_init(proc.comm_world, buf, 8, 2, source=0, tag=0)
        yield from req.start()
        yield from req.wait()

    run_ranks(world2, sender, receiver)


# ---------------------------------------------------------------- errors

def test_precv_rejects_wildcards(world2):
    comm = world2.comm_world(0)
    with pytest.raises(MpiUsageError, match="ANY_SOURCE"):
        precv_init(comm, np.zeros(4), 2, 2, source=ANY_SOURCE, tag=0)
    with pytest.raises(MpiUsageError, match="ANY_TAG"):
        precv_init(comm, np.zeros(4), 2, 2, source=0, tag=ANY_TAG)


def test_bad_partition_counts_rejected(world2):
    comm = world2.comm_world(0)
    with pytest.raises(MpiUsageError):
        psend_init(comm, np.zeros(4), 0, 2, dest=1, tag=0)
    with pytest.raises(MpiUsageError):
        psend_init(comm, np.zeros(4), 2, -1, dest=1, tag=0)
    with pytest.raises(MpiUsageError):
        psend_init(comm, np.zeros(4), 4, 2, dest=1, tag=0)  # buf too small


def test_pready_requires_active(world2):
    comm = world2.comm_world(0)
    req = psend_init(comm, np.zeros(4), 2, 2, dest=1, tag=0)

    def t(proc):
        with pytest.raises(MpiUsageError, match="inactive"):
            yield from req.pready(0)

    world2.run_all([world2.procs[0].spawn(t(world2.procs[0]))])


def test_double_pready_rejected(world2):
    def sender(proc):
        req = psend_init(proc.comm_world, np.zeros(4), 2, 2, dest=1, tag=0)
        yield from req.start()
        yield from req.pready(0)
        with pytest.raises(MpiUsageError, match="twice"):
            yield from req.pready(0)
        yield from req.pready(1)
        yield from req.wait()

    def receiver(proc):
        req = precv_init(proc.comm_world, np.zeros(4), 2, 2, source=0, tag=0)
        yield from req.start()
        yield from req.wait()

    run_ranks(world2, sender, receiver)


def test_double_start_rejected(world2):
    def sender(proc):
        req = psend_init(proc.comm_world, np.zeros(4), 2, 2, dest=1, tag=0)
        yield from req.start()
        with pytest.raises(MpiUsageError):
            yield from req.start()
        for i in range(2):
            yield from req.pready(i)
        yield from req.wait()

    def receiver(proc):
        req = precv_init(proc.comm_world, np.zeros(4), 2, 2, source=0, tag=0)
        yield from req.start()
        yield from req.wait()

    run_ranks(world2, sender, receiver)


def test_startall_waitall_helpers(world2):
    def sender(proc):
        bufs = [np.full(4, float(k)) for k in range(3)]
        reqs = [psend_init(proc.comm_world, bufs[k], 2, 2, dest=1, tag=k)
                for k in range(3)]
        yield from startall(reqs)
        for r in reqs:
            for i in range(2):
                yield from r.pready(i)
        yield from waitall(reqs)

    def receiver(proc):
        bufs = [np.zeros(4) for _ in range(3)]
        reqs = [precv_init(proc.comm_world, bufs[k], 2, 2, source=0, tag=k)
                for k in range(3)]
        yield from startall(reqs)
        yield from waitall(reqs)
        for k in range(3):
            assert np.allclose(bufs[k], k)

    run_ranks(world2, sender, receiver)
