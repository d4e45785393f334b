"""Point-to-point semantics tests: ordering, wildcards, protocols,
truncation (repro.mpi.comm + library)."""

import numpy as np
import pytest

from repro.errors import (
    HintViolationError,
    MpiUsageError,
    TagOverflowError,
    TruncationError,
)
from repro.mpi import ANY_SOURCE, ANY_TAG, Info, recv_init, send_init, \
    waitall
from repro.mpi.vci import TAG_UB
from repro.netsim import NetworkConfig
from repro.runtime import World

from tests.helpers import run_ranks, run_same


def test_send_recv_data_integrity(world2):
    data = np.arange(32, dtype=np.float64) * 1.5

    def sender(proc):
        yield from proc.comm_world.Send(data.copy(), dest=1, tag=3)

    def receiver(proc):
        buf = np.zeros(32)
        st = yield from proc.comm_world.Recv(buf, source=0, tag=3)
        assert np.allclose(buf, data)
        assert st.source == 0 and st.tag == 3 and st.count == 32

    run_ranks(world2, sender, receiver)


def test_send_before_recv_unexpected_path(world2):
    def sender(proc):
        yield from proc.comm_world.Send(np.full(4, 9.0), dest=1, tag=1)

    def receiver(proc):
        yield proc.compute(50e-6)  # let the message arrive unexpected
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=1)
        assert np.allclose(buf, 9.0)

    run_ranks(world2, sender, receiver)


def test_nonovertaking_same_tag_fifo(world2):
    """Two same-tag sends must be received in posting order."""
    def sender(proc):
        for v in (1.0, 2.0, 3.0):
            yield from proc.comm_world.Send(np.full(1, v), dest=1, tag=0)

    def receiver(proc):
        got = []
        for _ in range(3):
            buf = np.zeros(1)
            yield from proc.comm_world.Recv(buf, source=0, tag=0)
            got.append(buf[0])
        assert got == [1.0, 2.0, 3.0]

    run_ranks(world2, sender, receiver)


def test_any_source_any_tag_wildcards(world4):
    def sender(proc):
        if proc.rank != 0:
            yield from proc.comm_world.Send(
                np.full(1, float(proc.rank)), dest=0, tag=proc.rank * 10)

    def receiver(proc):
        if proc.rank == 0:
            seen = set()
            for _ in range(3):
                buf = np.zeros(1)
                st = yield from proc.comm_world.Recv(buf, ANY_SOURCE, ANY_TAG)
                assert st.tag == st.source * 10
                assert buf[0] == st.source
                seen.add(st.source)
            assert seen == {1, 2, 3}
        else:
            yield from sender(proc)

    run_same(world4, receiver)


def test_tag_selectivity(world2):
    """A receive with tag B must not consume an earlier tag-A message."""
    def sender(proc):
        yield from proc.comm_world.Send(np.full(1, 1.0), dest=1, tag=1)
        yield from proc.comm_world.Send(np.full(1, 2.0), dest=1, tag=2)

    def receiver(proc):
        b2 = np.zeros(1)
        yield from proc.comm_world.Recv(b2, source=0, tag=2)
        assert b2[0] == 2.0
        b1 = np.zeros(1)
        yield from proc.comm_world.Recv(b1, source=0, tag=1)
        assert b1[0] == 1.0

    run_ranks(world2, sender, receiver)


def test_rendezvous_large_message(world2):
    """Messages beyond the eager threshold take the RTS/CTS/DATA path."""
    n = 1 << 16  # 512 KiB of float64 > 16 KiB threshold
    data = np.random.default_rng(0).random(n)

    def sender(proc):
        req = yield from proc.comm_world.Isend(data.copy(), dest=1, tag=0)
        yield from req.wait()

    def receiver(proc):
        buf = np.zeros(n)
        st = yield from proc.comm_world.Recv(buf, source=0, tag=0)
        assert st.count == n
        assert np.allclose(buf, data)

    run_ranks(world2, sender, receiver)


def test_rendezvous_unexpected_rts(world2):
    """RTS arriving before the receive is posted still completes."""
    n = 1 << 15
    def sender(proc):
        yield from proc.comm_world.Send(np.ones(n), dest=1, tag=0)

    def receiver(proc):
        yield proc.compute(100e-6)
        buf = np.zeros(n)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)
        assert np.allclose(buf, 1.0)

    run_ranks(world2, sender, receiver)


def test_large_message_slower_than_small(world2):
    def sender(proc):
        t0 = proc.sim.now
        yield from proc.comm_world.Send(np.zeros(8), dest=1, tag=0)
        small = proc.sim.now - t0
        yield proc.compute(1e-3)
        t0 = proc.sim.now
        yield from proc.comm_world.Send(np.zeros(1 << 20), dest=1, tag=1)
        big = proc.sim.now - t0
        assert big > small * 5

    def receiver(proc):
        b = np.zeros(8)
        yield from proc.comm_world.Recv(b, source=0, tag=0)
        b = np.zeros(1 << 20)
        yield from proc.comm_world.Recv(b, source=0, tag=1)

    run_ranks(world2, sender, receiver)


def test_truncation_error(world2):
    def sender(proc):
        yield from proc.comm_world.Send(np.zeros(10), dest=1, tag=0)

    def receiver(proc):
        buf = np.zeros(5)
        req = yield from proc.comm_world.Irecv(buf, source=0, tag=0)
        with pytest.raises(TruncationError):
            yield from req.wait()

    run_ranks(world2, sender, receiver)


def test_self_send(world2):
    def rank0(proc):
        comm = proc.comm_world
        buf = np.zeros(4)
        rreq = yield from comm.Irecv(buf, source=0, tag=0)
        sreq = yield from comm.Isend(np.full(4, 5.0), dest=0, tag=0)
        yield from waitall([rreq, sreq])
        assert np.allclose(buf, 5.0)

    def rank1(proc):
        return
        yield

    run_ranks(world2, rank0, rank1)


def test_intranode_message_bypasses_fabric():
    world = World(num_nodes=1, procs_per_node=2)

    def sender(proc):
        yield from proc.comm_world.Send(np.full(4, 2.0), dest=1, tag=0)

    def receiver(proc):
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)
        assert np.allclose(buf, 2.0)

    run_ranks(world, sender, receiver)
    assert world.fabric.messages_delivered == 0


def test_internode_message_uses_fabric(world2):
    def sender(proc):
        yield from proc.comm_world.Send(np.zeros(4), dest=1, tag=0)

    def receiver(proc):
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)

    run_ranks(world2, sender, receiver)
    assert world2.fabric.messages_delivered == 1


# ---------------------------------------------------------------- validation

def test_invalid_dest_rejected(world2):
    def rank0(proc):
        with pytest.raises(MpiUsageError):
            yield from proc.comm_world.Isend(np.zeros(1), dest=9, tag=0)

    def rank1(proc):
        return
        yield

    run_ranks(world2, rank0, rank1)


def test_send_wildcards_rejected(world2):
    def rank0(proc):
        with pytest.raises(MpiUsageError):
            yield from proc.comm_world.Isend(np.zeros(1), dest=ANY_SOURCE, tag=0)
        with pytest.raises(MpiUsageError):
            yield from proc.comm_world.Isend(np.zeros(1), dest=1, tag=ANY_TAG)

    def rank1(proc):
        return
        yield

    run_ranks(world2, rank0, rank1)


def test_tag_overflow_raises(world2):
    def rank0(proc):
        with pytest.raises(TagOverflowError):
            yield from proc.comm_world.Isend(np.zeros(1), dest=1,
                                             tag=TAG_UB + 1)

    def rank1(proc):
        return
        yield

    run_ranks(world2, rank0, rank1)


def test_negative_tag_rejected(world2):
    def rank0(proc):
        with pytest.raises(MpiUsageError):
            yield from proc.comm_world.Isend(np.zeros(1), dest=1, tag=-5)

    def rank1(proc):
        return
        yield

    run_ranks(world2, rank0, rank1)


def test_hint_violation_any_tag(world2):
    def worker(proc):
        info = Info({"mpi_assert_no_any_tag": "true"})
        comm = yield from proc.comm_world.Dup(info)
        if proc.rank == 0:
            with pytest.raises(HintViolationError):
                yield from comm.Irecv(np.zeros(1), source=1, tag=ANY_TAG)

    run_same(world2, worker)


def test_freed_comm_rejected(world2):
    def worker(proc):
        comm = yield from proc.comm_world.Dup()
        comm.Free()
        with pytest.raises(MpiUsageError):
            yield from comm.Isend(np.zeros(1), dest=0, tag=0)

    run_same(world2, worker)


def test_send_completes_before_recv_posted(world2):
    """Eager sends complete locally without a matching receive."""
    def sender(proc):
        req = yield from proc.comm_world.Isend(np.zeros(4), dest=1, tag=0)
        yield from req.wait()
        return proc.sim.now

    def receiver(proc):
        yield proc.compute(1.0)  # posts the recv a full second later
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)
        return proc.sim.now

    t_send, t_recv = run_ranks(world2, sender, receiver)
    assert t_send < 1e-4 and t_recv > 1.0


# ------------------------------------------------------- bytearray buffers
#: One eager size and one past the 16 KiB eager threshold (rendezvous).
BYTE_SIZES = pytest.mark.parametrize("n", [8, 1 << 15],
                                     ids=["eager", "rendezvous"])


@BYTE_SIZES
def test_bytearray_send_recv_round_trip(world2, n):
    data = bytes(i % 251 for i in range(n))

    def sender(proc):
        yield from proc.comm_world.Send(bytearray(data), dest=1, tag=4)

    def receiver(proc):
        buf = bytearray(n)
        st = yield from proc.comm_world.Recv(buf, source=0, tag=4)
        assert buf == data and len(buf) == n
        assert st.source == 0 and st.tag == 4 and st.count == n

    run_ranks(world2, sender, receiver)


def test_bytearray_count_bounds(world2):
    def sender(proc):
        comm = proc.comm_world
        for bad in (9, -1):
            with pytest.raises(MpiUsageError):
                yield from comm.Isend(bytearray(8), dest=1, tag=0, count=bad)
        yield from comm.Send(bytearray(b"abcdefgh"), dest=1, tag=0, count=3)

    def receiver(proc):
        comm = proc.comm_world
        with pytest.raises(MpiUsageError):
            yield from comm.Irecv(bytearray(8), source=0, tag=0, count=9)
        buf = bytearray(b"........")
        st = yield from comm.Recv(buf, source=0, tag=0, count=4)
        assert st.count == 3 and buf == b"abc....."

    run_ranks(world2, sender, receiver)


@BYTE_SIZES
def test_short_bytearray_receive_truncates(world2, n):
    def sender(proc):
        yield from proc.comm_world.Send(bytearray(n), dest=1, tag=0)

    def receiver(proc):
        buf = bytearray(n - 1)
        req = yield from proc.comm_world.Irecv(buf, source=0, tag=0)
        with pytest.raises(TruncationError):
            yield from req.wait()
        assert len(buf) == n - 1

    run_ranks(world2, sender, receiver)


@BYTE_SIZES
def test_bytearray_and_uint8_array_interoperate(n):
    """Either end may be a ``bytearray`` or a ``uint8`` array of the same
    size: the same bytes arrive at the same simulated time."""
    data = bytes(i % 251 for i in range(n))
    kinds = {"bytearray": bytearray,
             "uint8": lambda b: np.frombuffer(b, dtype=np.uint8).copy()}
    outcomes = set()
    for send_kind in kinds:
        for recv_kind in kinds:
            world = World(num_nodes=2, procs_per_node=1)

            def sender(proc):
                yield from proc.comm_world.Send(kinds[send_kind](data),
                                                dest=1, tag=0)

            def receiver(proc):
                buf = kinds[recv_kind](bytes(n))
                st = yield from proc.comm_world.Recv(buf, source=0, tag=0)
                assert bytes(buf) == data and st.count == n
                return proc.sim.now

            outcomes.add(run_ranks(world, sender, receiver)[1])
    assert len(outcomes) == 1


def test_persistent_requests_take_bytearray(world2):
    def sender(proc):
        buf = bytearray(4)
        req = send_init(proc.comm_world, buf, dest=1, tag=3)
        for c in range(3):
            buf[:] = bytes([c]) * 4
            yield from req.start()
            yield from req.wait()

    def receiver(proc):
        buf = bytearray(4)
        req = recv_init(proc.comm_world, buf, source=0, tag=3)
        for c in range(3):
            yield from req.start()
            yield from req.wait()
            assert buf == bytes([c]) * 4

    run_ranks(world2, sender, receiver)


def test_typed_calls_reject_bytearray(world2):
    def worker(proc):
        with pytest.raises(MpiUsageError, match="point-to-point only"):
            yield from proc.comm_world.Allreduce(bytearray(8), bytearray(8))
        yield from proc.comm_world.Barrier()

    run_same(world2, worker)
