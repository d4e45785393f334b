"""Batched hot paths vs their scalar references: byte-identity.

The numpy-batched issue/transmit paths exist for host throughput
only — every batch entry point must produce the exact floats, counters
and event order of calling its scalar sibling once per item, so state
digests are engine- and batching-invariant. These tests pin that down
per layer (NIC injector, fabric, MPI library burst) and end-to-end (a
partitioned workload with the burst path swapped out).
"""

import numpy as np
import pytest

from repro.mpi.partitioned import PsendRequest, precv_init, psend_init
from repro.netsim.config import FabricParams, NicParams
from repro.netsim.message import MessageKind, WireMessage
from repro.netsim.nic import HardwareContext
from repro.netsim.fabric import Fabric
from repro.sim.core import Simulator
from repro.snap import capture_state, state_digest
from tests.helpers import flat_world, run_ranks

SIZES = [8, 8, 256, 33000, 8, 1024, 8, 8, 64000, 16]

#: What the numpy bodies produced at c506174, the last commit that had
#: them: both arms of every comparison below now run the scalar code, so
#: these keep the battery from comparing a thing with itself.
ISSUE_BATCH_DEPARTS = [
    1.8064e-07, 3.6128e-07, 5.6176e-07, 3.3817599999999997e-06,
    3.5623999999999996e-06, 3.82432e-06, 4.0049599999999995e-06,
    4.185599999999999e-06, 9.4856e-06, 9.66688e-06]
PARTITIONED_BURST_DIGEST = \
    "cc008f6de744ac69fa1ceaf2ee1e00d1848d93bc6f90361f85044e22e0320ec2"


def _ctx(params: NicParams) -> HardwareContext:
    return HardwareContext(Simulator(), 0, params)


def test_issue_batch_matches_scalar_issue():
    params = NicParams()
    scalar, batched = _ctx(params), _ctx(params)
    ref = [scalar.issue(b) for b in SIZES]
    got = batched.issue_batch(SIZES)
    assert got == ref  # exact float equality, element-wise
    assert got == ISSUE_BATCH_DEPARTS
    assert batched.messages_issued == scalar.messages_issued
    assert batched.bytes_issued == scalar.bytes_issued
    assert batched.injector.free_at == scalar.injector.free_at


def test_issue_batch_jitter_falls_back_to_scalar():
    params = NicParams(issue_jitter=1e-9)
    scalar, batched = _ctx(params), _ctx(params)
    ref = [scalar.issue(b) for b in SIZES]
    assert batched.issue_batch(SIZES) == ref


def test_issue_batch_interleaves_with_scalar_traffic():
    """A batch lands on the same injector busy-chain scalar calls use."""
    params = NicParams()
    scalar, batched = _ctx(params), _ctx(params)
    for b in SIZES[:3]:
        scalar.issue(b)
        batched.issue(b)
    ref = [scalar.issue(b) for b in SIZES]
    assert batched.issue_batch(SIZES) == ref
    assert batched.injector.free_at == scalar.injector.free_at


def _msg(src: int, dst: int, tag: int, size: int) -> WireMessage:
    return WireMessage(kind=MessageKind.EAGER, src_node=src, dst_node=dst,
                       src_rank=src, dst_rank=dst, context_id=0, tag=tag,
                       size=size)


def _fabric_run(batch: bool) -> tuple[list, object]:
    sim = Simulator()
    fabric = Fabric(sim, FabricParams())
    arrivals: list[tuple[int, float]] = []
    fabric.register_node(0, lambda m: arrivals.append((m.tag, sim.now)))
    fabric.register_node(1, lambda m: arrivals.append((m.tag, sim.now)))
    items = [(_msg(0, 1, t, s), 1e-7 * t) for t, s in enumerate(SIZES)]
    if batch:
        fabric.transmit_batch(items)
    else:
        for msg, depart in items:
            fabric.transmit(msg, depart)
    sim.run()
    return arrivals, fabric


def test_transmit_batch_matches_scalar_transmit():
    ref, fab_ref = _fabric_run(batch=False)
    got, fab_got = _fabric_run(batch=True)
    assert got == ref  # same delivery order, exact same arrival clocks
    assert fab_got.messages_delivered == fab_ref.messages_delivered
    assert fab_got.bytes_delivered == fab_ref.bytes_delivered
    for node in (0, 1):
        for servers in ("_egress", "_ingress"):
            s_ref = getattr(fab_ref, servers)[node]
            s_got = getattr(fab_got, servers)[node]
            assert s_got.free_at == s_ref.free_at
            assert s_got.stats.requests == s_ref.stats.requests
            assert s_got.stats.busy_time == s_ref.stats.busy_time
            assert s_got.stats.total_queue_delay == \
                s_ref.stats.total_queue_delay


def test_transmit_batch_rejects_unknown_node():
    sim = Simulator()
    fabric = Fabric(sim, FabricParams())
    fabric.register_node(0, lambda m: None)
    with pytest.raises(KeyError):
        fabric.transmit_batch([(_msg(0, 7, 0, 8), 0.0)])


def _partitioned_world(seed: int = 0):
    return flat_world(2, threads_per_proc=2, seed=seed)


def _run_partitioned(scalar_flush: bool) -> str:
    """Digest of a partitioned run that defers partitions before the
    channel handshake lands (the burst-flush site)."""
    world = _partitioned_world()

    def sender(proc):
        buf = np.arange(16, dtype=np.float64)
        req = psend_init(proc.comm_world, buf, 8, 2, dest=1, tag=0)
        yield from req.start()
        for i in (5, 3, 0, 7, 1, 2, 6, 4):
            yield from req.pready(i)
        yield from req.wait()

    def receiver(proc):
        buf = np.zeros(16)
        req = precv_init(proc.comm_world, buf, 8, 2, source=0, tag=0)
        yield from req.start()
        yield from req.wait()
        assert np.allclose(buf, np.arange(16))

    if scalar_flush:
        original = PsendRequest._on_channel_ready

        def scalar_ready(self, remote_channel):
            self.channel_ready = True
            self.remote_channel = remote_channel
            deferred, self._deferred = self._deferred, []
            for p in deferred:
                self._issue_partition_async(p)

        PsendRequest._on_channel_ready = scalar_ready
        try:
            run_ranks(world, sender, receiver)
        finally:
            PsendRequest._on_channel_ready = original
    else:
        run_ranks(world, sender, receiver)
    return state_digest(capture_state(world))


def test_partitioned_burst_flush_matches_scalar_flush():
    """End-to-end: ``issue_async_batch`` burst flush leaves the world in
    the byte-identical state of one ``issue_async`` call per partition."""
    assert _run_partitioned(scalar_flush=False) == \
        _run_partitioned(scalar_flush=True)
    assert _run_partitioned(scalar_flush=False) == PARTITIONED_BURST_DIGEST
