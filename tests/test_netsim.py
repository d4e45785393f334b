"""Unit tests for the network substrate (repro.netsim)."""

import pytest

from repro.netsim import (
    HEADER_BYTES,
    Fabric,
    FabricParams,
    MessageKind,
    NetworkConfig,
    Nic,
    NicParams,
    WireMessage,
)
from repro.sim import Simulator
from tests.helpers import hw_context


def make_msg(src=0, dst=1, size=0, tag=7, **meta):
    return WireMessage(kind=MessageKind.EAGER, src_node=src, dst_node=dst,
                       src_rank=src, dst_rank=dst, context_id=0, tag=tag,
                       size=size, meta=meta)


# ---------------------------------------------------------------- config

def test_omnipath_preset_has_160_contexts():
    cfg = NetworkConfig.omnipath()
    assert cfg.nic.num_hardware_contexts == 160


def test_with_contexts_overrides_only_context_count():
    cfg = NetworkConfig.omnipath().with_contexts(8)
    assert cfg.nic.num_hardware_contexts == 8
    assert cfg.nic.issue_gap == NetworkConfig.omnipath().nic.issue_gap
    assert "ctx=8" in cfg.name


def test_presets_distinct():
    assert NetworkConfig.scarce(4).nic.num_hardware_contexts == 4
    assert NetworkConfig.abundant().nic.num_hardware_contexts == 4096


# ---------------------------------------------------------------- nic

def test_nic_requires_contexts():
    sim = Simulator()
    with pytest.raises(ValueError):
        Nic(sim, NicParams(num_hardware_contexts=0))


def test_context_allocation_round_robin_before_sharing():
    sim = Simulator()
    nic = Nic(sim, NicParams(num_hardware_contexts=3))
    got = [nic.allocate_context() for _ in range(5)]
    assert [c.index for c in got] == [0, 1, 2, 0, 1]
    assert got[0] is got[3]
    assert got[0].sharers == 2
    assert got[2].sharers == 1
    assert got[0].is_shared and not got[2].is_shared


def test_oversubscription_metric():
    sim = Simulator()
    nic = Nic(sim, NicParams(num_hardware_contexts=2))
    for _ in range(4):
        nic.allocate_context()
    assert nic.oversubscription == pytest.approx(2.0)


def test_context_issue_is_rate_limited():
    sim = Simulator()
    params = NicParams(issue_gap=100e-9, issue_per_byte=0.0)
    nic = Nic(sim, params)
    ctx = nic.allocate_context()
    departs = [ctx.issue(0) for _ in range(3)]
    assert departs == pytest.approx([100e-9, 200e-9, 300e-9])
    assert ctx.messages_issued == 3


def test_context_issue_charges_bytes():
    sim = Simulator()
    params = NicParams(issue_gap=0.0, issue_per_byte=1e-9)
    nic = Nic(sim, params)
    ctx = nic.allocate_context()
    assert ctx.issue(1000) == pytest.approx(1e-6)
    assert ctx.bytes_issued == 1000


def test_load_imbalance_perfectly_balanced_is_one():
    sim = Simulator()
    nic = Nic(sim, NicParams(num_hardware_contexts=4, issue_gap=1e-9))
    for index in range(4):
        ctx = hw_context(nic, index)
        ctx.issue(0)
        ctx.issue(0)
    assert nic.load_imbalance() == pytest.approx(1.0)
    assert sum(c.messages_issued for c in nic.built_contexts()) == 8


def test_load_imbalance_detects_skew():
    sim = Simulator()
    nic = Nic(sim, NicParams(num_hardware_contexts=4, issue_gap=1e-9))
    for _ in range(6):
        hw_context(nic, 0).issue(0)
    hw_context(nic, 1).issue(0)
    hw_context(nic, 2).issue(0)
    # counts 6,1,1 -> mean 8/3, max 6 -> 2.25
    assert nic.load_imbalance() == pytest.approx(2.25)


# ---------------------------------------------------------------- fabric

def test_fabric_delivers_after_latency_and_wire_time():
    """The message serializes on the source's egress link, crosses the
    wire, then serializes on the destination's ingress link."""
    sim = Simulator()
    params = FabricParams(latency=1e-6, bandwidth=1e9)
    fabric = Fabric(sim, params)
    arrivals = []
    fabric.register_node(0, lambda m: None)
    fabric.register_node(1, lambda m: arrivals.append((sim.now, m)))
    msg = make_msg(size=1000)
    fabric.transmit(msg, depart_time=0.0)
    sim.run()
    expected = 1e-6 + 2 * (1000 + HEADER_BYTES) / 1e9
    assert arrivals[0][0] == pytest.approx(expected)
    assert arrivals[0][1] is msg


def test_fabric_duplicate_node_registration_rejected():
    sim = Simulator()
    fabric = Fabric(sim, FabricParams())
    fabric.register_node(0, lambda m: None)
    with pytest.raises(ValueError):
        fabric.register_node(0, lambda m: None)


def test_fabric_unknown_destination_rejected():
    sim = Simulator()
    fabric = Fabric(sim, FabricParams())
    with pytest.raises(KeyError):
        fabric.transmit(make_msg(dst=99), depart_time=0.0)


def test_fabric_preserves_order_same_path():
    sim = Simulator()
    fabric = Fabric(sim, FabricParams())
    order = []
    fabric.register_node(0, lambda m: None)
    fabric.register_node(1, lambda m: order.append(m.meta["n"]))
    for n in range(5):
        fabric.transmit(make_msg(size=0, n=n), depart_time=n * 1e-9)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_fabric_ingress_serializes_concurrent_big_messages():
    """Two large messages from different sources queue on the receiver
    link: each leaves its own egress link after one wire time, the first
    lands after a second one and the second after a third."""
    sim = Simulator()
    params = FabricParams(latency=0.0, bandwidth=1e9)
    fabric = Fabric(sim, params)
    times = []
    fabric.register_node(0, lambda m: None)
    fabric.register_node(1, lambda m: None)
    fabric.register_node(2, lambda m: times.append(sim.now))
    big = 10_000_000  # 10 ms of wire time at 1 GB/s
    fabric.transmit(make_msg(src=0, dst=2, size=big), depart_time=0.0)
    fabric.transmit(make_msg(src=1, dst=2, size=big), depart_time=0.0)
    sim.run()
    wire = (big + HEADER_BYTES) / 1e9
    assert times[0] == pytest.approx(2 * wire, rel=1e-6)
    assert times[1] == pytest.approx(3 * wire, rel=1e-6)


def test_fabric_counts_traffic():
    sim = Simulator()
    fabric = Fabric(sim, FabricParams())
    fabric.register_node(0, lambda m: None)
    fabric.register_node(1, lambda m: None)
    fabric.transmit(make_msg(size=100), depart_time=0.0)
    fabric.transmit(make_msg(size=200), depart_time=0.0)
    sim.run()
    assert fabric.messages_delivered == 2
    assert fabric.bytes_delivered == 300 + 2 * HEADER_BYTES


def test_fabric_latency_for():
    sim = Simulator()
    fabric = Fabric(sim, FabricParams(latency=2e-6, bandwidth=1e9))
    assert fabric.latency_for(1000) == pytest.approx(2e-6 + 1000 / 1e9)


def test_wire_message_seq_monotonic():
    # No process-wide message number: what orders messages is the
    # per-flow rel_seq the reliable transport assigns, a function of the run.
    a = make_msg()
    assert not hasattr(a, "seq") and a.rel_seq is None
    assert a.wire_bytes == HEADER_BYTES


# ------------------------------------------------- saturation & penalties

def test_shared_context_costs_more():
    """The Lesson 3 penalty: posting through a shared hardware context
    charges shared_post_penalty on top of the doorbell."""
    import numpy as np

    from tests.helpers import flat_world

    def run(contexts):
        cfg = NetworkConfig().with_contexts(contexts)
        world = flat_world(2, threads_per_proc=4, network=cfg,
                           max_vcis_per_proc=8)

        def node(proc):
            if proc.rank == 0:
                def t(tid):
                    comm = yield from proc.comm_world.Dup()
                    for _ in range(16):
                        req = yield from comm.Isend(np.zeros(1), 1, tag=tid)
                        yield from req.wait()
                tasks = [proc.spawn(t(tid)) for tid in range(4)]
                yield proc.sim.all_of(tasks)
            else:
                def r(tid):
                    comm = yield from proc.comm_world.Dup()
                    buf = np.zeros(1)
                    for _ in range(16):
                        yield from comm.Recv(buf, 0, tag=tid)
                tasks = [proc.spawn(r(tid)) for tid in range(4)]
                yield proc.sim.all_of(tasks)
            return proc.sim.now

        tasks = [world.procs[i].spawn(node(world.procs[i]))
                 for i in range(2)]
        return max(world.run_all(tasks, max_steps=None))

    # 1 context: all dup'd comms share it -> penalty; 64: dedicated.
    assert run(1) > 1.5 * run(64)


def test_node_egress_message_gap_caps_aggregate_rate():
    """All contexts feed one link: the node_msg_gap bounds aggregate
    injection no matter how many contexts inject."""
    sim = Simulator()
    params = FabricParams(latency=0.0, node_msg_gap=100e-9)
    fabric = Fabric(sim, params)
    arrivals = []
    fabric.register_node(0, lambda m: None)   # source must be registered
    fabric.register_node(1, lambda m: arrivals.append(sim.now))
    # 50 messages depart different contexts all at t=0
    for _ in range(50):
        fabric.transmit(make_msg(src=0, dst=1, size=0), depart_time=0.0)
    sim.run()
    assert len(arrivals) == 50
    # last arrival cannot beat 50 * gap
    assert arrivals[-1] >= 50 * 100e-9 * 0.999


def test_fabric_unknown_source_rejected():
    """A source has an egress link only once registered, like a
    destination's ingress link: an unknown one is a KeyError."""
    sim = Simulator()
    fabric = Fabric(sim, FabricParams())
    fabric.register_node(1, lambda m: None)
    with pytest.raises(KeyError):
        fabric.transmit(make_msg(src=99, dst=1, size=0), depart_time=0.0)
    assert sim.queue_empty()


def test_issue_jitter_monotonic_per_context():
    """Jitter must preserve per-context departure ordering."""
    sim = Simulator()
    params = NicParams(issue_gap=10e-9, issue_per_byte=0.0,
                       issue_jitter=500e-9)
    nic = Nic(sim, params)
    ctx = nic.allocate_context()
    departs = [ctx.issue(0) for _ in range(64)]
    assert all(b > a for a, b in zip(departs, departs[1:]))


def test_issue_jitter_deterministic_and_bounded():
    def run():
        sim = Simulator()
        params = NicParams(issue_gap=10e-9, issue_per_byte=0.0,
                           issue_jitter=200e-9)
        ctx = Nic(sim, params).allocate_context()
        return [ctx.issue(0) for _ in range(32)]

    a, b = run(), run()
    assert a == b
    # each service time within [gap, gap + jitter]
    gaps = [t2 - t1 for t1, t2 in zip([0.0] + a, a)]
    assert all(10e-9 <= g <= 210e-9 + 1e-15 for g in gaps)
