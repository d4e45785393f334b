"""Fault injection + reliable transport (repro.faults).

Covers: plan parsing and validation, injector determinism, MPI correctness
on a lossy fabric across every mechanism mapping, seed reproducibility,
graceful degradation (context stalls, link windows), the TransportError
give-up path, deadlock diagnostics, and the reliability report/CLI.
"""

import json
import re
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.stencil import StencilConfig, run_stencil
from repro.errors import FaultPlanError, TransportError
from repro.faults import (
    ANY,
    CtxStall,
    FaultInjector,
    FaultPlan,
    LinkWindow,
    TransportParams,
    parse_plan,
    parse_time,
    payload_checksum,
    render_reliability_report,
)
from repro.netsim import NetworkConfig
from repro.netsim.message import MessageKind, WireMessage
from repro.runtime import World
from repro.sim.core import SimulationError, Simulator
from repro.sim.trace import TraceCategory, Tracer
from repro.netsim import ClusterSpec
from tests.helpers import hw_context, run_ranks, run_same

MECHANISMS = ("original", "tags", "communicators", "endpoints",
              "partitioned")

#: The reference lossy plan used across the correctness tests.
LOSSY = FaultPlan(drop=0.05, dup=0.02, corrupt=0.01, delay=0.05)


def lossy_world(plan=LOSSY, seed=0, **kw):
    return World(num_nodes=2, procs_per_node=1, faults=plan, seed=seed,
                 **kw)


# ------------------------------------------------------------------ plans

def test_parse_time_suffixes():
    assert parse_time("20us") == pytest.approx(20e-6)
    assert parse_time("1.5ms") == pytest.approx(1.5e-3)
    assert parse_time("300ns") == pytest.approx(300e-9)
    assert parse_time("2s") == 2.0
    assert parse_time("0.25") == 0.25
    assert parse_time(3e-6) == 3e-6
    with pytest.raises(FaultPlanError):
        parse_time("fast")


def test_parse_plan_compact_spec():
    plan = parse_plan("drop=0.05, dup=0.02, corrupt=0.01, delay=0.1,"
                      "delay_max=40us, stall=0/1/50us/200us,"
                      "down=1/100us/140us, degraded=*/0/30us/8")
    assert plan.drop == 0.05 and plan.dup == 0.02
    assert plan.delay_max == pytest.approx(40e-6)
    (stall,) = plan.stalls
    assert (stall.node, stall.ctx) == (0, 1)
    assert stall.start == pytest.approx(50e-6)
    assert stall.duration == pytest.approx(200e-6)
    assert len(plan.links) == 2
    down, degraded = plan.links
    assert down.kind == "down" and down.node == 1
    assert degraded.kind == "degraded" and degraded.node == ANY
    assert degraded.factor == 8.0


def test_parse_plan_json_file_roundtrip(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(LOSSY.to_dict()))
    assert parse_plan(str(path)) == LOSSY


def test_plan_validation():
    with pytest.raises(FaultPlanError):
        FaultPlan(drop=1.5)
    with pytest.raises(FaultPlanError):
        FaultPlan(delay_max=-1e-6)
    with pytest.raises(FaultPlanError):
        LinkWindow(node=0, start=2e-6, end=1e-6)
    with pytest.raises(FaultPlanError):
        LinkWindow(node=0, start=0, end=1e-6, kind="flaky")
    with pytest.raises(FaultPlanError):
        parse_plan("drop=0.1,unknown=3")
    with pytest.raises(FaultPlanError):
        parse_plan("stall=0/1/2")


def test_plan_flags():
    assert FaultPlan().lossless
    assert not FaultPlan(drop=0.1).lossless
    assert FaultPlan(drop=0.1).any_message_faults
    stalled = FaultPlan(stalls=(CtxStall(ANY, ANY, 0.0, 1e-6),))
    assert not stalled.any_message_faults and not stalled.lossless


def test_window_covers():
    stall = CtxStall(node=0, ctx=ANY, start=1e-6, duration=1e-6)
    assert stall.covers(0, 5, 1.5e-6)
    assert not stall.covers(1, 5, 1.5e-6)
    assert not stall.covers(0, 5, 2.5e-6)
    link = LinkWindow(node=ANY, start=0.0, end=1e-6)
    assert link.covers(3, 0.5e-6) and not link.covers(3, 1e-6)


# --------------------------------------------------------------- injector

def _msg(size=8, payload=None):
    return WireMessage(kind=MessageKind.EAGER, src_node=0, dst_node=1,
                       src_rank=0, dst_rank=1, context_id=0, tag=0,
                       size=size, payload=payload)


def test_injector_same_seed_same_decisions():
    plan = FaultPlan(drop=0.3, dup=0.2, corrupt=0.1, delay=0.2)
    outcomes = []
    for _ in range(2):
        inj = FaultInjector(Simulator(), plan, seed=7)
        outcomes.append([len(inj.wire_actions(_msg(), 0.0, 1e-8))
                         for _ in range(200)])
    assert outcomes[0] == outcomes[1]
    different = [len(FaultInjector(Simulator(), plan, seed=8).wire_actions(
        _msg(), 0.0, 1e-8)) for _ in range(200)]
    assert different != outcomes[0]


def test_injector_counters_and_link_windows():
    plan = FaultPlan(links=(LinkWindow(node=0, start=0.0, end=1e-6),))
    inj = FaultInjector(Simulator(), plan, seed=0)
    assert inj.wire_actions(_msg(), 0.5e-6, 1e-8) == []   # inside: dropped
    assert len(inj.wire_actions(_msg(), 2e-6, 1e-8)) == 1  # outside
    assert inj.link_drops == 1 and inj.messages_seen == 2

    degraded = FaultInjector(Simulator(), FaultPlan(links=(
        LinkWindow(node=0, start=0.0, end=1e-6, kind="degraded",
                   factor=5.0),)), seed=0)
    (d,) = degraded.wire_actions(_msg(), 0.5e-6, 1e-8)
    assert d.extra_delay == pytest.approx(4e-8)  # wire_time * (factor-1)


def test_corruption_copies_never_mutate_the_original():
    payload = np.arange(4.0)
    msg = _msg(size=32, payload=payload)
    msg.checksum = payload_checksum(payload)
    inj = FaultInjector(Simulator(), FaultPlan(corrupt=1.0), seed=0)
    (d,) = inj.wire_actions(msg, 0.0, 1e-8)
    assert d.msg is not msg
    assert np.array_equal(msg.payload, np.arange(4.0))  # sender copy clean
    assert payload_checksum(d.msg.payload) != d.msg.checksum


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(-2**31, 2**31 - 1), min_size=1,
                       max_size=24),
       dtype=st.sampled_from(["float64", "int32", "uint8", "bool",
                              "complex128"]),
       step=st.integers(1, 3))
def test_payload_checksum_is_the_crc_of_the_c_order_bytes(values, dtype,
                                                          step):
    """An array checksums as the crc32 of its C-order bytes whether it is
    C-contiguous (read in place), strided or 0-d; anything else as the
    crc32 of its ``repr``."""
    base = np.array(values).astype(dtype)
    rows = len(values) // 2
    arrays = [base, base[::step], base[::-1], np.array(values[0]).astype(
        dtype), base[:2 * rows].reshape(rows, 2).T]
    for a in arrays:
        before = a.copy()
        assert payload_checksum(a) == zlib.crc32(
            np.ascontiguousarray(a).tobytes())
        assert np.array_equal(a, before)
    for other in (values, tuple(values), bytes(len(values)),
                  {"n": values[0]}, "text", 7):
        assert payload_checksum(other) == zlib.crc32(repr(other).encode())


def test_stall_until():
    plan = FaultPlan(stalls=(CtxStall(0, 1, 1e-6, 2e-6),
                             CtxStall(0, 1, 2e-6, 4e-6)))
    inj = FaultInjector(Simulator(), plan, seed=0)
    assert inj.stall_until(0, 1, 0.5e-6) == 0.0
    assert inj.stall_until(0, 1, 1.5e-6) == pytest.approx(3e-6)
    assert inj.stall_until(0, 1, 2.5e-6) == pytest.approx(6e-6)  # max end
    assert inj.stall_until(1, 1, 1.5e-6) == 0.0


# ------------------------------------------------- transport correctness

def test_pt2pt_exact_delivery_on_lossy_fabric():
    world = lossy_world(FaultPlan(drop=0.2, dup=0.1, corrupt=0.05), seed=3)
    n = 16
    got = []

    def sender(proc):
        for i in range(n):
            yield from proc.comm_world.Send(
                np.full(4, float(i)), dest=1, tag=i)

    def receiver(proc):
        for i in range(n):
            buf = np.zeros(4)
            yield from proc.comm_world.Recv(buf, source=0, tag=i)
            got.append(buf.copy())

    run_ranks(world, sender, receiver)
    for i, buf in enumerate(got):
        assert np.array_equal(buf, np.full(4, float(i)))
    total = sum(p.lib.transport.summary()["retransmits"]
                for p in world.procs)
    assert total > 0  # the plan really did bite


def test_fifo_order_preserved_per_channel_under_loss():
    """Same-channel messages with the same tag must arrive in post order
    even when drops/dups scramble the physical arrival order."""
    world = lossy_world(FaultPlan(drop=0.25, dup=0.2), seed=5)
    n = 12
    got = []

    def sender(proc):
        reqs = []
        for i in range(n):
            reqs.append((yield from proc.comm_world.Isend(
                np.array([float(i)]), dest=1, tag=7)))
        for r in reqs:
            yield from r.wait()

    def receiver(proc):
        for _ in range(n):
            buf = np.zeros(1)
            yield from proc.comm_world.Recv(buf, source=0, tag=7)
            got.append(float(buf[0]))

    run_ranks(world, sender, receiver)
    assert got == [float(i) for i in range(n)]


def test_rendezvous_survives_loss():
    """Large (rendezvous-path) messages: RTS/CTS/DATA all droppable."""
    cfg = NetworkConfig()
    big = cfg.fabric.eager_threshold // 8 + 64  # float64s > threshold
    world = World(cluster=ClusterSpec(nodes=2, network=cfg),
                  faults=FaultPlan(drop=0.15, dup=0.05), seed=2)
    data = np.arange(float(big))
    out = np.zeros(big)

    def sender(proc):
        yield from proc.comm_world.Send(data, dest=1, tag=0)

    def receiver(proc):
        yield from proc.comm_world.Recv(out, source=0, tag=0)

    run_ranks(world, sender, receiver)
    assert np.array_equal(out, data)


def test_ack_drops_are_recovered_by_dup_suppression():
    """Heavy loss also kills ACKs: the sender retransmits delivered data
    and the receiver must suppress the duplicates, not redeliver."""
    world = lossy_world(FaultPlan(drop=0.35), seed=11,
                        transport=TransportParams(rto=6e-6))

    def sender(proc):
        for i in range(10):
            yield from proc.comm_world.Send(np.array([float(i)]),
                                            dest=1, tag=i)

    def receiver(proc):
        for i in range(10):
            buf = np.zeros(1)
            yield from proc.comm_world.Recv(buf, source=0, tag=i)
            assert buf[0] == float(i)

    run_ranks(world, sender, receiver)
    stats = [p.lib.transport.summary() for p in world.procs]
    assert sum(s["retransmits"] for s in stats) > 0
    # exactly-once: each rank completed all receives despite duplicates
    assert world.procs[1].lib.recvs_completed == 10


def test_transport_gives_up_with_transport_error():
    world = lossy_world(FaultPlan(drop=1.0), seed=0,
                        transport=TransportParams(rto=2e-6, max_retries=3))

    def sender(proc):
        yield from proc.comm_world.Send(np.zeros(2), dest=1, tag=0)

    def receiver(proc):
        buf = np.zeros(2)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)

    with pytest.raises(TransportError) as exc_info:
        run_ranks(world, sender, receiver)
    err = exc_info.value
    assert err.retries == 3
    assert err.flow == (0, 1, err.flow[2], err.flow[3])


def test_reliable_transport_is_noop_on_lossless_fabric():
    """transport= alone (no faults) must not change delivered data."""
    world = World(num_nodes=2, procs_per_node=1,
                  transport=TransportParams())
    out = np.zeros(8)

    def sender(proc):
        yield from proc.comm_world.Send(np.arange(8.0), dest=1, tag=0)

    def receiver(proc):
        yield from proc.comm_world.Recv(out, source=0, tag=0)

    run_ranks(world, sender, receiver)
    assert np.array_equal(out, np.arange(8.0))
    assert all(p.lib.transport.retransmits == 0 for p in world.procs)
    world.run()  # drain in-flight ACKs and armed (no-op) timers
    assert all(p.lib.transport.retransmits == 0 for p in world.procs)
    assert all(p.lib.transport.unacked == 0 for p in world.procs)


# -------------------------------------------------- graceful degradation

def test_context_stall_fails_over_to_another_context():
    plan = FaultPlan(stalls=(CtxStall(node=0, ctx=0, start=0.0,
                                      duration=1.0),))
    world = World(num_nodes=2, procs_per_node=1, threads_per_proc=2,
                  faults=plan, seed=0)

    def rank0(proc):
        yield from proc.comm_world.Send(np.arange(4.0), dest=1, tag=0)

    def rank1(proc):
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)
        assert np.array_equal(buf, np.arange(4.0))

    run_ranks(world, rank0, rank1)
    assert world.injector.failovers > 0
    nic0 = world.nodes[0].nic
    assert hw_context(nic0, 0).messages_issued == 0  # wedged queue unused
    assert sum(c.failovers_in for c in nic0.built_contexts()) > 0


def test_context_stall_waits_when_no_failover_target():
    cfg = NetworkConfig().with_contexts(1)  # nowhere to fail over to
    stall_end = 40e-6
    plan = FaultPlan(stalls=(CtxStall(node=0, ctx=0, start=0.0,
                                      duration=stall_end),))
    world = World(cluster=ClusterSpec(nodes=2, network=cfg), faults=plan)

    def rank0(proc):
        yield from proc.comm_world.Send(np.arange(2.0), dest=1, tag=0)
        return proc.sim.now

    def rank1(proc):
        buf = np.zeros(2)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)
        return proc.sim.now

    t0, t1 = run_ranks(world, rank0, rank1)
    assert hw_context(world.nodes[0].nic, 0).stall_waits > 0
    assert t1 >= stall_end  # nothing left node 0 before the stall ended


def test_down_link_window_is_ridden_out():
    plan = FaultPlan(links=(LinkWindow(node=0, start=0.0, end=30e-6),))
    world = lossy_world(plan, seed=0,
                        transport=TransportParams(rto=8e-6))

    def rank0(proc):
        yield from proc.comm_world.Send(np.arange(4.0), dest=1, tag=0)

    def rank1(proc):
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)
        assert np.array_equal(buf, np.arange(4.0))
        return proc.sim.now

    results = run_ranks(world, rank0, rank1)
    assert results[1] >= 30e-6
    assert world.injector.link_drops > 0


# ----------------------------------------- every mapping, lossy stencil

def _stencil_cfg(mech, seed=1, points=5):
    return StencilConfig(proc_grid=(2, 2), thread_grid=(2, 2),
                         pnx=6, pny=6, stencil_points=points, iters=3,
                         mechanism=mech, seed=seed)


@pytest.mark.parametrize("mech", MECHANISMS)
def test_every_mechanism_correct_on_lossy_fabric(mech):
    r = run_stencil(_stencil_cfg(mech), faults=LOSSY)
    assert r.correct
    retransmits = sum(p.lib.transport.retransmits for p in r.world.procs)
    assert retransmits > 0
    assert r.world.injector.drops > 0


@pytest.mark.parametrize("mech", ("original", "endpoints"))
def test_same_seed_reproduces_identical_run(mech):
    a = run_stencil(_stencil_cfg(mech), faults=LOSSY)
    b = run_stencil(_stencil_cfg(mech), faults=LOSSY)
    assert a.wall_time == b.wall_time
    assert a.sim_steps == b.sim_steps
    assert a.world.injector.summary() == b.world.injector.summary()


def test_lossy_field_byte_identical_to_lossless():
    clean = run_stencil(_stencil_cfg("tags"))
    lossy = run_stencil(_stencil_cfg("tags"), faults=LOSSY)
    assert clean.final_field.tobytes() == lossy.final_field.tobytes()


# --------------------------------------------- observability integration

def test_fault_metrics_and_trace_spans():
    from repro.obs import MetricsRegistry
    metrics = MetricsRegistry()
    tracer = Tracer()
    r = run_stencil(_stencil_cfg("original"),
                    faults=FaultPlan(drop=0.15), metrics=metrics,
                    tracer=tracer)
    assert r.correct
    r.world.finalize_metrics()
    drops = sum(m.value for m in metrics.series("fault.drop"))
    assert drops == r.world.injector.drops > 0
    retrans = sum(m.value
                  for m in metrics.series("transport.total.retransmits"))
    assert retrans > 0
    assert metrics.value("fault.total.drops") == r.world.injector.drops
    assert tracer.count(TraceCategory.FAULT_DROP) == r.world.injector.drops
    assert tracer.count(TraceCategory.RETRANSMIT) == retrans
    # recovery spans pair up: every recovered packet ends its span
    pairing = tracer.pair_spans(TraceCategory.RECOVERY_BEGIN,
                                TraceCategory.RECOVERY_END)
    assert pairing.orphan_ends == 0
    if pairing.spans:
        assert all(b <= e for b, e in pairing.spans)


def test_a_failover_target_built_for_failover_is_metered():
    """Node 0's context 0 stalls for the whole run and its traffic fails
    over to context 1, a slot nothing allocated: the NIC builds it for
    the failover, and it gets its injector-queue histogram then, like an
    allocated context does."""
    from repro.obs import MetricsRegistry
    metrics = MetricsRegistry()
    r = run_stencil(_stencil_cfg("original", points=9),
                    faults=FaultPlan(stalls=(CtxStall(0, 0, 0.0, 1.0),)),
                    metrics=metrics)
    assert r.correct
    target = hw_context(r.world.nodes[0].nic, 1)
    assert target.failovers_in > 0
    hist = metrics.get("nic.inject.queue_delay", node=0, ctx=1)
    assert hist is not None and hist.count == target.failovers_in


def test_fault_trace_is_a_function_of_the_run():
    """The same traced, fault-injected stencil twice in one process: every
    record equal, fault payloads included (they once carried a message
    number that counted across every World the process had built)."""
    def records():
        tracer = Tracer()
        run_stencil(_stencil_cfg("endpoints"), faults=LOSSY, tracer=tracer)
        return [(r.time, r.category.name, r.payload) for r in tracer]

    first, second = records(), records()
    assert any(name == "fault.drop" for _, name, _ in first)
    assert first == second


def test_metrics_do_not_perturb_lossy_timings():
    from repro.obs import MetricsRegistry
    bare = run_stencil(_stencil_cfg("communicators"), faults=LOSSY)
    instrumented = run_stencil(_stencil_cfg("communicators"), faults=LOSSY,
                               metrics=MetricsRegistry(), tracer=Tracer())
    assert bare.wall_time == instrumented.wall_time
    assert bare.sim_steps == instrumented.sim_steps


def test_reliability_report_renders():
    r = run_stencil(_stencil_cfg("original"), faults=LOSSY)
    text = render_reliability_report(r.world)
    assert "fault plan" in text and "reliable transport" in text
    assert "retransmits" in text
    plain = run_stencil(_stencil_cfg("original"))
    assert "disabled" in render_reliability_report(plain.world)


def test_faults_cli_subcommand(capsys):
    from repro.cli import main
    rc = main(["stencil", "--plan", "drop=0.05,dup=0.02", "--seed", "1",
               "--iters", "2", "--threads", "2", "2", "--points", "5",
               "--mechanisms", "original", "partitioned"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reliable transport" in out
    assert "per-VCI metrics" in out
    assert "stencil on a lossy fabric" in out
    assert "False" not in out  # every mechanism correct


def test_faults_cli_rejects_bad_plan(capsys):
    from repro.cli import main
    assert main(["stencil", "--plan", "drop=oops"]) == 2


@pytest.mark.parametrize("document, blame", [
    ({"stalls": [{"node": 0}]}, "entry {'node': 0} lacks key 'start'"),
    ({"links": [3]}, "bad fault plan entry 3:"),
    ([1, 2], "must be a mapping, got [1, 2]"),
], ids=["stall-without-start", "link-not-a-mapping", "plan-not-a-mapping"])
def test_faults_cli_rejects_a_malformed_plan_file(tmp_path, capsys,
                                                  document, blame):
    """A plan file of the wrong shape is an ``error:`` line and exit 2,
    never a traceback; a scenario holding it is a ScenarioError."""
    from repro.cli import main
    from repro.errors import ScenarioError
    from repro.scenarios.spec import ScenarioSpec
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(document))
    assert main(["stencil", "--plan", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad fault plan:") and blame in err
    with pytest.raises(ScenarioError, match=re.escape(blame)):
        ScenarioSpec.from_dict({"app": "stencil", "faults": document})


# ------------------------------------------------- deadlock diagnostics

def test_deadlock_report_names_pending_state():
    world = World(num_nodes=2, procs_per_node=1)

    def rank0(proc):
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=1, tag=3)  # never sent

    def rank1(proc):
        yield proc.sim.timeout(1e-6)

    with pytest.raises(SimulationError) as exc_info:
        run_ranks(world, rank0, rank1)
    text = str(exc_info.value)
    assert "deadlock?" in text
    assert "blocked tasks" in text
    assert "rank 0" in text
    assert "posted recv" in text


def test_deadlock_report_names_unexpected_messages():
    world = World(num_nodes=2, procs_per_node=1)

    def rank0(proc):
        yield from proc.comm_world.Send(np.zeros(2), dest=1, tag=9)
        buf = np.zeros(2)
        yield from proc.comm_world.Recv(buf, source=1, tag=0)  # stuck

    def rank1(proc):
        yield proc.sim.timeout(50e-6)  # receives nothing, sends nothing

    with pytest.raises(SimulationError) as exc_info:
        run_ranks(world, rank0, rank1)
    text = str(exc_info.value)
    assert "unexpected msg" in text and "rank 1" in text


# -------------------------------------------------- property (hypothesis)

PLAN_STRATEGY = st.builds(
    FaultPlan,
    drop=st.floats(min_value=0.0, max_value=0.15),
    dup=st.floats(min_value=0.0, max_value=0.1),
    corrupt=st.floats(min_value=0.0, max_value=0.1),
    delay=st.floats(min_value=0.0, max_value=0.2),
)

FAULT_SETTINGS = settings(max_examples=10, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow,
                                                 HealthCheck.data_too_large])


@FAULT_SETTINGS
@given(plan=PLAN_STRATEGY, seed=st.integers(min_value=0, max_value=2**16),
       mech=st.sampled_from(MECHANISMS))
def test_property_lossy_run_matches_lossless_bytes(plan, seed, mech):
    """For any fault plan: the transferred data is byte-identical to the
    lossless run, and the same seed reproduces the same event count."""
    cfg = _stencil_cfg(mech, seed=seed)
    lossless = run_stencil(cfg)
    lossy = run_stencil(cfg, faults=plan)
    assert lossy.correct
    assert lossy.final_field.tobytes() == lossless.final_field.tobytes()
    again = run_stencil(cfg, faults=plan)
    assert again.sim_steps == lossy.sim_steps
    assert again.wall_time == lossy.wall_time


@FAULT_SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**16),
       drop=st.floats(min_value=0.05, max_value=0.3),
       dup=st.floats(min_value=0.0, max_value=0.2))
def test_property_pt2pt_payloads_survive_any_plan(seed, drop, dup):
    world = lossy_world(FaultPlan(drop=drop, dup=dup), seed=seed)
    n = 6
    got = {}

    def sender(proc):
        for i in range(n):
            yield from proc.comm_world.Send(
                np.full(3, float(seed % 97 + i)), dest=1, tag=i)

    def receiver(proc):
        for i in range(n):
            buf = np.zeros(3)
            yield from proc.comm_world.Recv(buf, source=0, tag=i)
            got[i] = buf.copy()

    run_ranks(world, sender, receiver)
    for i in range(n):
        assert np.array_equal(got[i], np.full(3, float(seed % 97 + i)))
