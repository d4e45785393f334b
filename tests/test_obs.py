"""Tests for the observability subsystem (:mod:`repro.obs`).

Covers the metric primitives, the typed trace-category namespace, the
issue-path stage accounting against a hand-computed scenario, the
Chrome-trace exporter's schema, determinism of the whole pipeline, and a
lint rule banning raw string categories at ``Tracer.emit`` call sites.
"""

import json
import pathlib
from collections import Counter

import pytest

from repro.apps.stencil import StencilConfig, run_stencil
from repro.bench.msgrate import MsgRateConfig, run_msgrate
from repro.faults import parse_plan
from repro.netsim.message import MessageKind, WireMessage
from repro.obs import (
    DEPTH_BUCKETS,
    Category,
    MetricsRegistry,
    TraceCategory,
    Tracer,
    build_chrome_trace,
    export_chrome_trace,
    render_report,
    render_vci_report,
)
from repro.runtime.world import World

NS = 1e-9


# ------------------------------------------------------------- primitives

def test_counter_math():
    m = MetricsRegistry()
    c = m.counter("c", rank=0)
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    assert m.counter("c", rank=0) is c          # get-or-create
    assert m.counter("c", rank=1) is not c      # distinct labels
    m.inc("c", rank=0)
    assert m.value("c", rank=0) == 4.5


def test_gauge_keeps_last_max_and_samples():
    m = MetricsRegistry()
    g = m.gauge("g", rank=0)
    g.set(10.0)
    g.set(2.0)
    assert m.gauge("g", rank=0) is g            # get-or-create
    assert g.as_dict() == {"value": 2.0, "max": 10.0, "samples": 2}


def test_histogram_math():
    m = MetricsRegistry()
    h = m.histogram("h")
    for v in (1e-9, 3e-9, 100e-9):
        h.observe(v)
    assert h.count == 3
    assert h.mean == pytest.approx(104e-9 / 3)
    assert h.min_value == 1e-9 and h.max_value == 100e-9
    assert h.quantile(1.0) >= 100e-9
    assert sum(h.bucket_weights) == pytest.approx(3.0)


def test_histogram_weighted_observations():
    m = MetricsRegistry()
    h = m.histogram("depth", bounds=DEPTH_BUCKETS)
    h.observe(2, weight=3.0)   # 3 seconds at depth 2
    h.observe(4, weight=1.0)   # 1 second at depth 4
    assert h.weight == pytest.approx(4.0)
    # depth 2 holds 3/4 of the mass, so the median bucket bound is 2
    assert h.quantile(0.5) == 2.0


def test_snapshot_is_deterministic_and_sorted():
    m = MetricsRegistry()
    m.inc("z.last", rank=1)
    m.inc("a.first", rank=1)
    m.inc("a.first", rank=0)
    snap = m.snapshot()
    assert list(snap) == ["a.first", "z.last"]
    assert [s["labels"] for s in snap["a.first"]] == ["rank=0", "rank=1"]


# ------------------------------------------------------ typed categories

def _span(name):
    """A begin/end category pair as the library declares its own."""
    return (Category(f"{name}.begin", "app", "begin", f"{name}.end"),
            Category(f"{name}.end", "app", "end", f"{name}.begin"))


def test_pair_spans_counts_orphans():
    b, e = _span("obs.test.orphans")
    tr = Tracer()
    tr.emit(e)          # orphan end: no outstanding begin
    tr.emit(b)
    tr.emit(e)
    tr.emit(b)          # never closed
    pairing = tr.pair_spans(b, e)
    assert pairing.spans == [(0.0, 0.0)]
    assert pairing.orphan_ends == 1
    assert pairing.unmatched_begins == 1
    assert pairing.total_time == 0.0


class _Clock:
    """A hand-set clock for tracers driven without a simulator."""

    now = 0.0


def _emit_at(records):
    clock, tr = _Clock(), Tracer()
    tr.bind(clock)
    for clock.now, category, payload in records:
        tr.emit(category, payload)
    return tr


def test_pair_spans_pairs_by_span_id():
    b, e = _span("obs.test.by_id")
    # A 0->5 with B 1->2 nested inside it (FIFO pairing reports 0->2 and
    # 1->5), then C 6->8 and D 7->9 interleaved.
    tr = _emit_at([(0.0, b, {"span": 1}), (1.0, b, {"span": 2}),
                   (2.0, e, {"span": 2}), (5.0, e, {"span": 1}),
                   (6.0, b, {"span": 3}), (7.0, b, {"span": 4}),
                   (8.0, e, {"span": 3}), (9.0, e, {"span": 4})])
    pairing = tr.pair_spans(b, e)
    assert pairing.spans == [(1.0, 2.0), (0.0, 5.0), (6.0, 8.0), (7.0, 9.0)]
    assert [(x.payload["span"], y.payload["span"])
            for x, y in pairing.pairs] == [(2, 2), (1, 1), (3, 3), (4, 4)]
    assert pairing.orphan_ends == pairing.unmatched_begins == 0
    assert pairing.total_time == 1.0 + 5.0 + 2.0 + 2.0


def test_pair_spans_without_ids_is_fifo_per_track():
    b, e = _span("obs.test.fifo")
    tr = _emit_at([(0.0, b, {"rank": 0, "task": "x"}),
                   (1.0, b, {"rank": 0, "task": "y"}),
                   (2.0, e, {"rank": 0, "task": "y"}),
                   (3.0, e, {"rank": 0, "task": "x"}),
                   (4.0, e, {"rank": 1, "task": "x"})])
    pairing = tr.pair_spans(b, e)
    assert pairing.spans == [(1.0, 2.0), (0.0, 3.0)]
    assert pairing.orphan_ends == 1
    with pytest.raises(ValueError, match="not a declared"):
        tr.pair_spans(e, b)


def _span_multiset(pairing):
    return Counter((start * 1e6, (stop - start) * 1e6)
                   for start, stop in pairing.spans)


def _chrome_multiset(tracer, name):
    return Counter((e["ts"], e["dur"])
                   for e in build_chrome_trace(tracer)["traceEvents"]
                   if e["ph"] == "X" and e["name"] == name)


def test_pair_spans_and_chrome_export_draw_the_same_spans():
    """One pairing rule, two views: what ``pair_spans`` measures is what
    the Chrome export draws, span for span."""
    lossy, fig1a = Tracer(), Tracer()
    run_stencil(StencilConfig(proc_grid=(2, 2), thread_grid=(2, 2), pnx=6,
                              pny=6, stencil_points=5, iters=3,
                              mechanism="endpoints", seed=1),
                faults=parse_plan("drop=0.1,dup=0.05,corrupt=0.02"),
                tracer=lossy)
    run_msgrate(MsgRateConfig(mode="everywhere", cores=8, msgs_per_core=8),
                tracer=fig1a)
    for tracer, name, begin, end, count in (
            (lossy, "transport.recovery", TraceCategory.RECOVERY_BEGIN,
             TraceCategory.RECOVERY_END, 13),
            (fig1a, "mpi.issue", TraceCategory.ISSUE_BEGIN,
             TraceCategory.ISSUE_END, 64),
            (fig1a, "mpi.match", TraceCategory.MATCH_BEGIN,
             TraceCategory.MATCH_END, 64)):
        pairing = tracer.pair_spans(begin, end)
        assert len(pairing.spans) == count and pairing.orphan_ends == 0
        assert _span_multiset(pairing) == _chrome_multiset(tracer, name)
    # Four recoveries were still in flight when the stencil finished.
    other = build_chrome_trace(lossy)["otherData"]
    assert other["unmatched_begin_records"] == lossy.pair_spans(
        TraceCategory.RECOVERY_BEGIN,
        TraceCategory.RECOVERY_END).unmatched_begins == 4


def test_world_keeps_enabled_but_empty_instruments():
    # Regression: both MetricsRegistry and Tracer are falsy when empty, so
    # World must test `is None`, not truthiness.
    m, t = MetricsRegistry(), Tracer()
    world = World(num_nodes=2, metrics=m, tracer=t)
    assert world.metrics is m and world.tracer is t
    bare = World(num_nodes=2)
    assert bare.metrics is None and bare.tracer is None


# --------------------------------------------- issue-path stage accounting

def _issue_world(metrics=None, tracer=None):
    return World(num_nodes=2, procs_per_node=1, threads_per_proc=2,
                 metrics=metrics, tracer=tracer)


def _eager(size=8):
    return WireMessage(kind=MessageKind.EAGER, src_node=0, dst_node=1,
                       src_rank=0, dst_rank=1, context_id=0, tag=0,
                       size=size, payload=None)


def test_issue_path_two_thread_accounting():
    """Two threads issue on one VCI at t=0; every stage is hand-computed.

    Cost model (defaults): lock_acquire 15 ns, lock_handoff 45 ns,
    doorbell 30 ns, issue_gap 180 ns, issue_per_byte 1/12.5e9. An 8-byte
    payload is 56 wire bytes, so injector service = 184.48 ns.

    Thread A: no lock wait, sw cost 15+30 = 45 ns, departs 229.48 ns.
    Thread B: waits 45 ns for the VCI lock, sw cost 15+45+30 = 90 ns,
    resumes at 135 ns, and departs behind A at 413.96 ns.
    """
    m = MetricsRegistry()
    world = _issue_world(metrics=m)
    lib = world.procs[0].lib
    vci = lib.vci_pool.get(0)
    departs = []

    def issuer():
        d = yield from lib.issue_from_thread(vci, _eager())
        departs.append(d)

    world.sim.spawn(issuer())
    world.sim.spawn(issuer())
    world.run()

    service = 180e-9 + 56 / 12.5e9
    assert departs[0] == pytest.approx(45 * NS + service)
    assert departs[1] == pytest.approx(max(departs[0], 135 * NS) + service)

    assert m.value("mpi.issue.count", rank=0, vci=0) == 2
    lock_wait = m.get("mpi.issue.lock_wait", rank=0, vci=0)
    assert lock_wait.count == 2
    assert lock_wait.total == pytest.approx(45 * NS)
    assert lock_wait.max_value == pytest.approx(45 * NS)
    assert m.get("mpi.issue.doorbell_wait", rank=0, vci=0).total == 0.0
    assert m.get("mpi.issue.sw_cost", rank=0, vci=0).total \
        == pytest.approx((45 + 90) * NS)
    inject = m.get("mpi.issue.inject_delay", rank=0, vci=0)
    assert inject.total == pytest.approx(service + (departs[1] - 135 * NS))

    # The generic lock observer saw the same contention.
    wait = m.get("sim.lock.wait", lock="vci0.lock", rank=0, vci=0)
    assert wait.count == 2 and wait.total == pytest.approx(45 * NS)
    hold = m.get("sim.lock.hold", lock="vci0.lock", rank=0, vci=0)
    assert hold.total == pytest.approx((45 + 90) * NS)
    assert m.value("nic.shared_post", rank=0, vci=0) == 0


def test_metrics_do_not_perturb_timings():
    bare, instrumented = [], []
    for sink in (bare, instrumented):
        m = MetricsRegistry() if sink is instrumented else None
        t = Tracer() if sink is instrumented else None
        world = _issue_world(metrics=m, tracer=t)
        lib = world.procs[0].lib
        vci = lib.vci_pool.get(0)

        def issuer():
            sink.append((yield from lib.issue_from_thread(vci, _eager())))

        world.sim.spawn(issuer())
        world.sim.spawn(issuer())
        world.run()
    assert bare == instrumented


# ------------------------------------------------------- chrome exporter

def _profiled_run(cores=2, msgs=8, seed=0):
    m, t = MetricsRegistry(), Tracer()
    run_msgrate(MsgRateConfig(mode="everywhere", cores=cores,
                              msgs_per_core=msgs, seed=seed),
                metrics=m, tracer=t)
    return m, t


def test_chrome_trace_schema():
    m, t = _profiled_run()
    doc = build_chrome_trace(t, metrics=m)
    assert doc["displayTimeUnit"] == "ns"
    assert doc["otherData"]["orphan_end_records"] == 0
    assert doc["otherData"]["unmatched_begin_records"] == 0
    assert doc["otherData"]["record_count"] == len(t)
    events = doc["traceEvents"]
    assert events, "expected a non-empty trace"
    phases = {e["ph"] for e in events}
    assert phases <= {"M", "X", "i"}
    for e in events:
        assert {"ph", "pid", "tid", "name"} <= e.keys()
        if e["ph"] == "X":
            assert e["dur"] >= 0.0 and "ts" in e and "cat" in e
        elif e["ph"] == "i":
            assert e["s"] == "t"
    # every mpi.issue span closed: one X event per issued message
    issues = [e for e in events if e["ph"] == "X" and e["name"] == "mpi.issue"]
    assert len(issues) == int(m.value("fabric.messages_delivered"))
    # body events are time-sorted
    ts = [e["ts"] for e in events if e["ph"] != "M"]
    assert ts == sorted(ts)
    # round-trips through the serializer
    assert json.loads(export_chrome_trace(t, metrics=m)) == doc


def test_chrome_trace_written_to_path(tmp_path):
    m, t = _profiled_run()
    dest = tmp_path / "trace.json"
    text = export_chrome_trace(t, str(dest), metrics=m)
    assert dest.read_text() == text
    assert json.loads(text)["traceEvents"]


def test_observability_pipeline_is_deterministic():
    m1, t1 = _profiled_run(seed=3)
    m2, t2 = _profiled_run(seed=3)
    assert m1.snapshot() == m2.snapshot()
    assert export_chrome_trace(t1, metrics=m1) \
        == export_chrome_trace(t2, metrics=m2)


def test_reports_render():
    m, _ = _profiled_run()
    vci_table = render_vci_report(m)
    assert "rank" in vci_table and "lockwait(us)" in vci_table
    full = render_report(m)
    assert "per-VCI metrics" in full
    assert "fabric.messages_delivered" in full


def _channel_accounting(mode):
    """Per-channel traffic and lock contention of a Fig 1(a) x4 point, read
    off the gauges ``collect_world`` leaves in the registry."""
    m = MetricsRegistry()
    run_msgrate(MsgRateConfig(mode=mode, cores=4, msgs_per_core=12),
                metrics=m)
    traffic = [s.value + r.value for s, r in zip(m.series("vci.sends"),
                                                 m.series("vci.recvs"))]
    contended = sum(round(a.value * c.value) for a, c in zip(
        m.series("vci.lock.acquisitions"),
        m.series("vci.lock.contention_ratio")))
    scans = sum(g.value for g in m.series("match.total_scans"))
    return traffic, contended, scans


def test_collect_world_shows_where_threads_wait():
    """The paper's accounting, on the one harvester: endpoints spread the
    traffic over more channels, no channel carries as large a share of
    it, and the shared channel of ``original`` is the contended one."""
    orig, orig_contended, orig_scans = _channel_accounting("threads-original")
    ep, ep_contended, _ = _channel_accounting("threads-endpoints")
    assert sum(t > 0 for t in ep) > sum(t > 0 for t in orig) >= 1
    # everything funnels through one channel per process
    assert max(orig) / sum(orig) > 0.45 > max(ep) / sum(ep)
    assert orig_contended >= ep_contended and orig_contended > 0
    assert orig_scans > 0


def test_profile_cli(tmp_path, capsys):
    from repro.cli import main
    dest = tmp_path / "out.json"
    rc = main(["msgrate", "--profile", "--modes", "everywhere", "--cores",
               "2", "--messages", "4", "--chrome-trace", str(dest)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lockwait(us)" in out and "chrome trace written" in out
    assert json.loads(dest.read_text())["traceEvents"]


# ----------------------------------------------------------------- lint

def test_no_raw_string_categories_at_emit_sites():
    """``Tracer.emit`` call sites must pass ``TraceCategory`` members, not
    string literals — enforced by lint rule L202 over src and tests."""
    from repro.check.lint import run_lint
    root = pathlib.Path(__file__).resolve().parent.parent
    findings = run_lint(roots=[root / "src", root / "tests"],
                        select=["L202"])
    findings = [f for f in findings
                if f.path != "tests/test_lint.py"]  # fixture strings
    assert not findings, (
        "raw string categories passed to .emit() (use TraceCategory "
        "members):\n"
        + "\n".join(f.describe() for f in findings))
