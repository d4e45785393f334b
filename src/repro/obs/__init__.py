"""Observability subsystem: metrics, contention histograms, trace export.

The paper's claims are statements about *where time and contention go*
inside the MPI library — per-VCI lock queues, doorbell serialization,
matching-queue depth, hardware-context occupancy. This package is the
instrument panel for those quantities:

- :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — counters, gauges
  and weighted histograms; handed to ``World(metrics=...)``, which
  installs it on the simulator, where every hot layer finds it. It holds
  no clock: a World's registry records simulated quantities.
- :func:`collect_world` (:mod:`repro.obs.collect`) — end-of-run harvest
  of structural stats (VCI totals, context occupancy, link saturation).
- :func:`render_report` / :func:`render_vci_report`
  (:mod:`repro.obs.report`) — plain-text profiling reports.
- :func:`export_chrome_trace` (:mod:`repro.obs.chrome`) — Chrome
  ``chrome://tracing`` / Perfetto JSON built from typed trace spans.

Typical use (or just run ``python -m repro msgrate --profile``)::

    from repro import MetricsRegistry, World
    from repro.obs import render_report

    metrics = MetricsRegistry()
    world = World(num_nodes=2, metrics=metrics)
    ...  # run the experiment
    world.finalize_metrics()
    print(render_report(metrics))
"""

from .. import _lazy
from ..sim.trace import Category, SpanPairing, TraceCategory, Tracer
from .metrics import (
    DEPTH_BUCKETS,
    DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    instrument_lock,
)

#: Every hot layer records into a registry; the harvest, the reports and
#: the trace export run after a run, so they load then.
__getattr__, __dir__ = _lazy(__name__, {
    ".chrome": ("build_chrome_trace", "export_chrome_trace"),
    ".collect": ("collect_world",),
    ".report": ("render_metrics_report", "render_report",
                "render_vci_report"),
})

__all__ = [
    "Category",
    "Counter",
    "DEPTH_BUCKETS",
    "DURATION_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanPairing",
    "TraceCategory",
    "Tracer",
    "build_chrome_trace",
    "collect_world",
    "export_chrome_trace",
    "instrument_lock",
    "render_metrics_report",
    "render_report",
    "render_vci_report",
]
