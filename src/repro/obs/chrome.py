"""Chrome ``chrome://tracing`` / Perfetto JSON exporter.

Builds a Trace Event Format document from a :class:`~repro.sim.trace.Tracer`:
begin/end category pairs become complete ("X") duration events, everything
else becomes instant ("i") events. Which end closes which begin is decided
by :func:`repro.sim.trace.pair_records` — the same rule
:meth:`Tracer.pair_spans` reports — so a span drawn here is the span
measured there.

Track mapping (:func:`repro.sim.trace.record_track`): ``pid`` is the MPI
rank (payload key ``rank``), ``tid`` is the simulated task (payload key
``task``, falling back to ``vci``), interned to small integers with
thread-name metadata events so Perfetto shows readable lanes. Timestamps
are simulated microseconds.

The export is deterministic: same seed, same bytes.
"""

from __future__ import annotations

import json
from typing import IO, Any, Optional, Union

from ..sim.trace import Category, TraceRecord, Tracer, pair_records, \
    record_track
from .metrics import MetricsRegistry

__all__ = ["build_chrome_trace", "export_chrome_trace"]

_US = 1e6  # seconds -> Chrome-trace microseconds


def _payload_dict(record: TraceRecord) -> dict[str, Any]:
    return record.payload if isinstance(record.payload, dict) else {}


def _span_name(begin: Category) -> str:
    name = begin.name
    return name[:-len(".begin")] if name.endswith(".begin") else name


class _TrackInterner:
    """Stable (pid, tid) assignment plus thread-name metadata events."""

    def __init__(self) -> None:
        self._tids: dict[tuple[int, str], int] = {}
        self.metadata: list[dict[str, Any]] = []

    def track(self, record: TraceRecord) -> tuple[int, int]:
        """Map a record to stable Chrome (pid, tid) track ids."""
        key = pid, name = record_track(record)
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[key] = tid
            self.metadata.append({
                "args": {"name": name}, "name": "thread_name",
                "ph": "M", "pid": pid, "tid": tid,
            })
        return pid, tid


def build_chrome_trace(tracer: Tracer,
                       metrics: Optional[MetricsRegistry] = None
                       ) -> dict[str, Any]:
    """Assemble the Trace Event Format document as a plain dict."""
    tracks = _TrackInterner()
    events: list[dict[str, Any]] = []
    pairing = pair_records(tracer.records)
    begin_of = {id(end): begin for begin, end in pairing.pairs}

    for record in tracer.records:
        cat = record.category
        if cat.kind == "begin":
            tracks.track(record)  # lanes are numbered in order of first use
        elif cat.kind == "end":
            brec = begin_of.get(id(record))
            if brec is None:
                continue
            pid, tid = tracks.track(brec)
            args = dict(_payload_dict(brec))
            args.update(_payload_dict(record))
            args.pop("span", None)
            events.append({
                "args": args, "cat": cat.layer, "dur": (record.time
                                                        - brec.time) * _US,
                "name": _span_name(brec.category), "ph": "X",
                "pid": pid, "tid": tid, "ts": brec.time * _US,
            })
        else:
            pid, tid = tracks.track(record)
            args = _payload_dict(record)
            events.append({
                "args": args, "cat": cat.layer, "name": cat.name,
                "ph": "i", "pid": pid, "tid": tid, "s": "t",
                "ts": record.time * _US,
            })

    events.sort(key=lambda e: e["ts"])  # stable: ties keep emit order
    doc: dict[str, Any] = {
        "displayTimeUnit": "ns",
        "otherData": {
            "orphan_end_records": pairing.orphan_ends,
            "unmatched_begin_records": pairing.unmatched_begins,
            "record_count": len(tracer.records),
        },
        "traceEvents": tracks.metadata + events,
    }
    if metrics is not None:
        doc["otherData"]["metrics"] = metrics.snapshot()
    return doc


def export_chrome_trace(tracer: Tracer,
                        dest: Optional[Union[str, IO[str]]] = None,
                        metrics: Optional[MetricsRegistry] = None) -> str:
    """Serialize the trace to Chrome-trace JSON.

    ``dest`` may be a path or an open text file; either way the JSON text
    is returned. Output is byte-stable for identical simulations.
    """
    doc = build_chrome_trace(tracer, metrics=metrics)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if isinstance(dest, str):
        with open(dest, "w") as fh:
            fh.write(text)
    elif dest is not None:
        dest.write(text)
    return text
