"""Typed event tracing for simulations.

A :class:`Tracer` collects ``(time, category, payload)`` records. Benchmarks
use it to derive per-phase timings (e.g. halo-exchange time vs compute
time), tests use it to assert ordering properties, and the observability
subsystem (:mod:`repro.obs`) turns begin/end pairs into Chrome-trace spans.

Categories are *typed*: every record carries a :class:`Category` instance
from the closed :class:`TraceCategory` namespace instead of a raw string.
This keeps category names collision-free across layers, lets the exporter
know which records pair up into spans (``kind``/``pair``), and gives each
record a layer ("mpi", "vci", "nic", "fabric", "sim", "app") for grouping.
Raw string literals at ``emit()`` call sites are rejected by lint rule
L202 and the lint test in ``tests/test_obs.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from .core import Simulator

__all__ = [
    "Category",
    "TraceCategory",
    "TraceRecord",
    "SpanPairing",
    "record_track",
    "pair_records",
    "Tracer",
]


@dataclass(frozen=True)
class Category:
    """One trace category: a name plus exporter metadata.

    ``kind`` is ``"instant"``, ``"begin"`` or ``"end"``; begin/end
    categories name their counterpart in ``pair`` so exporters can match
    them into spans without guessing.
    """

    name: str
    layer: str = "app"
    kind: str = "instant"
    pair: str = ""

    def __str__(self) -> str:
        return self.name


class TraceCategory:
    """Namespace of the library's trace categories: the closed set every
    emit site draws from."""

    # -- MPI library: issue path ------------------------------------------
    ISSUE_BEGIN = Category("mpi.issue.begin", "mpi", "begin", "mpi.issue.end")
    ISSUE_END = Category("mpi.issue.end", "mpi", "end", "mpi.issue.begin")
    ISSUE_ASYNC = Category("mpi.issue.async", "mpi")

    # -- matching engine ---------------------------------------------------
    MATCH_BEGIN = Category("mpi.match.begin", "mpi", "begin", "mpi.match.end")
    MATCH_END = Category("mpi.match.end", "mpi", "end", "mpi.match.begin")
    MATCH_UNEXPECTED = Category("mpi.match.unexpected", "mpi")

    # -- fabric ------------------------------------------------------------
    MSG_DELIVER = Category("fabric.deliver", "fabric")
    #: One instant per per-link hop of a routed message (see
    #: :class:`repro.netsim.topology.routed.RoutedFabric`).
    LINK_HOP = Category("topo.link.hop", "fabric")

    # -- fault injection (repro.faults) ------------------------------------
    FAULT_DROP = Category("fault.drop", "fault")
    FAULT_DUP = Category("fault.dup", "fault")
    FAULT_CORRUPT = Category("fault.corrupt", "fault")
    FAULT_DELAY = Category("fault.delay", "fault")
    LINK_DROP = Category("fault.link_drop", "fault")
    CTX_FAILOVER = Category("nic.ctx_failover", "nic")

    # -- reliable transport -------------------------------------------------
    RETRANSMIT = Category("transport.retransmit", "transport")
    DUP_SUPPRESSED = Category("transport.dup_suppressed", "transport")
    CORRUPT_DROP = Category("transport.corrupt_drop", "transport")
    #: Loss-recovery span: first retransmission of a packet to the ACK
    #: that finally clears it.
    RECOVERY_BEGIN = Category("transport.recovery.begin", "transport",
                             "begin", "transport.recovery.end")
    RECOVERY_END = Category("transport.recovery.end", "transport", "end",
                           "transport.recovery.begin")


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace event: (time, category, payload)."""

    time: float
    category: Category
    payload: Any


@dataclass
class SpanPairing:
    """Result of pairing begin/end records into spans.

    ``pairs`` holds ``(begin record, end record)`` in the order the spans
    closed; ``unmatched_begins`` counts begin records with no end;
    ``orphan_ends`` counts end records that arrived with no outstanding
    begin (previously these were dropped silently).
    """

    pairs: list[tuple[TraceRecord, TraceRecord]] = field(default_factory=list)
    unmatched_begins: int = 0
    orphan_ends: int = 0

    @property
    def spans(self) -> list[tuple[float, float]]:
        """The ``(start, stop)`` times of :attr:`pairs`."""
        return [(begin.time, end.time) for begin, end in self.pairs]

    @property
    def total_time(self) -> float:
        return sum(end.time - begin.time for begin, end in self.pairs)


def record_track(record: TraceRecord) -> tuple[int, str]:
    """The lane a record belongs to: ``(rank, task)`` from its payload.

    The rank is payload key ``rank`` (else ``pid``, else 0); the task is
    payload key ``task``, falling back to ``vci<n>`` and then ``main``.
    """
    payload = record.payload if isinstance(record.payload, dict) else {}
    name = payload.get("task")
    if name is None:
        vci = payload.get("vci")
        name = f"vci{vci}" if vci is not None else "main"
    return int(payload.get("rank", payload.get("pid", 0))), str(name)


def pair_records(records: Iterable[TraceRecord]) -> SpanPairing:
    """Decide which end record closes which begin record: the one rule.

    A begin record opens a span named by its category; an end record
    closes a span of the category its ``pair`` names. Records whose
    payload carries a ``span`` id (handed out by :meth:`Tracer.span_id`)
    pair by that id, so interleaved and nested spans come out right;
    records without one (user phases) pair FIFO within their
    :func:`record_track` lane. O(n) over the records.
    """
    pairing = SpanPairing()
    open_spans: dict[tuple[str, tuple], deque[TraceRecord]] = {}
    for record in records:
        cat = record.category
        if cat.kind not in ("begin", "end"):
            continue
        payload = record.payload
        span = payload.get("span") if isinstance(payload, dict) else None
        # An id is a lane of its own; without one, the record's track is.
        lane = ("span", span) if span is not None else record_track(record)
        if cat.kind == "begin":
            open_spans.setdefault((cat.name, lane), deque()).append(record)
        elif queue := open_spans.get((cat.pair, lane)):
            pairing.pairs.append((queue.popleft(), record))
        else:
            pairing.orphan_ends += 1
    pairing.unmatched_begins = sum(map(len, open_spans.values()))
    return pairing


class Tracer:
    """Collects trace records; filterable by category.

    An untraced run has no tracer at all (``None``). ``sim`` may be
    omitted and bound later through :meth:`bind` —
    :class:`~repro.runtime.world.World` does this for tracers passed to its
    ``tracer=`` keyword.
    """

    def __init__(self, sim: Optional[Simulator] = None):
        self.sim = sim
        self.records: list[TraceRecord] = []
        self._span_seq = 0

    def bind(self, sim: Simulator) -> "Tracer":
        """Attach this tracer to a simulator clock (idempotent)."""
        if self.sim is None:
            self.sim = sim
        return self

    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def span_id(self) -> int:
        """A fresh id correlating one begin record with its end record."""
        self._span_seq += 1
        return self._span_seq

    def emit(self, category: Category, payload: Any = None) -> None:
        self.records.append(TraceRecord(self.now, category, payload))

    def select(self, category: Category) -> list[TraceRecord]:
        return [r for r in self.records if r.category is category]

    def count(self, category: Category) -> int:
        return sum(1 for r in self.records if r.category is category)

    def pair_spans(self, bcat: Category, ecat: Category) -> SpanPairing:
        """The :func:`pair_records` pairing of one declared begin/end
        category pair."""
        if bcat.kind != "begin" or ecat.kind != "end" \
                or ecat.pair != bcat.name:
            raise ValueError(f"{bcat.name!r}/{ecat.name!r} is not a "
                             f"declared begin/end category pair")
        return pair_records(r for r in self.records
                            if r.category is bcat or r.category is ecat)

    def clear(self) -> None:
        self.records.clear()

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

