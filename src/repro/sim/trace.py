"""Typed event tracing for simulations.

A :class:`Tracer` collects ``(time, category, payload)`` records. Benchmarks
use it to derive per-phase timings (e.g. halo-exchange time vs compute
time), tests use it to assert ordering properties, and the observability
subsystem (:mod:`repro.obs`) turns begin/end pairs into Chrome-trace spans.

Categories are *typed*: every record carries a :class:`Category` instance
from the frozen :class:`TraceCategory` namespace instead of a raw string.
This keeps category names collision-free across layers, lets the exporter
know which records pair up into spans (``kind``/``pair``), and gives each
record a layer ("mpi", "vci", "nic", "fabric", "sim", "app") for grouping.
Ad-hoc categories are still possible through :meth:`TraceCategory.custom`
and :meth:`TraceCategory.span` — raw string literals at ``emit()`` call
sites are rejected by the lint test in ``tests/test_obs.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Union

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


#: Global interning table: one :class:`Category` object per name, so
#: records can be filtered by identity.
_CATEGORIES: dict[str, Category] = {}


def _define(name: str, layer: str = "app", kind: str = "instant",
            pair: str = "") -> Category:
    cat = Category(name, layer, kind, pair)
    _CATEGORIES[name] = cat
    return cat


def as_category(value: Union[Category, str]) -> Category:
    """Coerce a category name to its interned :class:`Category`."""
    if isinstance(value, Category):
        return value
    return TraceCategory.custom(value)


class _FrozenNamespace(type):
    """Metaclass making the TraceCategory namespace immutable."""

    def __setattr__(cls, name: str, value: Any) -> None:
        raise AttributeError(
            f"TraceCategory is frozen; use TraceCategory.custom() or "
            f"TraceCategory.span() to define ad-hoc categories "
            f"(attempted to set {name!r})")

    def __delattr__(cls, name: str) -> None:
        raise AttributeError("TraceCategory is frozen")


class TraceCategory(metaclass=_FrozenNamespace):
    """Frozen namespace of the library's trace categories.

    The predefined members cover the hot layers the observability
    subsystem instruments; applications extend the namespace through
    :meth:`custom` (instant events) and :meth:`span` (begin/end pairs)
    rather than by passing raw strings to :meth:`Tracer.emit`.
    """

    # -- MPI library: issue path ------------------------------------------
    ISSUE_BEGIN = _define("mpi.issue.begin", "mpi", "begin", "mpi.issue.end")
    ISSUE_END = _define("mpi.issue.end", "mpi", "end", "mpi.issue.begin")
    ISSUE_ASYNC = _define("mpi.issue.async", "mpi")

    # -- matching engine ---------------------------------------------------
    MATCH_BEGIN = _define("mpi.match.begin", "mpi", "begin", "mpi.match.end")
    MATCH_END = _define("mpi.match.end", "mpi", "end", "mpi.match.begin")
    MATCH_UNEXPECTED = _define("mpi.match.unexpected", "mpi")

    # -- fabric ------------------------------------------------------------
    MSG_DELIVER = _define("fabric.deliver", "fabric")

    # -- fault injection (repro.faults) ------------------------------------
    FAULT_DROP = _define("fault.drop", "fault")
    FAULT_DUP = _define("fault.dup", "fault")
    FAULT_CORRUPT = _define("fault.corrupt", "fault")
    FAULT_DELAY = _define("fault.delay", "fault")
    LINK_DROP = _define("fault.link_drop", "fault")
    CTX_FAILOVER = _define("nic.ctx_failover", "nic")

    # -- reliable transport -------------------------------------------------
    RETRANSMIT = _define("transport.retransmit", "transport")
    DUP_SUPPRESSED = _define("transport.dup_suppressed", "transport")
    CORRUPT_DROP = _define("transport.corrupt_drop", "transport")
    #: Loss-recovery span: first retransmission of a packet to the ACK
    #: that finally clears it.
    RECOVERY_BEGIN = _define("transport.recovery.begin", "transport",
                             "begin", "transport.recovery.end")
    RECOVERY_END = _define("transport.recovery.end", "transport", "end",
                           "transport.recovery.begin")

    # -- generic application phases ---------------------------------------
    PHASE_BEGIN = _define("app.phase.begin", "app", "begin", "app.phase.end")
    PHASE_END = _define("app.phase.end", "app", "end", "app.phase.begin")

    # -- namespace helpers -------------------------------------------------
    @staticmethod
    def custom(name: str, layer: str = "app", kind: str = "instant",
               pair: str = "") -> Category:
        """Return the interned category ``name``, defining it on first use."""
        cat = _CATEGORIES.get(name)
        if cat is None:
            cat = _define(name, layer, kind, pair)
        return cat

    @staticmethod
    def span(name: str, layer: str = "app") -> tuple[Category, Category]:
        """Define (or fetch) a ``name.begin``/``name.end`` category pair."""
        begin = TraceCategory.custom(f"{name}.begin", layer, "begin",
                                     f"{name}.end")
        end = TraceCategory.custom(f"{name}.end", layer, "end",
                                   f"{name}.begin")
        return begin, end

    @staticmethod
    def get(name: str) -> Optional[Category]:
        """Look up a category by name without defining it."""
        return _CATEGORIES.get(name)


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

    def emit(self, category: Union[Category, str], payload: Any = None) -> None:
        self.records.append(
            TraceRecord(self.now, as_category(category), payload))

    def select(self, category: Union[Category, str]) -> list[TraceRecord]:
        cat = as_category(category)
        return [r for r in self.records if r.category is cat]

    def count(self, category: Union[Category, str]) -> int:
        cat = as_category(category)
        return sum(1 for r in self.records if r.category is cat)

    def pair_spans(self, begin: Union[Category, str],
                   end: Union[Category, str]) -> SpanPairing:
        """The :func:`pair_records` pairing of one begin/end category pair
        (as declared by :meth:`TraceCategory.span`)."""
        bcat, ecat = as_category(begin), as_category(end)
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

