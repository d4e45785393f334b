"""The message-matching engine.

Each VCI owns one matching engine (a posted-receive queue and an
unexpected-message queue); this per-channel separation is exactly what
gives the new MPI libraries their parallel matching ("a distinct matching
engine per communication channel", Section II-C of the paper) and what
makes matching on a *shared* channel an O(n) serial bottleneck.

Matching predicate: a receive posted with ``(context, source, tag,
dst_addr)`` matches an incoming message when the context ids and the
destination addresses are equal, the source matches (or the receive used
``ANY_SOURCE``), and the tag matches (or ``ANY_TAG``). ``dst_addr`` is the
receiver's address *within the communicator* — for ordinary communicators
this is simply the process's rank; for endpoints communicators it is the
endpoint rank, which is how endpoints separate matching between threads
that share a process (Lesson 11).

Queues are FIFO: an incoming message matches the earliest matching posted
receive and a new receive matches the earliest matching unexpected message,
which implements MPI's non-overtaking matching order. The
``allow_overtaking`` relaxation does not change the scan itself — it
changes which *channels* operations may be spread over (see
:mod:`repro.mpi.vci`), because once traffic is spread over independent
channels arrival order between them is unconstrained.

Simulated cost vs host cost
---------------------------

The O(n) scan is a *modelled* cost: the cost model charges
``match_per_element`` per element the linear scan would visit, and
``total_scans``/the ``match.scan`` histograms record exactly those counts.
Paying that O(n) a second time as real Python iteration on the host is
pure overhead, so :class:`MatchingEngine` is an **indexed** engine: hash
buckets keyed on ``(context_id, dst_addr, source, tag)`` (with side
buckets for the ``ANY_SOURCE``/``ANY_TAG`` wildcard combinations) find the
earliest candidate in O(1)-ish host time, and the ``scanned`` count the
linear scan *would* have produced is recovered analytically from the
position of the matched element's sequence number among the live queue —
so every simulated timing, ``total_scans`` and histogram is byte-identical
to the linear-scan reference in ``tests/oracles.py`` (the property tests
assert this under randomized interleavings; see ``docs/performance.md``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..netsim.message import WireMessage
from .request import Request

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["ANY_SOURCE", "ANY_TAG", "PostedRecv", "MatchingEngine",
           "key_matches"]

#: Wildcards (MPI_ANY_SOURCE / MPI_ANY_TAG).
ANY_SOURCE = -1
ANY_TAG = -1


def key_matches(context_id: int, source: int, tag: int, dst_addr: int,
                msg: WireMessage) -> bool:
    """The matching predicate, without a throwaway :class:`PostedRecv`."""
    meta = msg.meta
    return (msg.context_id == context_id
            and meta.get("dst_addr", msg.dst_rank) == dst_addr
            and (source == ANY_SOURCE
                 or source == meta.get("src_addr", msg.src_rank))
            and (tag == ANY_TAG or tag == msg.tag))


@dataclass(slots=True)
class PostedRecv:
    """One posted receive awaiting a message, and its own record in the
    posted queue's buckets.

    ``seq`` is the receive's position in its engine's posted stream; it is
    assigned by the engine when the receive is appended to the posted
    queue (engines number their queues independently, so unrelated Worlds
    in one host process never interleave sequence numbers). ``alive`` is
    True while the receive waits there: the engine clears it when the
    receive matches or is cancelled, and drops the dead entry from its
    buckets later.
    """

    req: Request
    buf: np.ndarray | bytearray
    count: int
    context_id: int
    source: int
    tag: int
    dst_addr: int
    seq: int = -1
    alive: bool = False

    def matches(self, msg: WireMessage) -> bool:
        return key_matches(self.context_id, self.source, self.tag,
                           self.dst_addr, msg)


@dataclass(slots=True, eq=False)
class _Unexpected:
    """An unexpected message's record, shared by every bucket that
    indexes it: its position in the unexpected stream, and whether it
    is still queued."""

    seq: int
    msg: WireMessage
    alive: bool = True


def _live_head(bucket: Optional[deque]):
    """Drop dead records off the bucket head; return the live head (a
    :class:`PostedRecv` or an :class:`_Unexpected`)."""
    if not bucket:
        return None
    while bucket:
        rec = bucket[0]
        if rec.alive:
            return rec
        bucket.popleft()
    return None


def _live_records(buckets: dict[tuple, deque]) -> list:
    """A bucket map's live records, in sequence order."""
    live = [rec for bucket in buckets.values() for rec in bucket
            if rec.alive]
    live.sort(key=lambda rec: rec.seq)
    return live


class MatchingEngine:
    """Posted-receive and unexpected-message queues for one channel.

    When constructed with a :class:`repro.obs.MetricsRegistry`, every
    match records its scan length and the queue depth it left behind —
    the per-match observability of the O(n) serial-matching cost
    (Section II-C); ``labels`` (typically ``rank``/``vci``) tag the
    series.

    Host-side lookups are O(1)-ish hash-bucket operations; the reported
    ``scanned`` counts are exactly those of a linear scan-until-match
    (see the module docstring). Wildcard side-indexes for the unexpected
    queue are built lazily on the first wildcard lookup, so engines that
    never see a wildcard maintain a single bucket per message; live
    wildcard-receive counters let arrivals skip the wildcard posted
    buckets entirely when none are pending.
    """

    __slots__ = ("max_posted_depth", "max_unexpected_depth", "total_scans",
                 "_h_scan_posted", "_h_scan_unexpected",
                 "_h_posted_depth", "_h_unexpected_depth",
                 "_po_seq", "_po_seqs", "_po_buckets", "_po_dead",
                 "_po_w_src", "_po_w_tag", "_po_w_both",
                 "_ux_seq", "_ux_seqs", "_ux_full", "_ux_by_src",
                 "_ux_by_tag", "_ux_any", "_ux_wild", "_ux_dead")

    def __init__(self, metrics=None, labels: Optional[dict] = None):
        self.max_posted_depth = 0
        self.max_unexpected_depth = 0
        #: Total queue elements scanned over the engine's lifetime — the
        #: O(n) matching-work metric.
        self.total_scans = 0
        if metrics is not None:
            from ..obs.metrics import DEPTH_BUCKETS
            labels = labels or {}
            self._h_scan_posted = metrics.histogram(
                "match.scan", bounds=DEPTH_BUCKETS, queue="posted", **labels)
            self._h_scan_unexpected = metrics.histogram(
                "match.scan", bounds=DEPTH_BUCKETS, queue="unexpected",
                **labels)
            self._h_posted_depth = metrics.histogram(
                "match.posted_depth", bounds=DEPTH_BUCKETS, **labels)
            self._h_unexpected_depth = metrics.histogram(
                "match.unexpected_depth", bounds=DEPTH_BUCKETS, **labels)
        else:
            self._h_scan_posted = None
            self._h_scan_unexpected = None
            self._h_posted_depth = None
            self._h_unexpected_depth = None
        # -- posted-receive queue ------------------------------------------
        self._po_seq = 0
        #: Live sequence numbers in ascending order — the FIFO order of the
        #: queue and the order-statistics structure behind the analytic
        #: scan counts (appends are monotonic, so the list stays sorted).
        self._po_seqs: list[int] = []
        #: (context, dst_addr, source, tag) -> deque of posted receives;
        #: wildcard receives live under their literal ANY_* key, so an
        #: incoming message has at most four candidate buckets. A cancel
        #: finds its receive through the request (``Request._posted``).
        self._po_buckets: dict[tuple, deque] = {}
        self._po_dead = 0
        #: Live posted receives per wildcard class; arrivals only consult
        #: a wildcard bucket when its class has live entries.
        self._po_w_src = 0   # ANY_SOURCE, concrete tag
        self._po_w_tag = 0   # concrete source, ANY_TAG
        self._po_w_both = 0  # ANY_SOURCE and ANY_TAG
        # -- unexpected-message queue --------------------------------------
        self._ux_seq = 0
        self._ux_seqs: list[int] = []
        #: Concrete key -> records; the wildcard side-indexes below are
        #: only populated once a wildcard pattern has been looked up.
        self._ux_full: dict[tuple, deque] = {}
        self._ux_by_src: dict[tuple, deque] = {}
        self._ux_by_tag: dict[tuple, deque] = {}
        self._ux_any: dict[tuple, deque] = {}
        self._ux_wild = False
        self._ux_dead = 0

    # -- bucket plumbing ---------------------------------------------------
    def _enable_ux_wild(self) -> None:
        """First wildcard lookup: build the side-indexes from the full
        buckets; they are maintained incrementally from here on."""
        self._ux_wild = True
        for rec in _live_records(self._ux_full):
            self._index_ux_wild(rec)

    def _index_ux_wild(self, rec: _Unexpected) -> None:
        msg = rec.msg
        meta = msg.meta
        ctx = msg.context_id
        dst = meta.get("dst_addr", msg.dst_rank)
        src = meta.get("src_addr", msg.src_rank)
        for index, key in ((self._ux_by_src, (ctx, dst, src)),
                           (self._ux_by_tag, (ctx, dst, msg.tag)),
                           (self._ux_any, (ctx, dst))):
            bucket = index.get(key)
            if bucket is None:
                index[key] = bucket = deque()
            bucket.append(rec)

    def _find_unexpected(self, context_id: int, source: int, tag: int,
                         dst_addr: int) -> Optional[_Unexpected]:
        """Earliest live unexpected record matching the pattern."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            if not self._ux_seqs:  # pre-posted receives: nothing queued
                return None
            return _live_head(self._ux_full.get((context_id, dst_addr,
                                                 source, tag)))
        if not self._ux_wild:
            self._enable_ux_wild()
        if source != ANY_SOURCE:
            bucket = self._ux_by_src.get((context_id, dst_addr, source))
        elif tag != ANY_TAG:
            bucket = self._ux_by_tag.get((context_id, dst_addr, tag))
        else:
            bucket = self._ux_any.get((context_id, dst_addr))
        return _live_head(bucket)

    def _remove_unexpected(self, rec: _Unexpected) -> None:
        rec.alive = False
        seqs = self._ux_seqs
        seqs.pop(bisect_left(seqs, rec.seq))
        self._ux_dead += 1
        if self._ux_dead > len(seqs) + 64:
            self._compact_unexpected()

    def _compact_unexpected(self) -> None:
        """Rebuild the unexpected buckets without dead records (removals
        are lazy tombstones; this bounds their accumulation)."""
        live = _live_records(self._ux_full)
        self._ux_full = {}
        self._ux_by_src = {}
        self._ux_by_tag = {}
        self._ux_any = {}
        self._ux_dead = 0
        for rec in live:
            self._index_unexpected(rec)

    def _index_unexpected(self, rec: _Unexpected) -> None:
        msg = rec.msg
        meta = msg.meta
        key = (msg.context_id, meta.get("dst_addr", msg.dst_rank),
               meta.get("src_addr", msg.src_rank), msg.tag)
        bucket = self._ux_full.get(key)
        if bucket is None:
            self._ux_full[key] = bucket = deque()
        bucket.append(rec)
        if self._ux_wild:
            self._index_ux_wild(rec)

    def _find_posted(self, msg: WireMessage) -> Optional[PostedRecv]:
        """Earliest live posted receive matching a concrete message: the
        minimum-seq live head over the (up to four) candidate buckets."""
        if not self._po_seqs:
            return None
        meta = msg.meta
        ctx = msg.context_id
        dst = meta.get("dst_addr", msg.dst_rank)
        src = meta.get("src_addr", msg.src_rank)
        tag = msg.tag
        buckets = self._po_buckets
        best = _live_head(buckets.get((ctx, dst, src, tag)))
        if self._po_w_tag:
            rec = _live_head(buckets.get((ctx, dst, src, ANY_TAG)))
            if rec is not None and (best is None or rec.seq < best.seq):
                best = rec
        if self._po_w_src:
            rec = _live_head(buckets.get((ctx, dst, ANY_SOURCE, tag)))
            if rec is not None and (best is None or rec.seq < best.seq):
                best = rec
        if self._po_w_both:
            rec = _live_head(buckets.get((ctx, dst, ANY_SOURCE, ANY_TAG)))
            if rec is not None and (best is None or rec.seq < best.seq):
                best = rec
        return best

    def _uncount_posted(self, entry: PostedRecv) -> None:
        if entry.source == ANY_SOURCE:
            if entry.tag == ANY_TAG:
                self._po_w_both -= 1
            else:
                self._po_w_src -= 1
        elif entry.tag == ANY_TAG:
            self._po_w_tag -= 1

    def _remove_posted(self, entry: PostedRecv) -> None:
        """Take a matched or cancelled receive out of the queue: a
        tombstone in its bucket, and no longer its request's entry (which
        would keep the two alive as a cycle until a collection)."""
        entry.alive = False
        req = entry.req
        if req is not None:
            req._posted = None
        seqs = self._po_seqs
        seqs.pop(bisect_left(seqs, entry.seq))
        self._uncount_posted(entry)
        self._po_dead += 1
        if self._po_dead > len(seqs) + 64:
            self._compact_posted()

    def _compact_posted(self) -> None:
        buckets = {}
        for key, bucket in self._po_buckets.items():
            live = deque(entry for entry in bucket if entry.alive)
            if live:
                buckets[key] = live
        self._po_buckets = buckets
        self._po_dead = 0

    # -- receive side ------------------------------------------------------
    def post_recv(self, entry: PostedRecv,
                  hint: _Unexpected | int | None = None
                  ) -> tuple[Optional[WireMessage], int]:
        """Try to match ``entry`` against the unexpected queue.

        Returns ``(message, scanned)``: the matched (and removed) message
        or None — in which case the receive has been appended to the posted
        queue — plus the number of queue elements the linear scan would
        have visited (for the cost model). ``hint`` is what an earlier
        :meth:`lookup_unexpected` returned for the same pattern. A record
        is still the earliest match while it is alive (messages queued
        since have later sequence numbers); a miss still stands while no
        message was queued since. Any other hint is looked up again.
        """
        if type(hint) is _Unexpected and hint.alive:
            rec = hint
        elif hint == self._ux_seq:
            rec = None
        else:
            rec = self._find_unexpected(entry.context_id, entry.source,
                                        entry.tag, entry.dst_addr)
        if rec is not None:
            scanned = bisect_right(self._ux_seqs, rec.seq)
            self._remove_unexpected(rec)
            self.total_scans += scanned
            if self._h_scan_unexpected is not None:
                self._h_scan_unexpected.observe(scanned)
                self._h_unexpected_depth.observe(len(self._ux_seqs))
            return rec.msg, scanned
        scanned = len(self._ux_seqs)
        entry.seq = seq = self._po_seq
        self._po_seq = seq + 1
        entry.alive = True
        req = entry.req
        if req is not None:  # a request-less receive cannot be cancelled
            req._posted = entry
        key = (entry.context_id, entry.dst_addr, entry.source, entry.tag)
        bucket = self._po_buckets.get(key)
        if bucket is None:
            self._po_buckets[key] = bucket = deque()
        bucket.append(entry)
        self._po_seqs.append(seq)
        if entry.source == ANY_SOURCE:
            if entry.tag == ANY_TAG:
                self._po_w_both += 1
            else:
                self._po_w_src += 1
        elif entry.tag == ANY_TAG:
            self._po_w_tag += 1
        depth = len(self._po_seqs)
        if depth > self.max_posted_depth:
            self.max_posted_depth = depth
        self.total_scans += scanned
        if self._h_scan_unexpected is not None:
            self._h_scan_unexpected.observe(scanned)
            self._h_posted_depth.observe(depth)
        return None, scanned

    def probe(self, context_id: int, source: int, tag: int,
              dst_addr: int) -> tuple[Optional[WireMessage], int]:
        """Non-destructive unexpected-queue search (MPI_Iprobe).

        No library call probes; kept, with :meth:`claim_unexpected`, for
        ``benchmarks/stack/layers.py``, which wraps both by name."""
        rec = self._find_unexpected(context_id, source, tag, dst_addr)
        if rec is not None:
            scanned = bisect_right(self._ux_seqs, rec.seq)
            self.total_scans += scanned
            return rec.msg, scanned
        scanned = len(self._ux_seqs)
        self.total_scans += scanned
        return None, scanned

    def claim_unexpected(self, context_id: int, source: int, tag: int,
                         dst_addr: int) -> tuple[Optional[WireMessage], int]:
        """Destructive probe (MPI_Improbe): atomically remove and return
        the earliest matching unexpected message."""
        rec = self._find_unexpected(context_id, source, tag, dst_addr)
        if rec is not None:
            scanned = bisect_right(self._ux_seqs, rec.seq)
            self._remove_unexpected(rec)
            self.total_scans += scanned
            return rec.msg, scanned
        scanned = len(self._ux_seqs)
        self.total_scans += scanned
        return None, scanned

    def lookup_unexpected(self, context_id: int, source: int, tag: int,
                          dst_addr: int) -> tuple[_Unexpected | int, int]:
        """``(hint, scanned)`` for a receive about to be posted, without
        mutating the queues: the hint for :meth:`post_recv` (the matching
        unexpected record, or on a miss the unexpected stream's next
        sequence number) and the elements a scan-until-match would visit
        (the whole queue on a miss) for the cost model."""
        rec = self._find_unexpected(context_id, source, tag, dst_addr)
        if rec is not None:
            return rec, bisect_right(self._ux_seqs, rec.seq)
        return self._ux_seq, len(self._ux_seqs)

    def lookup_posted(self, msg: WireMessage
                      ) -> tuple[PostedRecv | int, int]:
        """``(hint, scanned)`` for an arrival, without mutating the
        queues: the hint for :meth:`incoming` (the matching posted
        receive, or on a miss the posted stream's next sequence number)
        and the elements a scan of the posted queue would visit."""
        rec = self._find_posted(msg)
        if rec is not None:
            return rec, bisect_right(self._po_seqs, rec.seq)
        return self._po_seq, len(self._po_seqs)

    # -- arrival side --------------------------------------------------------
    def incoming(self, msg: WireMessage,
                 hint: PostedRecv | int | None = None
                 ) -> tuple[Optional[PostedRecv], int]:
        """Try to match an arriving message against the posted queue.

        Returns ``(posted_recv, scanned)``; when no receive matches, the
        message has been appended to the unexpected queue. ``hint`` is
        what :meth:`lookup_posted` returned for ``msg`` earlier: posted
        sequence numbers only grow, so a receive posted since cannot
        precede a live receive, and a miss stands while nothing was posted
        since; any other hint is looked up again (``scanned`` is counted
        now either way).
        """
        if type(hint) is PostedRecv and hint.alive:
            entry = hint
        elif hint == self._po_seq:
            entry = None
        else:
            entry = self._find_posted(msg)
        if entry is not None:
            scanned = bisect_right(self._po_seqs, entry.seq)
            self._remove_posted(entry)
            self.total_scans += scanned
            if self._h_scan_posted is not None:
                self._h_scan_posted.observe(scanned)
                self._h_posted_depth.observe(len(self._po_seqs))
            return entry, scanned
        scanned = len(self._po_seqs)
        seq = self._ux_seq
        self._ux_seq = seq + 1
        self._index_unexpected(_Unexpected(seq, msg))
        self._ux_seqs.append(seq)
        depth = len(self._ux_seqs)
        if depth > self.max_unexpected_depth:
            self.max_unexpected_depth = depth
        self.total_scans += scanned
        if self._h_scan_posted is not None:
            self._h_scan_posted.observe(scanned)
            self._h_unexpected_depth.observe(depth)
        return None, scanned

    # -- introspection ---------------------------------------------------
    @property
    def posted_depth(self) -> int:
        return len(self._po_seqs)

    @property
    def unexpected_depth(self) -> int:
        return len(self._ux_seqs)

    # What :func:`repro.snap.state.engine_state` captures. The two queue
    # views are common to every engine that matches like this one (the
    # linear test oracle offers them too); ``internals`` is private
    # bookkeeping a cross-implementation comparison ignores.
    def live_posted(self) -> list[PostedRecv]:
        """The posted receives still waiting, in FIFO order."""
        return _live_records(self._po_buckets)

    def live_unexpected(self) -> list[WireMessage]:
        """The unexpected messages still queued, in FIFO order."""
        return [rec.msg for rec in _live_records(self._ux_full)]

    def internals(self) -> dict:
        """Implementation-private state: sequence counters, tombstone
        counts, wildcard bookkeeping."""
        return {
            "impl": "indexed",
            "po_seq": self._po_seq, "ux_seq": self._ux_seq,
            "po_dead": self._po_dead, "ux_dead": self._ux_dead,
            "po_wild": [self._po_w_src, self._po_w_tag, self._po_w_both],
            "ux_wild": self._ux_wild,
        }

    def cancel_posted(self, req: Request) -> bool:
        """Remove a posted receive by request (MPI_Cancel, simplified).

        O(1) through the request, which holds its receive while it waits
        here (``Request._posted``) — ``del queue[i]`` on a deque is O(n)
        and cancel storms are exactly when queues are deep."""
        entry = req._posted
        if entry is None:  # never queued, matched, or cancelled already
            return False
        self._remove_posted(entry)
        return True

