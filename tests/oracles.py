"""Reference implementations the production code is held to.

No class here is reachable from ``src/``: a test substitutes one for its
production counterpart where that is constructed —
``monkeypatch.setattr(repro.runtime.world, "Simulator", HeapSimulator)``,
``monkeypatch.setattr(repro.mpi.vci, "MatchingEngine",
LinearMatchingEngine)``, ``monkeypatch.setattr(repro.check.checker,
"TaskClock", ShadowedTaskClock)`` — and asserts that nothing observable
changes.

- :class:`HeapSimulator` is the textbook scheduler: one binary heap of
  ``(time, priority, seq, event)`` tuples, popped one at a time. The
  calendar queue of :class:`repro.sim.core.Simulator` must dispatch the
  same events in the same order (``tests/test_sim_engines.py``).
- :class:`LinearMatchingEngine` is the textbook matcher: two deques and
  scan-until-match. The indexed :class:`repro.mpi.matching.MatchingEngine`
  must return the same matches and the same ``scanned`` counts
  (``tests/test_matching_indexed.py``).
- :class:`NaiveTaskClock` is the textbook vector clock: one dict, copied
  whole at every release point and walked whole at every acquire point.
  The epoch-stamped copy-on-write :class:`repro.check.hb.TaskClock` must
  stand for the same ``{pid: counter}`` mapping after every operation
  (``tests/test_check_hb_property.py``); :class:`ShadowedTaskClock` runs
  the pair side by side inside a real checked world.
- :func:`fat_tree_table`, :func:`dragonfly_table` and :func:`torus_table`
  are the textbook routing: the whole (vertices x hosts) next-hop table,
  filled up front by three nested loops. The rule each generator in
  :mod:`repro.netsim.topology.generators` registers must walk the same
  links in the same order for every host pair (:func:`table_route`,
  ``tests/test_topology.py``).
- :func:`networkx_adjacency` is the library the Vite proxy's graph came
  from until PR 24 (``networkx``, a ``dev`` extra imported inside the
  function; its caller skips without it).
  :func:`repro.apps.graph.vite.barabasi_albert` must list the same
  vertices and the same neighbours in the same order
  (``tests/test_apps_legion_graph.py``).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Optional

from repro.check.hb import Access, Publication, TaskClock, published_mapping
from repro.mpi.matching import PostedRecv, key_matches
from repro.mpi.request import Request
from repro.netsim.message import WireMessage
from repro.sim.core import (PRIORITY_NORMAL, PRIORITY_URGENT, Event, Process,
                            SimulationError, Simulator, _canonical)


class HeapSimulator(Simulator):
    """The production event/process machinery on a plain binary heap: no
    buckets, no urgent lane, no inlined dispatch or scheduling."""

    def __init__(self):
        super().__init__()
        self._heap: list[tuple[float, int, int, Event]] = []

    def _urgent(self, event: Event) -> None:
        self._seq += 1
        heapq.heappush(self._heap,
                       (self._now, PRIORITY_URGENT, self._seq, event))

    def _schedule(self, event: Event, delay: float) -> None:
        # Also the sleep of a task that yielded a float: the task itself
        # goes on the heap, as in the production scheduler.
        self._seq += 1
        heapq.heappush(self._heap,
                       (self._now + delay, PRIORITY_NORMAL, self._seq, event))

    def call_after(self, delay: float, fn, value: Any = None) -> Event:
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        event = Event(self)
        if fn is not None:
            event.callbacks.append(fn)
        event._value = value
        event._triggered = True
        self._schedule(event, delay)
        return event

    def pending_entries(self) -> list[tuple[float, int, int, Event]]:
        return _canonical(list(self._heap))

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def run_steps(self, n: int, horizon: Optional[float] = None,
                  stop_event: Optional[Event] = None) -> int:
        heap = self._heap
        processed = 0
        while processed < n and heap:
            if stop_event is not None and stop_event.processed:
                break
            if horizon is not None and heap[0][0] > horizon:
                break
            when, _prio, _seq, event = heapq.heappop(heap)
            if when < self._now:
                raise SimulationError("time went backwards")
            self._now = when
            self.steps += 1
            processed += 1
            if type(event) is Process and not event._triggered:
                # A sleeping task wakes; a sleep it yields now is ours to
                # schedule.
                delay = event._resume(None)
                if delay is not None:
                    self._schedule(event, delay)
            else:
                event._process()
        return processed


class LinearMatchingEngine:
    """The reference O(n) engine: plain deques and scan-until-match.

    Host-side cost equals the modelled cost — every lookup really walks
    the queue. The behavioural reference for the indexed engine (the
    equivalence property tests drive both through identical
    interleavings).
    """

    __slots__ = ("posted", "unexpected", "_po_seq",
                 "max_posted_depth", "max_unexpected_depth", "total_scans",
                 "_h_scan_posted", "_h_scan_unexpected",
                 "_h_posted_depth", "_h_unexpected_depth")

    def __init__(self, metrics=None, labels: Optional[dict] = None):
        self.posted: deque[PostedRecv] = deque()
        self.unexpected: deque[WireMessage] = deque()
        self._po_seq = 0
        # The counters and metric series every matching engine reports.
        self.max_posted_depth = 0
        self.max_unexpected_depth = 0
        self.total_scans = 0
        self._h_scan_posted = None
        self._h_scan_unexpected = None
        self._h_posted_depth = None
        self._h_unexpected_depth = None
        if metrics is not None:
            from repro.obs.metrics import DEPTH_BUCKETS
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

    # -- receive side ------------------------------------------------------
    def post_recv(self, entry: PostedRecv, hint: Any = None
                  ) -> tuple[Optional[WireMessage], int]:
        """Scan unexpected linearly for a match, else append to posted
        (``hint`` is ignored: every match is a fresh scan)."""
        scanned = 0
        for i, msg in enumerate(self.unexpected):
            scanned += 1
            if entry.matches(msg):
                del self.unexpected[i]
                self.total_scans += scanned
                if self._h_scan_unexpected is not None:
                    self._h_scan_unexpected.observe(scanned)
                    self._h_unexpected_depth.observe(len(self.unexpected))
                return msg, scanned
        entry.seq = self._po_seq
        self._po_seq += 1
        self.posted.append(entry)
        self.max_posted_depth = max(self.max_posted_depth, len(self.posted))
        self.total_scans += scanned
        if self._h_scan_unexpected is not None:
            self._h_scan_unexpected.observe(scanned)
            self._h_posted_depth.observe(len(self.posted))
        return None, scanned

    def probe(self, context_id: int, source: int, tag: int,
              dst_addr: int) -> tuple[Optional[WireMessage], int]:
        """Non-destructive linear scan of the unexpected queue."""
        scanned = 0
        for msg in self.unexpected:
            scanned += 1
            if key_matches(context_id, source, tag, dst_addr, msg):
                self.total_scans += scanned
                return msg, scanned
        self.total_scans += scanned
        return None, scanned

    def claim_unexpected(self, context_id: int, source: int, tag: int,
                         dst_addr: int) -> tuple[Optional[WireMessage], int]:
        """Linearly find, remove and return a matching unexpected message."""
        scanned = 0
        for i, msg in enumerate(self.unexpected):
            scanned += 1
            if key_matches(context_id, source, tag, dst_addr, msg):
                del self.unexpected[i]
                self.total_scans += scanned
                return msg, scanned
        self.total_scans += scanned
        return None, scanned

    def lookup_unexpected(self, context_id: int, source: int, tag: int,
                          dst_addr: int) -> tuple[Optional[WireMessage], int]:
        """The first matching unexpected message (or None) and the entries
        a matching scan of the unexpected queue visits."""
        scanned = 0
        for msg in self.unexpected:
            scanned += 1
            if key_matches(context_id, source, tag, dst_addr, msg):
                return msg, scanned
        return None, scanned

    def lookup_posted(self, msg: WireMessage
                      ) -> tuple[Optional[PostedRecv], int]:
        """The first matching posted receive (or None) and the entries a
        matching scan of the posted queue visits."""
        scanned = 0
        for entry in self.posted:
            scanned += 1
            if entry.matches(msg):
                return entry, scanned
        return None, scanned

    # -- arrival side --------------------------------------------------------
    def incoming(self, msg: WireMessage, hint: Any = None
                 ) -> tuple[Optional[PostedRecv], int]:
        """Linearly match an arrival against posted, else enqueue
        unexpected (``hint`` is ignored: every match is a fresh scan)."""
        scanned = 0
        for i, entry in enumerate(self.posted):
            scanned += 1
            if entry.matches(msg):
                del self.posted[i]
                self.total_scans += scanned
                if self._h_scan_posted is not None:
                    self._h_scan_posted.observe(scanned)
                    self._h_posted_depth.observe(len(self.posted))
                return entry, scanned
        self.unexpected.append(msg)
        self.max_unexpected_depth = max(self.max_unexpected_depth,
                                        len(self.unexpected))
        self.total_scans += scanned
        if self._h_scan_posted is not None:
            self._h_scan_posted.observe(scanned)
            self._h_unexpected_depth.observe(len(self.unexpected))
        return None, scanned

    # -- introspection ---------------------------------------------------
    @property
    def posted_depth(self) -> int:
        return len(self.posted)

    @property
    def unexpected_depth(self) -> int:
        return len(self.unexpected)

    def cancel_posted(self, req: Request) -> bool:
        """Linear-scan removal of the posted entry for ``req``."""
        for i, entry in enumerate(self.posted):
            if entry.req is req:
                del self.posted[i]
                return True
        return False

    # -- what repro.snap.state.engine_state captures -----------------------
    def live_posted(self) -> list[PostedRecv]:
        return list(self.posted)

    def live_unexpected(self) -> list[WireMessage]:
        return list(self.unexpected)

    def internals(self) -> dict:
        return {"impl": "linear", "po_seq": self._po_seq}


class NaiveTaskClock:
    """The vector clock of one simulated task as one ``{pid: counter}``
    dict — the checker's clock up to PR 16, kept as the reference."""

    __slots__ = ("pid", "name", "clock")

    def __init__(self, pid: int, name: str,
                 parent: Optional["NaiveTaskClock"] = None):
        self.pid = pid
        self.name = name
        # A spawned task starts after its spawner's current knowledge.
        self.clock: dict[int, int] = dict(parent.clock) if parent else {}
        self.clock[pid] = self.clock.get(pid, 0)

    def tick(self) -> int:
        """Advance this task's own component; returns the new counter."""
        c = self.clock[self.pid] + 1
        self.clock[self.pid] = c
        return c

    def snapshot(self) -> dict[int, int]:
        """A frozen copy of the clock, for publishing at a release point."""
        self.tick()
        return dict(self.clock)

    def join(self, other: Optional[dict[int, int]]) -> None:
        """Merge another clock (an acquire point): componentwise max."""
        if not other:
            return
        clock = self.clock
        for pid, c in other.items():
            if clock.get(pid, 0) < c:
                clock[pid] = c

    def access(self) -> Access:
        """Summarize an access by this task (ticks the clock)."""
        return (self.pid, self.tick(), self.name)

    def saw(self, access: Access) -> bool:
        """True iff ``access`` happens-before this task's current state."""
        pid, counter, _ = access
        return counter <= self.clock.get(pid, 0)


class ShadowedTaskClock(TaskClock):
    """A production clock with a :class:`NaiveTaskClock` run beside it.

    Every operation the checker performs is mirrored on the reference,
    and the two must stand for the same mapping after each: what a world
    published, what rode in ``meta["_hb"]`` and what every ``saw()``
    answered are then the reference's, whatever the production clock
    skipped or adopted. ``published`` maps each publication to the
    reference's copy under its ``(pid, epoch)`` — which names one
    published state, and which the message-borne ``PublishedClock``
    wrapper shares with the record it wraps (the record itself holds a
    dict and does not hash).
    """

    __slots__ = ("naive",)

    #: Installed per test (``monkeypatch.setattr(ShadowedTaskClock,
    #: "published", {}, raising=False)``): the checker builds the clocks,
    #: so there is no constructor argument to carry it.
    published: dict[tuple[int, int], dict[int, int]]

    def __init__(self, pid: int, name: str,
                 parent: Optional["ShadowedTaskClock"] = None):
        super().__init__(pid, name, parent)
        self.naive = NaiveTaskClock(pid, name,
                                    parent.naive if parent else None)
        self._agree()

    def _agree(self) -> None:
        assert self.mapping() == self.naive.clock, (self.name,
                                                    self.mapping(),
                                                    self.naive.clock)

    def snapshot(self) -> Publication:
        clock = super().snapshot()
        assert clock[:2] not in self.published
        self.published[clock[:2]] = reference = self.naive.snapshot()
        assert published_mapping(clock) == reference
        self._agree()
        return clock

    def join(self, other: Optional[Publication]) -> None:
        super().join(other)
        self.naive.join(None if other is None
                        else self.published[other[:2]])
        self._agree()

    def join_task(self, other: "ShadowedTaskClock") -> None:
        super().join_task(other)
        self.naive.join(other.naive.clock)
        self._agree()

    def join_merged(self, merged: Optional[dict[int, int]]) -> None:
        super().join_merged(merged)
        self.naive.join(merged)
        self._agree()

    def access(self) -> Access:
        access = super().access()
        assert access == self.naive.access()
        return access

    def saw(self, access: Access) -> bool:
        verdict = super().saw(access)
        assert verdict == self.naive.saw(access)
        return verdict


# -- routing tables ------------------------------------------------------------
#: ``(vertex, destination host) -> next vertex``, for every vertex a
#: message bound for that host can stand at.
RoutingTable = dict[tuple[str, int], str]


def table_route(table: RoutingTable, src: int, dst: int) -> list[str]:
    """Link names (``a->b``) from host ``src`` to host ``dst`` by table."""
    vertex, goal, names = f"h{src}", f"h{dst}", []
    while vertex != goal:
        nxt = table[vertex, dst]
        names.append(f"{vertex}->{nxt}")
        vertex = nxt
    return names


def fat_tree_table(k: int) -> RoutingTable:
    """D-mod-k routing of a k-ary fat tree."""
    half = k // 2
    hosts_per_pod = half * half
    capacity = k * hosts_per_pod
    table: RoutingTable = {}
    for dst in range(capacity):
        dp = dst // hosts_per_pod
        de = (dst % hosts_per_pod) // half
        up_agg = dst % half
        up_core_off = (dst // half) % half
        for host in range(capacity):
            if host != dst:
                p, e = host // hosts_per_pod, (host % hosts_per_pod) // half
                table[f"h{host}", dst] = f"p{p}.e{e}"
        for p in range(k):
            for e in range(half):
                table[f"p{p}.e{e}", dst] = (
                    f"h{dst}" if (p, e) == (dp, de) else f"p{p}.a{up_agg}")
            for a in range(half):
                table[f"p{p}.a{a}", dst] = (
                    f"p{p}.e{de}" if p == dp
                    else f"core{a * half + up_core_off}")
        for c in range(half * half):
            table[f"core{c}", dst] = f"p{dp}.a{c // half}"
    return table


def dragonfly_table(a: int, p: int, h: int) -> RoutingTable:
    """Minimal (direct-gateway) routing of a maximal dragonfly."""
    groups = a * h + 1
    capacity = groups * a * p

    def gateway(src_g: int, dst_g: int) -> int:
        return (dst_g - 1 if dst_g > src_g else dst_g) // h

    table: RoutingTable = {}
    for dst in range(capacity):
        dg, dr = dst // (a * p), (dst % (a * p)) // p
        for host in range(capacity):
            if host != dst:
                g, r = host // (a * p), (host % (a * p)) // p
                table[f"h{host}", dst] = f"g{g}.r{r}"
        for g in range(groups):
            for r in range(a):
                if g == dg:
                    nxt = f"h{dst}" if r == dr else f"g{g}.r{dr}"
                elif r == gateway(g, dg):
                    nxt = f"g{dg}.r{gateway(dg, g)}"
                else:
                    nxt = f"g{g}.r{gateway(g, dg)}"
                table[f"g{g}.r{r}", dst] = nxt
    return table


def torus_table(dims: tuple[int, ...]) -> RoutingTable:
    """Dimension-order routing, shorter way round, ties forward."""
    capacity = math.prod(dims)

    def coords(index: int) -> tuple[int, ...]:
        out = []
        for d in reversed(dims):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))

    def switch(coord: tuple[int, ...]) -> str:
        return "s" + "_".join(map(str, coord))

    def step_toward(coord, goal):
        for axis, n in enumerate(dims):
            if coord[axis] != goal[axis]:
                forward = (goal[axis] - coord[axis]) % n
                backward = (coord[axis] - goal[axis]) % n
                nxt = list(coord)
                nxt[axis] = (coord[axis]
                             + (1 if forward <= backward else n - 1)) % n
                return tuple(nxt)
        raise AssertionError("already there")

    all_coords = [coords(i) for i in range(capacity)]
    table: RoutingTable = {}
    for dst in range(capacity):
        goal = all_coords[dst]
        for host in range(capacity):
            if host != dst:
                table[f"h{host}", dst] = switch(all_coords[host])
        for coord in all_coords:
            table[switch(coord), dst] = (
                f"h{dst}" if coord == goal
                else switch(step_toward(coord, goal)))
    return table


# -- the Vite proxy's graph ------------------------------------------------------
def networkx_adjacency(n: int, m: int, seed: int) -> dict[int, list[int]]:
    """``networkx.barabasi_albert_graph(n, m, seed)`` as ``vertex ->
    neighbours``, both in the library's iteration order."""
    import networkx

    graph = networkx.barabasi_albert_graph(n, m, seed=seed)
    return {v: list(graph.neighbors(v)) for v in graph.nodes}
