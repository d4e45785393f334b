"""Communicator maps for stencil exchanges (Lessons 1-5).

A *communicator map* assigns a communicator label to every inter-process
patch exchange of a stencil decomposition. The label is the mechanism's
whole job: both endpoints must compute the same label (matching
correctness, Lesson 1) while two *different* threads of one process should
never use the same label concurrently (parallelism, Lessons 2-3).

Three maps are implemented, mirroring the paper's discussion:

- :class:`NaiveCommMap` — Lesson 2's "intuitive" approach: one communicator
  per thread id; sends use the sender's id, so receives land on the remote
  sender's communicator. Correct, but threads on opposite edges share
  communicators — only *half* the parallelism is exposed.
- :class:`MirroredCommMap` — the Listing 1 strategy generalized to any
  dimensionality and any stencil: per direction-family communicator sets,
  with assignments mirrored between neighbouring processes so that matching
  works out. Exposes *all* the parallelism, at the cost of many
  communicators (Lesson 3).
- :class:`CornerOptimizedCommMap` — Fig 4's further optimization: threads
  on a process corner funnel all their exchanges through a single
  per-corner communicator (their operations are serial anyway). Fewer
  communicators; the residual label sharing this introduces between a
  corner and the neighbours of *remote* corners is measured, not hidden —
  quantifying exactly the complexity trade-off Lesson 1 describes.

Geometry conventions: a world is a ``proc_grid`` of processes, each with a
``thread_grid`` of threads, one patch per thread. Patches are addressed by
global coordinates ``g = p * thread_grid + t``. The stencil is a set of
directions (unit offsets); exchanges exist for every (patch, direction)
pair whose target patch lies in a different process (in-process neighbours
use shared memory, as in the paper's listings).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional, Sequence

from ..errors import MpiUsageError

__all__ = [
    "STENCIL_2D_5PT",
    "STENCIL_2D_9PT",
    "STENCIL_3D_7PT",
    "STENCIL_3D_27PT",
    "Exchange",
    "StencilGeometry",
    "CommMap",
    "NaiveCommMap",
    "MirroredCommMap",
    "CornerOptimizedCommMap",
    "MapReport",
    "analyze_map",
]

Coord = tuple[int, ...]


def _directions(dim: int, diagonals: bool) -> frozenset[Coord]:
    dirs = []
    for d in itertools.product((-1, 0, 1), repeat=dim):
        if all(c == 0 for c in d):
            continue
        if not diagonals and sum(abs(c) for c in d) != 1:
            continue
        dirs.append(d)
    return frozenset(dirs)


STENCIL_2D_5PT = _directions(2, diagonals=False)
STENCIL_2D_9PT = _directions(2, diagonals=True)
STENCIL_3D_7PT = _directions(3, diagonals=False)
STENCIL_3D_27PT = _directions(3, diagonals=True)


@dataclass(frozen=True)
class Exchange:
    """One directed inter-process message: patch ``src`` -> patch ``dst``."""

    src: Coord
    dst: Coord

    @property
    def direction(self) -> Coord:
        return tuple(b - a for a, b in zip(self.src, self.dst))

    @property
    def gmin(self) -> Coord:
        return min(self.src, self.dst)

    @property
    def family(self) -> Coord:
        """Canonical (undirected) direction of the exchange."""
        d = self.direction
        return d if d > tuple(0 for _ in d) else tuple(-c for c in d)


class StencilGeometry:
    """Decomposition geometry: process grid x thread grid, one patch per
    thread, non-periodic boundaries."""

    def __init__(self, proc_grid: Sequence[int], thread_grid: Sequence[int],
                 stencil: frozenset[Coord]):
        if len(proc_grid) != len(thread_grid):
            raise MpiUsageError("process and thread grids must share rank")
        if any(n < 1 for n in (*proc_grid, *thread_grid)):
            raise MpiUsageError("grid dimensions must be >= 1")
        self.proc_grid = tuple(proc_grid)
        self.thread_grid = tuple(thread_grid)
        self.dim = len(self.proc_grid)
        for d in stencil:
            if len(d) != self.dim:
                raise MpiUsageError(f"direction {d} has wrong dimensionality")
        self.stencil = stencil
        self.global_grid = tuple(p * t for p, t in zip(proc_grid, thread_grid))

    # -- coordinate helpers ------------------------------------------------
    def global_of(self, p: Coord, t: Coord) -> Coord:
        """Global patch coordinate of thread ``t`` on process ``p``."""
        return tuple(pi * ti + ci for pi, ti, ci in
                     zip(p, self.thread_grid, t))

    def rank_of(self, p: Coord) -> int:
        """Row-major linear rank of a process coordinate."""
        rank = 0
        for c, n in zip(p, self.proc_grid):
            rank = rank * n + c
        return rank

    def proc_of(self, g: Coord) -> Coord:
        return tuple(gi // ti for gi, ti in zip(g, self.thread_grid))

    def thread_of(self, g: Coord) -> Coord:
        return tuple(gi % ti for gi, ti in zip(g, self.thread_grid))

    def in_domain(self, g: Coord) -> bool:
        return all(0 <= gi < ni for gi, ni in zip(g, self.global_grid))

    def linear_tid(self, t: Coord) -> int:
        """Row-major linear index of a thread coordinate."""
        tid = 0
        for c, n in zip(t, self.thread_grid):
            tid = tid * n + c
        return tid

    def procs(self) -> Iterator[Coord]:
        return itertools.product(*(range(n) for n in self.proc_grid))

    def threads(self) -> Iterator[Coord]:
        return itertools.product(*(range(n) for n in self.thread_grid))

    def is_corner_thread(self, t: Coord) -> bool:
        return all(c in (0, n - 1) for c, n in zip(t, self.thread_grid))

    # -- the neighbour walk -------------------------------------------------
    def _walk(self, p: Coord, t: Coord, sign: int
              ) -> Iterator[tuple[Coord, Coord, bool]]:
        """``(d, g + sign * d, remote)`` for every direction ``d`` of the
        stencil whose patch lies in the domain, where ``g`` is thread
        ``t``'s patch on process ``p`` and ``remote`` says the other patch
        belongs to another process. Directions come in the stencil's own
        iteration order: it is the order messages are posted in, and so
        part of every stencil run's bytes."""
        g = self.global_of(p, t)
        for d in self.stencil:
            g2 = tuple(a + sign * b for a, b in zip(g, d))
            if self.in_domain(g2):
                yield d, g2, self.proc_of(g2) != p

    def neighbors(self, p: Coord, t: Coord
                  ) -> Iterator[tuple[Coord, Coord, bool]]:
        """``(direction, neighbour patch, remote)`` of thread ``t`` on
        process ``p``, in stencil order; in-process neighbours
        (``remote`` false) exchange through shared memory."""
        return self._walk(p, t, 1)

    # -- exchange enumeration ---------------------------------------------
    def exchanges_from(self, p: Coord, t: Coord) -> Iterator[Exchange]:
        """Outgoing inter-process messages of thread ``t`` on process ``p``."""
        g = self.global_of(p, t)
        return (Exchange(g, g2) for _d, g2, remote in self._walk(p, t, 1)
                if remote)

    def exchanges_into(self, p: Coord, t: Coord) -> Iterator[Exchange]:
        """Incoming inter-process messages of thread ``t`` on process ``p``:
        one from the patch at ``g - d`` for every direction ``d``."""
        g = self.global_of(p, t)
        return (Exchange(g2, g) for _d, g2, remote in self._walk(p, t, -1)
                if remote)

    def exchanges_of_process(self, p: Coord) -> Iterator[tuple[Coord, str, Exchange]]:
        """All (local thread, 'send'|'recv', exchange) ops of process ``p``.

        A receive is represented by the exchange whose *dst* is local —
        its label is by construction the label the remote sender used.
        """
        for t in self.threads():
            for ex in self.exchanges_from(p, t):
                yield t, "send", ex
        for t in self.threads():
            for ex in self.exchanges_into(p, t):
                yield t, "recv", ex

    def communicating_threads(self, p: Coord) -> set[Coord]:
        """Threads of process ``p`` that touch at least one exchange."""
        return {t for t, _kind, _ex in self.exchanges_of_process(p)}


class CommMap:
    """Base class: assigns a communicator label to each exchange."""

    def __init__(self, geom: StencilGeometry):
        self.geom = geom

    def label(self, ex: Exchange) -> Hashable:
        raise NotImplementedError

    def all_labels(self) -> set[Hashable]:
        """Every distinct label this scheme assigns across the geometry."""
        seen: set[Hashable] = set()
        for p in self.geom.procs():
            for t in self.geom.threads():
                for ex in self.geom.exchanges_from(p, t):
                    seen.add(self.label(ex))
        return seen

    def num_communicators(self) -> int:
        return len(self.all_labels())


class NaiveCommMap(CommMap):
    """Lesson 2: communicator per thread id; sends use the sender's id."""

    def label(self, ex: Exchange) -> Hashable:
        sender_tid = self.geom.linear_tid(self.geom.thread_of(ex.src))
        return ("tid", sender_tid)


class MirroredCommMap(CommMap):
    """Listing 1's mirroring strategy, generalized.

    Label = (direction family, per-axis residue of the lexicographically
    smaller endpoint). Residues are taken modulo ``thread_grid[i]`` along
    axes the exchange does not cross and modulo ``2 * thread_grid[i]``
    along axes it does — the factor 2 is the a/b mirroring of Listing 1
    (lines 12-17/23-26) that keeps a process's "north" set distinct from
    its "south" set while matching its neighbours' choices.
    """

    def label(self, ex: Exchange) -> Hashable:
        """Parity-based label keeping opposite directions distinct."""
        fam = ex.family
        g = ex.gmin
        residues = []
        for gi, ti, di in zip(g, self.geom.thread_grid, fam):
            residues.append(gi % ti if di == 0 else gi % (2 * ti))
        return ("mir", fam, tuple(residues))


class CornerOptimizedCommMap(CommMap):
    """Fig 4: corner threads funnel exchanges through per-corner comms.

    Rule: if the exchange's *destination* thread sits on a process corner,
    use the destination corner's communicator; else if the *source* does,
    use the source corner's; otherwise fall back to the mirrored label.
    A corner communicator is identified by the corner patch's coordinates
    modulo ``2 * thread_grid`` (the same mirroring trick, applied to a
    single patch instead of an edge).
    """

    def __init__(self, geom: StencilGeometry):
        super().__init__(geom)
        self._mirrored = MirroredCommMap(geom)

    def _corner_label(self, g: Coord) -> Hashable:
        residues = tuple(gi % (2 * ti)
                         for gi, ti in zip(g, self.geom.thread_grid))
        return ("corner", residues)

    def label(self, ex: Exchange) -> Hashable:
        if self.geom.is_corner_thread(self.geom.thread_of(ex.dst)):
            return self._corner_label(ex.dst)
        if self.geom.is_corner_thread(self.geom.thread_of(ex.src)):
            return self._corner_label(ex.src)
        return self._mirrored.label(ex)


@dataclass
class MapReport:
    """Correctness/parallelism analysis of a communicator map."""

    num_communicators: int
    #: Worst case over processes: threads with inter-process communication.
    communicating_threads: int
    #: Worst case over processes: distinct labels used on the process.
    max_labels_per_process: int
    #: Worst case over processes: labels used by >= 2 distinct local
    #: threads (each such label serializes those threads).
    max_conflicting_labels: int
    #: Worst case over processes: largest number of distinct local threads
    #: sharing one label (the per-channel concurrency; 1 = no sharing,
    #: 2 = the "opposite edges share a communicator" of Lesson 2).
    max_threads_per_label: int
    #: Worst case (minimum) over processes of
    #: ``serial groups / communicating threads``; threads sharing any
    #: label are merged into one serial group (union-find). 1.0 means the
    #: map exposes all the available parallelism.
    min_parallel_efficiency: float


def analyze_map(cmap: CommMap) -> MapReport:
    """Validate and measure a communicator map.

    Matching correctness is by construction (labels are pure functions of
    the exchange, so both endpoints agree); the analysis measures
    parallelism: per process, threads that share a label are merged into
    one serial group, and efficiency = groups / communicating threads.
    """
    geom = cmap.geom
    max_labels = 0
    max_conflicts = 0
    max_sharing = 0
    min_eff: Optional[float] = None
    comm_threads = 0
    for p in geom.procs():
        users: dict[Hashable, set[Coord]] = {}
        for t, _kind, ex in geom.exchanges_of_process(p):
            users.setdefault(cmap.label(ex), set()).add(t)
        threads_here = geom.communicating_threads(p)
        comm_threads = max(comm_threads, len(threads_here))
        max_labels = max(max_labels, len(users))
        conflicts = sum(1 for ts in users.values() if len(ts) > 1)
        max_conflicts = max(max_conflicts, conflicts)
        if users:
            max_sharing = max(max_sharing,
                              max(len(ts) for ts in users.values()))

        # Union-find over threads: sharing any label merges two threads.
        parent: dict[Coord, Coord] = {t: t for t in threads_here}

        def find(a: Coord) -> Coord:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for sharing in users.values():
            first, *rest = sharing
            for other in rest:
                ra, rb = find(first), find(other)
                if ra != rb:
                    parent[ra] = rb
        if threads_here:
            groups = len({find(t) for t in threads_here})
            eff = groups / len(threads_here)
            if min_eff is None or eff < min_eff:
                min_eff = eff
    return MapReport(
        num_communicators=cmap.num_communicators(),
        communicating_threads=comm_threads,
        max_labels_per_process=max_labels,
        max_conflicting_labels=max_conflicts,
        max_threads_per_label=max_sharing,
        min_parallel_efficiency=1.0 if min_eff is None else min_eff,
    )
