"""Happens-before machinery: vector clocks and the lock-order graph.

A :class:`TaskClock` holds a task's own component as an int and the
*foreign* components — what it knows of every other task, positive
values only — in a dict. Accesses and publications are FastTrack-style
epochs, and both are plain tuples (a hook builds several per message):

- a tracked access is ``(pid, counter, task name)``, the accessing
  task's own component then, and happens-before the current state of
  task *t* iff ``counter <= t[pid]``;
- a release point (lock release, send, gate open, request completion,
  barrier/meeting arrival) ticks the task and publishes ``(pid, epoch,
  foreign, zeros)`` holding a *reference* to the dict, which the task
  replaces before its next write. Every publication ticks first, so
  ``(pid, epoch)`` names one published state, and whoever has
  ``t[pid] >= epoch`` got that component from this state or a later one
  of the publisher, each carrying all it knew at ``epoch``.

That one fact is used in both directions. A join whose publisher the
task already knows at ``epoch`` — like that of its own publication —
returns in O(1). And a join whose *publisher* knows the *task* at the
epoch its dict was first published (``_base_epoch``), the task having
written nothing since, has that dict component for component: the task
adopts a copy of the publisher's dict instead of walking it in Python —
the hand-off of a contended lock. Everything else walks.

The ``{pid: counter}`` mapping a clock stands for, zero-valued components
inherited from a never-ticked spawner included, is component for
component that of the dict-copying reference (``tests/oracles.py``): a
sender's published mapping rides in ``WireMessage.meta["_hb"]`` — the
one publication a state capture reaches, hence wrapped in a
:class:`PublishedClock` — and enters state digests. The zeros sit
*beside* the dict (``zeros``): no join hands a zero on, so a dict that
held them could not be adopted by copy. ``docs/checking.md`` has the
full argument.

The lock-order graph records, per ordered pair of locks, the first
occasion a task acquired the second while holding the first. A cycle in
this graph means an adversarial schedule could deadlock — the *potential*
deadlock complement to the kernel's actual-deadlock report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.sync import Lock

__all__ = ["TaskClock", "PublishedClock", "Access", "Publication",
           "LockOrderGraph", "merge_published", "published_mapping"]

#: An access summary ``(pid, counter, task)``: who touched the object
#: last, and at which of its own clock ticks.
Access = tuple[int, int, str]

#: One task's clock as published at a release point, ``(pid, epoch,
#: foreign, zeros)``. Immutable: ``foreign`` is shared with the publisher
#: and its other publications.
Publication = tuple[int, int, dict[int, int], tuple[int, ...]]


def published_mapping(clock: Publication) -> dict[int, int]:
    """The full ``{pid: counter}`` mapping a publication stands for."""
    pid, epoch, foreign, zeros = clock
    mapping = dict.fromkeys(zeros, 0)
    mapping.update(foreign)
    mapping[pid] = epoch
    return mapping


class PublishedClock(tuple):
    """The publication that rides in a message (``meta["_hb"]``), typed so
    that a state capture describes it as its mapping, not as a 4-list."""

    __slots__ = ()

    mapping = published_mapping


class TaskClock:
    """The vector clock of one simulated task, and the locks it holds."""

    __slots__ = ("pid", "name", "own", "foreign", "zeros", "held",
                 "_merged", "_base_epoch")

    def __init__(self, pid: int, name: str,
                 parent: Optional["TaskClock"] = None):
        self.pid = pid
        self.name = name
        #: Own component: only own accesses and publications advance it.
        self.own = 0
        #: Positive components only; never this task's own pid.
        self.foreign: dict[int, int] = {}
        #: Pids inherited at 0 from a never-ticked spawner: part of the
        #: mapping (``foreign`` wins where it has since learned more),
        #: fixed at spawn, handed on by spawning alone.
        self.zeros: tuple[int, ...] = ()
        # A spawned task starts after its spawner's current knowledge.
        if parent is not None:
            self.foreign = dict(parent.foreign)
            self.zeros = parent.zeros
            if parent.own:
                self.foreign[parent.pid] = parent.own
            else:
                self.zeros += (parent.pid,)
        #: The locks this task holds, oldest first.
        self.held: list["Lock"] = []
        #: The published dict merged last: nothing in it is news again.
        self._merged: Optional[dict[int, int]] = None
        #: Epoch of the first publication that shares :attr:`foreign`; 0
        #: while none does (the dict is private and may be written).
        self._base_epoch = 0

    def mapping(self) -> dict[int, int]:
        """The full ``{pid: counter}`` mapping of this clock (a copy)."""
        return published_mapping((self.pid, self.own, self.foreign,
                                  self.zeros))

    def snapshot(self) -> Publication:
        """Tick, then publish the clock for a release point: O(1)."""
        self.own = epoch = self.own + 1
        if not self._base_epoch:
            # First publication of this dict: whoever knows this task at
            # ``epoch`` has all of it.
            self._base_epoch = epoch
        return (self.pid, epoch, self.foreign, self.zeros)

    def join(self, other: Optional[Publication]) -> None:
        """Merge a published clock (an acquire point): componentwise max."""
        if other is None:
            return
        opid, oepoch, theirs, _ = other
        pid = self.pid
        if opid == pid or self.foreign.get(opid, 0) >= oepoch:
            return
        if theirs is not self._merged \
                and 0 < self._base_epoch <= theirs.get(pid, 0):
            # The publisher has joined our base publication, and we hold
            # nothing else: ``theirs`` dominates our dict.
            self.foreign = foreign = dict(theirs)
            del foreign[pid]
            self._base_epoch = 0
        else:
            self._raise_to(theirs)
            foreign = self.foreign
        foreign[opid] = oepoch
        self._merged = theirs

    def join_task(self, other: "TaskClock") -> None:
        """Merge the final clock of a finished task (a process join): not
        a publication, so no epoch shortcut — it did not tick, and its
        last publication may predate what it learned since."""
        if other is not self:
            self._raise_to(other.foreign)
            if self.foreign.get(other.pid, 0) < other.own:
                self.foreign[other.pid] = other.own

    def join_merged(self, merged: Optional[dict[int, int]]) -> None:
        """Merge a full ``{pid: counter}`` mapping (barrier, meeting)."""
        if merged:
            self._raise_to(merged)

    def _raise_to(self, theirs: dict[int, int]) -> None:
        """Raise each foreign component to at least ``theirs``'s, on a
        private copy if the dict is shared (only a barrier or process
        join that teaches nothing copies in vain)."""
        foreign = self.foreign
        if self._base_epoch:
            self.foreign = foreign = dict(foreign)
            self._base_epoch = 0
        if theirs is not self._merged:
            get = foreign.get
            for p, c in theirs.items():
                if get(p, 0) < c:
                    foreign[p] = c
            # Others never know this task ahead of itself.
            foreign.pop(self.pid, None)

    def access(self) -> Access:
        """Summarize an access by this task now (ticks the clock)."""
        self.own = c = self.own + 1
        return (self.pid, c, self.name)

    def saw(self, access: Access) -> bool:
        """True iff ``access`` happens-before this task's current state."""
        pid, counter, _ = access
        if pid == self.pid:
            return counter <= self.own
        return counter <= self.foreign.get(pid, 0)


def merge_published(merged: dict[int, int], clock: Publication) -> None:
    """Raise the shared mapping ``merged`` (barrier, meeting) to the
    componentwise max with a published clock."""
    pid, epoch, foreign, _ = clock
    get = merged.get
    merged.update({p: c for p, c in foreign.items() if get(p, 0) < c})
    if get(pid, 0) < epoch:
        merged[pid] = epoch


class LockOrderGraph:
    """Directed graph of observed lock acquisition orders; nodes are lock
    creation serials (``Lock.serial``), never ``id()``: a function of the
    run alone, as is the rotation a cycle is reported in."""

    def __init__(self) -> None:
        #: ``(serial_a, serial_b) -> (name_a, name_b, task, time)``: first
        #: time a task acquired lock b while holding lock a.
        self.edges: dict[tuple[int, int], tuple[str, str, str, float]] = {}

    def add(self, held: int, held_name: str, acq: int, acq_name: str,
            task: str, time: float) -> None:
        """Record that ``task`` acquired lock ``acq`` while holding ``held``."""
        key = (held, acq)
        if key not in self.edges:
            self.edges[key] = (held_name, acq_name, task, time)

    def cycles(self) -> Iterator[list[tuple[int, int]]]:
        """Yield each elementary cycle once, as a list of edges.

        An iterative DFS over the adjacency built from :attr:`edges`;
        each cycle is reported rooted at its oldest lock so that
        rotations collapse to one report.
        """
        adj: dict[int, list[int]] = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
        seen_cycles: set[tuple[int, ...]] = set()
        for start in sorted(adj):
            # DFS from each node, only following nodes >= start so every
            # cycle is found exactly once from its smallest member.
            stack: list[tuple[int, list[int]]] = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in adj.get(node, ()):
                    if nxt == start:
                        cyc = tuple(path)
                        if cyc not in seen_cycles:
                            seen_cycles.add(cyc)
                            yield [(path[i], path[(i + 1) % len(path)])
                                   for i in range(len(path))]
                    elif nxt > start and nxt not in path:
                        stack.append((nxt, path + [nxt]))

    def describe_cycle(self, cycle: list[tuple[int, int]]) -> str:
        """Render a lock-order cycle as a human-readable edge chain."""
        names = []
        for edge in cycle:
            name_a, name_b, task, _t = self.edges[edge]
            names.append(f"{name_a} -> {name_b} (task {task!r})")
        return "; ".join(names)
