"""Happens-before machinery: vector clocks and the lock-order graph.

A :class:`TaskClock` holds a task's own component as an int and the
*foreign* components — what it knows of every other task — in a dict.
Accesses and publications are both FastTrack-style epochs:

- a tracked access is ``(pid, counter)``, the accessing task's own
  component then, and happens-before the current state of task *t* iff
  ``counter <= t[pid]``;
- a release point (lock release, send, gate open, request completion,
  barrier/meeting arrival) ticks the task and publishes a
  :class:`PublishedClock` ``(pid, epoch, foreign)`` holding a *reference*
  to the dict, which the task copies before its next write. Every
  publication ticks first, so ``(pid, epoch)`` names one published state,
  and whoever has ``t[pid] >= epoch`` got that component from this state
  or a later one of the publisher, each carrying all it knew at
  ``epoch``: such a join — like that of a task's own publication —
  returns in O(1). Only a join that can teach something walks the dict.

The ``{pid: counter}`` mapping a clock stands for, zero-valued components
inherited from a never-ticked spawner included, is component for
component that of the dict-copying reference (``tests/oracles.py``): a
sender's published mapping rides in ``WireMessage.meta["_hb"]`` and
enters state digests. ``docs/checking.md`` has the full argument.

The lock-order graph records, per ordered pair of locks, the first
occasion a task acquired the second while holding the first. A cycle in
this graph means an adversarial schedule could deadlock — the *potential*
deadlock complement to the kernel's actual-deadlock report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.sync import Lock

__all__ = ["TaskClock", "PublishedClock", "Access", "LockOrderGraph",
           "merge_published"]


class Access:
    """An access summary: who touched the object last, and at which of
    its own clock ticks."""

    __slots__ = ("pid", "counter", "task")

    def __init__(self, pid: int, counter: int, task: str):
        self.pid = pid
        self.counter = counter
        self.task = task


class PublishedClock:
    """One task's clock as published at a release point. Immutable:
    ``foreign`` is shared with the publisher and its other publications."""

    __slots__ = ("pid", "epoch", "foreign")

    def __init__(self, pid: int, epoch: int, foreign: dict[int, int]):
        self.pid = pid
        self.epoch = epoch
        self.foreign = foreign

    def mapping(self) -> dict[int, int]:
        """The full ``{pid: counter}`` mapping this publication stands for."""
        clock = dict(self.foreign)
        clock[self.pid] = self.epoch
        return clock


class TaskClock:
    """The vector clock of one simulated task, and the locks it holds."""

    __slots__ = ("pid", "name", "own", "foreign", "held", "_frozen",
                 "_merged")

    def __init__(self, pid: int, name: str,
                 parent: Optional["TaskClock"] = None):
        self.pid = pid
        self.name = name
        #: Own component: only own accesses and publications advance it.
        self.own = 0
        # A spawned task starts after its spawner's current knowledge.
        self.foreign: dict[int, int] = {}
        if parent is not None:
            self.foreign = parent.mapping()
        #: The locks this task holds, oldest first.
        self.held: list["Lock"] = []
        #: True while a publication shares :attr:`foreign`.
        self._frozen = False
        #: The published dict merged last: nothing in it is news again.
        self._merged: Optional[dict[int, int]] = None

    def mapping(self) -> dict[int, int]:
        """The full ``{pid: counter}`` mapping of this clock (a copy)."""
        clock = dict(self.foreign)
        clock[self.pid] = self.own
        return clock

    def snapshot(self) -> PublishedClock:
        """Tick, then publish the clock for a release point: O(1)."""
        self.own = epoch = self.own + 1
        self._frozen = True
        return PublishedClock(self.pid, epoch, self.foreign)

    def join(self, other: Optional[PublishedClock]) -> None:
        """Merge a published clock (an acquire point): componentwise max."""
        if other is None or other.pid == self.pid \
                or self.foreign.get(other.pid, 0) >= other.epoch:
            return
        self._raise_to(other.foreign)
        self.foreign[other.pid] = other.epoch
        self._merged = other.foreign

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
        if self._frozen:
            self.foreign = foreign = dict(foreign)
            self._frozen = False
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
        return Access(self.pid, c, self.name)

    def saw(self, access: Access) -> bool:
        """True iff ``access`` happens-before this task's current state."""
        if access.pid == self.pid:
            return access.counter <= self.own
        return access.counter <= self.foreign.get(access.pid, 0)


def merge_published(merged: dict[int, int], clock: PublishedClock) -> None:
    """Raise the shared mapping ``merged`` (barrier, meeting) to the
    componentwise max with a published clock."""
    get = merged.get
    merged.update({p: c for p, c in clock.foreign.items() if get(p, 0) < c})
    if get(clock.pid, 0) < clock.epoch:
        merged[clock.pid] = clock.epoch


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
