"""Synchronization primitives with contention accounting.

The paper's central performance argument is about *where threads contend*:
on a global MPI lock, on a shared VCI, on a partitioned operation's shared
request, or — ideally — nowhere. These primitives therefore record wait
statistics so the benchmarks can report both time and contention.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Generator, Optional

from .core import Event, Simulator, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..check.hb import Publication

# Each primitive carries its own happens-before state for the checker in
# ``_hb*`` slots (the clock its last release point published): written and
# read only by ``repro.check.Checker``, None on an unchecked simulator, and
# gone with the primitive.

__all__ = ["Lock", "Semaphore", "Barrier", "Gate", "Mailbox", "ContentionStats"]


@dataclass(slots=True)
class ContentionStats:
    """Aggregate wait/hold statistics for a synchronization object."""

    acquisitions: int = 0
    contended_acquisitions: int = 0
    total_wait_time: float = 0.0
    total_hold_time: float = 0.0
    max_queue_length: int = 0

    @property
    def contention_ratio(self) -> float:
        """Fraction of acquisitions that had to wait."""
        if self.acquisitions == 0:
            return 0.0
        return self.contended_acquisitions / self.acquisitions

    @property
    def mean_wait_time(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.total_wait_time / self.acquisitions


class Lock:
    """FIFO mutual-exclusion lock.

    Usage from a process::

        yield from lock.acquire()
        try:
            ...
        finally:
            lock.release()

    The lock is not reentrant and does not track ownership by process; the
    MPI layer uses it to serialize access to shared VCIs, matching queues
    and NIC doorbells.

    An optional ``observer`` callable receives per-event contention data:
    ``observer("acquire", wait_seconds, queue_position)`` on every acquire
    and ``observer("hold", hold_seconds, queue_length)`` on every release.
    The observability layer (:func:`repro.obs.instrument_lock`) uses it to
    build wait/hold histograms without coupling this module to metrics.
    """

    __slots__ = ("sim", "name", "locked", "_waiters", "stats", "_acquired_at",
                 "observer", "serial", "_hb", "_checker")

    def __init__(self, sim: Simulator, name: str = "lock"):
        self.sim = sim
        self.name = name
        #: Creation order among this simulator's locks (their identity
        #: in the checker's lock-order graph).
        self.serial = sim._next_lock_serial
        sim._next_lock_serial += 1
        self._hb: Optional["Publication"] = None
        self.locked = False
        #: The FIFO of blocked acquirers, built at the first contention:
        #: most locks never see one (see :attr:`queue_length`).
        self._waiters: Optional[Deque[Event]] = None
        self.stats = ContentionStats()
        self._acquired_at = 0.0
        self.observer: Optional[Callable[[str, float, int], None]] = None
        #: ``sim.checker``, read once: a World installs its checker
        #: before it builds anything that locks.
        self._checker = sim.checker

    def acquire(self) -> Generator[Event, Any, None]:
        """Generator: acquire the lock, waiting FIFO if held."""
        sim = self.sim
        stats = self.stats
        stats.acquisitions += 1
        if not self.locked:
            self.locked = True
            self._acquired_at = sim._now
            if self.observer is not None:
                self.observer("acquire", 0.0, 0)
            if self._checker is not None:
                self._checker.lock_acquired(self)
            return
        stats.contended_acquisitions += 1
        waiters = self._waiters
        if waiters is None:
            waiters = self._waiters = deque()
        waiter = sim.event()
        waiters.append(waiter)
        queue_position = len(waiters)
        if queue_position > stats.max_queue_length:
            stats.max_queue_length = queue_position
        t0 = sim._now
        yield waiter
        now = sim._now
        wait = now - t0
        stats.total_wait_time += wait
        self._acquired_at = now
        if self.observer is not None:
            self.observer("acquire", wait, queue_position)
        if self._checker is not None:
            self._checker.lock_acquired(self)

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns True on success."""
        if self.locked:
            return False
        self.stats.acquisitions += 1
        self.locked = True
        self._acquired_at = self.sim._now
        if self.observer is not None:
            self.observer("acquire", 0.0, 0)
        if self._checker is not None:
            self._checker.lock_acquired(self)
        return True

    def release(self) -> None:
        """Release the lock, accounting hold time; wakes one waiter."""
        if not self.locked:
            raise SimulationError(f"release of unheld lock {self.name!r}")
        now = self.sim._now
        hold = now - self._acquired_at
        self.stats.total_hold_time += hold
        if self.observer is not None:
            self.observer("hold", hold, self.queue_length)
        # Publish before any handoff so a directly-resumed waiter joins
        # this holder's clock when its acquire() continues.
        if self._checker is not None:
            self._checker.lock_released(self)
        if self._waiters:
            # Hand the lock to the next waiter; it stays locked.
            self._acquired_at = now
            self._waiters.popleft().succeed()
        else:
            self.locked = False

    @property
    def queue_length(self) -> int:
        """Acquirers blocked now (0 before the first contention)."""
        waiters = self._waiters
        return 0 if waiters is None else len(waiters)


class Semaphore:
    """Counting semaphore with FIFO wakeup."""

    __slots__ = ("sim", "count", "_waiters", "stats", "_hb")

    def __init__(self, sim: Simulator, initial: int = 0):
        if initial < 0:
            raise ValueError("semaphore count must be non-negative")
        self.sim = sim
        self.count = initial
        self._waiters: Deque[Event] = deque()
        self.stats = ContentionStats()
        self._hb: Optional[Deque[Optional["Publication"]]] = None

    def post(self, n: int = 1) -> None:
        """Add ``n`` units, waking up to ``n`` blocked waiters in FIFO order."""
        chk = self.sim.checker
        for _ in range(n):
            # The checker's FIFO clock queue gives each wait() a
            # happens-before edge from the post() that fed it.
            if chk is not None:
                chk.mailbox_put(self)
            if self._waiters:
                self._waiters.popleft().succeed()
            else:
                self.count += 1

    def wait(self) -> Generator[Event, Any, None]:
        """Take one unit, blocking FIFO while the count is zero."""
        self.stats.acquisitions += 1
        if self.count > 0:
            self.count -= 1
            if self.sim.checker is not None:
                self.sim.checker.mailbox_got(self)
            return
        self.stats.contended_acquisitions += 1
        waiter = self.sim.event()
        self._waiters.append(waiter)
        t0 = self.sim.now
        yield waiter
        self.stats.total_wait_time += self.sim.now - t0
        if self.sim.checker is not None:
            self.sim.checker.mailbox_got(self)


class Barrier:
    """Reusable cyclic barrier for ``parties`` processes.

    Models the implicit thread barrier that e.g. OpenMP ``single`` regions
    impose (Listing 4 of the paper charges exactly this synchronization to
    partitioned communication).
    """

    __slots__ = ("sim", "parties", "_count", "_gate", "generation", "stats",
                 "per_entry_cost", "_hb_pending", "_hb_release")

    def __init__(self, sim: Simulator, parties: int, per_entry_cost: float = 0.0):
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.sim = sim
        self.parties = parties
        if not per_entry_cost >= 0:  # also rejects NaN
            raise ValueError(
                f"per_entry_cost must be >= 0, got {per_entry_cost}")
        self.per_entry_cost = float(per_entry_cost)
        self._count = 0
        self._gate: Event = sim.event()
        self.generation = 0
        self.stats = ContentionStats()
        # Two clocks: the last arriver may re-arrive for the next
        # generation before the waiters of this one have departed.
        self._hb_pending: Optional[dict[int, int]] = None
        self._hb_release: Optional[dict[int, int]] = None

    def wait(self) -> Generator[Event | float, Any, None]:
        """Block until all parties arrive; last arriver opens the gate."""
        if self.per_entry_cost:
            yield self.per_entry_cost
        chk = self.sim.checker
        if chk is not None:
            chk.barrier_arrive(self)
        self.stats.acquisitions += 1
        self._count += 1
        if self._count == self.parties:
            gate, self._gate = self._gate, self.sim.event()
            self._count = 0
            self.generation += 1
            if chk is not None:
                chk.barrier_release(self)
                chk.barrier_depart(self)
            gate.succeed()
            return
        self.stats.contended_acquisitions += 1
        t0 = self.sim.now
        gate = self._gate
        yield gate
        self.stats.total_wait_time += self.sim.now - t0
        if chk is not None:
            chk.barrier_depart(self)


class Gate:
    """A resettable broadcast flag: processes wait until it is opened."""

    __slots__ = ("sim", "_event", "_open", "_hb")

    def __init__(self, sim: Simulator, open: bool = False):
        self.sim = sim
        self._event = sim.event()
        self._open = open
        self._hb: Optional["Publication"] = None

    @property
    def is_open(self) -> bool:
        return self._open

    def open(self, value: Any = None) -> None:
        if not self._open:
            if self.sim.checker is not None:
                self.sim.checker.gate_opened(self)
            self._open = True
            self._event.succeed(value)

    def reset(self) -> None:
        self._open = False
        if self._event.triggered:
            self._event = self.sim.event()

    def wait(self) -> Generator[Event, Any, Any]:
        """Return immediately if the gate is open, else block for open()."""
        if self._open:
            if self.sim.checker is not None:
                self.sim.checker.gate_passed(self)
            return None
        value = yield self._event
        if self.sim.checker is not None:
            self.sim.checker.gate_passed(self)
        return value


class Mailbox:
    """Unbounded FIFO queue with blocking ``get``.

    Used for NIC work queues and runtime message queues. ``put`` never
    blocks; ``get`` blocks until an item is available.
    """

    __slots__ = ("sim", "_items", "_getters", "name", "_hb")

    def __init__(self, sim: Simulator, name: str = "mailbox"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._hb: Optional[Deque[Optional["Publication"]]] = None

    def put(self, item: Any) -> None:
        if self.sim.checker is not None:
            self.sim.checker.mailbox_put(self)
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Generator[Event, Any, Any]:
        """Take the oldest item, blocking while the mailbox is empty."""
        if self._items:
            item = self._items.popleft()
            if self.sim.checker is not None:
                self.sim.checker.mailbox_got(self)
            return item
        waiter = self.sim.event()
        self._getters.append(waiter)
        item = yield waiter
        if self.sim.checker is not None:
            self.sim.checker.mailbox_got(self)
        return item

    def try_get(self) -> tuple[bool, Optional[Any]]:
        if self._items:
            item = self._items.popleft()
            if self.sim.checker is not None:
                self.sim.checker.mailbox_got(self)
            return True, item
        return False, None

    def __len__(self) -> int:
        return len(self._items)
