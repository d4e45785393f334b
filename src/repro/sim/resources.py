"""Rate-limited serial resources.

A :class:`FIFOServer` models a hardware unit that serves one request at a
time, each for the service time its caller gives — exactly the behaviour of
a NIC hardware context with a per-message issue gap ``g`` in the LogGP
model: back-to-back messages depart no faster than one per ``g`` seconds.

Unlike a :class:`~repro.sim.sync.Lock`, a ``FIFOServer`` does not require a
cooperating process to release it: a request occupies the server for its
service time and the completion event fires automatically. This keeps the
hot path (millions of simulated messages) allocation-light: one event per
request, no process switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import Event, Simulator

__all__ = ["FIFOServer", "ServerStats"]


@dataclass(slots=True)
class ServerStats:
    """Utilization counters for a :class:`FIFOServer`."""

    requests: int = 0
    busy_time: float = 0.0
    total_queue_delay: float = 0.0

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed

    @property
    def mean_queue_delay(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.total_queue_delay / self.requests


class FIFOServer:
    """A serial server with per-request service times.

    ``submit(st)`` returns an :class:`Event` that triggers when
    the request finishes service. Requests are serviced in submission
    order; a request begins service at ``max(now, previous completion)``.

    The per-message methods read the clock as ``sim._now`` and spell
    ``max`` of two floats as a comparison: a property call and a builtin
    call per read are measurable at one to three reads per simulated
    message, and the result is the same float either way.
    """

    __slots__ = ("sim", "name", "_free_at", "stats")

    def __init__(self, sim: Simulator, name: str = "server"):
        self.sim = sim
        self.name = name
        self._free_at = 0.0
        self.stats = ServerStats()

    def submit(self, st: float,
               callback: Optional[Callable[[Event], None]] = None) -> Event:
        """Enqueue one request of ``st`` seconds; returns its completion
        event, which runs ``callback(event)`` first when one is given."""
        if not st >= 0:  # also rejects NaN
            raise ValueError(f"service time must be non-negative, got {st}")
        sim = self.sim
        now = sim._now
        start = self._free_at
        if start < now:
            start = now
        done_at = start + st
        self._free_at = done_at
        stats = self.stats
        stats.requests += 1
        stats.busy_time += st
        stats.total_queue_delay += start - now
        return sim.call_after(done_at - now, callback)

    def occupy(self, st: float) -> float:
        """Like :meth:`submit` but only returns the completion *time*.

        Useful when the caller does not need to wait on the completion (for
        example a fire-and-forget doorbell ring) — no event is allocated.
        """
        if not st >= 0:  # also rejects NaN
            raise ValueError(f"service time must be non-negative, got {st}")
        now = self.sim._now
        start = self._free_at
        if start < now:
            start = now
        self._free_at = done_at = start + st
        stats = self.stats
        stats.requests += 1
        stats.busy_time += st
        stats.total_queue_delay += start - now
        return done_at

    @property
    def free_at(self) -> float:
        """Time at which the server next becomes idle."""
        return max(self._free_at, self.sim.now)

    @property
    def backlog(self) -> float:
        """Seconds of queued work ahead of a request submitted now."""
        return max(0.0, self._free_at - self.sim.now)
