"""Deterministic fault injection over the simulated fabric and NIC.

The :class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into concrete per-message decisions:
the fabric asks it what to do with each departing wire message
(:meth:`wire_actions`), and NIC hardware contexts ask whether they are
inside a stall window (:meth:`stall_until`).

Decisions are drawn from a private splitmix64 stream seeded by the
experiment seed. Because the discrete-event simulator is deterministic,
the injector sees the same sequence of messages in the same order on every
run — so the same ``(plan, seed)`` pair reproduces the exact same drops,
duplicates, corruptions and delays, message for message. Fault decisions
never consult Python's randomized ``hash`` or wall-clock state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import TYPE_CHECKING

import numpy as np

from ..sim.trace import TraceCategory
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.message import WireMessage
    from ..sim.core import Simulator

__all__ = ["Delivery", "FaultInjector", "payload_checksum"]


def payload_checksum(payload) -> int:
    """Deterministic checksum of a wire payload (crc32).

    Hash-seed independent, so the same payload checksums identically in
    every interpreter run (``hash()`` would not).
    """
    import zlib
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return zlib.crc32(np.ascontiguousarray(payload).tobytes())
    return zlib.crc32(repr(payload).encode())


@dataclass
class Delivery:
    """One physical delivery the fabric should schedule."""

    msg: "WireMessage"
    extra_delay: float = 0.0
    duplicate: bool = False


class FaultInjector:
    """Seeded decision engine for one world's fault plan."""

    def __init__(self, sim: "Simulator", plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = int(seed)
        # splitmix64 state; offset so seed 0 is not the all-zeros state.
        self._state = (self.seed * 0x9E3779B97F4A7C15 + 0x1F123BB5) \
            & 0xFFFFFFFFFFFFFFFF
        #: The run's instruments, from the simulator (None if absent).
        self.metrics = sim.metrics
        self.tracer = sim.tracer
        # -- fault counters (always on; metrics mirror them if present) ----
        self.drops = 0
        self.dups = 0
        self.corruptions = 0
        self.delays = 0
        self.link_drops = 0
        self.degraded = 0
        self.failovers = 0
        self.messages_seen = 0

    # ------------------------------------------------------------------
    # deterministic draws
    # ------------------------------------------------------------------
    def _draw(self) -> float:
        """Next uniform draw in [0, 1) from the splitmix64 stream."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z ^= z >> 31
        return (z >> 11) / float(1 << 53)

    def _hit(self, rate: float) -> bool:
        return rate > 0.0 and self._draw() < rate

    # ------------------------------------------------------------------
    # NIC-side hooks
    # ------------------------------------------------------------------
    def stall_until(self, node: int, ctx: int, now: float) -> float:
        """End of the stall window covering ``(node, ctx)`` at ``now``
        (0.0 when the context is healthy)."""
        end = 0.0
        for stall in self.plan.stalls:
            if stall.covers(node, ctx, now):
                end = max(end, stall.end)
        return end

    def note_failover(self, node: int, from_ctx: int, to_ctx: int) -> None:
        """Record one message failing over from a stalled context."""
        self.failovers += 1
        if self.metrics is not None:
            self.metrics.inc("nic.ctx_failover", node=node, ctx=from_ctx)
        if self.tracer is not None:
            self.tracer.emit(TraceCategory.CTX_FAILOVER, {
                "node": node, "ctx": from_ctx, "to_ctx": to_ctx})

    # ------------------------------------------------------------------
    # fabric-side hook
    # ------------------------------------------------------------------
    def wire_actions(self, msg: "WireMessage", depart: float,
                     wire_time: float) -> list[Delivery]:
        """Decide the fate of one wire message entering the fabric.

        Returns the physical deliveries to schedule: none (dropped), one,
        or two (duplicated), each possibly delayed and/or corrupted. The
        sender's copy of ``msg`` is never mutated — corruption produces a
        modified delivery copy, so retransmissions resend clean data.
        """
        plan = self.plan
        self.messages_seen += 1
        tracer = self.tracer

        # Link flap: departures inside a down window never arrive.
        for window in plan.links:
            if window.kind == "down" and (
                    window.covers(msg.src_node, depart)
                    or window.covers(msg.dst_node, depart)):
                self.link_drops += 1
                self._count("fault.link_drop", msg)
                if tracer is not None:
                    tracer.emit(TraceCategory.LINK_DROP, self._payload(msg))
                return []

        if self._hit(plan.drop):
            self.drops += 1
            self._count("fault.drop", msg)
            if tracer is not None:
                tracer.emit(TraceCategory.FAULT_DROP, self._payload(msg))
            return []

        deliveries = [Delivery(msg)]
        if self._hit(plan.dup):
            self.dups += 1
            self._count("fault.dup", msg)
            if tracer is not None:
                tracer.emit(TraceCategory.FAULT_DUP, self._payload(msg))
            deliveries.append(Delivery(msg, extra_delay=plan.dup_delay,
                                       duplicate=True))

        # Link degradation: wire time stretched by the largest covering
        # factor (congestion, renegotiated rate).
        degrade = 0.0
        for window in plan.links:
            if window.kind == "degraded" and (
                    window.covers(msg.src_node, depart)
                    or window.covers(msg.dst_node, depart)):
                degrade = max(degrade, wire_time * (window.factor - 1.0))
        if degrade > 0.0:
            self.degraded += 1
            for d in deliveries:
                d.extra_delay += degrade

        for d in deliveries:
            if self._hit(plan.corrupt):
                self.corruptions += 1
                self._count("fault.corrupt", msg)
                if tracer is not None:
                    tracer.emit(TraceCategory.FAULT_CORRUPT,
                                self._payload(msg))
                d.msg = self._corrupted_copy(d.msg)
            if self._hit(plan.delay):
                spike = plan.delay_max * self._draw()
                self.delays += 1
                self._count("fault.delay", msg)
                if tracer is not None:
                    tracer.emit(TraceCategory.FAULT_DELAY,
                                dict(self._payload(msg), spike=spike))
                d.extra_delay += spike
        return deliveries

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _corrupted_copy(self, msg: "WireMessage") -> "WireMessage":
        """A delivery copy of ``msg`` with a flipped payload byte (or, for
        payload-free control messages, a mangled checksum — header
        corruption)."""
        payload = msg.payload
        if isinstance(payload, np.ndarray) and payload.nbytes > 0:
            bad = np.ascontiguousarray(payload).copy()
            flat = bad.view(np.uint8).reshape(-1)
            flat[int(self._draw() * flat.size) % flat.size] ^= 0xFF
            return dc_replace(msg, payload=bad)
        return dc_replace(msg, checksum=msg.checksum ^ 0x5A5A5A5A)

    def _count(self, name: str, msg: "WireMessage") -> None:
        if self.metrics is not None:
            self.metrics.inc(name, node=msg.src_node)

    def _payload(self, msg: "WireMessage") -> dict:
        return {"src_rank": msg.src_rank, "dst_rank": msg.dst_rank,
                "kind": msg.kind.value, "tag": msg.tag,
                "rel_seq": msg.rel_seq}

    def summary(self) -> dict[str, int]:
        return {
            "messages_seen": self.messages_seen, "drops": self.drops,
            "dups": self.dups, "corruptions": self.corruptions,
            "delays": self.delays, "link_drops": self.link_drops,
            "degraded": self.degraded, "failovers": self.failovers,
        }
