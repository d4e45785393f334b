"""The interconnect: delivers wire messages between nodes.

The fabric implements a LogGP-flavoured timing model: a message that
departs its NIC context at time ``d`` arrives at the destination node at
``d + L + wire_bytes / bandwidth``, plus queueing on the source node's
egress link and the destination node's ingress link when either is
saturated. Delivery invokes the handler the destination node registered
— in this codebase, the MPI library's
:meth:`~repro.mpi.library.MpiLibrary.deliver`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..sim.core import Event, Simulator
from ..sim.resources import FIFOServer
from ..sim.trace import TraceCategory
from .config import FabricParams
from .message import HEADER_BYTES, WireMessage

__all__ = ["Fabric"]

DeliveryHandler = Callable[[WireMessage], None]

class Fabric:
    """Connects nodes; schedules message arrivals.

    With a metrics registry on the simulator the fabric records per-node
    egress/ingress queueing-delay histograms — the saturation signal
    behind the Fig 1(a) message-rate plateau — and a tracer (if any) gets
    one ``fabric.deliver`` instant per arrival.
    """

    def __init__(self, sim: Simulator, params: FabricParams):
        self.sim = sim
        self.params = params
        self.metrics = sim.metrics
        self.tracer = sim.tracer
        #: Optional :class:`repro.faults.FaultInjector` making the fabric
        #: lossy (the World attaches it when built with ``faults=``).
        self.injector = None
        self._handlers: dict[int, DeliveryHandler] = {}
        self._ingress: dict[int, FIFOServer] = {}
        self._egress: dict[int, FIFOServer] = {}
        self._h_egress: dict[int, object] = {}
        self._h_ingress: dict[int, object] = {}
        self.messages_delivered = 0
        self.bytes_delivered = 0
        #: Every arrival's callback, bound once (as ``Process._resume_cb``)
        #: rather than once per message.
        self._arrival_cb = self._on_arrival

    def register_node(self, node_id: int, handler: DeliveryHandler) -> None:
        """Attach a node's message handler to the fabric."""
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} already registered")
        self._handlers[node_id] = handler
        self._ingress[node_id] = FIFOServer(self.sim, name=f"node{node_id}.ingress")
        self._egress[node_id] = FIFOServer(self.sim, name=f"node{node_id}.egress")
        if self.metrics is not None:
            self._h_egress[node_id] = self.metrics.histogram(
                "fabric.egress.queue_delay", node=node_id)
            self._h_ingress[node_id] = self.metrics.histogram(
                "fabric.ingress.queue_delay", node=node_id)

    @staticmethod
    def _serialize(server: FIFOServer, head_time: float,
                   service: float) -> tuple[float, float]:
        """Occupy ``server`` starting no earlier than ``head_time``.

        FIFOServer's own clock is ``sim.now``; messages here carry future
        departure times, so the busy-interval bookkeeping is done by hand.
        Returns ``(completion_time, queue_delay)``.
        """
        busy_until = max(server.free_at, head_time)
        server._free_at = busy_until + service
        server.stats.requests += 1
        server.stats.busy_time += service
        server.stats.total_queue_delay += busy_until - head_time
        return busy_until + service, busy_until - head_time

    def transmit(self, msg: WireMessage, depart_time: float) -> None:
        """Schedule delivery of ``msg`` that departs its NIC hardware
        context at ``depart_time`` (absolute simulated time, >= now)."""
        dst_node = msg.dst_node
        if dst_node not in self._handlers:
            raise KeyError(f"no node {dst_node} on this fabric "
                           f"(message {msg!r})")
        params = self.params
        now = self.sim._now
        if depart_time < now:
            depart_time = now
        wire_time = (msg.size + HEADER_BYTES) / params.bandwidth
        # All hardware contexts of a node feed one link: aggregate
        # message-rate and bandwidth ceiling at the source. This is
        # :meth:`_serialize` written out (once per message).
        src_node = msg.src_node
        server = self._egress[src_node]
        service = params.node_msg_gap
        if service < wire_time:
            service = wire_time
        busy_until = server._free_at
        if busy_until < depart_time:  # depart_time >= now
            busy_until = depart_time
        queued = busy_until - depart_time
        depart_time = server._free_at = busy_until + service
        stats = server.stats
        stats.requests += 1
        stats.busy_time += service
        stats.total_queue_delay += queued
        if self._h_egress:
            self._h_egress[src_node].observe(queued)
        if self.injector is not None:
            # The injector decides the message's physical fate: zero, one
            # or two deliveries, each possibly delayed or corrupted. Drops
            # happen after egress — a dropped message still burned its
            # slot on the sender's link.
            for d in self.injector.wire_actions(msg, depart_time, wire_time):
                self._schedule_arrival(d.msg, depart_time + d.extra_delay,
                                       wire_time)
            return
        self._schedule_arrival(msg, depart_time, wire_time)

    def transmit_batch(self, items: Sequence[tuple[WireMessage, float]]
                       ) -> None:
        """:meth:`transmit` once per item. No caller under ``src/``: the frozen
        ``benchmarks/stack/layers.py`` resolves this name; it goes with
        the benchmark thaw (ROADMAP item 1)."""
        for msg, depart_time in items:
            self.transmit(msg, depart_time)

    def _schedule_arrival(self, msg: WireMessage, depart_time: float,
                          wire_time: float) -> None:
        """Apply latency + ingress queueing and schedule the arrival.

        The one step a routed fabric replaces. Like the egress side in
        :meth:`transmit`, the ingress busy-chain is :meth:`_serialize`
        written out.
        """
        head_arrival = depart_time + self.params.latency
        dst_node = msg.dst_node
        server = self._ingress[dst_node]
        sim = self.sim
        now = sim._now
        busy_until = server._free_at
        if busy_until < now:
            busy_until = now
        if busy_until < head_arrival:
            busy_until = head_arrival
        queued = busy_until - head_arrival
        arrival = server._free_at = busy_until + wire_time
        stats = server.stats
        stats.requests += 1
        stats.busy_time += wire_time
        stats.total_queue_delay += queued
        if self._h_ingress:
            self._h_ingress[dst_node].observe(queued)
        # A delay, not the absolute time: the kernel adds it back to now.
        sim.call_after(arrival - now, self._arrival_cb, msg)

    def _on_arrival(self, event: Event) -> None:
        msg: WireMessage = event._value
        self.messages_delivered += 1
        self.bytes_delivered += msg.size + HEADER_BYTES
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(TraceCategory.MSG_DELIVER, {
                "rank": msg.dst_rank, "vci": msg.dst_vci,
                "src_rank": msg.src_rank, "tag": msg.tag,
                "kind": msg.kind.value, "bytes": msg.wire_bytes,
            })
        self._handlers[msg.dst_node](msg)

    def latency_for(self, wire_bytes: int) -> float:
        """Unloaded one-way latency for a message of ``wire_bytes``."""
        return self.params.latency + wire_bytes / self.params.bandwidth
