"""A fabric that routes messages hop-by-hop through a topology graph.

:class:`RoutedFabric` keeps the legacy :class:`~repro.netsim.fabric.Fabric`
contract — ``transmit(msg, depart_time)`` after NIC egress, delivery via
the registered node handler — but replaces the single latency +
bandwidth charge with a walk of the topology's static route: every link
on the path serializes the message at the link's bandwidth behind
whatever traffic already occupies it (store-and-forward), then adds the
link's propagation latency. Congestion therefore *emerges*: incast
saturates a host's last link, bisection-limited traffic queues on core
links, and adaptive nothing — routes are static, so runs stay
deterministic.

Per-link queueing delays feed ``topo.link.queue_delay`` histograms and
the tracer gets one ``topo.link.hop`` instant per hop (both observer-only
— instruments never shift simulated timings).
"""

from __future__ import annotations

from ...errors import TopologyError
from ...sim.core import Simulator
from ...sim.trace import TraceCategory
from ..config import FabricParams
from ..fabric import DeliveryHandler, Fabric
from ..message import WireMessage
from .graph import Topology

__all__ = ["RoutedFabric"]


class RoutedFabric(Fabric):
    """A :class:`Fabric` whose messages traverse an explicit link graph.

    The node-level egress/ingress model (NIC aggregation at the hosts)
    is inherited unchanged; what changes is the path *between* the
    hosts: ``_schedule_arrival`` walks ``topology.route(src, dst)``
    instead of charging one flat latency. The fault-injector path is
    inherited too — dropped, duplicated, and delayed messages route
    through the same links.
    """

    def __init__(self, sim: Simulator, params: FabricParams,
                 topology: Topology):
        super().__init__(sim, params)
        self.topology = topology
        topology.bind(sim, params)
        self._max_hops_cache = 0
        self._h_links: dict[str, object] = {}
        if self.metrics is not None:
            for link in topology.links():
                self._h_links[link.name] = self.metrics.histogram(
                    "topo.link.queue_delay", link=link.name)

    def register_node(self, node_id: int, handler: DeliveryHandler) -> None:
        """Attach a node, checking it has a host port on the topology."""
        if not 0 <= node_id < self.topology.num_hosts:
            raise TopologyError(
                f"node {node_id} exceeds {self.topology.name} host "
                f"capacity {self.topology.num_hosts}")
        super().register_node(node_id, handler)

    def _schedule_arrival(self, msg: WireMessage, depart_time: float,
                          wire_time: float) -> None:
        """Walk the static route, charging each link, then host ingress."""
        tracer = self.tracer
        t = depart_time
        for link in self.topology.route(msg.src_node, msg.dst_node):
            service = msg.wire_bytes / link.bandwidth
            t, queued = self._serialize(link.server, t, service)
            link.messages += 1
            link.bytes += msg.wire_bytes
            h = self._h_links.get(link.name)
            if h is not None:
                h.observe(queued)
            if tracer is not None:
                tracer.emit(TraceCategory.LINK_HOP, {
                    "link": link.name, "bytes": msg.wire_bytes,
                    "queued": queued, "src_rank": msg.src_rank,
                    "dst_rank": msg.dst_rank,
                })
            t += link.latency
        arrival, queued = self._serialize(self._ingress[msg.dst_node],
                                          t, wire_time)
        h = self._h_ingress.get(msg.dst_node)
        if h is not None:
            h.observe(queued)
        sim = self.sim
        sim.call_after(arrival - sim._now, self._arrival_cb, msg)

    def latency_for(self, wire_bytes: int) -> float:
        """Unloaded latency bound: the topology's longest route, a per-hop
        walk of the worst-case path.

        No caller under ``src/`` (the reliable transport arms
        ``TransportParams.rto``): the frozen ``benchmarks/stack/layers.py``
        resolves this name; it goes with the benchmark thaw (ROADMAP
        item 1).
        """
        hops = self._max_hops()
        per_hop = self.params.latency + wire_bytes / self.params.bandwidth
        return hops * per_hop + wire_bytes / self.params.bandwidth

    def _max_hops(self) -> int:
        """Longest registered host-pair route length (cached)."""
        if self._max_hops_cache:
            return self._max_hops_cache
        hosts = sorted(self._handlers) or [0]
        longest = 1
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    longest = max(longest,
                                  len(self.topology.route(src, dst)))
        self._max_hops_cache = longest
        return longest
