"""Topology generators: fat tree, dragonfly, torus.

Each generator returns a fully routed :class:`~.graph.Topology` whose
host capacity may exceed the cluster actually placed on it (a
``fat_tree(k=4)`` always has 16 host ports even if only 4 nodes attach).
Routes are static and deterministic — D-mod-k for the fat tree, minimal
(direct-gateway) paths for the dragonfly, dimension-order with shortest
wrap for the torus — so two runs of one workload traverse identical
links in identical order.

A generator lays down vertices and links and registers one next-hop
*rule* (:meth:`~.graph.Topology.set_routing_rule`): the next hop is
computed from the switch's coordinates when a pair is first routed, so
building a 72-port dragonfly to place four nodes fills no (vertices x
hosts) table. The tables the rules replaced are the test oracle
(``tests/oracles.py``).

Link ``bandwidth``/``latency`` default to ``None`` and inherit the
fabric's :class:`~repro.netsim.config.FabricParams` per hop at bind
time; pass explicit values to price a topology's links differently from
the host NIC links.
"""

from __future__ import annotations

import math
from typing import Optional

from ...errors import TopologyError
from .graph import Link, Topology, host_vertex

__all__ = ["fat_tree", "dragonfly", "torus"]


def fat_tree(k: int, bandwidth: Optional[float] = None,
             latency: Optional[float] = None) -> Topology:
    """A k-ary fat tree with D-mod-k routing (k pods, ``k**3/4`` hosts).

    Structure (Al-Fares et al.): ``k`` pods of ``k/2`` edge and ``k/2``
    aggregation switches, ``(k/2)**2`` core switches, ``k/2`` hosts per
    edge switch. Up-paths use destination-mod-k port selection — the
    deterministic ECMP variant — so distinct destinations spread over
    distinct core switches while one (src, dst) pair always takes one
    path.
    """
    if k < 2 or k % 2:
        raise TopologyError(f"fat_tree arity k must be even and >= 2, got {k}")
    half = k // 2
    hosts_per_pod = half * half
    capacity = k * hosts_per_pod
    topo = Topology(f"fat_tree(k={k})", num_hosts=capacity)

    def edge_name(p: int, e: int) -> str:
        return f"p{p}.e{e}"

    def agg_name(p: int, a: int) -> str:
        return f"p{p}.a{a}"

    def core_name(c: int) -> str:
        return f"core{c}"

    #: Switch -> (tier, pod, index); a core switch is ("core", 0, c).
    place: dict[str, tuple[str, int, int]] = {}
    uplink: dict[str, Link] = {}  # host vertex -> its link into the edge switch
    for p in range(k):
        for i in range(half):
            place[topo.add_switch(edge_name(p, i))] = ("edge", p, i)
            place[topo.add_switch(agg_name(p, i))] = ("agg", p, i)
    for c in range(half * half):
        place[topo.add_switch(core_name(c))] = ("core", 0, c)

    for host in range(capacity):
        p, e = host // hosts_per_pod, (host % hosts_per_pod) // half
        uplink[host_vertex(host)], _ = topo.add_duplex(
            host_vertex(host), edge_name(p, e), bandwidth, latency)
    for p in range(k):
        for e in range(half):
            for a in range(half):
                topo.add_duplex(edge_name(p, e), agg_name(p, a),
                                bandwidth, latency)
        for a in range(half):
            for c in range(a * half, (a + 1) * half):
                topo.add_duplex(agg_name(p, a), core_name(c),
                                bandwidth, latency)

    def next_hop(vertex: str, dst: int) -> Link:
        """Down toward ``dst`` once in its pod (or at a core switch), else
        up by D-mod-k port selection."""
        up = uplink.get(vertex)
        if up is not None:
            return up
        tier, p, i = place[vertex]
        dp = dst // hosts_per_pod
        de = (dst % hosts_per_pod) // half
        if tier == "core":
            return topo.link(vertex, agg_name(dp, i // half))
        if tier == "agg":
            if p == dp:
                return topo.link(vertex, edge_name(p, de))
            return topo.link(vertex,
                             core_name(i * half + (dst // half) % half))
        if p == dp and i == de:
            return topo.link(vertex, host_vertex(dst))
        return topo.link(vertex, agg_name(p, dst % half))

    topo.set_routing_rule(next_hop)
    return topo


def dragonfly(a: int, p: int, h: int, bandwidth: Optional[float] = None,
              latency: Optional[float] = None) -> Topology:
    """A maximal dragonfly: ``a*h + 1`` groups, minimal routing.

    ``a`` routers per group (fully connected intra-group), ``p`` hosts
    per router, ``h`` global links per router. Every group pair is joined
    by exactly one global link (the balanced configuration of Kim et
    al.), so minimal routes are at most router → gateway → remote
    gateway → router: three switch hops.
    """
    if a < 1 or p < 1 or h < 1:
        raise TopologyError(
            f"dragonfly needs a, p, h >= 1, got a={a} p={p} h={h}")
    groups = a * h + 1
    capacity = groups * a * p
    topo = Topology(f"dragonfly(a={a},p={p},h={h})", num_hosts=capacity)

    def router(g: int, r: int) -> str:
        return f"g{g}.r{r}"

    def port_toward(src_g: int, dst_g: int) -> int:
        """Global-port index group ``src_g`` uses to reach ``dst_g``."""
        return dst_g - 1 if dst_g > src_g else dst_g

    def gateway(src_g: int, dst_g: int) -> int:
        """Router in ``src_g`` owning the global link toward ``dst_g``."""
        return port_toward(src_g, dst_g) // h

    place: dict[str, tuple[int, int]] = {}  # router -> (group, index)
    uplink: dict[str, Link] = {}  # host vertex -> its link into the router
    for g in range(groups):
        for r in range(a):
            place[topo.add_switch(router(g, r))] = (g, r)
    for host in range(capacity):
        g, r = host // (a * p), (host % (a * p)) // p
        uplink[host_vertex(host)], _ = topo.add_duplex(
            host_vertex(host), router(g, r), bandwidth, latency)
    for g in range(groups):
        for r1 in range(a):
            for r2 in range(r1 + 1, a):
                topo.add_duplex(router(g, r1), router(g, r2),
                                bandwidth, latency)
    for g1 in range(groups):
        for g2 in range(g1 + 1, groups):
            topo.add_duplex(router(g1, gateway(g1, g2)),
                            router(g2, gateway(g2, g1)),
                            bandwidth, latency)

    def next_hop(vertex: str, dst: int) -> Link:
        up = uplink.get(vertex)
        if up is not None:
            return up
        g, r = place[vertex]
        dg, dr = dst // (a * p), (dst % (a * p)) // p
        if g == dg:
            return topo.link(vertex,
                             host_vertex(dst) if r == dr else router(g, dr))
        gw = gateway(g, dg)
        if r == gw:
            return topo.link(vertex, router(dg, gateway(dg, g)))
        return topo.link(vertex, router(g, gw))

    topo.set_routing_rule(next_hop)
    return topo


def torus(dims: tuple[int, ...], bandwidth: Optional[float] = None,
          latency: Optional[float] = None) -> Topology:
    """An n-dimensional torus with dimension-order routing.

    One switch (and one host port) per lattice point; wraparound links in
    every dimension of size > 2 (size-2 dimensions collapse the two
    directions into one duplex link). Routes correct one dimension at a
    time, lowest dimension first, taking the shorter way around the ring
    (ties go forward) — the classic deadlock-free dimension-order walk.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise TopologyError(
            f"torus dims must be a non-empty tuple of sizes >= 1, got {dims}")
    capacity = math.prod(dims)
    topo = Topology(f"torus({'x'.join(map(str, dims))})", num_hosts=capacity)

    def coords(index: int) -> tuple[int, ...]:
        out = []
        for d in reversed(dims):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))

    def index(coord: tuple[int, ...]) -> int:
        out = 0
        for c, d in zip(coord, dims):
            out = out * d + c
        return out

    def switch(coord: tuple[int, ...]) -> str:
        return "s" + "_".join(map(str, coord))

    def neighbors(coord: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = []
        for axis, n in enumerate(dims):
            if n == 1:
                continue
            steps = {1, n - 1}  # +1 and -1 mod n; identical when n == 2
            for step in sorted(steps):
                nb = list(coord)
                nb[axis] = (coord[axis] + step) % n
                out.append(tuple(nb))
        return out

    all_coords = [coords(i) for i in range(capacity)]
    place: dict[str, tuple[int, ...]] = {}  # switch -> lattice point
    uplink: dict[str, Link] = {}  # host vertex -> its link into the switch
    for coord in all_coords:
        place[topo.add_switch(switch(coord))] = coord
    for i, coord in enumerate(all_coords):
        uplink[host_vertex(i)], _ = topo.add_duplex(
            host_vertex(i), switch(coord), bandwidth, latency)
    for coord in all_coords:
        for nb in neighbors(coord):
            topo.add_link(switch(coord), switch(nb), bandwidth, latency)

    def step_toward(coord: tuple[int, ...],
                    goal: tuple[int, ...]) -> tuple[int, ...]:
        for axis, n in enumerate(dims):
            if coord[axis] == goal[axis]:
                continue
            forward = (goal[axis] - coord[axis]) % n
            backward = (coord[axis] - goal[axis]) % n
            step = 1 if forward <= backward else n - 1
            nxt = list(coord)
            nxt[axis] = (coord[axis] + step) % n
            return tuple(nxt)
        return coord

    def next_hop(vertex: str, dst: int) -> Link:
        up = uplink.get(vertex)
        if up is not None:
            return up
        coord, goal = place[vertex], all_coords[dst]
        if coord == goal:
            return topo.link(vertex, host_vertex(dst))
        return topo.link(vertex, switch(step_toward(coord, goal)))

    topo.set_routing_rule(next_hop)
    return topo
