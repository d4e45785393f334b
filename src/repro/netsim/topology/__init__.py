"""Pluggable interconnect topologies: switches, links, static routing.

See docs/topology.md for the model. The public surface:

- :class:`~.spec.ClusterSpec` — declarative cluster description consumed
  by ``World(cluster=...)``;
- :func:`~.spec.register_topology` / :func:`~.spec.topology_names` — the
  registry protocol behind ``ClusterSpec(topology="...")``;
- generators :func:`~.generators.fat_tree`,
  :func:`~.generators.dragonfly`, :func:`~.generators.torus`;
- :class:`~.graph.Topology` / :class:`~.graph.Link` — the graph model;
- :class:`~.routed.RoutedFabric` — the hop-by-hop fabric.
"""

from ... import _lazy
from .spec import (
    ClusterSpec,
    TopologyBuilder,
    register_topology,
    topology_names,
)

#: The graph, its generators and the hop-by-hop fabric load with the
#: first routed cluster; a direct one is priced without them.
__getattr__, __dir__ = _lazy(__name__, {
    ".generators": ("dragonfly", "fat_tree", "torus"),
    ".graph": ("Link", "Topology", "host_vertex"),
    ".routed": ("RoutedFabric",),
})

__all__ = [
    "ClusterSpec",
    "Link",
    "RoutedFabric",
    "Topology",
    "TopologyBuilder",
    "dragonfly",
    "fat_tree",
    "host_vertex",
    "register_topology",
    "topology_names",
    "torus",
]
