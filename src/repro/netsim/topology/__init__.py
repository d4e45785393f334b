"""Interconnect topologies: switches, links, static routing.

See docs/topology.md for the model. The public surface:

- :class:`~.spec.ClusterSpec` — declarative cluster description consumed
  by ``World(cluster=...)``, naming one of the built-in topologies
  ``direct``, ``dragonfly``, ``fat_tree`` and ``torus``;
- generators :func:`~.generators.fat_tree`,
  :func:`~.generators.dragonfly`, :func:`~.generators.torus`;
- :class:`~.graph.Topology` / :class:`~.graph.Link` — the graph model;
- :class:`~.routed.RoutedFabric` — the hop-by-hop fabric.
"""

from ... import _lazy
from .spec import ClusterSpec

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
    "dragonfly",
    "fat_tree",
    "host_vertex",
    "torus",
]
