"""Declarative cluster description: ``ClusterSpec`` and its topologies.

The redesigned construction API::

    from repro import ClusterSpec, NetworkConfig, World

    world = World(cluster=ClusterSpec(
        nodes=16, threads_per_proc=4,
        topology="fat_tree", k=4,
        network=NetworkConfig.omnipath()))

``topology`` names one of four built-in builders: ``direct``,
``dragonfly``, ``fat_tree`` and ``torus``. A builder is called as
``builder(nodes, params, **kwargs)`` and returns a topology graph, or
``None`` for "no link graph" — the World then uses the single-hop
:class:`~repro.netsim.fabric.Fabric`, which is exactly what ``direct``
returns (hence byte-identical timing with a world built from bare
dimension keywords).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ...errors import TopologyError
from ..config import NetworkConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..config import FabricParams
    from .graph import Topology

__all__ = ["ClusterSpec"]


def _build_direct(nodes: int, params: FabricParams,
                  **kwargs: Any) -> Optional[Topology]:
    """The legacy single-hop fabric (no link graph)."""
    if kwargs:
        raise TopologyError(
            f"direct topology takes no parameters, got {sorted(kwargs)}")
    return None


def _build_fat_tree(nodes: int, params: FabricParams, k: int = 4,
                    **kwargs: Any) -> Topology:
    """``fat_tree(k)`` — capacity ``k**3/4`` hosts."""
    from .generators import fat_tree
    return fat_tree(k, **kwargs)


def _build_dragonfly(nodes: int, params: FabricParams, a: int = 4,
                     p: int = 2, h: int = 2, **kwargs: Any) -> Topology:
    """``dragonfly(a, p, h)`` — capacity ``(a*h+1)*a*p`` hosts."""
    from .generators import dragonfly
    return dragonfly(a, p, h, **kwargs)


def _build_torus(nodes: int, params: FabricParams,
                 dims: tuple[int, ...] = (4, 4), **kwargs: Any) -> Topology:
    """``torus(dims)`` — capacity ``prod(dims)`` hosts."""
    from .generators import torus
    return torus(dims, **kwargs)


_BUILDERS = {
    "direct": _build_direct,
    "dragonfly": _build_dragonfly,
    "fat_tree": _build_fat_tree,
    "torus": _build_torus,
}


class ClusterSpec:
    """A declarative description of the simulated machine.

    Bundles the cluster's shape (``nodes``, ``procs_per_node``,
    ``threads_per_proc``), its interconnect (``topology`` name plus
    topology parameters such as ``k=4`` or ``dims=(4, 4)``), and the
    network pricing (``network``, a
    :class:`~repro.netsim.config.NetworkConfig`). Topology parameters
    are validated eagerly — an unknown name or an undersized topology
    fails at spec construction, not mid-run.

    The topology object carries per-link queue state once bound, so no
    two callers of :meth:`build_topology` share a graph: the first call
    hands out the one the constructor built to validate the parameters
    (``World(cluster=spec)`` therefore builds one graph, not two), every
    later call builds a fresh one.
    """

    def __init__(self, nodes: int = 2, procs_per_node: int = 1,
                 threads_per_proc: int = 1, topology: str = "direct",
                 network: Optional[NetworkConfig] = None,
                 **params: Any):
        if nodes < 1 or procs_per_node < 1 or threads_per_proc < 1:
            raise TopologyError("cluster dimensions must be positive")
        if topology not in _BUILDERS:
            raise TopologyError(
                f"unknown topology {topology!r}; choose from "
                f"{', '.join(_BUILDERS)}")
        self.nodes = nodes
        self.procs_per_node = procs_per_node
        self.threads_per_proc = threads_per_proc
        self.topology = topology
        self.network = network or NetworkConfig()
        self.params = dict(params)
        # Fail fast: building the graph validates the generator
        # parameters and the capacity against `nodes`.
        self._spare = self._build()

    def build_topology(self) -> Optional[Topology]:
        """An unbound topology graph nobody else holds (``None`` for
        direct)."""
        topo, self._spare = self._spare, None
        return topo if topo is not None else self._build()

    def _build(self) -> Optional[Topology]:
        builder = _BUILDERS[self.topology]
        try:
            topo = builder(self.nodes, self.network.fabric, **self.params)
        except TypeError as exc:
            raise TopologyError(
                f"bad parameters for topology {self.topology!r}: {exc}"
            ) from None
        if topo is not None and topo.num_hosts < self.nodes:
            raise TopologyError(
                f"{topo.name} has {topo.num_hosts} host ports, cannot "
                f"place {self.nodes} nodes")
        return topo

    def describe(self) -> str:
        """One-line human summary of the spec."""
        extra = "".join(f", {k}={v!r}" for k, v in sorted(self.params.items()))
        return (f"ClusterSpec(nodes={self.nodes}, "
                f"procs_per_node={self.procs_per_node}, "
                f"threads_per_proc={self.threads_per_proc}, "
                f"topology={self.topology!r}{extra}, "
                f"network={self.network.name!r})")

    def __repr__(self) -> str:
        return self.describe()
