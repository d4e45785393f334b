"""Simulated network substrate: NIC hardware contexts + LogGP fabric.

This package stands in for the Omni-Path hardware the paper measured on.
See DESIGN.md section 1 for the substitution rationale, and
docs/topology.md for the multi-hop interconnect layer
(:mod:`repro.netsim.topology`).
"""

from .. import _lazy
from .config import (
    OMNIPATH_CONTEXTS,
    CpuCosts,
    FabricParams,
    NetworkConfig,
    NicParams,
)
from .fabric import Fabric
from .message import HEADER_BYTES, MessageKind, WireMessage
from .nic import HardwareContext, Nic

#: Background traffic and the multi-hop interconnect load on first use: a
#: direct (single-hop) world needs neither.
__getattr__, __dir__ = _lazy(__name__, {
    ".traffic": ("TRAFFIC_KINDS", "TrafficSession", "TrafficShape",
                 "install_traffic"),
    ".topology": ("ClusterSpec", "Link", "RoutedFabric", "Topology",
                  "dragonfly", "fat_tree", "host_vertex", "torus"),
})

__all__ = [
    "OMNIPATH_CONTEXTS",
    "ClusterSpec",
    "CpuCosts",
    "Fabric",
    "FabricParams",
    "HEADER_BYTES",
    "HardwareContext",
    "Link",
    "MessageKind",
    "NetworkConfig",
    "Nic",
    "NicParams",
    "RoutedFabric",
    "TRAFFIC_KINDS",
    "Topology",
    "TrafficSession",
    "TrafficShape",
    "WireMessage",
    "install_traffic",
    "dragonfly",
    "fat_tree",
    "host_vertex",
    "torus",
]
