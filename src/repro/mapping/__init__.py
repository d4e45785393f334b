"""Mechanism-mapping helpers — the paper's core subject.

How a stencil decomposition exposes its communication parallelism, and
what each design costs to express it:

- :mod:`repro.mapping.communicators` — the stencil geometry (patch
  coordinates, process ranks, the neighbour walk every driver uses) and
  the communicator maps with mirroring (Lessons 1-5, Fig 4) with their
  analysis;
- :mod:`repro.mapping.tags` — the Listing 2 tag layout and its
  MPI-4.0/MPICH hint bundles (Lessons 6-9);
- :mod:`repro.mapping.partitioned` — partition plans (Lessons 13-15,
  Listing 4);
- :mod:`repro.mapping.resources` — Lesson 3's closed-form resource counts.

Endpoint addressing (Listing 3) is rank arithmetic the channel owns:
:class:`repro.apps.channels.EndpointChannels`.
"""

from .. import _lazy
from .tags import TagSchema, listing2_info, overtaking_only_info

#: The channels and the Fig 1(a) modes use only the tag helpers; the
#: maps, plans and closed forms load where an experiment asks for them.
__getattr__, __dir__ = _lazy(__name__, {
    ".communicators": ("STENCIL_2D_5PT", "STENCIL_2D_9PT", "STENCIL_3D_7PT",
                       "STENCIL_3D_27PT", "CommMap", "CornerOptimizedCommMap",
                       "Exchange", "MapReport", "MirroredCommMap",
                       "NaiveCommMap", "StencilGeometry", "analyze_map"),
    ".partitioned": ("FacePlan", "PartitionPlan"),
    ".resources": ("communicator_overhead_ratio_3d27",
                   "communicators_required_3d27", "min_channels_2d9",
                   "min_channels_3d27"),
})

__all__ = [
    "STENCIL_2D_5PT", "STENCIL_2D_9PT", "STENCIL_3D_7PT", "STENCIL_3D_27PT",
    "CommMap", "CornerOptimizedCommMap", "Exchange", "FacePlan",
    "MapReport", "MirroredCommMap", "NaiveCommMap", "PartitionPlan",
    "StencilGeometry", "TagSchema", "analyze_map",
    "communicator_overhead_ratio_3d27", "communicators_required_3d27",
    "listing2_info", "min_channels_2d9", "min_channels_3d27",
    "overtaking_only_info",
]
