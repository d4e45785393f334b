"""Stencil halo-exchange application suite (the hypre/Uintah, Smilei and
Pencil proxy of Section III-A)."""

from .drivers import (
    COMM_MAPS,
    MECHANISMS,
    ChannelRun,
    CommunicatorRun,
    P2PRun,
    PartitionedRun,
    StencilConfig,
    StencilProcessRun,
    make_run,
)
from .field import (
    DIR_TAGS,
    DIR_TAGS_3D,
    KERNELS,
    Patch,
    assemble_global,
    halo_slices,
    jacobi,
    make_patches,
    reference_jacobi,
)
from .runner import StencilResult, run_stencil

__all__ = [
    "COMM_MAPS", "DIR_TAGS", "DIR_TAGS_3D", "KERNELS", "MECHANISMS",
    "ChannelRun", "CommunicatorRun", "P2PRun", "Patch", "PartitionedRun",
    "StencilConfig", "StencilProcessRun", "StencilResult",
    "assemble_global", "halo_slices", "jacobi", "make_patches", "make_run",
    "reference_jacobi", "run_stencil",
]
