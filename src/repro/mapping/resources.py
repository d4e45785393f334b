"""Closed-form resource-requirement formulas from Lesson 3.

The paper quantifies the communicator mechanism's resource hunger for a 3D
27-point stencil with an ``[x, y, z]`` arrangement of threads per process:

- the least number of communicators that expresses all available logical
  communication parallelism::

      2xy + 2yz + 2xz            (faces)
      + 8(xy + yz + xz - 1)      (corner diagonals)
      + 4(xz + yz - z)           (edge diagonals)
      + 4(xy + yz - y)
      + 4(xy + xz - x)

- the minimum number of parallel communication channels actually required,
  which is simply the number of threads that communicate inter-node::

      xyz - (x-2)(y-2)(z-2)

For ``[4, 4, 4]`` (a 64-core node, e.g. AMD EPYC Rome) these give 808
communicators vs 56 channels — over 14x more (the number the paper's
Lesson 3 and Lesson 12 quote).
"""

from __future__ import annotations

from ..errors import MpiUsageError

__all__ = [
    "communicators_required_3d27",
    "min_channels_3d27",
    "communicator_overhead_ratio_3d27",
    "min_channels_2d9",
]


def _check_dims(*dims: int) -> None:
    for d in dims:
        if d < 1:
            raise MpiUsageError(f"thread-grid dimensions must be >= 1, got {dims}")


def communicators_required_3d27(x: int, y: int, z: int) -> int:
    """Paper's Lesson 3 formula: least communicators exposing all the
    logical communication parallelism of a 3D 27-point stencil."""
    _check_dims(x, y, z)
    faces = 2 * x * y + 2 * y * z + 2 * x * z
    corners = 8 * (x * y + y * z + x * z - 1)
    edges = (4 * (x * z + y * z - z)
             + 4 * (x * y + y * z - y)
             + 4 * (x * y + x * z - x))
    return faces + corners + edges


def min_channels_3d27(x: int, y: int, z: int) -> int:
    """Minimum parallel channels = threads communicating inter-node
    (threads on the boundary of the thread grid)."""
    _check_dims(x, y, z)
    interior = max(0, (x - 2)) * max(0, (y - 2)) * max(0, (z - 2))
    return x * y * z - interior


def communicator_overhead_ratio_3d27(x: int, y: int, z: int) -> float:
    """Communicators-to-channels ratio (14.43x for [4,4,4])."""
    return communicators_required_3d27(x, y, z) / min_channels_3d27(x, y, z)


def min_channels_2d9(x: int, y: int) -> int:
    """2D analogue: boundary threads of an ``x * y`` thread grid."""
    _check_dims(x, y)
    interior = max(0, (x - 2)) * max(0, (y - 2))
    return x * y - interior
