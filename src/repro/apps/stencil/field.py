"""Patch-based N-D fields for stencil halo exchange.

Each thread owns one patch (the paper's decomposition: "each thread has 1
patch", Fig 4). A patch stores its interior plus a one-cell halo shell;
halo exchange fills the shell from neighbouring patches (via MPI across
processes, via shared memory within one). The same code serves the 2D
5/9-point stencils and the 3D 7/27-point ones (the hypre shape of
Lesson 3).

Two coordinate orders meet here and are never mixed: *directions* and
grid coordinates are ``(dx, dy[, dz])`` as in
:mod:`repro.mapping.communicators`; *shapes*, offsets and index tuples
are in array order, ``data[y, x]`` / ``data[z, y, x]`` (+y is "north").

The Jacobi kernels are real numpy computations, so the stencil runs are
checked for *data correctness* against a sequential reference — the halo
traffic is not just timed, it must also be right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ...errors import MpiUsageError
from ...mapping.communicators import Coord, StencilGeometry

__all__ = ["Patch", "halo_slices", "jacobi", "KERNELS",
           "reference_jacobi", "assemble_global", "make_patches",
           "DIR_TAGS", "DIR_TAGS_3D"]

Shape = tuple[int, ...]

#: Stable small integer per 2D direction, used as the application tag bits.
DIR_TAGS: dict[Coord, int] = {
    (0, 1): 0, (0, -1): 1, (1, 0): 2, (-1, 0): 3,
    (1, 1): 4, (-1, -1): 5, (1, -1): 6, (-1, 1): 7,
}

#: Stable small integer per 3D direction (26 neighbours).
DIR_TAGS_3D: dict[Coord, int] = {
    d: i for i, d in enumerate(sorted(
        d for d in itertools.product((-1, 0, 1), repeat=3)
        if any(c != 0 for c in d)))
}

#: Stencil points -> (neighbour offsets in array order, divisor). The
#: offsets are listed in the order they are summed: floating-point
#: addition does not associate, and the final fields are pinned bit for
#: bit (``tests/test_apps_identity.py``).
KERNELS: dict[int, tuple[tuple[Shape, ...], float]] = {
    5: (((1, 0), (-1, 0), (0, 1), (0, -1)), 4.0),
    9: (((1, 0), (-1, 0), (0, 1), (0, -1),
         (1, 1), (1, -1), (-1, 1), (-1, -1)), 8.0),
    7: (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
         (0, 0, 1), (0, 0, -1)), 6.0),
    27: (tuple(DIR_TAGS_3D), 26.0),
}


@dataclass
class Patch:
    """One thread's patch: an interior of ``shape`` plus its halo shell
    (``data`` is two cells larger along every axis)."""

    data: np.ndarray
    shape: Shape

    @property
    def interior(self) -> np.ndarray:
        return self.data[tuple(slice(1, n + 1) for n in self.shape)]


def halo_slices(shape: Shape, direction: Coord
                ) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """``(send, recv)`` index tuples for one direction.

    ``send`` selects the interior cells adjacent to the ``direction`` face
    (what we ship to the neighbour); ``recv`` selects our halo cells on
    that side (where the neighbour's strip lands).
    """
    if len(direction) != len(shape) or not any(direction) \
            or any(d not in (-1, 0, 1) for d in direction):
        raise MpiUsageError(
            f"not a {3 ** len(shape)}-point direction: {direction}")
    send, recv = [], []
    for d, n in zip(reversed(direction), shape):
        if d == 0:
            send.append(slice(1, n + 1))
            recv.append(slice(1, n + 1))
        elif d > 0:
            send.append(slice(n, n + 1))
            recv.append(slice(n + 1, n + 2))
        else:
            send.append(slice(1, 2))
            recv.append(slice(0, 1))
    return tuple(send), tuple(recv)


def jacobi(points: int, patch: Patch, out: np.ndarray) -> None:
    """One ``points``-point Jacobi step into ``out`` (interior shape):
    the average of the stencil's neighbours."""
    offsets, divisor = KERNELS[points]
    d = patch.data
    terms = (d[tuple(slice(1 + o, 1 + o + n)
                     for o, n in zip(off, patch.shape))]
             for off in offsets)
    acc = next(terms) + next(terms)
    for term in terms:
        acc += term
    out[:] = acc / divisor


def _origin(geom: StencilGeometry, p: Coord, t: Coord,
            shape: Shape) -> Shape:
    """Global array-order index of the first interior cell of patch
    ``t`` of process ``p``."""
    return tuple(g * n for g, n in
                 zip(reversed(geom.global_of(p, t)), shape))


def _initial(origin: Shape, shape: Shape, seed: int) -> np.ndarray:
    """Cheap deterministic pseudo-random init from *global* cell
    coordinates, so every decomposition of the same global field starts
    identically (and can be checked against the reference)."""
    grids = np.meshgrid(*(np.arange(o, o + n)
                          for o, n in zip(origin, shape)), indexing="ij")
    phase = 0.37 * grids[-1] + 1.13 * grids[-2]
    if len(shape) == 3:
        phase = phase + 0.71 * grids[-3]
    return np.sin(phase + seed)


def make_patches(geom: StencilGeometry, p: Coord, shape: Shape,
                 seed: int = 0) -> dict[Coord, Patch]:
    """Allocate and deterministically initialize process ``p``'s patches."""
    patches: dict[Coord, Patch] = {}
    for t in geom.threads():
        patch = Patch(np.zeros(tuple(n + 2 for n in shape)), shape)
        patch.interior[:] = _initial(_origin(geom, p, t, shape), shape, seed)
        patches[t] = patch
    return patches


def _global_shape(geom: StencilGeometry, shape: Shape) -> Shape:
    return tuple(g * n for g, n in zip(reversed(geom.global_grid), shape))


def assemble_global(geom: StencilGeometry,
                    all_patches: dict[Coord, dict[Coord, Patch]],
                    shape: Shape) -> np.ndarray:
    """Stitch every process's patches into the global interior array."""
    out = np.zeros(_global_shape(geom, shape))
    for p, patches in all_patches.items():
        for t, patch in patches.items():
            origin = _origin(geom, p, t, shape)
            out[tuple(slice(o, o + n) for o, n in zip(origin, shape))] \
                = patch.interior
    return out


def reference_jacobi(geom: StencilGeometry, shape: Shape, iters: int,
                     stencil_points: int, seed: int = 0) -> np.ndarray:
    """Sequential reference: the same field iterated globally with numpy.

    Domain boundary cells see zero halos, matching the distributed runs
    (halo shells outside the domain are never written).
    """
    whole = _global_shape(geom, shape)
    patch = Patch(np.zeros(tuple(n + 2 for n in whole)), whole)
    patch.interior[:] = _initial((0,) * len(whole), whole, seed)
    out = np.zeros(whole)
    for _ in range(iters):
        jacobi(stencil_points, patch, out)
        patch.interior[:] = out
    return patch.interior.copy()
