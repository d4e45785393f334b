"""Communication buffers.

The buffer contract:

- every call takes a C-contiguous numpy array, whose dtype is the MPI
  datatype, mirroring mpi4py's buffer-protocol convention (upper-case
  communication methods take array buffers);
- the point-to-point path (``Isend``/``Irecv``, the blocking calls and
  persistent requests built on them) also takes a ``bytearray``: a
  buffer of 1-byte elements, for messages whose contents nothing
  computes with (Fig 1(a)'s);
- the typed calls (collectives, RMA, partitioned) reduce or place
  elements by dtype, so they take arrays only and raise
  :class:`~repro.errors.MpiUsageError` for anything else.

Payloads are *actually copied* through the simulated network so tests can
assert data correctness: a payload is a copy of the sender's buffer, of
the same type. A receive copies element by element into an array and
byte for byte into a ``bytearray``.

numpy is not imported here: nothing is an ndarray before numpy is
imported, so ``sys.modules`` finds arrays without loading numpy into a
run whose buffers are all bytearrays.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Optional

from ..errors import MpiUsageError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["check_buffer", "nbytes", "p2p_buffer"]


def _check_count(count: int, length: int) -> None:
    if count < 0:
        raise MpiUsageError(f"negative element count: {count}")
    if count > length:
        raise MpiUsageError(f"count {count} exceeds buffer length {length}")


def check_buffer(buf: Any, count: Optional[int] = None) -> "np.ndarray":
    """Validate a typed communication buffer and return it as a 1-D
    ndarray view.

    Accepts any C-contiguous numpy array; ``count`` (elements) must not
    exceed the buffer length.
    """
    np = sys.modules.get("numpy")
    if np is None or not isinstance(buf, np.ndarray):
        kind = type(buf).__name__
        hint = " (a bytearray is point-to-point only)" \
            if isinstance(buf, bytearray) else ""
        raise MpiUsageError(
            f"communication buffers must be numpy arrays, got {kind}{hint}")
    if not buf.flags.c_contiguous:
        raise MpiUsageError("communication buffers must be C-contiguous")
    flat = buf if buf.ndim == 1 else buf.reshape(-1)
    if count is not None:
        _check_count(count, flat.size)
    return flat


def p2p_buffer(buf: Any, count: Optional[int] = None
               ) -> tuple[Any, int, int]:
    """Validate a point-to-point buffer: ``(flat, count, itemsize)``.

    ``flat`` is the ``bytearray`` itself (itemsize 1) or
    :func:`check_buffer`'s view of an array; ``count`` defaults to every
    element.
    """
    if type(buf) is bytearray:
        if count is None:
            return buf, len(buf), 1
        _check_count(count, len(buf))
        return buf, count, 1
    flat = check_buffer(buf, count)
    return flat, flat.size if count is None else count, flat.dtype.itemsize


def nbytes(buf: "np.ndarray", count: Optional[int] = None) -> int:
    """Wire size in bytes of ``count`` elements of ``buf`` (all if None)."""
    flat = check_buffer(buf, count)
    n = flat.size if count is None else count
    return n * flat.dtype.itemsize
