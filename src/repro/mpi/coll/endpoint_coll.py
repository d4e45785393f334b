"""Hierarchical collectives for endpoints communicators (Lesson 18).

"With user-visible endpoints [...] the collective is only one step — all
threads participate in a collective of the same communicator through
different endpoints. The MPI library then conducts both the internode and
intranode parts of the collective before returning."

This module is that library-side implementation for ``Allreduce``:

1. **intranode combine** — the endpoints of one process merge their
   contributions into a per-process staging buffer through shared memory
   (serialized by a combine lock: a real contention point, charged);
2. **internode segmented exchange** — each local endpoint owns one
   segment of the staging buffer and runs the recursive-doubling
   schedule over that segment *across processes* (one member per
   process), on its own VCI — the endpoint version of VASP's parallel
   segmented allreduce;
3. **intranode fan-out** — every endpoint copies the full result into its
   own receive buffer. This is Lesson 19's duplication: one full result
   copy per endpoint, unavoidable with the endpoint interface.

Non-uniform endpoint counts per process fall back to a flat recursive
doubling over all endpoint ranks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from ...sim.sync import Barrier
from ..datatypes import check_buffer
from .algorithms import allreduce, recursive_doubling_rounds, run_schedule
from .ops import Op

if TYPE_CHECKING:  # pragma: no cover
    from ...sim.core import Simulator
    from ..endpoints import Endpoint

__all__ = ["endpoint_allreduce"]


class _NodePhase:
    """What the endpoints of one process share in their collectives on one
    communicator (``MpiLibrary.node_phases``, by context id)."""

    def __init__(self, sim: "Simulator", parties: int) -> None:
        self.barrier = Barrier(sim, parties)
        #: The process's combined buffer, published by local endpoint 0.
        self.staging = np.zeros(0)
        #: Per-round scratch registry: local endpoint index -> work buffer.
        self.slots: dict[int, np.ndarray] = {}


def endpoint_allreduce(ep: "Endpoint", sendbuf: np.ndarray,
                       recvbuf: np.ndarray, op: Op
                       ) -> Generator[Any, Any, None]:
    """One-step allreduce over an endpoints communicator."""
    lib = ep.lib
    cpu = lib.cpu
    send_flat = check_buffer(sendbuf)
    recv_flat = check_buffer(recvbuf)
    # Local endpoint layout of this communicator.
    counts: dict[int, int] = {}
    for r in ep.group:
        counts[r] = counts.get(r, 0) + 1
    local_T = counts.get(lib.rank, 0)
    procs = sorted(counts)          # world ranks participating
    P = len(procs)

    if len(set(counts.values())) != 1 or local_T < 1:
        yield from allreduce(ep, sendbuf, recvbuf, op)
        return

    st = lib.node_phases.get(ep.context_id)
    if st is None:
        st = lib.node_phases[ep.context_id] = _NodePhase(lib.sim, local_T)
    li = ep.local_index
    n = send_flat.size

    # ---- phase 1: intranode tree combine (shared memory, parallel) -----
    # Each endpoint snapshots its contribution, then pairs combine level
    # by level — log2(T) levels, like any decent shared-memory reduction.
    work = send_flat.copy()
    yield cpu.shm_copy_base + send_flat.nbytes / cpu.shm_bandwidth
    st.slots[li] = work
    yield from st.barrier.wait()
    stride = 1
    while stride < local_T:
        if li % (2 * stride) == 0 and li + stride < local_T:
            other = st.slots[li + stride]
            yield (cpu.shm_copy_base + other.nbytes / cpu.shm_bandwidth
                   + cpu.reduce_per_byte * other.nbytes)
            op.apply(work, other)
        stride *= 2
        yield from st.barrier.wait()
    if li == 0:
        st.staging = work
    yield from st.barrier.wait()

    # ---- phase 2: internode segmented recursive doubling ---------------
    # Local endpoint ``li`` of every process reduces segment ``li`` of the
    # staging buffers in place, on its own VCI.
    if P > 1:
        bounds = np.linspace(0, n, local_T + 1).astype(int)
        segment = st.staging[int(bounds[li]):int(bounds[li + 1])]
        yield from run_schedule(
            ep, recursive_doubling_rounds(P, procs.index(lib.rank),
                                          segment.size), segment, op,
            peers=[pidx * local_T + li for pidx in range(P)])
        yield from st.barrier.wait()

    # ---- phase 3: per-endpoint result copy (Lesson 19 duplication) -----
    yield cpu.shm_copy_base + st.staging[:n].nbytes / cpu.shm_bandwidth
    recv_flat[:n] = st.staging[:n]
    yield from st.barrier.wait()
