"""Collective algorithms, implemented over the simulated point-to-point
layer.

Every algorithm is a generator run by *each participating rank* (the usual
SPMD convention). Internal traffic uses the communicator's collective
context id (``comm.coll_context_id``) and round-number tags, so it can
never interfere with user point-to-point matching.

Algorithms follow the classic implementations (Chan et al. 2007, MPICH):

- barrier: dissemination (``ceil(log2 n)`` rounds);
- allreduce: recursive doubling with non-power-of-two fold-in, and a
  ring (reduce-scatter + allgather) for large payloads.

Local reduction work is charged at ``cpu.reduce_per_byte``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Sequence

import numpy as np

from ...errors import MpiUsageError
from ..datatypes import check_buffer
from ..request import waitall
from .ops import Op

if TYPE_CHECKING:  # pragma: no cover
    from ..comm import Communicator

__all__ = [
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "barrier_dissemination",
    "recursive_doubling",
]

_EMPTY = np.zeros(0, dtype=np.uint8)


def _sendrecv(comm: "Communicator", sendbuf, dest, recvbuf, source, tag, ctx
              ) -> Generator:
    """Simultaneous exchange with (possibly different) peers."""
    rreq = yield from comm.Irecv(recvbuf, source, tag, _context_id=ctx)
    sreq = yield from comm.Isend(sendbuf, dest, tag, _context_id=ctx)
    yield from waitall([rreq, sreq])


def _charge_reduce(comm: "Communicator", nbytes: int) -> Generator:
    cost = comm.lib.cpu.reduce_per_byte * nbytes
    if cost > 0:
        yield cost


def barrier_dissemination(comm: "Communicator") -> Generator:
    """Dissemination barrier: round k exchanges with ranks +/- 2^k."""
    n, rank = comm.size, comm.rank
    ctx = comm.coll_context_id
    if n == 1:
        return
    k = 0
    dist = 1
    while dist < n:
        dst = (rank + dist) % n
        src = (rank - dist) % n
        yield from _sendrecv(comm, _EMPTY, dst, _EMPTY, src, tag=k, ctx=ctx)
        dist <<= 1
        k += 1


def allreduce_recursive_doubling(comm: "Communicator", sendbuf: np.ndarray,
                                 recvbuf: np.ndarray, op: Op) -> Generator:
    """Recursive-doubling allreduce with fold-in for non-powers-of-two."""
    send_flat = check_buffer(sendbuf)
    recv_flat = check_buffer(recvbuf)
    if recv_flat.size < send_flat.size:
        raise MpiUsageError("allreduce recvbuf smaller than sendbuf")
    acc = send_flat.copy()
    yield from recursive_doubling(comm, acc, op, range(comm.size), comm.rank)
    recv_flat[: acc.size] = acc


def recursive_doubling(comm: "Communicator", acc: np.ndarray, op: Op,
                       peers: Sequence[int], me: int) -> Generator:
    """Allreduce ``acc`` in place among the ranks ``peers`` of ``comm``.

    The caller is ``peers[me]`` and every member passes the same list: the
    whole communicator for the flat allreduce, one endpoint per process
    for a segment of the endpoint one (:mod:`.endpoint_coll`). Every
    combine is charged, a zero-byte one with a zero-cost timeout — an
    endpoint left an empty segment still takes every kernel step.
    """
    n = len(peers)
    ctx = comm.coll_context_id
    cpu = comm.lib.cpu
    tmp = np.zeros_like(acc)

    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    rem = n - pof2

    # Fold the first 2*rem members down to rem.
    if me < 2 * rem:
        if me % 2 == 0:
            sreq = yield from comm.Isend(acc, peers[me + 1], tag=0,
                                         _context_id=ctx)
            yield from sreq.wait()
            newrank = -1
        else:
            rreq = yield from comm.Irecv(tmp, peers[me - 1], tag=0,
                                         _context_id=ctx)
            yield from rreq.wait()
            op.apply(acc, tmp)
            yield cpu.reduce_per_byte * acc.nbytes
            newrank = me // 2
    else:
        newrank = me - rem

    if newrank != -1:
        mask = 1
        while mask < pof2:
            partner_new = newrank ^ mask
            partner = peers[partner_new * 2 + 1 if partner_new < rem
                            else partner_new + rem]
            yield from _sendrecv(comm, acc, partner, tmp, partner,
                                 tag=mask, ctx=ctx)
            op.apply(acc, tmp)
            yield cpu.reduce_per_byte * acc.nbytes
            mask <<= 1

    # Unfold: odd members hand the result back to their even neighbours.
    if me < 2 * rem:
        if me % 2:
            sreq = yield from comm.Isend(acc, peers[me - 1], tag=1,
                                         _context_id=ctx)
            yield from sreq.wait()
        else:
            rreq = yield from comm.Irecv(acc, peers[me + 1], tag=1,
                                         _context_id=ctx)
            yield from rreq.wait()


def allreduce_ring(comm: "Communicator", sendbuf: np.ndarray,
                   recvbuf: np.ndarray, op: Op) -> Generator:
    """Ring allreduce: reduce-scatter ring + allgather ring.

    Bandwidth-optimal for large messages (each rank moves ~2x the data
    size regardless of rank count, vs log2(n) full-size exchanges for
    recursive doubling). This is the algorithm large-model training
    stacks popularized; MPI libraries switch to it beyond a size
    threshold, as :meth:`Communicator.Allreduce` does here.
    """
    n, rank = comm.size, comm.rank
    ctx = comm.coll_context_id
    send_flat = check_buffer(sendbuf)
    recv_flat = check_buffer(recvbuf)
    if recv_flat.size < send_flat.size:
        raise MpiUsageError("allreduce recvbuf smaller than sendbuf")
    if n == 1:
        recv_flat[: send_flat.size] = send_flat
        return
    work = send_flat.copy()
    total = work.size
    bounds = np.linspace(0, total, n + 1).astype(int)

    def seg(i):
        i %= n
        return work[bounds[i]:bounds[i + 1]]

    right = (rank + 1) % n
    left = (rank - 1) % n
    tmp = np.zeros(int(np.max(np.diff(bounds))))

    def shift(out: np.ndarray, into: np.ndarray, tag: int) -> Generator:
        """Pass ``out`` to the right while ``into``'s worth of elements
        arrives from the left in ``tmp``."""
        rreq = yield from comm.Irecv(tmp, left, tag=tag, count=into.size,
                                     _context_id=ctx)
        sreq = yield from comm.Isend(np.ascontiguousarray(out), right,
                                     tag=tag, _context_id=ctx)
        yield from waitall([rreq, sreq])

    # Phase 1: reduce-scatter around the ring. After step s, rank r holds
    # the partial reduction of segment (r - s) over s+1 contributions.
    for step in range(n - 1):
        into = seg(rank - step - 1)
        yield from shift(seg(rank - step), into, step)
        op.apply(into, tmp[:into.size])
        yield from _charge_reduce(comm, into.nbytes)

    # Phase 2: allgather the fully reduced segments around the ring.
    for step in range(n - 1):
        into = seg(rank - step)
        yield from shift(seg(rank - step + 1), into, 100 + step)
        into[:] = tmp[:into.size]
    recv_flat[:total] = work
