"""Collective algorithms, implemented over the simulated point-to-point
layer.

Every algorithm is a generator run by *each participating rank* (the usual
SPMD convention). Internal traffic uses the communicator's collective
context id (``comm.coll_context_id``) and round-number tags, so it can
never interfere with user point-to-point matching.

Algorithms follow the classic implementations (Chan et al. 2007, MPICH):

- barrier: dissemination (``ceil(log2 n)`` rounds);
- bcast / reduce: binomial tree;
- allreduce: recursive doubling with non-power-of-two fold-in;
- allgather: ring;
- alltoall: shifted pairwise exchange;
- gather / scatter: binomial subtree forwarding;
- scan: rank chain;
- reduce-scatter: pairwise partial reductions.

Local reduction work is charged at ``cpu.reduce_per_byte``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

import numpy as np

from ...errors import MpiUsageError
from ..datatypes import check_buffer
from ..request import waitall
from .ops import Op

if TYPE_CHECKING:  # pragma: no cover
    from ..comm import Communicator

__all__ = [
    "allgather_ring",
    "allgatherv_ring",
    "gatherv_linear",
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "recursive_doubling",
    "alltoall_pairwise",
    "barrier_dissemination",
    "bcast_binomial",
    "gather_binomial",
    "reduce_binomial",
    "reduce_scatter_block",
    "scan_linear",
    "scatter_binomial",
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
        yield comm.sim.timeout(cost)


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


def bcast_binomial(comm: "Communicator", buf: np.ndarray, root: int = 0,
                   count: Optional[int] = None) -> Generator:
    """Binomial-tree broadcast from ``root``."""
    n, rank = comm.size, comm.rank
    if not 0 <= root < n:
        raise MpiUsageError(f"bcast root {root} out of range")
    if n == 1:
        return
    ctx = comm.coll_context_id
    flat = check_buffer(buf, count)
    vrank = (rank - root) % n
    # Receive from the parent (if not root).
    mask = 1
    while mask < n:
        if vrank & mask:
            src = (vrank - mask + root) % n
            rreq = yield from comm.Irecv(flat, src, tag=0, count=count,
                                         _context_id=ctx)
            yield from rreq.wait()
            break
        mask <<= 1
    # Forward to children.
    mask >>= 1
    while mask > 0:
        if vrank & mask == 0 and vrank + mask < n:
            dst = (vrank + mask + root) % n
            sreq = yield from comm.Isend(flat, dst, tag=0, count=count,
                                         _context_id=ctx)
            yield from sreq.wait()
        mask >>= 1


def reduce_binomial(comm: "Communicator", sendbuf: np.ndarray,
                    recvbuf: Optional[np.ndarray], op: Op,
                    root: int = 0) -> Generator:
    """Binomial-tree reduction to ``root`` (commutative ops)."""
    n, rank = comm.size, comm.rank
    if not 0 <= root < n:
        raise MpiUsageError(f"reduce root {root} out of range")
    ctx = comm.coll_context_id
    send_flat = check_buffer(sendbuf)
    acc = send_flat.copy()
    tmp = np.zeros_like(acc)
    vrank = (rank - root) % n
    mask = 1
    while mask < n:
        if vrank & mask == 0:
            vsrc = vrank | mask
            if vsrc < n:
                src = (vsrc + root) % n
                rreq = yield from comm.Irecv(tmp, src, tag=mask,
                                             _context_id=ctx)
                yield from rreq.wait()
                op.apply(acc, tmp)
                yield from _charge_reduce(comm, acc.nbytes)
            mask <<= 1
        else:
            dst = ((vrank & ~mask) + root) % n
            sreq = yield from comm.Isend(acc, dst, tag=mask, _context_id=ctx)
            yield from sreq.wait()
            break
    if rank == root:
        if recvbuf is None:
            raise MpiUsageError("reduce root needs a receive buffer")
        check_buffer(recvbuf)[: acc.size] = acc


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
            yield comm.sim.timeout(cpu.reduce_per_byte * acc.nbytes)
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
            yield comm.sim.timeout(cpu.reduce_per_byte * acc.nbytes)
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


def allgather_ring(comm: "Communicator", sendbuf: np.ndarray,
                   recvbuf: np.ndarray) -> Generator:
    """Ring allgather: n-1 steps, each forwarding one block — the
    variable-count ring (:func:`allgatherv_ring`) with equal counts."""
    n = comm.size
    cnt = check_buffer(sendbuf).size
    have = check_buffer(recvbuf).size
    if have < n * cnt:
        raise MpiUsageError(
            f"allgather recvbuf needs {n * cnt} elements, has {have}")
    yield from allgatherv_ring(comm, sendbuf, recvbuf, [cnt] * n)


def alltoall_pairwise(comm: "Communicator", sendbuf: np.ndarray,
                      recvbuf: np.ndarray) -> Generator:
    """Shifted pairwise-exchange alltoall."""
    n, rank = comm.size, comm.rank
    ctx = comm.coll_context_id
    send_flat = check_buffer(sendbuf)
    recv_flat = check_buffer(recvbuf)
    if send_flat.size % n or recv_flat.size < send_flat.size:
        raise MpiUsageError("alltoall buffers must hold n equal blocks")
    cnt = send_flat.size // n
    recv_flat[rank * cnt:(rank + 1) * cnt] = \
        send_flat[rank * cnt:(rank + 1) * cnt]
    for step in range(1, n):
        dst = (rank + step) % n
        src = (rank - step) % n
        yield from _sendrecv(
            comm,
            send_flat[dst * cnt:(dst + 1) * cnt], dst,
            recv_flat[src * cnt:(src + 1) * cnt], src,
            tag=step, ctx=ctx)


def gather_binomial(comm: "Communicator", sendbuf: np.ndarray,
                    recvbuf: Optional[np.ndarray], root: int = 0
                    ) -> Generator:
    """Binomial-tree gather: rank r's block lands at ``recvbuf[r*cnt:]``.

    Each subtree leader accumulates its subtree's blocks (in virtual-rank
    order) and forwards one combined message, halving the message count
    relative to a linear gather.
    """
    n, rank = comm.size, comm.rank
    if not 0 <= root < n:
        raise MpiUsageError(f"gather root {root} out of range")
    ctx = comm.coll_context_id
    send_flat = check_buffer(sendbuf)
    cnt = send_flat.size
    vrank = (rank - root) % n

    # staging holds my subtree's blocks in virtual order
    staging = np.zeros(n * cnt)
    staging[:cnt] = send_flat
    have = 1  # blocks currently held (contiguous from my vrank)
    mask = 1
    while mask < n:
        if vrank & mask:
            dst = ((vrank & ~mask) + root) % n
            sreq = yield from comm.Isend(staging, dst, tag=mask,
                                         count=have * cnt, _context_id=ctx)
            yield from sreq.wait()
            break
        vsrc = vrank | mask
        if vsrc < n:
            blocks = min(mask, n - vsrc)
            rreq = yield from comm.Irecv(
                staging[have * cnt:(have + blocks) * cnt], (vsrc + root) % n,
                tag=mask, _context_id=ctx)
            yield from rreq.wait()
            have += blocks
        mask <<= 1
    if rank == root:
        if recvbuf is None:
            raise MpiUsageError("gather root needs a receive buffer")
        recv_flat = check_buffer(recvbuf)
        if recv_flat.size < n * cnt:
            raise MpiUsageError("gather recvbuf too small")
        # staging holds blocks in *virtual* order: rotate back.
        for v in range(n):
            r = (v + root) % n
            recv_flat[r * cnt:(r + 1) * cnt] = staging[v * cnt:(v + 1) * cnt]


def scatter_binomial(comm: "Communicator", sendbuf: Optional[np.ndarray],
                     recvbuf: np.ndarray, root: int = 0) -> Generator:
    """Binomial-tree scatter: the root's block r reaches rank r."""
    n, rank = comm.size, comm.rank
    if not 0 <= root < n:
        raise MpiUsageError(f"scatter root {root} out of range")
    ctx = comm.coll_context_id
    recv_flat = check_buffer(recvbuf)
    cnt = recv_flat.size
    vrank = (rank - root) % n

    if rank == root:
        if sendbuf is None:
            raise MpiUsageError("scatter root needs a send buffer")
        send_flat = check_buffer(sendbuf)
        if send_flat.size < n * cnt:
            raise MpiUsageError("scatter sendbuf too small")
        staging = np.zeros(n * cnt)
        for v in range(n):
            r = (v + root) % n
            staging[v * cnt:(v + 1) * cnt] = send_flat[r * cnt:(r + 1) * cnt]
        have = n  # blocks for my subtree, virtual-contiguous from 0
    else:
        staging = None
        have = 0
        # receive my subtree's blocks from the parent
        mask = 1
        while mask < n:
            if vrank & mask:
                blocks = min(mask, n - vrank)
                staging = np.zeros(blocks * cnt)
                src = ((vrank & ~mask) + root) % n
                rreq = yield from comm.Irecv(staging, src, tag=mask,
                                             _context_id=ctx)
                yield from rreq.wait()
                have = blocks
                break
            mask <<= 1
    # forward sub-subtrees to children (descending spans)
    mask = 1
    while mask < n:
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank % (2 * mask) == 0 and vrank + mask < n and have > mask:
            blocks = min(have - mask, n - vrank - mask)
            dst = (vrank + mask + root) % n
            sreq = yield from comm.Isend(
                staging[mask * cnt:(mask + blocks) * cnt], dst, tag=mask,
                _context_id=ctx)
            yield from sreq.wait()
            have = mask
        mask >>= 1
    recv_flat[:] = staging[:cnt]


def scan_linear(comm: "Communicator", sendbuf: np.ndarray,
                recvbuf: np.ndarray, op: Op) -> Generator:
    """Inclusive prefix scan along the rank chain (MPI_Scan)."""
    n, rank = comm.size, comm.rank
    ctx = comm.coll_context_id
    send_flat = check_buffer(sendbuf)
    recv_flat = check_buffer(recvbuf)
    acc = send_flat.copy()
    if rank > 0:
        tmp = np.zeros_like(acc)
        rreq = yield from comm.Irecv(tmp, rank - 1, tag=0, _context_id=ctx)
        yield from rreq.wait()
        op.apply(acc, tmp)
        yield from _charge_reduce(comm, acc.nbytes)
    if rank < n - 1:
        sreq = yield from comm.Isend(acc, rank + 1, tag=0, _context_id=ctx)
        yield from sreq.wait()
    recv_flat[: acc.size] = acc


def reduce_scatter_block(comm: "Communicator", sendbuf: np.ndarray,
                         recvbuf: np.ndarray, op: Op) -> Generator:
    """MPI_Reduce_scatter_block: rank r ends with block r of the global
    reduction. Implemented as pairwise-exchange partial reductions: in
    step s each rank ships its (rank+s)-th block to that block's owner,
    which folds it in — n-1 concurrent small messages instead of a rooted
    tree (a common algorithm for commutative ops).
    """
    n, rank = comm.size, comm.rank
    ctx = comm.coll_context_id
    send_flat = check_buffer(sendbuf)
    recv_flat = check_buffer(recvbuf)
    if send_flat.size % n:
        raise MpiUsageError("reduce_scatter sendbuf must hold n blocks")
    cnt = send_flat.size // n
    if recv_flat.size < cnt:
        raise MpiUsageError("reduce_scatter recvbuf too small")
    acc = send_flat[rank * cnt:(rank + 1) * cnt].copy()
    tmp = np.zeros(cnt)
    for step in range(1, n):
        dst = (rank + step) % n       # owner of the block I contribute
        src = (rank - step) % n       # contributor of my block
        yield from _sendrecv(
            comm, np.ascontiguousarray(send_flat[dst * cnt:(dst + 1) * cnt]),
            dst, tmp, src, tag=step, ctx=ctx)
        op.apply(acc, tmp)
        yield from _charge_reduce(comm, acc.nbytes)
    recv_flat[:cnt] = acc


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


def gatherv_linear(comm: "Communicator", sendbuf: np.ndarray,
                   recvbuf: Optional[np.ndarray],
                   counts: Optional[list[int]], root: int = 0) -> Generator:
    """Variable-count gather (MPI_Gatherv), linear algorithm.

    ``counts[r]`` elements arrive from rank r, packed contiguously in
    rank order. Irregular contributions preclude the binomial subtree
    trick without extra metadata, so the root receives directly from
    every rank — the standard implementation for small communicators.
    """
    n, rank = comm.size, comm.rank
    if not 0 <= root < n:
        raise MpiUsageError(f"gatherv root {root} out of range")
    ctx = comm.coll_context_id
    send_flat = check_buffer(sendbuf)
    if rank == root:
        if recvbuf is None or counts is None:
            raise MpiUsageError("gatherv root needs recvbuf and counts")
        if len(counts) != n:
            raise MpiUsageError(f"gatherv needs {n} counts")
        recv_flat = check_buffer(recvbuf)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(int)
        if recv_flat.size < offsets[-1]:
            raise MpiUsageError("gatherv recvbuf too small")
        if counts[root] != send_flat.size:
            raise MpiUsageError(
                f"root contributes {send_flat.size} elements but counts"
                f"[{root}] = {counts[root]}")
        recv_flat[offsets[root]:offsets[root + 1]] = send_flat
        reqs = []
        for r in range(n):
            if r == root or counts[r] == 0:
                continue
            req = yield from comm.Irecv(
                recv_flat[offsets[r]:offsets[r + 1]], r, tag=0,
                _context_id=ctx)
            reqs.append(req)
        yield from waitall(reqs)
    else:
        if send_flat.size:
            sreq = yield from comm.Isend(send_flat, root, tag=0,
                                         _context_id=ctx)
            yield from sreq.wait()


def allgatherv_ring(comm: "Communicator", sendbuf: np.ndarray,
                    recvbuf: np.ndarray, counts: list[int]) -> Generator:
    """Variable-count allgather (MPI_Allgatherv): a ring of n-1 steps
    forwarding whole blocks, like :func:`allgather_ring` but with
    per-rank block sizes."""
    n, rank = comm.size, comm.rank
    ctx = comm.coll_context_id
    if len(counts) != n:
        raise MpiUsageError(f"allgatherv needs {n} counts")
    send_flat = check_buffer(sendbuf)
    recv_flat = check_buffer(recvbuf)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(int)
    if recv_flat.size < offsets[-1]:
        raise MpiUsageError("allgatherv recvbuf too small")
    if send_flat.size != counts[rank]:
        raise MpiUsageError(
            f"rank {rank} contributes {send_flat.size} elements but "
            f"counts[{rank}] = {counts[rank]}")

    def block(r):
        r %= n
        return recv_flat[offsets[r]:offsets[r + 1]]

    block(rank)[:] = send_flat
    if n == 1:
        return
    right, left = (rank + 1) % n, (rank - 1) % n
    for step in range(n - 1):
        sidx = (rank - step) % n
        ridx = (rank - step - 1) % n
        rreq = yield from comm.Irecv(block(ridx), left, tag=step,
                                     _context_id=ctx)
        sreq = yield from comm.Isend(np.ascontiguousarray(block(sidx)),
                                     right, tag=step, _context_id=ctx)
        yield from waitall([rreq, sreq])
