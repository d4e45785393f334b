"""Collective algorithms as schedules, and the one executor that runs them.

A schedule is a pure function of the member count ``n``, the caller's
place ``me`` among them and the element count ``size`` of the work
buffer: it returns that member's list of :class:`Round` values, so who
sends what to whom in which round can be read without running a World.
:func:`run_schedule` runs any schedule on a communicator, one rank at a
time (the usual SPMD convention). Internal traffic uses the
communicator's collective context id (``comm.coll_context_id``) and the
rounds' tags, so it can never interfere with user point-to-point
matching.

The schedules follow the classic implementations (Chan et al. 2007,
MPICH):

- barrier: dissemination (``ceil(log2 n)`` rounds);
- allreduce: recursive doubling with non-power-of-two fold-in, and a
  ring (reduce-scatter + allgather) for large payloads.

Local reduction work is charged at ``cpu.reduce_per_byte``. Recursive
doubling charges every combine, a zero-byte one with a zero-cost sleep
(one kernel step), so an endpoint left an empty segment takes every step;
the ring skips a zero-cost charge. Each reduce round carries its rule
(``charge_zero``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, NamedTuple, \
    Optional, Sequence

import numpy as np

from ...errors import MpiUsageError
from ..datatypes import check_buffer
from ..request import waitall
from .ops import Op

if TYPE_CHECKING:  # pragma: no cover
    from ..comm import Communicator
    from ..request import Request

__all__ = [
    "NO_DATA", "Round", "allreduce", "dissemination_rounds",
    "recursive_doubling_rounds", "ring_rounds", "run_schedule",
]

#: The work buffer of a schedule that moves no data (the barrier).
NO_DATA = np.zeros(0, dtype=np.uint8)

#: Segment ``[lo, hi)`` of the work buffer.
Segment = tuple[int, int]


class Round(NamedTuple):
    """One round of a member's schedule.

    Receive ``recv_seg`` from member ``src`` while sending ``send_seg``
    to member ``dst`` (either leg may be ``None``), both with ``tag``;
    then ``combine`` what arrived: ``"reduce"`` it into the work buffer,
    ``"copy"`` it there, or ``"land"`` — it was received in place.
    """

    src: Optional[int]
    dst: Optional[int]
    tag: int
    recv_seg: Segment
    send_seg: Segment
    combine: str = "land"
    #: Charge a reduce that costs nothing (one zero-cost kernel step).
    charge_zero: bool = False


def run_schedule(comm: "Communicator", rounds: Sequence[Round],
                 work: np.ndarray, op: Op,
                 peers: Optional[Sequence[int]] = None
                 ) -> Generator[Any, Any, None]:
    """Run this rank's ``rounds`` on ``comm``, combining into ``work``.

    ``peers[m]`` is the communicator rank of schedule member ``m``
    (default: the member is the rank). Each round posts its receive,
    then its send, waits for both, then combines. A reduce or copy
    round receives into one scratch buffer of ``work``'s dtype, a land
    round into ``work`` itself.
    """
    if peers is None:
        peers = range(comm.size)
    ctx = comm.coll_context_id
    cost_per_byte = comm.lib.cpu.reduce_per_byte
    scratch = np.zeros(max((r.recv_seg[1] - r.recv_seg[0] for r in rounds
                            if r.combine != "land"), default=0),
                       dtype=work.dtype)
    for src, dst, tag, (lo, hi), (slo, shi), combine, charge_zero in rounds:
        reqs: list[Request] = []
        if src is not None:
            into = scratch if combine != "land" else work[lo:hi]
            reqs.append((yield from comm.Irecv(
                into, peers[src], tag, count=hi - lo, _context_id=ctx)))
        if dst is not None:
            reqs.append((yield from comm.Isend(
                work[slo:shi], peers[dst], tag, _context_id=ctx)))
        yield from waitall(reqs)
        if combine == "reduce":
            op.apply(work[lo:hi], scratch[:hi - lo])
            cost = cost_per_byte * work[lo:hi].nbytes
            if cost > 0 or charge_zero:
                yield cost
        elif combine == "copy":
            work[lo:hi] = scratch[:hi - lo]


def dissemination_rounds(n: int, me: int) -> list[Round]:
    """Dissemination barrier: round k exchanges with members +/- 2^k."""
    rounds: list[Round] = []
    dist = 1
    while dist < n:
        rounds.append(Round((me - dist) % n, (me + dist) % n, len(rounds),
                            (0, 0), (0, 0)))
        dist <<= 1
    return rounds


def recursive_doubling_rounds(n: int, me: int, size: int) -> list[Round]:
    """Recursive-doubling allreduce with fold-in for non-powers-of-two.

    The first ``2 * rem`` members fold pairwise (even into odd) down to a
    power of two, the survivors exchange and reduce with partners at
    distance 1, 2, 4, ..., and the odd members hand the result back.
    """
    whole = (0, size)
    pof2 = 1 << (n.bit_length() - 1)
    rem = n - pof2
    rounds: list[Round] = []
    if me < 2 * rem and me % 2 == 0:
        rounds.append(Round(None, me + 1, 0, whole, whole))
    else:
        if me < 2 * rem:
            rounds.append(Round(me - 1, None, 0, whole, whole, "reduce", True))
        newrank = me // 2 if me < 2 * rem else me - rem
        mask = 1
        while mask < pof2:
            partner_new = newrank ^ mask
            partner = partner_new * 2 + 1 if partner_new < rem \
                else partner_new + rem
            rounds.append(Round(partner, partner, mask, whole, whole,
                                "reduce", True))
            mask <<= 1
    if me < 2 * rem:
        rounds.append(Round(me + 1, None, 1, whole, whole) if me % 2 == 0
                      else Round(None, me - 1, 1, whole, whole))
    return rounds


def ring_rounds(n: int, me: int, size: int) -> list[Round]:
    """Ring allreduce: reduce-scatter ring + allgather ring.

    Bandwidth-optimal for large messages (each rank moves ~2x the data
    size regardless of rank count, vs log2(n) full-size exchanges for
    recursive doubling). This is the algorithm large-model training
    stacks popularized; MPI libraries switch to it beyond a size
    threshold, as :meth:`Communicator.Allreduce` does here.
    """
    bounds = np.linspace(0, size, n + 1).astype(int)

    def seg(i: int) -> Segment:
        i %= n
        return int(bounds[i]), int(bounds[i + 1])

    left, right = (me - 1) % n, (me + 1) % n
    # Reduce-scatter: after step s, member m holds the partial reduction
    # of segment (m - s - 1) over s+2 contributions; then allgather.
    return [Round(left, right, s, seg(me - s - 1), seg(me - s), "reduce")
            for s in range(n - 1)] \
        + [Round(left, right, 100 + s, seg(me - s), seg(me - s + 1), "copy")
           for s in range(n - 1)]


def allreduce(comm: "Communicator", sendbuf: np.ndarray,
              recvbuf: np.ndarray, op: Op,
              schedule: Callable[[int, int, int], list[Round]]
              = recursive_doubling_rounds) -> Generator[Any, Any, None]:
    """Allreduce over every rank of ``comm`` by ``schedule``."""
    send_flat = check_buffer(sendbuf)
    recv_flat = check_buffer(recvbuf)
    if recv_flat.size < send_flat.size:
        raise MpiUsageError("allreduce recvbuf smaller than sendbuf")
    work = send_flat.copy()
    yield from run_schedule(comm, schedule(comm.size, comm.rank, work.size),
                            work, op)
    recv_flat[:work.size] = work
