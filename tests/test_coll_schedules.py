"""The collective schedules as values (repro.mpi.coll.algorithms), with no
World: every send meets exactly one receive, the ring's segments partition
the buffer, and folding the rounds over symbolic contributions leaves
every member with all of them."""

from collections import defaultdict, deque

import pytest

from repro.mpi.coll.algorithms import (
    dissemination_rounds,
    recursive_doubling_rounds,
    ring_rounds,
)

SCHEDULES = {
    "barrier": lambda n, me, size: dissemination_rounds(n, me),
    "recursive_doubling": recursive_doubling_rounds,
    "ring": ring_rounds,
}

#: Member counts 1..17, each with sizes 0, 1, n - 1 and 64.
CASES = [(n, size) for n in range(1, 18)
         for size in sorted({0, 1, n - 1, 64})]


def _schedules(name, n, size):
    return [SCHEDULES[name](n, me, size) for me in range(n)]


@pytest.mark.parametrize("name", sorted(SCHEDULES))
@pytest.mark.parametrize("n,size", CASES)
def test_every_send_meets_one_receive_in_order(name, n, size):
    sends, recvs = defaultdict(list), defaultdict(list)
    for me, rounds in enumerate(_schedules(name, n, size)):
        for r in rounds:
            if r.dst is not None:
                assert 0 <= r.dst < n and r.dst != me
                lo, hi = r.send_seg
                sends[me, r.dst].append((r.tag, hi - lo))
            if r.src is not None:
                assert 0 <= r.src < n and r.src != me
                lo, hi = r.recv_seg
                recvs[r.src, me].append((r.tag, hi - lo))
    # Same (tag, element count) sequence on both ends of every pair.
    assert sends == recvs


@pytest.mark.parametrize("n,size", CASES)
def test_ring_segments_partition_the_buffer(n, size):
    for rounds in _schedules("ring", n, size):
        end = 0
        for lo, hi in sorted({seg for r in rounds
                              for seg in (r.recv_seg, r.send_seg)}):
            assert lo == end <= hi
            end = hi
        assert end == (size if n > 1 else 0)


def _fold(schedules, size, knowledge=False):
    """Run every member's rounds over symbolic contributions: element
    ``i`` of member ``m`` starts as ``{m}``. A send carries a snapshot of
    its segment (with ``knowledge``, the sender's whole state, and every
    receive is a union: what a barrier member has heard of)."""
    n = len(schedules)
    work = [[frozenset({m})] * (1 if knowledge else size) for m in range(n)]
    wires = defaultdict(deque)
    step, posted = [0] * n, [False] * n
    progress = True
    while progress:
        progress = False
        for m, rounds in enumerate(schedules):
            while step[m] < len(rounds):
                r = rounds[step[m]]
                lo, hi = (0, 1) if knowledge else r.recv_seg
                if not posted[m]:
                    posted[m] = progress = True
                    if r.dst is not None:
                        slo, shi = (0, 1) if knowledge else r.send_seg
                        wires[m, r.dst, r.tag].append(work[m][slo:shi])
                if r.src is not None:
                    if not wires[r.src, m, r.tag]:
                        break
                    payload = wires[r.src, m, r.tag].popleft()
                    assert len(payload) == hi - lo
                    for i, got in enumerate(payload, lo):
                        if knowledge:
                            work[m][i] |= got
                        elif r.combine == "reduce":
                            # No contribution is ever counted twice.
                            assert not work[m][i] & got
                            work[m][i] |= got
                        else:
                            work[m][i] = got
                step[m] += 1
                posted[m] = False
                progress = True
    assert all(step[m] == len(schedules[m]) for m in range(n)), "deadlock"
    assert not any(wires.values()), "a message was never received"
    return work


@pytest.mark.parametrize("name", sorted(SCHEDULES))
@pytest.mark.parametrize("n,size", CASES)
def test_folding_the_rounds_leaves_every_member_with_all(name, n, size):
    work = _fold(_schedules(name, n, size), size, knowledge=name == "barrier")
    everyone = frozenset(range(n))
    for member in work:
        assert all(element == everyone for element in member)

