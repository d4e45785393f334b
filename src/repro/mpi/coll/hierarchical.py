"""User-driven intranode collective steps (Lesson 18).

With *existing MPI mechanisms*, a multithreaded collective is two-step:
each thread performs the internode part on its own communicator (on its
data segment), and the application then performs the intranode part — e.g.
a reduction across the threads' buffers — by hand. With endpoints or
partitioned collectives the library does both parts.

:class:`ThreadTeamReduce` models the by-hand intranode part: a binary
combining tree over the threads of one process, with a barrier per level
and shared-memory copy + reduction costs charged to the participating
threads. The paper argues this manual step is both a productivity and a
performance liability ("efficiently implementing a collective is not a
trivial task").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from ...errors import MpiUsageError
from ...sim.sync import Barrier
from .ops import Op

if TYPE_CHECKING:  # pragma: no cover
    from ...runtime.world import MpiProcess

__all__ = ["ThreadTeamReduce"]


class ThreadTeamReduce:
    """Tree reduction across the thread buffers of one process.

    All ``nthreads`` threads call ``yield from team.reduce(tid, buf)``;
    when it returns, thread 0's ``buf`` holds the elementwise reduction of
    every thread's buffer. Other threads' buffers are left partially
    combined (scratch), as in a typical hand-rolled OpenMP reduction.
    """

    def __init__(self, proc: "MpiProcess", nthreads: int, op: Op):
        if nthreads < 1:
            raise MpiUsageError("thread team needs at least one thread")
        self.proc = proc
        self.nthreads = nthreads
        self.op = op
        self._barrier = Barrier(proc.sim, nthreads,
                                per_entry_cost=proc.world.cfg.cpu.lock_acquire)
        self._slots: dict[int, np.ndarray] = {}

    def reduce(self, tid: int, buf: np.ndarray) -> Generator:
        """Participate in the team reduction as thread ``tid``."""
        if not 0 <= tid < self.nthreads:
            raise MpiUsageError(f"tid {tid} out of range")
        self._slots[tid] = buf
        cpu = self.proc.world.cfg.cpu
        stride = 1
        while stride < self.nthreads:
            yield from self._barrier.wait()
            if tid % (2 * stride) == 0 and tid + stride < self.nthreads:
                other = self._slots[tid + stride]
                # Pull the partner's buffer through shared memory, combine.
                yield self.proc.shm_exchange(other.nbytes)
                self.op.apply(buf, other)
                yield cpu.reduce_per_byte * buf.nbytes
            stride *= 2
        yield from self._barrier.wait()

