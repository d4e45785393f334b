"""How fast is this host *right now*: a calibration loop, and CPU pinning.

The reference host gives the benchmark two vCPUs of a shared machine.
Each vCPU, independently of the other, spends phases of 10-20 s running
the same code 1.3-1.6x slower (CPU time inflates with wall time, so it
is the physical core, not a neighbour process), on top of bursts of
milliseconds. No statistic of raw host times taken inside a 20 s run is
steady against that: over 30 runs cut from a 5 min recording of
``fig1a_eager`` the per-operation *minimum* still spread 10-13 % (IQR /
median) and the median 47 %.

So every timing the benchmark reports is *normalised*: the process tree
is pinned to one vCPU, a fixed pure-stdlib loop (:func:`calibrate`) is
timed on that vCPU every ~50 ms between the timed operations, and an
operation's time is scaled by ``REFERENCE_MS / (calibration around
it)``. The same recording, normalised, spread 2-3 %. The loop is shaped
like the simulator (generators resumed from a heap of small objects, a
dict counter) because the slowdown depends on the instruction mix: a
list/dict loop tracked the simulator only to 5-8 %. It must never use
code from ``src/``, or a faster simulator would speed up its own
yardstick.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import Any, Generator, Optional

__all__ = ["REFERENCE_MS", "calibrate", "pin_to_fastest_cpu"]

#: What :func:`calibrate` takes on the reference host when nothing
#: disturbs it. Normalised times are therefore quiet-reference-host
#: times; on another machine they are times *as if* on that host.
REFERENCE_MS = 4.7


class _Event:
    __slots__ = ("when", "seq", "proc")

    def __init__(self, when: float, seq: int, proc: Any):
        self.when = when
        self.seq = seq
        self.proc = proc

    def __lt__(self, other: "_Event") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


def _ticker(steps: int, step: float) -> Generator[float, float, None]:
    for _ in range(steps):
        yield step


def calibrate(procs: int = 16, steps: int = 250) -> float:
    """Host milliseconds for a fixed 4000-event toy event loop."""
    started = time.perf_counter()
    heap: list[_Event] = []
    seen: dict[int, int] = {}
    now = 0.0
    seq = 0
    for index in range(procs):
        proc = _ticker(steps, 1e-9 * (index + 1))
        heapq.heappush(heap, _Event(now + next(proc), seq, proc))
        seq += 1
    while heap:
        event = heapq.heappop(heap)
        now = event.when
        try:
            step = event.proc.send(now)
        except StopIteration:
            continue
        seen[seq & 255] = seen.get(seq & 255, 0) + 1
        heapq.heappush(heap, _Event(now + step, seq, event.proc))
        seq += 1
    return (time.perf_counter() - started) * 1e3


def pin_to_fastest_cpu() -> Optional[int]:
    """Pin this process (and every child it starts from now on) to the
    allowed CPU on which :func:`calibrate` currently runs fastest, so the
    work and its yardstick always share a core. Returns the CPU, or
    ``None`` where the platform has no affinity calls or refuses them."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    best, best_ms = None, 0.0
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            os.sched_setaffinity(0, {cpu})
            ms = min(calibrate() for _ in range(3))
            if best is None or ms < best_ms:
                best, best_ms = cpu, ms
        os.sched_setaffinity(0, {best})
    except OSError:  # a sandbox that forbids it: run unpinned
        return None
    return best
