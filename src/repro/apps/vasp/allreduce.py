"""Multithreaded allreduce proxy (Fig 7, Lessons 18-19, VASP [64]).

Setting: every thread of every process holds a private contribution buffer
of ``elems`` doubles; the program needs the elementwise sum over *all*
threads of *all* processes, available to every thread.

Strategies (Fig 7):

- ``funneled`` — the classic hierarchical baseline: a user-driven
  intranode tree reduction into thread 0, one single-threaded internode
  ``Allreduce`` of the whole buffer, then threads read the shared result.
- ``existing`` — existing mechanisms, multithreaded: the user still
  performs the intranode reduction by hand (Lesson 18), then the threads
  drive *segments* of the internode allreduce in parallel on distinct
  duplicated communicators (the VASP approach that gained >2x [64]).
  One result buffer per node — no duplication (Lesson 19).
- ``endpoints`` — one-step: every thread's endpoint joins a single
  allreduce over ``P*T`` endpoint ranks; the library handles intranode
  and internode parts. Each endpoint receives a full copy of the result:
  ``T`` duplicated buffers per node (Lesson 19's memory cost).
- ``partitioned`` — the prospective MPI-4.x partitioned collective
  (Table I: "Partitioned collective APIs (TBD)"): threads contribute
  partitions of one shared buffer; the library runs the intranode
  reduction and a segmented internode allreduce, producing a single
  result buffer. Modelled here as a library-level composition (there is
  no standardized API yet — this is the paper's "TBD" row made concrete).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ...errors import MpiUsageError
from ...mpi.coll import SUM, ThreadTeamReduce
from ...sim.sync import Barrier
from ..channels import open_channels
from ..harness import run_app

__all__ = ["VaspConfig", "VaspResult", "run_vasp"]

#: Strategy -> (p2p mechanism its threads' handles come from, prefix of
#: its per-thread communicator names). ``partitioned`` is modelled with
#: the library's own per-thread channels rather than user-visible comms
#: (no new user objects) — the same traffic as ``existing``.
_HANDLES = {"funneled": ("original", ""), "existing": ("communicators", "seg"),
            "endpoints": ("endpoints", ""),
            "partitioned": ("communicators", "libseg")}

MECHANISMS = tuple(_HANDLES)


@dataclass
class VaspConfig:
    """Parameters for the VASP multithreaded-allreduce proxy."""

    num_nodes: int = 4
    threads_per_proc: int = 8
    #: Elements (float64) in each thread's contribution.
    elems: int = 1 << 14
    #: Back-to-back allreduces (VASP performs many per SCF step).
    repeats: int = 2
    mechanism: str = "existing"
    seed: int = 0

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise MpiUsageError(f"unknown mechanism {self.mechanism!r}")
        if self.elems % max(1, self.threads_per_proc):
            raise MpiUsageError("elems must divide by threads_per_proc")
        if self.repeats < 1:
            raise MpiUsageError(f"repeats must be >= 1, got {self.repeats!r}")


@dataclass
class VaspResult:
    """Timing and memory summary of one VASP-proxy run."""

    cfg: VaspConfig
    wall_time: float
    time_per_allreduce: float
    #: Result-buffer bytes allocated per node (Lesson 19's duplication).
    result_bytes_per_node: int
    correct: bool

    def __str__(self) -> str:
        return (f"{self.cfg.mechanism:12s} "
                f"t/allreduce={self.time_per_allreduce * 1e6:9.2f}us "
                f"result_buf={self.result_bytes_per_node / 1024:8.1f}KiB")


def _contribution(cfg: VaspConfig, rank: int, tid: int) -> np.ndarray:
    """Deterministic per-thread contribution (verifiable)."""
    idx = np.arange(cfg.elems, dtype=np.float64)
    return idx * 1e-6 + (rank * cfg.threads_per_proc + tid + 1)


def _expected(cfg: VaspConfig) -> np.ndarray:
    total = cfg.num_nodes * cfg.threads_per_proc
    idx = np.arange(cfg.elems, dtype=np.float64)
    return total * idx * 1e-6 + total * (total + 1) / 2


def run_vasp(cfg: VaspConfig, **env: Any) -> VaspResult:
    """Run the threaded-allreduce proxy under the configured mechanism.

    ``env`` is the harness keyword block (``net``, ``faults``,
    ``traffic``, ``topology``, ... — see
    :func:`repro.apps.harness.run_app`); defaults reproduce the
    historical lossless direct-fabric run byte for byte.
    """
    T = cfg.threads_per_proc
    seg = cfg.elems // T
    results: dict[int, np.ndarray] = {}
    buf_bytes: dict[int, int] = {}

    def proc_main(proc):
        contribs = [_contribution(cfg, proc.rank, tid) for tid in range(T)]
        team_reduce = ThreadTeamReduce(proc, T, SUM)
        # The threads read thread 0's result in place (no duplication,
        # Lesson 19): publishing it is two waits on a team barrier.
        bcast_barrier = Barrier(proc.sim, T,
                                per_entry_cost=proc.world.cfg.cpu.lock_acquire)
        barrier = Barrier(proc.sim, T)
        mechanism, prefix = _HANDLES[cfg.mechanism]
        channels = yield from open_channels(proc, mechanism, T,
                                            thread_prefix=prefix)
        shared = np.zeros(cfg.elems)
        result = np.zeros(cfg.elems)
        # Lesson 19: every endpoint needs its own full result buffer;
        # the other strategies keep a single shared copy per node.
        ep_results = [np.zeros(cfg.elems) for _ in range(T)] \
            if mechanism == "endpoints" else [result]
        buf_bytes[proc.rank] = sum(b.nbytes for b in ep_results)

        def funneled(tid, work):
            # user intranode reduce -> single-thread internode
            yield from team_reduce.reduce(tid, work)
            if tid == 0:
                out = np.zeros(cfg.elems)
                yield from channels.handle(tid).Allreduce(work, out)
                result[:] = out
            yield from bcast_barrier.wait()
            yield from bcast_barrier.wait()

        def segmented(tid, work):
            # Lesson 18: intranode portion is the user's problem (or, for
            # the prospective partitioned collective, the library's)...
            yield from team_reduce.reduce(tid, work)
            if tid == 0:
                shared[:] = work
            yield from barrier.wait()
            # ...then threads drive internode segments in parallel, one
            # partition per thread, each on its own communicator.
            out_seg = np.zeros(seg)
            yield from channels.handle(tid).Allreduce(
                np.ascontiguousarray(shared[tid * seg:(tid + 1) * seg]),
                out_seg)
            shared[tid * seg:(tid + 1) * seg] = out_seg
            yield from barrier.wait()
            result[:] = shared

        def one_step(tid, work):
            # the library does intranode + internode
            yield from channels.handle(tid).Allreduce(work, ep_results[tid])
            result[:] = ep_results[tid]

        allreduce = {"original": funneled, "communicators": segmented,
                     "endpoints": one_step}[mechanism]

        def thread(tid):
            for _ in range(cfg.repeats):
                yield from allreduce(tid, contribs[tid].copy())

        threads = [proc.spawn(thread(tid)) for tid in range(T)]
        yield proc.sim.all_of(threads)
        results[proc.rank] = result
        return proc.sim.now

    _, ends = run_app(cfg.num_nodes, T, proc_main, seed=cfg.seed, **env)

    expected = _expected(cfg)
    correct = all(np.allclose(results[r], expected)
                  for r in range(cfg.num_nodes))
    wall = max(ends)
    return VaspResult(
        cfg=cfg,
        wall_time=wall,
        time_per_allreduce=wall / cfg.repeats,
        result_bytes_per_node=buf_bytes[0],
        correct=correct,
    )
