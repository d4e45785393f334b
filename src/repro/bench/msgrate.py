"""Message-rate microbenchmark (Fig 1a).

Two nodes; node 0's workers blast windowed nonblocking sends at node 1's
workers, which keep windows of pre-posted receives. The achieved aggregate
rate (completed receives / elapsed simulated time) is measured per core
count, for the execution modes of Fig 1(a):

- ``everywhere`` — MPI everywhere: N single-threaded processes per node,
  each with its own (single) VCI;
- ``threads-original`` — 1 process, N threads, MPI_THREAD_MULTIPLE on one
  plain communicator: every operation funnels through one VCI;
- ``threads-tags`` — N threads + the Listing 2 tag/hint bundle (one VCI
  per thread via tag bits);
- ``threads-comms`` — N threads, one duplicated communicator per thread;
- ``threads-endpoints`` — N threads, one endpoint per thread.

Two ablation modes dissect the hint bundle:

- ``threads-overtaking`` — only ``mpi_assert_allow_overtaking``: sends
  spread over VCIs but receives stay on the base VCI (Section II-A);
- ``threads-tags-hash`` — no-wildcard assertions with the default *hash*
  tag-to-VCI policy instead of one-to-one (Lesson 7: without the
  bit-layout hints the mapping is at the mercy of the hash).

The paper's headline: the logically-parallel MPI+threads modes match MPI
everywhere, while the original mode stays flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from ..errors import MpiUsageError
from ..mapping.tags import TagSchema, listing2_info
from ..mpi.endpoints import comm_create_endpoints
from ..mpi.request import waitall
from ..netsim.config import NetworkConfig
from ..netsim.topology import ClusterSpec
from ..runtime.world import World

__all__ = ["MsgRateConfig", "MsgRateResult", "run_msgrate", "MODES"]

MODES = ("everywhere", "threads-original", "threads-tags", "threads-comms",
         "threads-endpoints", "threads-overtaking", "threads-tags-hash")


@dataclass
class MsgRateConfig:
    """Parameters for the message-rate microbenchmark."""

    mode: str = "everywhere"
    #: Communicating cores per node.
    cores: int = 8
    #: Messages each sender core issues.
    msgs_per_core: int = 64
    #: Payload bytes per message (Fig 1a uses small messages).
    msg_bytes: int = 8
    #: Nonblocking window depth.
    window: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise MpiUsageError(f"unknown mode {self.mode!r}")
        if self.cores < 1:
            raise MpiUsageError("cores must be >= 1")


@dataclass
class MsgRateResult:
    """Aggregate rate and span measured by one message-rate run."""

    cfg: MsgRateConfig
    #: Aggregate messages/second (completed receives / span).
    rate: float
    #: Simulated seconds from first send post to last receive completion.
    span: float
    messages: int

    def __str__(self) -> str:
        return (f"{self.cfg.mode:18s} cores={self.cfg.cores:3d} "
                f"rate={self.rate / 1e6:8.2f} M msg/s")


def _sender(proc, comm, peer: int, tag_of, cfg: MsgRateConfig,
            payload: np.ndarray) -> Generator:
    pending = []
    for k in range(cfg.msgs_per_core):
        req = yield from comm.Isend(payload, peer, tag_of(k))
        pending.append(req)
        if len(pending) >= cfg.window:
            yield from waitall(pending)
            pending = []
    yield from waitall(pending)


def _receiver(proc, comm, peer: int, tag_of, cfg: MsgRateConfig,
              done_times: list) -> Generator:
    n = cfg.msg_bytes
    bufs = [np.zeros(n, dtype=np.uint8) for _ in range(cfg.window)]
    k = 0
    while k < cfg.msgs_per_core:
        batch = min(cfg.window, cfg.msgs_per_core - k)
        reqs = []
        for j in range(batch):
            req = yield from comm.Irecv(bufs[j], peer, tag_of(k + j))
            reqs.append(req)
        yield from waitall(reqs)
        k += batch
    done_times.append(proc.sim.now)


def run_msgrate(cfg: MsgRateConfig,
                net: Optional[NetworkConfig] = None,
                max_vcis_per_proc: Optional[int] = None,
                metrics=None, tracer=None) -> MsgRateResult:
    """Run one message-rate experiment; returns the achieved rate.

    Pass a :class:`repro.obs.MetricsRegistry` as ``metrics`` and/or an
    enabled :class:`repro.sim.trace.Tracer` as ``tracer`` to instrument
    the run (``python -m repro profile msgrate`` does exactly this).
    Instrumentation does not change the simulated timings.
    """
    n = cfg.cores
    payload = np.zeros(cfg.msg_bytes, dtype=np.uint8)
    done_times: list[float] = []
    net = net or NetworkConfig()

    if cfg.mode == "everywhere":
        world = World(cluster=ClusterSpec(nodes=2, procs_per_node=n,
                                          network=net),
                      max_vcis_per_proc=1, seed=cfg.seed,
                      metrics=metrics, tracer=tracer)

        def sender_main(proc):
            yield from _sender(proc, proc.comm_world, peer=n + proc.rank,
                               tag_of=lambda k: 0, cfg=cfg, payload=payload)

        def receiver_main(proc):
            yield from _receiver(proc, proc.comm_world, peer=proc.rank - n,
                                 tag_of=lambda k: 0, cfg=cfg,
                                 done_times=done_times)

        tasks = [world.procs[r].spawn(sender_main(world.procs[r]))
                 for r in range(n)]
        tasks += [world.procs[n + r].spawn(receiver_main(world.procs[n + r]))
                  for r in range(n)]
        world.run_all(tasks, max_steps=None)
    else:
        if max_vcis_per_proc is None:
            max_vcis_per_proc = 1 if cfg.mode == "threads-original" \
                else max(4, 2 * n)
        world = World(cluster=ClusterSpec(nodes=2, threads_per_proc=n,
                                          network=net),
                      max_vcis_per_proc=max_vcis_per_proc,
                      seed=cfg.seed, metrics=metrics, tracer=tracer)

        def node_main(proc):
            is_sender = proc.rank == 0
            peer_rank = 1 - proc.rank
            if cfg.mode in ("threads-original", "threads-tags",
                            "threads-overtaking", "threads-tags-hash"):
                if cfg.mode == "threads-tags":
                    bits = max(1, math.ceil(math.log2(max(2, n))))
                    comm = yield from proc.comm_world.Dup(
                        listing2_info(n, bits))
                    schema = TagSchema(num_tid_bits=bits, num_app_bits=4)

                    def make(tid):
                        return (comm, peer_rank,
                                lambda k, t=tid: schema.encode(t, t, 0))
                elif cfg.mode == "threads-overtaking":
                    from ..mapping.tags import overtaking_only_info
                    comm = yield from proc.comm_world.Dup(
                        overtaking_only_info(n))

                    def make(tid):
                        return comm, peer_rank, (lambda k, t=tid: t)
                elif cfg.mode == "threads-tags-hash":
                    from ..mpi.info import Info
                    comm = yield from proc.comm_world.Dup(Info({
                        "mpi_assert_no_any_tag": "true",
                        "mpi_assert_no_any_source": "true",
                        "mpich_num_vcis": str(n),
                    }))

                    def make(tid):
                        return comm, peer_rank, (lambda k, t=tid: t)
                else:
                    comm = proc.comm_world

                    def make(tid):
                        return comm, peer_rank, (lambda k, t=tid: t)
            elif cfg.mode == "threads-comms":
                comms = []
                for tid in range(n):
                    comms.append(
                        (yield from proc.comm_world.Dup(name=f"mr{tid}")))

                def make(tid):
                    return comms[tid], peer_rank, (lambda k: 0)
            else:  # threads-endpoints
                eps = yield from comm_create_endpoints(proc.comm_world, n)

                def make(tid):
                    # ep tid on node0 pairs with ep tid on node1
                    peer_ep = peer_rank * n + tid
                    return eps[tid], peer_ep, (lambda k: 0)

            threads = []
            for tid in range(n):
                comm, peer, tag_of = make(tid)
                if is_sender:
                    threads.append(proc.spawn(
                        _sender(proc, comm, peer, tag_of, cfg, payload)))
                else:
                    threads.append(proc.spawn(
                        _receiver(proc, comm, peer, tag_of, cfg, done_times)))
            yield proc.sim.all_of(threads)

        tasks = [world.procs[r].spawn(node_main(world.procs[r]))
                 for r in range(2)]
        world.run_all(tasks, max_steps=None)

    world.finalize_metrics()
    span = max(done_times)
    total = n * cfg.msgs_per_core
    return MsgRateResult(cfg=cfg, rate=total / span, span=span,
                         messages=total)
