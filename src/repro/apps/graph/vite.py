"""Graph-communication proxy (Vite-style community detection, Lesson 5).

Vite runs Louvain community detection on a distributed graph: every
iteration, each thread sends community-update messages to the owners of
its vertices' remote neighbours. Crucially, the *communication
neighbourhood changes over time* — as vertices change communities, a
thread suddenly talks to different threads on different processes.

That dynamism is exactly what breaks static communicator maps (Lesson 5):
a pre-built thread-to-communicator map assumes fixed partners; once
partners change, two threads start sharing communicators (serialization),
or the map must be rebuilt collectively (expensive). Endpoints simply
address the new partner's endpoint rank; tags-with-hints simply encode the
new partner's thread id.

The proxy grows a Barabasi-Albert power-law graph (its own generator: no
graph library is imported), partitions it, runs ``iters`` update rounds
with community reassignment between rounds (changing the partner sets),
and measures exchange time plus — for the communicator mechanism — the
label-sharing conflicts the dynamism induces.
"""

from __future__ import annotations

import random  # lint: ignore[L201] -- one Random(seed), the oracle library's draws
from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ...errors import MpiUsageError
from ...mpi.request import waitall
from ...runtime.world import MpiProcess
from ...sim.sync import Barrier
from ..channels import MECHANISMS, Channels, open_channels
from ..harness import run_app

__all__ = ["GraphConfig", "GraphResult", "run_graph", "partition_graph",
           "barabasi_albert"]


@dataclass
class GraphConfig:
    """Parameters for the Vite-style graph community-detection proxy."""

    num_nodes: int = 4
    threads_per_proc: int = 4
    #: Vertices in the generated power-law graph.
    graph_vertices: int = 256
    #: Attachment parameter of the Barabasi-Albert generator.
    graph_degree: int = 4
    iters: int = 3
    mechanism: str = "endpoints"
    #: Fraction of vertices whose ownership thread re-randomizes each
    #: iteration (the dynamic-neighbourhood knob).
    churn: float = 0.3
    update_cost: float = 100e-9
    seed: int = 0

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise MpiUsageError(f"unknown mechanism {self.mechanism!r}")
        if not 0.0 <= self.churn <= 1.0:
            raise MpiUsageError("churn must be in [0, 1]")
        if not 1 <= self.graph_degree < self.graph_vertices:
            raise MpiUsageError(
                "the Barabasi-Albert generator needs 1 <= graph_degree < "
                f"graph_vertices, got {self.graph_degree!r} and "
                f"{self.graph_vertices!r}")


@dataclass
class GraphResult:
    """Timing and message-volume summary of one graph-proxy run."""

    cfg: GraphConfig
    wall_time: float
    exchange_time: float
    #: Messages exchanged across processes over the whole run.
    remote_messages: int
    #: communicators mechanism only: worst per-iteration count of comms
    #: that carried traffic of >= 2 local threads (the Lesson 5
    #: serialization induced by changing neighbourhoods).
    comm_conflicts: int
    correct: bool

    def __str__(self) -> str:
        return (f"{self.cfg.mechanism:14s} wall={self.wall_time * 1e6:9.1f}us "
                f"exch={self.exchange_time * 1e6:9.1f}us "
                f"msgs={self.remote_messages:5d} "
                f"conflicts={self.comm_conflicts}")


def barabasi_albert(n: int, m: int, seed: int) -> dict[int, list[int]]:
    """Preferential-attachment graph on ``n`` vertices, ``m`` edges per new
    vertex (``1 <= m < n``, which :class:`GraphConfig` checks), as
    ``vertex -> neighbours``, both in insertion order.

    Draw for draw the ``barabasi_albert_graph(n, m, seed)`` of the graph
    library this proxy imported through PR 23, now the test oracle
    (``tests/test_apps_legion_graph.py`` holds the two together): the
    graph enters every graph scenario's state digest, so
    the order below — the iteration order of a ``set`` of small ints
    included — is part of "same spec, same bytes".
    """
    rng = random.Random(seed)
    adjacency = {0: list(range(1, m + 1))}
    adjacency.update((spoke, [0]) for spoke in range(1, m + 1))
    # every vertex once per incident edge: a uniform draw is a degree-
    # proportional one
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        adjacency[source] = list(targets)
        for target in targets:
            adjacency[target].append(source)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return adjacency


def partition_graph(
        cfg: GraphConfig) -> tuple[dict[int, list[int]], dict[int, tuple[int, int]]]:
    """Generate the graph and the initial vertex -> (proc, thread) owner map."""
    g = barabasi_albert(cfg.graph_vertices, cfg.graph_degree, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    owners = {}
    total_threads = cfg.num_nodes * cfg.threads_per_proc
    for v in g:
        slot = int(rng.integers(total_threads))
        owners[v] = (slot // cfg.threads_per_proc,
                     slot % cfg.threads_per_proc)
    return g, owners


class _GraphNode:
    def __init__(self, proc: MpiProcess, cfg: GraphConfig,
                 graph: dict[int, list[int]], owner_steps: list[dict],
                 channels: Channels):
        self.proc = proc
        self.cfg = cfg
        #: Opened once, before the neighbourhood starts drifting: under
        #: ``communicators`` that is a static map of one communicator
        #: per local thread id (Lesson 5).
        self.channels = channels
        self.updates_applied = 0
        self.checksum = 0.0
        self.exchange_time = 0.0
        self._exchange_accum: dict[int, float] = {}
        self.remote_messages = 0
        #: Per iteration and local thread: remote (proc, thread) -> number
        #: of updates to send to it, which (the graph is undirected) is
        #: also the number to expect from it.
        self.peers = [self._peers(graph, owner_steps[it])
                      for it in range(cfg.iters)]
        self.conflicts = max(map(self._conflicts, self.peers), default=0)

    def _peers(self, graph: dict[int, list[int]],
               owners: dict[int, tuple[int, int]]) -> list[dict]:
        """One iteration's cross-process traffic of every local thread,
        in one pass over the graph."""
        rank = self.proc.rank
        peers: list[dict] = [{} for _ in range(self.cfg.threads_per_proc)]
        for v, neighbours in graph.items():
            proc, tid = owners[v]
            if proc == rank:
                row = peers[tid]
                for nbr in neighbours:
                    peer = owners[nbr]
                    if peer[0] != rank:
                        row[peer] = row.get(peer, 0) + 1
        return peers

    def run_one(self, tid: int, it: int, barrier) -> Generator:
        """One iteration of one thread: exchange updates with the current
        (possibly churned) partner set, then apply them."""
        cfg, proc = self.cfg, self.proc
        payload = np.zeros(2)
        peers = sorted(self.peers[it][tid].items())
        t0 = proc.sim.now
        reqs, rbufs = [], []
        for (p2, t2), _count in peers:
            buf = np.zeros(2)
            comm, source, tag = self.channels.recv(tid, p2, t2, it)
            reqs.append((yield from comm.Irecv(buf, source, tag)))
            rbufs.append(buf)
        for (p2, t2), count in peers:
            payload[0] = proc.rank * 1000 + tid
            payload[1] = count
            self.remote_messages += 1
            comm, dest, tag = self.channels.send(tid, p2, t2, it)
            reqs.append((yield from comm.Isend(payload, dest, tag)))
        yield from waitall(reqs)
        for buf in rbufs:
            self.updates_applied += 1
            self.checksum += buf[0]
            yield proc.compute(cfg.update_cost * max(1.0, buf[1]))
        self._exchange_accum[tid] = self._exchange_accum.get(tid, 0.0) \
            + proc.sim.now - t0
        yield from barrier.wait()

    def _conflicts(self, peers: list[dict]) -> int:
        """Handles serving >= 2 local threads in one iteration (receive
        side of a static thread-keyed map under churn; zero when every
        thread receives on a handle of its own)."""
        if not self.channels.scattered:
            return 0
        users: dict[int, set[int]] = {}
        for tid, row in enumerate(peers):
            for (p2, t2) in row:
                users.setdefault(t2, set()).add(tid)
        return sum(1 for s in users.values() if len(s) > 1)


def run_graph(cfg: GraphConfig, **env: Any) -> GraphResult:
    """Run the graph proxy under the configured mechanism.

    ``env`` is the harness keyword block (``net``, ``faults``,
    ``traffic``, ``topology``, ... — see
    :func:`repro.apps.harness.run_app`); defaults reproduce the
    historical lossless direct-fabric run byte for byte.
    """
    graph, owners = partition_graph(cfg)
    nodes: dict[int, _GraphNode] = {}
    rng = np.random.default_rng(cfg.seed + 1)

    # Precompute the per-iteration owner maps (the churn), shared by all
    # ranks — models the alltoall-style ownership refresh of Vite.
    owner_steps = [dict(owners)]
    total_threads = cfg.num_nodes * cfg.threads_per_proc
    for _ in range(cfg.iters - 1):
        new = dict(owner_steps[-1])
        for v in new:
            if rng.random() < cfg.churn:
                slot = int(rng.integers(total_threads))
                new[v] = (slot // cfg.threads_per_proc,
                          slot % cfg.threads_per_proc)
        owner_steps.append(new)

    def proc_main(proc):
        channels = yield from open_channels(
            proc, cfg.mechanism, cfg.threads_per_proc, app_bits=6,
            thread_prefix="g")
        st = _GraphNode(proc, cfg, graph, owner_steps, channels)
        nodes[proc.rank] = st
        barrier = Barrier(proc.sim, cfg.threads_per_proc)

        def thread(tid):
            for it in range(cfg.iters):
                yield from st.run_one(tid, it, barrier)

        threads = [proc.spawn(thread(tid))
                   for tid in range(cfg.threads_per_proc)]
        yield proc.sim.all_of(threads)
        return proc.sim.now

    _, ends = run_app(cfg.num_nodes, cfg.threads_per_proc, proc_main,
                      seed=cfg.seed, **env)

    # correctness: total updates applied == total remote messages sent
    sent = sum(st.remote_messages for st in nodes.values())
    applied = sum(st.updates_applied for st in nodes.values())
    correct = sent == applied
    return GraphResult(
        cfg=cfg,
        wall_time=max(ends),
        exchange_time=max(max(st._exchange_accum.values(), default=0.0)
                          for st in nodes.values()),
        remote_messages=sent,
        comm_conflicts=max(st.conflicts for st in nodes.values()),
        correct=correct,
    )
