"""Event-based runtime proxy (Legion/Realm pattern, Fig 5 and Fig 1c).

Legion's runtime keeps one *polling thread* per node that processes
incoming active messages from the task threads of other nodes. The task
threads' communication is irregular: any thread may message any node at
any time, and the polling thread relies on wildcard receives.

Mechanism mapping (Fig 5):

- ``communicators`` — each task thread sends on its own duplicated
  communicator; the polling thread cannot know which communicator traffic
  will arrive on, so it must *iterate over all of them*, paying one probe
  per communicator per cycle. (The paper measured Legion's polling thread
  to be 1.63x slower this way.)
- ``endpoints`` — the polling thread owns one endpoint and posts a single
  wildcard receive; task threads each drive their own endpoint. Matching
  requirements and parallelism are decoupled (Lesson 11).
- ``original`` — everything on COMM_WORLD (one VCI): the baseline
  MPI_THREAD_MULTIPLE behaviour of Fig 1(c).

Partitioned communication is *not* offered here: the polling thread
depends on wildcards and the communication targets change dynamically, so
partitioned ops cannot express this pattern (Lesson 15) — the scope gap is
itself one of the paper's findings and is asserted by
``repro.analysis.scope``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ...errors import MpiUsageError
from ...mpi import ANY_SOURCE, ANY_TAG
from ...mpi.request import waitall
from ...runtime.world import MpiProcess
from ..channels import Channels, open_channels
from ..harness import run_app

__all__ = ["LegionConfig", "LegionResult", "WildcardPoller", "run_legion"]

MECHANISMS = ("original", "communicators", "endpoints")


@dataclass
class LegionConfig:
    """Parameters of one event-runtime experiment."""

    num_nodes: int = 4
    task_threads: int = 8
    #: Messages each task thread sends to each remote node.
    msgs_per_thread: int = 16
    #: Payload elements (float64) per active message.
    payload: int = 8
    mechanism: str = "endpoints"
    #: Simulated handler cost per processed event.
    handler_cost: float = 200e-9
    #: Simulated task work between sends. The default keeps the polling
    #: thread non-saturated (the regime the paper measured; under heavy
    #: oversaturation receiver-side queue growth dominates instead).
    task_work: float = 10e-6
    #: Send window: task threads wait for completions every this many sends.
    window: int = 8

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise MpiUsageError(
                f"unknown mechanism {self.mechanism!r} (partitioned cannot "
                "express wildcard polling — Lesson 15)")
        if self.num_nodes < 2:
            raise MpiUsageError("need at least 2 nodes")
        if self.payload < 1:
            raise MpiUsageError("payload must be >= 1 element, got "
                                f"{self.payload!r}")

    @property
    def events_per_node(self) -> int:
        return (self.num_nodes - 1) * self.task_threads * self.msgs_per_thread


@dataclass
class LegionResult:
    """Timing summary of one Legion-runtime proxy run."""

    cfg: LegionConfig
    #: Simulated wall time of the whole run (slowest node).
    wall_time: float
    #: Events processed per second by the slowest polling thread.
    polling_rate: float
    #: Mean busy time the polling thread spent per event (the Fig 5
    #: metric: probe iteration makes this grow with the communicator count).
    polling_cost_per_event: float
    #: Probe calls issued per processed event (1.0 is ideal).
    probes_per_event: float
    correct: bool

    def __str__(self) -> str:
        return (f"{self.cfg.mechanism:14s} wall={self.wall_time * 1e6:9.1f}us "
                f"rate={self.polling_rate / 1e6:6.2f}M/s "
                f"cost/evt={self.polling_cost_per_event * 1e9:7.1f}ns "
                f"probes/evt={self.probes_per_event:5.2f}")


class WildcardPoller:
    """A node's polling thread: absorbs active messages through
    pre-posted wildcard receives, as Legion's Realm backend does.

    It is thread ``tid`` of its process and polls whatever handles its
    traffic can arrive on (``channels.sweep(tid)``):

    - all on one handle (``original``, ``endpoints``): a FIFO window of
      wildcard Irecvs; wildcard receives match in posted order, so
      completions are FIFO, testing the head is enough and each event
      costs roughly one MPI_Test (Fig 5 right);
    - scattered over several (``communicators``): the polling thread is
      "forced to iterate over the communicators to process all incoming
      messages" — one wildcard Irecv per handle, every sweep tests them
      all, and the per-event cost grows with their number (Fig 5 left).

    ``on_event(status, buf)`` is the application's handler (a generator).
    ``seen`` counts handled events, ``probes`` the MPI_Test calls and
    ``busy`` the simulated time spent in MPI calls and handlers — idle
    backoff excluded — which is Fig 5's cost-per-event numerator.
    """

    #: Pre-posted wildcard receives in window mode.
    WINDOW = 4

    def __init__(self, proc: MpiProcess, channels: Channels, tid: int,
                 nelems: int, on_event):
        self.proc = proc
        self.handles = channels.sweep(tid)
        self.scattered = channels.scattered
        self.nelems = nelems
        self.on_event = on_event
        self.seen = 0
        self.probes = 0
        self.busy = 0.0

    def _post(self, comm) -> Generator:
        buf = np.zeros(self.nelems)
        t0 = self.proc.sim.now
        req = yield from comm.Irecv(buf, ANY_SOURCE, ANY_TAG)
        self.busy += self.proc.sim.now - t0
        return req, buf

    def _handle(self, status, buf: np.ndarray) -> Generator:
        t0 = self.proc.sim.now
        yield from self.on_event(status, buf)
        self.busy += self.proc.sim.now - t0
        self.seen += 1

    def run(self, expected: int) -> Generator:
        """Absorb exactly ``expected`` events, then return."""
        if self.scattered:
            yield from self._sweep_all(expected)
        else:
            yield from self._window(expected, self.handles[0])

    # Each MPI_Test below is charged (incl. channel-lock contention),
    # counted, and measured as poll work — inline, because an idle poller
    # spends its whole life in these loops.

    def _window(self, expected: int, comm) -> Generator:
        sim = self.proc.sim
        window = []
        for _ in range(min(self.WINDOW, expected)):
            window.append((yield from self._post(comm)))
        while self.seen < expected:
            req, buf = window[0]
            self.probes += 1
            t0 = sim.now
            status = yield from comm.Test(req)
            self.busy += sim.now - t0
            if status is None:
                yield self.proc.compute(100e-9)  # idle backoff
                continue
            window.pop(0)
            yield from self._handle(status, buf)
            if expected - self.seen - len(window) > 0:
                window.append((yield from self._post(comm)))

    def _sweep_all(self, expected: int) -> Generator:
        sim = self.proc.sim
        slots = []
        for comm in self.handles:
            req, buf = yield from self._post(comm)
            slots.append([comm, req, buf])
        while self.seen < expected:
            progressed = False
            for slot in slots:
                comm, req, buf = slot
                self.probes += 1
                t0 = sim.now
                status = yield from comm.Test(req)
                self.busy += sim.now - t0
                if status is None:
                    continue
                yield from self._handle(status, buf)
                slot[1], slot[2] = yield from self._post(comm)
                progressed = True
                if self.seen >= expected:
                    break
            if not progressed:
                yield self.proc.compute(100e-9)
        # Shutdown: every handle still holds one pre-posted wildcard
        # receive that no further message will match — cancel it
        # (MPI_Cancel), as Realm does at teardown.
        for _comm, req, _buf in slots:
            if not req.cancel():
                yield from req.wait()


class _LegionProcess:
    """Per-node runtime state."""

    def __init__(self, proc: MpiProcess, cfg: LegionConfig):
        self.proc = proc
        self.cfg = cfg
        self.checksum = 0.0
        self.poll_start = None
        self.poll_end = None

    def setup(self) -> Generator:
        # task_threads sending threads + 1 polling thread per process
        cfg = self.cfg
        self.channels = yield from open_channels(
            self.proc, cfg.mechanism, cfg.task_threads + 1,
            senders=cfg.task_threads, thread_prefix="task")
        self.poller = WildcardPoller(self.proc, self.channels,
                                     cfg.task_threads, cfg.payload,
                                     self._handle)

    def task_thread(self, tid: int) -> Generator:
        """Application task: exchange payloads with the peer node."""
        cfg = self.cfg
        proc = self.proc
        me = proc.rank
        payload = np.full(cfg.payload, float(me * 1000 + tid))
        pending = []
        for target in range(cfg.num_nodes):
            if target == me:
                continue
            # address the *polling thread* of the target node; the tag is
            # the application-level stream id
            comm, dest, tag = self.channels.send(tid, target,
                                                 cfg.task_threads, tid)
            for k in range(cfg.msgs_per_thread):
                yield proc.compute(cfg.task_work)
                req = yield from comm.Isend(payload, dest, tag)
                pending.append(req)
                if len(pending) >= cfg.window:
                    yield from waitall(pending)
                    pending = []
        yield from waitall(pending)

    def polling_thread(self) -> Generator:
        """Process this node's incoming events (see
        :class:`WildcardPoller`)."""
        self.poll_start = self.proc.sim.now
        yield from self.poller.run(self.cfg.events_per_node)
        self.poll_end = self.proc.sim.now

    def _handle(self, status, buf: np.ndarray) -> Generator:
        self.checksum += float(buf[0])
        yield self.proc.compute(self.cfg.handler_cost)


def run_legion(cfg: LegionConfig, **env: Any) -> LegionResult:
    """Run one event-runtime experiment end to end.

    ``env`` is the harness keyword block (``seed``, ``net``, ``faults``,
    ``traffic``, ``topology``, ... — see
    :func:`repro.apps.harness.run_app`); defaults reproduce the
    historical lossless direct-fabric run byte for byte.
    """
    states: dict[int, _LegionProcess] = {}

    def proc_main(proc):
        st = _LegionProcess(proc, cfg)
        states[proc.rank] = st
        yield from st.setup()
        threads = [proc.spawn(st.task_thread(tid))
                   for tid in range(cfg.task_threads)]
        threads.append(proc.spawn(st.polling_thread()))
        yield proc.sim.all_of(threads)
        return proc.sim.now

    _, ends = run_app(cfg.num_nodes, cfg.task_threads + 1, proc_main, **env)

    expected = cfg.events_per_node
    pollers = [st.poller for st in states.values()]
    correct = all(p.seen == expected for p in pollers)
    # checksum: each node receives msgs_per_thread copies from every
    # (remote node, tid) pair
    for rank, st in states.items():
        want = sum(cfg.msgs_per_thread * (n * 1000 + tid)
                   for n in range(cfg.num_nodes) if n != rank
                   for tid in range(cfg.task_threads))
        if abs(st.checksum - want) > 1e-6:
            correct = False

    slowest = max(states.values(),
                  key=lambda s: (s.poll_end or 0) - (s.poll_start or 0))
    span = (slowest.poll_end - slowest.poll_start) or 1e-30
    return LegionResult(
        cfg=cfg,
        wall_time=max(ends),
        polling_rate=expected / span,
        polling_cost_per_event=max(
            p.busy / max(1, p.seen) for p in pollers),
        probes_per_event=max(
            p.probes / max(1, p.seen) for p in pollers),
        correct=correct,
    )
