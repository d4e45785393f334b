"""Circuit-simulation proxy on the event runtime (Fig 1c).

Legion's Circuit app partitions a circuit graph into *pieces*; wires cut
by the partition carry voltage updates between nodes every timestep. In
the MPI backend those updates travel as active messages handled by each
node's polling thread.

The proxy: each task thread owns pieces whose cut wires connect to every
other node; per timestep it sends one update message per cut wire, then
waits until its node's polling thread has absorbed this timestep's
expected updates (asynchronous progress — no global barrier, like Realm).

Compared mechanisms: ``original`` (COMM_WORLD, one VCI — Fig 1c's
"MPI+threads (Original)"), ``communicators`` (comm per task thread, the
polling thread iterates), ``endpoints`` (dedicated polling endpoint —
"logically parallel").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ...errors import MpiUsageError
from ...mpi.info import Info
from ...mpi.request import waitall
from ...runtime.world import MpiProcess
from ...sim.sync import Gate
from ..channels import open_channels
from ..harness import run_app
from .runtime import MECHANISMS, WildcardPoller

__all__ = ["CircuitConfig", "CircuitResult", "run_circuit"]


@dataclass
class CircuitConfig:
    """Parameters for the Legion circuit-simulation proxy."""

    num_nodes: int = 4
    task_threads: int = 8
    #: Cut wires per (thread, remote node) — update messages per timestep.
    wires_per_thread: int = 4
    timesteps: int = 8
    #: Gate-solve compute per thread per timestep.
    compute_per_step: float = 2e-6
    handler_cost: float = 150e-9
    mechanism: str = "endpoints"

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise MpiUsageError(f"unknown mechanism {self.mechanism!r}")
        if self.num_nodes < 2:
            raise MpiUsageError("need at least 2 nodes")
        if self.timesteps < 1 or self.wires_per_thread < 1:
            raise MpiUsageError(
                "timesteps and wires_per_thread must be >= 1, got "
                f"{self.timesteps!r} and {self.wires_per_thread!r}")

    @property
    def updates_per_step(self) -> int:
        """Updates each node absorbs per timestep."""
        return (self.num_nodes - 1) * self.task_threads * self.wires_per_thread


@dataclass
class CircuitResult:
    """Timing and correctness summary of one circuit-proxy run."""

    cfg: CircuitConfig
    wall_time: float
    time_per_step: float
    correct: bool

    def __str__(self) -> str:
        return (f"{self.cfg.mechanism:14s} wall={self.wall_time * 1e6:9.1f}us "
                f"step={self.time_per_step * 1e6:8.2f}us")


class _CircuitNode:
    def __init__(self, proc: MpiProcess, cfg: CircuitConfig):
        self.proc = proc
        self.cfg = cfg
        self.buckets: dict[int, int] = {}
        self.gates: dict[int, Gate] = {}
        self.voltage_sum = 0.0

    def _gate(self, step: int) -> Gate:
        if step not in self.gates:
            self.gates[step] = Gate(self.proc.sim)
        return self.gates[step]

    def setup(self) -> Generator:
        # Under ``original`` all task threads push active messages down
        # one channel and the polling thread absorbs them in arrival
        # order, so message order carries no meaning: assert it (MPI 4.0
        # ``mpi_assert_allow_overtaking``).
        cfg = self.cfg
        self.channels = yield from open_channels(
            self.proc, cfg.mechanism, cfg.task_threads + 1,
            senders=cfg.task_threads, thread_prefix="circ",
            info=Info({"mpi_assert_allow_overtaking": "1"}),
            comm_name="circ-am")
        self.poller = WildcardPoller(self.proc, self.channels,
                                     cfg.task_threads, 4, self._absorb)

    def task_thread(self, tid: int) -> Generator:
        """One circuit piece owner: solve, ship updates, stay one step
        ahead of absorption (asynchronous pipelining, as in Realm — the
        polling thread overlaps with the next step's solve and sends)."""
        cfg, proc = self.cfg, self.proc
        update = np.full(4, 1.0 + proc.rank)
        for step in range(cfg.timesteps):
            if step > 0:
                # the new solve consumes the previous step's updates
                yield from self._gate(step - 1).wait()
            yield proc.compute(cfg.compute_per_step)
            pending = []
            for target in range(cfg.num_nodes):
                if target == proc.rank:
                    continue
                comm, dest, tag = self.channels.send(
                    tid, target, cfg.task_threads, step)
                for _ in range(cfg.wires_per_thread):
                    pending.append(
                        (yield from comm.Isend(update, dest, tag)))
            yield from waitall(pending)
        yield from self._gate(cfg.timesteps - 1).wait()

    def polling_thread(self) -> Generator:
        """Absorb every timestep's updates (see
        :class:`~repro.apps.legion.runtime.WildcardPoller`)."""
        yield from self.poller.run(
            self.cfg.updates_per_step * self.cfg.timesteps)

    def _absorb(self, status, buf: np.ndarray) -> Generator:
        yield self.proc.compute(self.cfg.handler_cost)
        step = status.tag
        self.voltage_sum += float(buf[0])
        self.buckets[step] = self.buckets.get(step, 0) + 1
        if self.buckets[step] == self.cfg.updates_per_step:
            self._gate(step).open()


def run_circuit(cfg: CircuitConfig, **env: Any) -> CircuitResult:
    """Run the circuit proxy under the configured mechanism.

    ``env`` is the harness keyword block (``seed``, ``net``, ``faults``,
    ``traffic``, ``topology``, ... — see
    :func:`repro.apps.harness.run_app`); defaults reproduce the
    historical lossless direct-fabric run byte for byte.
    """
    nodes: dict[int, _CircuitNode] = {}

    def proc_main(proc):
        st = _CircuitNode(proc, cfg)
        nodes[proc.rank] = st
        yield from st.setup()
        threads = [proc.spawn(st.task_thread(tid))
                   for tid in range(cfg.task_threads)]
        threads.append(proc.spawn(st.polling_thread()))
        yield proc.sim.all_of(threads)
        return proc.sim.now

    _, ends = run_app(cfg.num_nodes, cfg.task_threads + 1, proc_main, **env)

    expected_total = cfg.updates_per_step * cfg.timesteps
    correct = all(st.poller.seen == expected_total for st in nodes.values())
    for rank, st in nodes.items():
        want = cfg.timesteps * cfg.wires_per_thread * cfg.task_threads * sum(
            1.0 + n for n in range(cfg.num_nodes) if n != rank)
        if abs(st.voltage_sum - want) > 1e-6:
            correct = False
    wall = max(ends)
    return CircuitResult(cfg=cfg, wall_time=wall,
                         time_per_step=wall / cfg.timesteps,
                         correct=correct)
