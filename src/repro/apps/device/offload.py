"""Device-initiated communication proxy (Lesson 20, Section III-D).

Models a GPU-accelerated iterative exchange between nodes. The "GPU" is a
set of simulated thread blocks whose operations are charged device-side
costs; the host thread pays kernel-launch and synchronization latencies.

Strategies compared (the paper's discussion):

- ``host-driven`` — the status quo: control returns to the CPU every
  timestep; the host launches a kernel, synchronizes, performs the MPI
  exchange, and launches again. Pays a kernel launch + sync per step.
- ``device-partitioned`` — partitioned communication's Lesson 20 pitch:
  ``Psend_init``/``Precv_init`` run **on the host before launch** (the
  serial setup off the critical path); a *persistent kernel* then drives
  partitions with lightweight ``Pready``/``Parrived`` triggers from device
  threads. Control still returns to the host once per step for
  ``MPI_Wait``/``MPI_Start`` — the residual synchronization the paper
  warns "will re-introduce device runtime overheads" — but that is a flag
  exchange, not a launch.
- ``device-mpi`` — hypothetical GPU-initiated *full* MPI: device threads
  call Isend/Irecv themselves. Every call pays the device MPI-op cost
  ("executing MPI's matching engine on the GPU is known to be
  expensive" [45]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ...errors import MpiUsageError
from ...mpi.partitioned import precv_init, psend_init
from ...mpi.request import startall, waitall
from ...runtime.world import MpiProcess
from ...sim.sync import Barrier, Gate
from ..harness import run_app

__all__ = ["DeviceParams", "DeviceConfig", "DeviceResult", "run_device"]

MECHANISMS = ("host-driven", "device-partitioned", "device-mpi")


@dataclass(frozen=True)
class DeviceParams:
    """Accelerator cost model."""

    #: Host-side kernel launch latency (CUDA-launch scale).
    kernel_launch: float = 8e-6
    #: Host<->device synchronization (stream sync / flag round trip).
    host_sync: float = 2e-6
    #: Device compute per thread block per timestep.
    block_compute: float = 3e-6
    #: Device-side cost of a lightweight trigger (Pready/Parrived from a
    #: GPU thread: a flag write over PCIe/NVLink).
    device_trigger: float = 300e-9
    #: Device-side cost of a *full* MPI call (matching engine on the GPU).
    device_mpi_op: float = 5e-6


@dataclass
class DeviceConfig:
    """Parameters for the GPU-offload boundary-exchange proxy."""

    num_nodes: int = 2
    #: GPU thread blocks driving communication per node.
    blocks: int = 8
    #: Elements per block boundary message.
    count: int = 64
    timesteps: int = 6
    mechanism: str = "device-partitioned"
    params: DeviceParams = DeviceParams()

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise MpiUsageError(f"unknown mechanism {self.mechanism!r}")
        if self.num_nodes != 2:
            raise MpiUsageError("the device proxy models a 2-node exchange")
        if min(self.blocks, self.count, self.timesteps) < 1:
            raise MpiUsageError(
                "blocks, count and timesteps must be >= 1, got "
                f"{self.blocks!r}, {self.count!r} and {self.timesteps!r}")


@dataclass
class DeviceResult:
    """Timing and correctness summary of one device-proxy run."""

    cfg: DeviceConfig
    wall_time: float
    time_per_step: float
    #: Host-side kernel launches performed over the whole run.
    kernel_launches: int
    correct: bool

    def __str__(self) -> str:
        return (f"{self.cfg.mechanism:19s} "
                f"step={self.time_per_step * 1e6:8.2f}us "
                f"launches={self.kernel_launches:3d}")


class _DeviceNode:
    def __init__(self, proc: MpiProcess, cfg: DeviceConfig):
        self.proc = proc
        self.cfg = cfg
        self.peer = 1 - proc.rank
        self.launches = 0
        self.recv_sums: list[float] = []

    # -- host-driven -------------------------------------------------------
    def run_host_driven(self) -> Generator:
        """Classic offload: host launches a kernel, then communicates."""
        cfg, proc, p = self.cfg, self.proc, self.cfg.params
        n = cfg.blocks * cfg.count
        send_buf = np.zeros(n)
        recv_buf = np.zeros(n)
        comm = proc.comm_world
        for step in range(cfg.timesteps):
            # launch + run the compute kernel, then sync back to the host
            self.launches += 1
            yield proc.compute(p.kernel_launch)
            yield proc.compute(p.block_compute)  # blocks run in parallel
            yield proc.compute(p.host_sync)
            send_buf[:] = proc.rank * 1000 + step
            # host performs the whole exchange
            rreq = yield from comm.Irecv(recv_buf, self.peer, tag=step % 8)
            sreq = yield from comm.Isend(send_buf, self.peer, tag=step % 8)
            yield from waitall([rreq, sreq])
            self.recv_sums.append(float(recv_buf[0]))

    # -- device-partitioned --------------------------------------------------
    def run_device_partitioned(self) -> Generator:
        """Device blocks signal partition readiness; host sets up once."""
        cfg, proc, p = self.cfg, self.proc, self.cfg.params
        n = cfg.blocks * cfg.count
        send_buf = np.zeros(n)
        recv_buf = np.zeros(n)
        comm = proc.comm_world
        # Host-side setup, off the critical path (Psend/Precv_init).
        psend = psend_init(comm, send_buf, cfg.blocks, cfg.count,
                           dest=self.peer, tag=0)
        precv = precv_init(comm, recv_buf, cfg.blocks, cfg.count,
                           source=self.peer, tag=0)
        yield from startall([psend, precv])
        # One persistent kernel for the whole run.
        self.launches += 1
        yield proc.compute(p.kernel_launch)

        barrier = Barrier(proc.sim, cfg.blocks)
        step_gates: dict[int, Gate] = {}

        def gate(step):
            if step not in step_gates:
                step_gates[step] = Gate(proc.sim)
            return step_gates[step]

        def block(bid):
            lo = bid * cfg.count
            for step in range(cfg.timesteps):
                yield proc.compute(p.block_compute)
                send_buf[lo:lo + cfg.count] = proc.rank * 1000 + step
                # lightweight device trigger
                yield proc.compute(p.device_trigger)
                yield from psend.pready(bid)
                while not (yield from precv.parrived(bid)):
                    yield proc.compute(p.device_trigger)
                yield from barrier.wait()
                if bid == 0:
                    # control returns to the host: Wait + restart (no
                    # restart after the last step — it would leave an
                    # open cycle dangling at finalize)
                    yield proc.compute(p.host_sync)
                    yield from waitall([psend, precv])
                    self.recv_sums.append(float(recv_buf[0]))
                    if step + 1 < cfg.timesteps:
                        yield from startall([psend, precv])
                    gate(step).open()
                yield from gate(step).wait()

        blocks = [proc.spawn(block(b)) for b in range(cfg.blocks)]
        yield proc.sim.all_of(blocks)

    # -- device full MPI -------------------------------------------------------
    def run_device_mpi(self) -> Generator:
        """Persistent kernel whose thread blocks call MPI directly."""
        cfg, proc, p = self.cfg, self.proc, self.cfg.params
        comm = proc.comm_world
        barrier = Barrier(proc.sim, cfg.blocks)
        sums = np.zeros(cfg.blocks)
        # One persistent kernel; device threads speak MPI directly.
        self.launches += 1
        yield proc.compute(p.kernel_launch)

        def block(bid):
            send = np.zeros(cfg.count)
            recv = np.zeros(cfg.count)
            for step in range(cfg.timesteps):
                yield proc.compute(p.block_compute)
                send[:] = proc.rank * 1000 + step
                # every MPI call pays the device matching-engine cost [45]
                yield proc.compute(p.device_mpi_op)
                rreq = yield from comm.Irecv(recv, self.peer,
                                             tag=bid * 16 + step % 8)
                yield proc.compute(p.device_mpi_op)
                sreq = yield from comm.Isend(send, self.peer,
                                             tag=bid * 16 + step % 8)
                yield from waitall([rreq, sreq])
                if bid == 0:
                    self.recv_sums.append(float(recv[0]))
                yield from barrier.wait()

        blocks = [proc.spawn(block(b)) for b in range(cfg.blocks)]
        yield proc.sim.all_of(blocks)


_STRATEGIES = {"host-driven": _DeviceNode.run_host_driven,
               "device-partitioned": _DeviceNode.run_device_partitioned,
               "device-mpi": _DeviceNode.run_device_mpi}


def run_device(cfg: DeviceConfig, **env: Any) -> DeviceResult:
    """Run the device-offload proxy under the chosen mechanism.

    ``env`` is the harness keyword block (``seed``, ``net``, ``faults``,
    ``traffic``, ``topology``, ... — see
    :func:`repro.apps.harness.run_app`); defaults reproduce the
    historical lossless direct-fabric run byte for byte.
    """
    nodes = {}

    def proc_main(proc):
        st = _DeviceNode(proc, cfg)
        nodes[proc.rank] = st
        yield from _STRATEGIES[cfg.mechanism](st)
        return proc.sim.now

    _, ends = run_app(cfg.num_nodes, cfg.blocks, proc_main, **env)

    # Each node must have observed the peer's per-step values in order.
    correct = all(
        st.recv_sums == [float((1 - r) * 1000 + s)
                         for s in range(cfg.timesteps)]
        for r, st in nodes.items())
    wall = max(ends)
    return DeviceResult(cfg=cfg, wall_time=wall,
                        time_per_step=wall / cfg.timesteps,
                        kernel_launches=max(st.launches
                                            for st in nodes.values()),
                        correct=correct)
