"""Cost-model and hardware configuration for the simulated network stack.

All times are **seconds** of simulated time, all sizes **bytes**. Default
magnitudes are chosen to be plausible for the platforms in the paper
(Omni-Path fabric, Skylake/KNL/Broadwell nodes) but the reproduction only
relies on their *relative* structure: software path vs NIC issue gap vs
wire latency. The goal is shape fidelity, not absolute-number fidelity.

The key hardware knob for the paper is ``num_hardware_contexts``: Omni-Path
exposes 160 hardware contexts per NIC (paper, Lesson 3). When more VCIs are
created than there are hardware contexts, VCIs share contexts and contend —
which is exactly how the paper explains hypre's 2x slowdown with the
communicator mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["CpuCosts", "NicParams", "FabricParams", "NetworkConfig",
           "OMNIPATH_CONTEXTS"]

#: Number of hardware contexts per Omni-Path HFI (paper, Section III-A).
OMNIPATH_CONTEXTS = 160


@dataclass(frozen=True)
class CpuCosts:
    """Per-operation CPU-side software costs of the MPI library."""

    #: Software path to post a send (argument checking, request setup,
    #: descriptor build) — charged to the calling thread.
    send_post: float = 80e-9
    #: Software path to post a receive.
    recv_post: float = 80e-9
    #: Fixed cost of one matching attempt (queue head inspection).
    match_base: float = 25e-9
    #: Incremental cost per queue element scanned during matching. This is
    #: the O(n) term of Section II-C: n threads sharing one communicator
    #: grow the match queues to depth ~n.
    match_per_element: float = 10e-9
    #: Cost of an uncontended lock acquire (atomic CAS).
    lock_acquire: float = 15e-9
    #: Extra penalty when a lock is handed off contended (cache-line
    #: bounce + wakeup). Charged to the acquiring thread.
    lock_handoff: float = 45e-9
    #: Completing a request (status fill, counters).
    request_completion: float = 30e-9
    #: One poll of the progress engine.
    progress_poll: float = 40e-9
    #: Marking one partition ready (MPI_Pready): a flag write + doorbell.
    pready: float = 35e-9
    #: Checking one partition's arrival (MPI_Parrived).
    parrived: float = 20e-9
    #: Intra-process shared-memory copy setup (threads exchanging halos
    #: through shared memory instead of MPI).
    shm_copy_base: float = 60e-9
    #: Shared-memory copy bandwidth (bytes/second) — streaming large-copy
    #: rate of a modern server socket.
    shm_bandwidth: float = 20e9
    #: Local reduction cost per byte (used by user-driven intranode
    #: collective steps, Lesson 18).
    reduce_per_byte: float = 0.10e-9
    #: Per-communicator probe cost for a polling loop that must iterate
    #: over K communicators (Fig 5): one MPI_Test software path.
    probe: float = 60e-9

    def __post_init__(self) -> None:
        # A cost is a task's sleep (``yield cpu.send_post``), and a task
        # sleeps only on a float: an int given here is stored as one.
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class NicParams:
    """Parameters of one NIC."""

    #: Hardware contexts available on the NIC (Omni-Path: 160).
    num_hardware_contexts: int = OMNIPATH_CONTEXTS
    #: Per-message issue gap of one hardware context (LogGP ``g``): the
    #: context injects at most one message per ``issue_gap`` seconds.
    issue_gap: float = 180e-9
    #: Additional per-byte injection cost (LogGP ``G`` at the sender).
    issue_per_byte: float = 1.0 / 12.5e9
    #: Cost of ringing a context's doorbell (MMIO write) — serialized per
    #: context and charged to the issuing thread.
    doorbell: float = 30e-9
    #: Extra per-post critical-section time when a hardware context is
    #: shared by more than one VCI: software locking around the shared
    #: work queue plus cache-line bouncing ("software overheads of thread
    #: synchronization to access shared network queues", Lesson 3).
    #: Calibrated so that context oversubscription costs roughly 2x on a
    #: halo exchange, matching the paper's hypre-on-Omni-Path report
    #: (PSM2 shared-context locks are notoriously expensive).
    shared_post_penalty: float = 400e-9
    #: Failure injection: maximum extra per-message injection delay
    #: (uniform, deterministic per context). Per-channel FIFO ordering is
    #: preserved; cross-channel arrival order becomes irregular. 0 = off.
    issue_jitter: float = 0.0


@dataclass(frozen=True)
class FabricParams:
    """Parameters of the interconnect between nodes.

    Each node has one egress and one ingress link, and the fabric always
    serializes every message on both: all hardware contexts of a node feed
    its egress link, so a node cannot inject more than ``bandwidth``
    bytes/second nor more than one message per ``node_msg_gap`` in
    aggregate (what eventually flattens the Fig 1(a) message-rate
    curves), and it cannot absorb more than ``bandwidth`` bytes/second.
    """

    #: One-way wire latency between any two nodes (seconds).
    latency: float = 0.9e-6
    #: Link bandwidth (bytes/second); 12.5e9 = 100 Gb/s.
    bandwidth: float = 12.5e9
    #: Messages at or below this size use the eager protocol; larger ones
    #: use rendezvous (RTS/CTS handshake adds two extra latencies).
    eager_threshold: int = 16 * 1024
    #: Aggregate per-message gap of the node's link/NIC pipeline
    #: (5 ns = 200 M messages/s ceiling per node).
    node_msg_gap: float = 5e-9


@dataclass(frozen=True)
class NetworkConfig:
    """Bundle of all hardware/cost parameters for an experiment."""

    cpu: CpuCosts = field(default_factory=CpuCosts)
    nic: NicParams = field(default_factory=NicParams)
    fabric: FabricParams = field(default_factory=FabricParams)
    name: str = "default"

    # -- presets ----------------------------------------------------------
    @staticmethod
    def omnipath() -> "NetworkConfig":
        """Omni-Path-like fabric: 160 hardware contexts per NIC."""
        return NetworkConfig(
            nic=NicParams(num_hardware_contexts=OMNIPATH_CONTEXTS),
            name="omnipath",
        )

    @staticmethod
    def abundant(num_contexts: int = 4096) -> "NetworkConfig":
        """A NIC with effectively unlimited hardware contexts.

        Used to separate software-contention effects from
        hardware-resource-exhaustion effects.
        """
        return NetworkConfig(
            nic=NicParams(num_hardware_contexts=num_contexts),
            name=f"abundant[{num_contexts}]",
        )

    @staticmethod
    def scarce(num_contexts: int = 16) -> "NetworkConfig":
        """A NIC with few hardware contexts, to magnify Lesson 3."""
        return NetworkConfig(
            nic=NicParams(num_hardware_contexts=num_contexts),
            name=f"scarce[{num_contexts}]",
        )

    def with_contexts(self, n: int) -> "NetworkConfig":
        """A copy of this config with ``n`` hardware contexts per NIC."""
        return replace(self, nic=replace(self.nic, num_hardware_contexts=n),
                       name=f"{self.name}/ctx={n}")
