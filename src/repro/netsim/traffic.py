"""Seeded background-traffic injectors: mice, elephants, bursts, clients.

The paper's experiments run one application on an otherwise idle fabric;
real MPI+threads deployments share NICs, VCIs and links with whatever
else the machine is doing. This module injects that "whatever else" as
*background flows* — streams of :data:`~repro.netsim.message.MessageKind.BACKGROUND`
wire messages issued through the same VCI locks, doorbells, hardware
contexts and fabric links as application traffic, so background load is
visible as real contention (lock wait, injector serialization, link
queueing) rather than as a synthetic latency fudge.

A :class:`TrafficShape` declares the load; :func:`install_traffic` turns
it into simulated sender tasks on a built :class:`~repro.runtime.world.World`.
All randomness (flow endpoints, inter-arrival gaps, heavy-tailed sizes)
comes from ``numpy`` generators seeded by ``(seed, flow_index)``, so the
same ``(shape, seed)`` pair replays the identical packet schedule —
byte-identical state digests — on every run.

Four flow kinds:

- ``mice`` — many small messages with exponential inter-arrival gaps at
  ``rate`` msgs/sec per flow: datacenter chatter.
- ``elephants`` — each flow sends its messages back to back, paced only
  by the NIC injector and the fabric: a bulk transfer.
- ``bursty`` — on/off source: ``burst_on`` seconds of mice-style load,
  then ``burst_off`` seconds of silence, repeating.
- ``requests`` — exponential arrivals with Pareto(``alpha``)-distributed
  sizes, the heavy-tailed mix of a many-client request stream.

Background messages carry no payload and never touch MPI matching: the
receiving library absorbs them in a counting sink handler. On a lossy
world they are sequenced and recovered by the reliable transport like any
other message — background retransmission storms are part of the chaos.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Any, Generator, Optional

import numpy as np

from ..errors import TrafficConfigError
from .message import MessageKind, WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.world import World

__all__ = ["TRAFFIC_KINDS", "TrafficShape", "TrafficSession",
           "install_traffic"]

#: The supported background-flow generators.
TRAFFIC_KINDS = ("mice", "elephants", "bursty", "requests")

#: Background context id (never collides with communicator contexts).
BACKGROUND_CONTEXT = -2


@dataclass(frozen=True)
class TrafficShape:
    """Declarative description of one world's background load.

    Validation is eager: a shape with out-of-range values raises
    :class:`~repro.errors.TrafficConfigError` at construction, so invalid
    scenarios die at spec time rather than mid-campaign.
    """

    #: Flow generator: one of :data:`TRAFFIC_KINDS`.
    kind: str = "mice"
    #: Concurrent background flows (client streams). 0 disables traffic.
    flows: int = 4
    #: Messages each flow sends over its lifetime.
    msgs_per_flow: int = 16
    #: Payload bytes per message (mean size for ``requests``).
    size: int = 256
    #: Target message rate per flow in msgs/sec (``mice``/``bursty``/
    #: ``requests``; ``elephants`` ignore it and send back to back).
    rate: float = 1e6
    #: Simulated time the background load switches on.
    start: float = 0.0
    #: ``bursty``: on-period seconds (messages flow at ``rate``).
    burst_on: float = 20e-6
    #: ``bursty``: off-period seconds (silence).
    burst_off: float = 80e-6
    #: ``requests``: Pareto tail exponent for message sizes (smaller =
    #: heavier tail).
    alpha: float = 1.5
    #: VCIs the flows spread across (flow ``i`` uses VCI ``i % vcis``) —
    #: ``vcis=1`` piles every flow onto VCI 0, maximizing lock contention
    #: with the application.
    vcis: int = 1

    def __post_init__(self):
        if self.kind not in TRAFFIC_KINDS:
            raise TrafficConfigError(
                f"unknown traffic kind {self.kind!r}; choose from "
                f"{TRAFFIC_KINDS}")
        if self.flows < 0:
            raise TrafficConfigError(
                f"flows must be non-negative, got {self.flows!r}")
        if self.msgs_per_flow < 1:
            raise TrafficConfigError(
                f"msgs_per_flow must be >= 1, got {self.msgs_per_flow!r}")
        if self.size < 1:
            raise TrafficConfigError(
                f"size must be >= 1 byte, got {self.size!r}")
        if not self.rate > 0.0:
            raise TrafficConfigError(
                f"rate must be positive, got {self.rate!r}")
        if not 0.0 <= self.start < math.inf:
            raise TrafficConfigError(
                f"start must be finite and non-negative, got {self.start!r}")
        if not (0.0 < self.burst_on < math.inf
                and 0.0 <= self.burst_off < math.inf):
            raise TrafficConfigError(
                f"burst periods must be finite and positive (on) / "
                f"non-negative (off), got on={self.burst_on!r}, "
                f"off={self.burst_off!r}")
        if not self.alpha > 0.0:
            raise TrafficConfigError(
                f"alpha must be positive, got {self.alpha!r}")
        if self.vcis < 1:
            raise TrafficConfigError(
                f"vcis must be >= 1, got {self.vcis!r}")

    def describe(self) -> str:
        """One-line human summary of the shape."""
        return (f"{self.kind} x{self.flows} flows, "
                f"{self.msgs_per_flow} msgs/flow, {self.size}B, "
                f"rate={self.rate:g}/s")

    def with_(self, **kwargs: Any) -> "TrafficShape":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict[str, Any]:
        """Serializable form; round-trips through :meth:`from_dict`."""
        return asdict(self)

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "TrafficShape":
        """Rebuild a shape from its ``to_dict()`` form."""
        known = {f for f in TrafficShape.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise TrafficConfigError(
                f"unknown traffic shape keys: {sorted(unknown)}")
        return TrafficShape(**data)


class TrafficSession:
    """Live state of one world's installed background traffic.

    Holds the per-world counters (captured into snapshot state trees, so
    traffic progress participates in byte-identity checks) and the flow
    table chosen by the seeded planner.
    """

    def __init__(self, world: "World", shape: TrafficShape, seed: int):
        self.world = world
        self.shape = shape
        self.seed = int(seed)
        #: ``(src_rank, dst_rank, vci)`` per flow, fixed at install time.
        self.flow_table: list[tuple[int, int, int]] = []
        self.sent = 0
        self.delivered = 0
        self.bytes_sent = 0

    def on_background(self, msg: WireMessage) -> None:
        """Library sink handler: count and absorb one background arrival."""
        self.delivered += 1

    def summary(self) -> dict[str, int]:
        """Counters for reports and state capture."""
        return {"flows": len(self.flow_table), "sent": self.sent,
                "delivered": self.delivered, "bytes_sent": self.bytes_sent}


def _flow_task(session: TrafficSession, index: int,
               src: int, dst: int, vci_index: int
               ) -> Generator[Any, Any, int]:
    """One background flow: a simulated sender thread on rank ``src``.

    Issues every message through the thread-side VCI path (lock,
    doorbell, hardware context) so the flow contends like an application
    thread; gaps between messages follow the shape's arrival process.
    """
    world = session.world
    shape = session.shape
    lib = world.procs[src].lib
    dst_node = world.procs[dst].node.node_id
    vci = lib.vci_pool.get(vci_index)
    rng = np.random.default_rng((session.seed, index))
    if shape.start > 0.0:
        yield float(shape.start)
    # Desynchronize flow starts so "many clients" do not fire in phase.
    yield float(rng.random() / shape.rate)
    burst_left = shape.burst_on
    for n in range(shape.msgs_per_flow):
        size = shape.size
        if shape.kind == "requests":
            # Pareto(alpha) scaled so the mean stays near `size`.
            draw = float(rng.pareto(shape.alpha)) + 1.0
            size = max(1, int(shape.size * draw / 2.0))
        msg = WireMessage(
            kind=MessageKind.BACKGROUND,
            src_node=lib.node.node_id, dst_node=dst_node,
            src_rank=src, dst_rank=dst,
            context_id=BACKGROUND_CONTEXT, tag=index, size=size,
            payload=None, src_vci=vci_index, dst_vci=vci_index)
        yield from lib.issue_from_thread(vci, msg)
        session.sent += 1
        session.bytes_sent += size
        if n + 1 == shape.msgs_per_flow:
            break
        if shape.kind == "elephants":
            continue  # back to back: the NIC injector is the pacer
        gap = float(rng.exponential(1.0 / shape.rate))
        if shape.kind == "bursty":
            burst_left -= gap
            if burst_left <= 0.0:
                gap += shape.burst_off
                burst_left = shape.burst_on
        if gap > 0.0:
            yield float(gap)
    return shape.msgs_per_flow


def install_traffic(world: "World", shape: Optional[TrafficShape],
                    seed: int = 0) -> list[Any]:
    """Install ``shape``'s background flows on a built world.

    Registers the BACKGROUND sink handler on every rank, plans the flow
    table from ``seed`` (a flow's destination is always a rank on another
    node than its source), spawns one sender task per flow and returns
    the task list — callers include the tasks in their ``run_all`` gather
    so flows (and any retransmission recovery they trigger on a lossy
    fabric) play out fully.

    Returns ``[]`` for ``shape=None``, zero flows, or a single-node world
    (background traffic models *network* load).
    """
    if shape is None or shape.flows == 0 or world.num_nodes < 2:
        return []
    session = TrafficSession(world, shape, seed)
    world.traffic = session
    for proc in world.procs:
        proc.lib.handlers[MessageKind.BACKGROUND] = session.on_background
    rng = np.random.default_rng((session.seed, 0x7AFF1C))
    tasks = []
    for index in range(shape.flows):
        src = int(rng.integers(world.num_procs))
        # One draw over the ranks of the other nodes, in rank order.
        dst = int(rng.integers(world.num_procs - world.procs_per_node))
        if dst >= src - src % world.procs_per_node:
            dst += world.procs_per_node
        vci_index = index % shape.vcis
        session.flow_table.append((src, dst, vci_index))
        task = world.procs[src].spawn(
            _flow_task(session, index, src, dst, vci_index),
            name=f"bg.flow{index}.r{src}->r{dst}")
        tasks.append(task)
    return tasks
