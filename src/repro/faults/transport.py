"""Reliable transport: MPI semantics on top of a lossy fabric.

One :class:`ReliableTransport` sits inside each process's
:class:`~repro.mpi.library.MpiLibrary` when the world runs with fault
injection enabled. It restores the two transport guarantees every MPI
protocol layer in this codebase assumes (per-channel FIFO and exactly-once
delivery) no matter what the fault plan does to individual wire messages:

- **Sequencing** — every inter-node data message is stamped with a
  per-flow sequence number. A *flow* is ``(src_rank, dst_rank, src_vci,
  dst_vci)``: exactly the channel granularity whose ordering MPI's
  matching relies on, and no finer, so cross-channel reordering (the
  parallelism the paper's mechanisms exploit) stays unconstrained.
- **Checksums** — payloads carry a crc32; corrupted deliveries are
  discarded and recovered by retransmission.
- **Duplicate suppression & reordering** — the receiver delivers each
  flow in sequence order exactly once, buffering out-of-order arrivals
  (retransmissions overtaken by newer traffic) until the gap fills.
- **ACK / timeout retransmission** — cumulative per-flow ACKs ride back
  through the normal NIC issue path (and are themselves subject to the
  fault plan); unacknowledged packets are retransmitted with exponential
  backoff until :class:`~repro.errors.TransportError` gives up at
  ``max_retries``.

Retransmissions re-enter the network through the original VCI's hardware
context, so recovery traffic is visible as real contention — a lossy
channel slows down exactly the threads mapped onto it, which is the
per-VCI isolation story of the paper told from the robustness side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..errors import TransportError
from ..netsim.message import MessageKind, WireMessage
from ..sim.trace import TraceCategory
from .injector import payload_checksum

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.library import MpiLibrary

__all__ = ["TransportParams", "ReliableTransport"]

#: Flow key type: (src world rank, dst world rank, src VCI, dst VCI).
Flow = tuple[int, int, int, int]


@dataclass(frozen=True)
class TransportParams:
    """Retransmission tuning knobs (documented in docs/faults.md)."""

    #: Base retransmission timeout, armed from the packet's NIC departure.
    #: Must exceed one round trip (2 x fabric latency + ACK turnaround).
    rto: float = 12e-6
    #: Multiplier applied to the RTO per retry (exponential backoff).
    backoff: float = 2.0
    #: Retransmissions before the transport raises TransportError.
    max_retries: int = 16


@dataclass
class _InFlight:
    """Sender-side state of one unacknowledged packet."""

    msg: WireMessage
    retries: int = 0
    acked: bool = False
    recovery_span: Optional[int] = None


@dataclass
class _RecvFlow:
    """Receiver-side state of one flow."""

    next_seq: int = 0
    #: Out-of-order arrivals parked until the sequence gap fills.
    buffer: dict[int, WireMessage] = field(default_factory=dict)


class ReliableTransport:
    """Per-process reliability layer between the MPI library and fabric."""

    def __init__(self, lib: "MpiLibrary",
                 params: Optional[TransportParams] = None):
        self.lib = lib
        self.params = params or TransportParams()
        self._send_seq: dict[Flow, int] = {}
        self._inflight: dict[Flow, dict[int, _InFlight]] = {}
        self._recv: dict[Flow, _RecvFlow] = {}
        # -- counters (always on; collect_world harvests them as the
        # `transport.total.*` gauges) ------------------------------------
        self.data_sent = 0
        self.retransmits = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.dup_suppressed = 0
        self.corrupt_dropped = 0
        self.ooo_buffered = 0

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def send(self, msg: WireMessage, depart: float) -> None:
        """Stamp, track and transmit one inter-node message.

        Called from the library's transmit path with the message's NIC
        departure time; ACKs pass through untracked (they are idempotent
        and recovered by data-side retransmission instead).
        """
        fabric = self.lib.world.fabric
        if msg.kind is MessageKind.REL_ACK:
            fabric.transmit(msg, depart)
            return
        flow: Flow = (msg.src_rank, msg.dst_rank, msg.src_vci, msg.dst_vci)
        seq = self._send_seq.get(flow, 0)
        self._send_seq[flow] = seq + 1
        msg.rel_flow = flow
        msg.rel_seq = seq
        msg.checksum = payload_checksum(msg.payload)
        rec = _InFlight(msg=msg)
        self._inflight.setdefault(flow, {})[seq] = rec
        self.data_sent += 1
        fabric.transmit(msg, depart)
        self._arm_timer(rec, depart)

    def _arm_timer(self, rec: _InFlight, depart: float) -> None:
        sim = self.lib.sim
        delay = max(0.0, depart - sim.now) \
            + self.params.rto * (self.params.backoff ** rec.retries)
        sim.timeout(delay).add_callback(lambda e: self._on_timeout(rec))

    def _on_timeout(self, rec: _InFlight) -> None:
        if rec.acked:
            return
        msg = rec.msg
        if rec.retries >= self.params.max_retries:
            raise self._exhaustion_error(rec)
        rec.retries += 1
        self.retransmits += 1
        lib = self.lib
        tracer = lib.tracer
        if tracer is not None:
            if rec.recovery_span is None:
                rec.recovery_span = tracer.span_id()
                tracer.emit(TraceCategory.RECOVERY_BEGIN, {
                    "rank": lib.rank, "flow": msg.rel_flow,
                    "rel_seq": msg.rel_seq, "span": rec.recovery_span,
                })
            tracer.emit(TraceCategory.RETRANSMIT, {
                "rank": lib.rank, "flow": msg.rel_flow,
                "rel_seq": msg.rel_seq, "retry": rec.retries,
                "span": rec.recovery_span,
            })
        # Re-enter the network through the original VCI's hardware
        # context: recovery traffic contends like any other message.
        vci = lib.vci_pool.get(msg.src_vci)
        depart = vci.hw_context.issue(msg.wire_bytes)
        lib.world.fabric.transmit(msg, depart)
        self._arm_timer(rec, depart)

    def _exhaustion_error(self, rec: _InFlight) -> TransportError:
        """Build the max-retries give-up error with actionable context.

        Names the flow (source rank, destination rank, VCI pair), the
        whole unacked sequence range of that flow at give-up time, and
        the backoff schedule the sender waited out — so a shrunk campaign
        repro points at the exact channel that died, not just one packet.
        """
        msg = rec.msg
        flow = msg.rel_flow
        src, dst, src_vci, dst_vci = flow
        pending = sorted(self._inflight.get(flow, ()))
        if pending:
            seq_range = (f"seq {pending[0]}..{pending[-1]} "
                         f"({len(pending)} unacked)")
        else:  # pragma: no cover - give-up implies at least rec pending
            seq_range = f"seq {msg.rel_seq} (1 unacked)"
        params = self.params
        schedule = [params.rto * params.backoff ** i
                    for i in range(rec.retries + 1)]
        waited = sum(schedule)
        sched_text = ", ".join(f"{t * 1e6:.1f}us" for t in schedule[:8])
        if len(schedule) > 8:
            sched_text += f", ... ({len(schedule)} timeouts)"
        return TransportError(
            f"flow rank {src}->{dst} (vci {src_vci}->{dst_vci}) lost "
            f"seq {msg.rel_seq} ({msg.kind.value}) after {rec.retries} "
            f"retransmissions; {seq_range}; backoff schedule waited: "
            f"[{sched_text}] = {waited * 1e6:.1f}us total — the fault "
            f"plan exceeds the transport's recovery budget "
            f"(max_retries={params.max_retries}, rto={params.rto:g}s, "
            f"backoff={params.backoff:g}x)",
            flow=flow, seq=msg.rel_seq, retries=rec.retries,
            pending_seqs=pending, backoff_schedule=schedule)

    def _on_ack(self, ack: WireMessage) -> None:
        flow: Flow = ack.meta["flow"]
        upto: int = ack.meta["ack"]
        self.acks_received += 1
        pending = self._inflight.get(flow)
        if not pending:
            return
        tracer = self.lib.tracer
        for seq in [s for s in pending if s <= upto]:
            rec = pending.pop(seq)
            rec.acked = True
            if tracer is not None and rec.recovery_span is not None:
                tracer.emit(TraceCategory.RECOVERY_END, {
                    "rank": self.lib.rank, "flow": flow, "rel_seq": seq,
                    "span": rec.recovery_span,
                })

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def intercept(self, msg: WireMessage) -> bool:
        """Filter one arriving message; True when the transport consumed
        it. In-order data is handed to the library's dispatcher exactly
        once; everything else (ACKs, duplicates, corrupt or out-of-order
        arrivals) is absorbed here."""
        if msg.kind is MessageKind.REL_ACK:
            self._on_ack(msg)
            return True
        if msg.rel_seq is None:
            return False  # intra-node / lossless path: not transport-framed
        lib = self.lib
        tracer = lib.tracer
        if payload_checksum(msg.payload) != msg.checksum:
            # Corrupted in flight: discard silently; no ACK means the
            # sender's timer recovers it with a clean copy.
            self.corrupt_dropped += 1
            if tracer is not None:
                tracer.emit(TraceCategory.CORRUPT_DROP, {
                    "rank": lib.rank, "flow": msg.rel_flow,
                    "rel_seq": msg.rel_seq, "kind": msg.kind.value,
                })
            return True
        flow = msg.rel_flow
        state = self._recv.get(flow)
        if state is None:
            state = self._recv[flow] = _RecvFlow()
        seq = msg.rel_seq
        if seq < state.next_seq or seq in state.buffer:
            # Duplicate (injected, or a retransmission racing its ACK):
            # suppress, but re-ACK so the sender clears its state.
            self.dup_suppressed += 1
            if tracer is not None:
                tracer.emit(TraceCategory.DUP_SUPPRESSED, {
                    "rank": lib.rank, "flow": flow, "rel_seq": seq,
                })
            self._send_ack(flow, msg)
            return True
        if seq > state.next_seq:
            # A gap: an earlier packet of this flow is missing (dropped or
            # overtaken by its own retransmission). Park this one — FIFO
            # delivery resumes when the gap fills.
            state.buffer[seq] = msg
            self.ooo_buffered += 1
            self._send_ack(flow, msg)
            return True
        # In order: deliver, then drain whatever the gap was holding back.
        state.next_seq = seq + 1
        lib._dispatch(msg)
        while state.next_seq in state.buffer:
            queued = state.buffer.pop(state.next_seq)
            state.next_seq += 1
            lib._dispatch(queued)
        self._send_ack(flow, msg)
        return True

    def _send_ack(self, flow: Flow, data_msg: WireMessage) -> None:
        """Cumulative ACK for ``flow`` back to its sender, issued through
        the VCI the data arrived on (ACK traffic is real traffic)."""
        lib = self.lib
        state = self._recv.get(flow)
        ack = WireMessage(
            kind=MessageKind.REL_ACK,
            src_node=lib.node.node_id, dst_node=data_msg.src_node,
            src_rank=lib.rank, dst_rank=data_msg.src_rank,
            context_id=-1, tag=-1, size=0, payload=None,
            src_vci=data_msg.dst_vci, dst_vci=data_msg.src_vci,
            meta={"flow": flow,
                  "ack": (state.next_seq - 1) if state is not None else -1},
        )
        self.acks_sent += 1
        lib.issue_async(lib.vci_pool.get(data_msg.dst_vci), ack)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def unacked(self) -> int:
        """Packets still awaiting acknowledgement."""
        return sum(len(d) for d in self._inflight.values())

    def pending_description(self) -> list[str]:
        """Human-readable unacked packets (deadlock diagnostics)."""
        lines = []
        for flow in sorted(self._inflight):
            pending = self._inflight[flow]
            if pending:
                seqs = sorted(pending)
                lines.append(
                    f"flow {flow}: {len(seqs)} unacked "
                    f"(seq {seqs[0]}..{seqs[-1]}, "
                    f"retries={max(p.retries for p in pending.values())})")
        return lines

    def summary(self) -> dict[str, int]:
        return {
            "data_sent": self.data_sent, "retransmits": self.retransmits,
            "acks_sent": self.acks_sent,
            "acks_received": self.acks_received,
            "dup_suppressed": self.dup_suppressed,
            "corrupt_dropped": self.corrupt_dropped,
            "ooo_buffered": self.ooo_buffered,
        }
