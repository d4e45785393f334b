"""The per-process MPI library instance.

One :class:`MpiLibrary` exists per simulated MPI process. It owns the
process's VCI pool, routes arriving wire messages to protocol handlers
(point-to-point eager/rendezvous, partitioned, RMA), and provides the
serialized *issue path* that models how a thread pushes a message through a
VCI onto a NIC hardware context.

Timing model of the issue path (per message, charged to the calling
thread/task):

1. software posting cost — outside any lock (``cpu.send_post`` etc. is
   charged by the caller);
2. VCI lock acquire — FIFO contention with other threads on the same VCI
   (+``cpu.lock_acquire``, +``cpu.lock_handoff`` when contended);
3. doorbell critical section on the hardware context — serialized among
   the VCIs sharing that context (+``nic.doorbell``; when the context is
   shared, +``nic.shared_post_penalty``, the Lesson 3 penalty);
4. injection — the hardware context's FIFO injector enforces the
   per-message gap; the fabric then applies node egress/ingress limits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..errors import MpiUsageError, TruncationError
from ..netsim.config import NetworkConfig
from ..netsim.message import HEADER_BYTES, MessageKind, WireMessage
from ..sim.core import Event, Simulator
from ..sim.trace import TraceCategory, Tracer
from .matching import MatchingEngine, PostedRecv
from .request import Request, Status
from .vci import Vci, VciPool

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.world import World
    from .coll.endpoint_coll import _NodePhase
    from .comm import Communicator
    from .rma.window import Window

__all__ = ["MpiLibrary"]


class MpiLibrary:
    """MPI library state of one simulated process."""

    #: RMA state, created with the RMA handlers on the first ``win_create``
    #: (:mod:`repro.mpi.rma.window`): window handles by ``(win_id, window
    #: rank)`` and the fetches awaiting a reply by request id.
    rma_windows: dict[tuple[int, int], Window]
    rma_get_pending: dict[int, tuple[Request, Window]]

    def __init__(self, sim: Simulator, world: "World", rank: int,
                 node, cfg: NetworkConfig, max_vcis: int):
        self.sim = sim
        self.world = world
        self.rank = rank
        self.node = node
        self.cfg = cfg
        self.cpu = cfg.cpu
        #: The run's tracer (``World(tracer=...)`` installs it on the
        #: simulator), or None.
        self.tracer: Optional[Tracer] = sim.tracer
        self.vci_pool = VciPool(sim, node.nic, cfg.cpu, max_vcis=max_vcis,
                                rank=rank)
        #: Rendezvous sends awaiting CTS, by send-request id.
        self._rndv_sends: dict[int, dict] = {}
        #: Rendezvous receives awaiting DATA, by send-request id.
        self._rndv_recvs: dict[int, PostedRecv] = {}
        #: Protocol handlers installed by subsystems (partitioned, RMA).
        self.handlers: dict[MessageKind, Callable[[WireMessage], None]] = {
            MessageKind.EAGER: self._on_pt2pt_arrival,
            MessageKind.RNDV_RTS: self._on_pt2pt_arrival,
            MessageKind.RNDV_CTS: self._on_rndv_cts,
            MessageKind.RNDV_DATA: self._on_rndv_data,
        }
        #: Next VCI index to hand to a newly created endpoint.
        self._next_ep_vci = 0
        #: What this process's endpoints share in an endpoint allreduce,
        #: by the endpoints communicator's context id.
        self.node_phases: dict[int, _NodePhase] = {}
        #: Optional :class:`repro.faults.ReliableTransport`. When set (the
        #: World does this for fault-injected runs), every inter-node
        #: message is sequenced/checksummed on send and filtered through
        #: the transport on arrival; when None, messages go straight to
        #: the fabric and handlers — the lossless fast path.
        self.transport = None
        # -- counters --------------------------------------------------
        self.sends_posted = 0
        self.recvs_posted = 0
        self.recvs_completed = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # issue paths
    # ------------------------------------------------------------------
    def _trace_payload(self, vci: Vci, msg: WireMessage,
                       span: Optional[int] = None) -> dict:
        task = self.sim.active_process
        payload = {
            "rank": self.rank, "vci": vci.index, "tag": msg.tag,
            "kind": msg.kind.value, "bytes": msg.wire_bytes,
            "task": task.name if task is not None else f"rank{self.rank}",
        }
        if span is not None:
            payload["span"] = span
        return payload

    def issue_from_thread(self, vci: Vci, msg: WireMessage
                          ) -> Generator[Event, Any, float]:
        """Serialized thread-side message issue; returns the departure time
        (absolute simulated seconds) of the message from its NIC context.

        Stage accounting (per message, recorded when the world has metrics):
        ``lock_wait`` = time queued on the VCI lock, ``doorbell_wait`` =
        time queued on the hardware context's doorbell lock, ``sw_cost`` =
        the software critical section (lock acquire + doorbell ring +
        shared-context penalty), ``inject_delay`` = serialization behind
        earlier messages in the context's injector.
        """
        cpu, nicp = self.cpu, self.node.nic.params
        sim = self.sim
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.span_id()
            tracer.emit(TraceCategory.ISSUE_BEGIN,
                        self._trace_payload(vci, msg, span))
        t_post = sim._now
        lock = vci.lock
        was_contended = lock.locked
        if was_contended:
            yield from lock.acquire()
        else:
            lock.try_acquire()
        t_lock = sim._now
        cost = cpu.lock_acquire + (cpu.lock_handoff if was_contended else 0.0)
        ctx = vci.hw_context
        db_lock = ctx.doorbell_lock
        db_contended = db_lock.locked
        if db_contended:
            yield from db_lock.acquire()
        else:
            db_lock.try_acquire()
        t_doorbell = sim._now
        cost += nicp.doorbell
        shared = ctx.sharers > 1
        if shared:
            cost += nicp.shared_post_penalty
        if db_contended:
            cost += cpu.lock_handoff
        yield cost
        depart = ctx.issue(msg.size + HEADER_BYTES)
        vci.sends += 1
        self._transmit(msg, depart)
        db_lock.release()
        lock.release()
        self.sends_posted += 1
        self.bytes_sent += msg.size
        if vci.m_issue is not None:
            vci.m_issue.inc()
            vci.m_lock_wait.observe(t_lock - t_post)
            vci.m_db_wait.observe(t_doorbell - t_lock)
            vci.m_sw_cost.observe(cost)
            vci.m_inject_delay.observe(max(0.0, depart - sim._now))
            if shared:
                vci.m_shared_post.inc()
        if tracer is not None:
            tracer.emit(TraceCategory.ISSUE_END, {
                "rank": self.rank, "vci": vci.index, "span": span,
                "depart": depart, "shared_ctx": shared,
            })
        return depart

    def issue_async(self, vci: Vci, msg: WireMessage) -> float:
        """Library-internal issue from a callback context (protocol
        responses: CTS, acks, rendezvous data). Models asynchronous
        progress: charged to the NIC, not to any thread."""
        depart = vci.hw_context.issue(msg.wire_bytes)
        vci.sends += 1
        self._transmit(msg, depart)
        if vci.m_issue_async is not None:
            vci.m_issue_async.inc()
        if self.tracer is not None:
            self.tracer.emit(TraceCategory.ISSUE_ASYNC,
                             self._trace_payload(vci, msg))
        return depart

    def issue_async_batch(self, vci: Vci, msgs: list[WireMessage]
                          ) -> list[float]:
        """:meth:`issue_async` once per item. No caller under ``src/``: the
        frozen ``benchmarks/stack/layers.py`` resolves this name; it goes
        with the benchmark thaw (ROADMAP item 1)."""
        return [self.issue_async(vci, msg) for msg in msgs]

    def _transmit(self, msg: WireMessage, depart: float) -> None:
        if msg.dst_node == self.node.node_id:
            # Intra-node transport bypasses the fabric: shared-memory copy.
            sim = self.sim
            delay = max(0.0, depart - sim._now) \
                + self.cpu.shm_copy_base + msg.size / self.cpu.shm_bandwidth
            # The message is the event's value and the world a default:
            # no closure cells, and the name a capture records.
            sim.call_after(delay, lambda e, world=self.world: world.proc(
                e._value.dst_rank).lib.deliver(e._value), msg)
        elif self.transport is not None:
            # Reliable transport: sequence + checksum the message, track
            # it for ACK/retransmission, then hand it to the fabric.
            self.transport.send(msg, depart)
        else:
            self.world.fabric.transmit(msg, depart)

    # ------------------------------------------------------------------
    # delivery / protocol handlers
    # ------------------------------------------------------------------
    def deliver(self, msg: WireMessage) -> None:
        """Entry point for every wire message addressed to this process."""
        if self.transport is not None and self.transport.intercept(msg):
            return  # consumed: ACK, duplicate, corrupt, or buffered
        # :meth:`_dispatch` written out (once per message).
        handler = self.handlers.get(msg.kind)
        if handler is None:
            raise MpiUsageError(f"no handler for message kind {msg.kind}")
        handler(msg)

    def _dispatch(self, msg: WireMessage) -> None:
        """Route one (transport-cleared) message to its protocol handler."""
        handler = self.handlers.get(msg.kind)
        if handler is None:
            raise MpiUsageError(f"no handler for message kind {msg.kind}")
        handler(msg)

    def _on_pt2pt_arrival(self, msg: WireMessage) -> None:
        """EAGER or RNDV_RTS arrival: serialized matching on the dst VCI.

        Matching work is scan-until-match over the posted queue; a miss
        scans the whole queue (and parks the message as unexpected).
        """
        vci = self.vci_pool.get(msg.dst_vci)
        cpu = self.cpu
        hint, scanned = vci.engine.lookup_posted(msg)
        service = cpu.match_base + cpu.match_per_element * scanned
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.span_id()
            payload = self._trace_payload(vci, msg, span)
            payload["task"] = f"vci{vci.index}.match"
            tracer.emit(TraceCategory.MATCH_BEGIN, payload)
        # A function, not a value on the event: a capture describes a
        # pending event's value and names its callback. Its arguments
        # are defaults, one tuple where closure cells would be five.
        vci.match_server.submit(
            service, lambda e, self=self, vci=vci, msg=msg, span=span,
            hint=hint: self._match_incoming(vci, msg, span, hint))

    def _match_incoming(self, vci: Vci, msg: WireMessage,
                        span: Optional[int], hint: PostedRecv | int
                        ) -> None:
        entry, scanned = vci.engine.incoming(msg, hint)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(TraceCategory.MATCH_END, {
                "rank": self.rank, "vci": vci.index, "span": span,
                "scanned": scanned, "matched": entry is not None,
            })
            if entry is None:
                tracer.emit(TraceCategory.MATCH_UNEXPECTED, {
                    "rank": self.rank, "vci": vci.index, "tag": msg.tag,
                    "task": f"vci{vci.index}.match",
                })
        if entry is None:
            return  # parked in the unexpected queue
        if msg.kind is MessageKind.EAGER:
            self._complete_recv(vci, entry, msg, _inline=True)
        else:  # RNDV_RTS matched by a pre-posted receive
            self._send_cts(vci, entry, msg)

    def _complete_recv(self, vci: Vci, entry: PostedRecv, msg: WireMessage,
                       *, _inline: bool = False) -> None:
        """Copy an eager/rendezvous-data payload and complete the recv
        posted on ``vci`` (the channel ``msg`` arrived on).

        ``_inline=True`` dispatches the request's completion synchronously
        (see :meth:`Request._complete_inline`); callers must be the last
        action of the current event dispatch. The rendezvous-DATA arrival
        path must NOT use it: the reliable transport can flush several
        buffered arrivals back-to-back in one dispatch, and inlining would
        resume the first waiter before the later messages are delivered.
        """
        payload = msg.payload
        meta = msg.meta
        checker = self.sim.checker
        if checker is not None:
            hb = meta.get("_hb")
            if hb is not None:
                # The sender's clock rode in the meta; the receive's
                # completion inherits the send's happens-before edges.
                checker.on_msg_join(entry.req, hb)
        buf = entry.buf
        byte_buf = type(buf) is bytearray
        recv_bytes = entry.count if byte_buf \
            else entry.count * buf.dtype.itemsize
        if msg.size > recv_bytes:
            entry.req.complete_with_error(TruncationError(
                f"message of {msg.size} bytes truncates receive buffer of "
                f"{recv_bytes} bytes (tag={msg.tag})"))
            return
        if payload is None:
            count = 0
        elif byte_buf:
            # Byte for byte, whatever the sender's buffer: ``msg.size``
            # bytes replace as many (a length mismatch would resize the
            # buffer), and an array payload is read as its raw bytes.
            count = msg.size
            buf[:count] = payload if type(payload) is bytearray \
                else memoryview(payload).cast("B")
        else:
            count = len(payload)
            buf[:count] = payload
        vci.recvs += 1
        self.recvs_completed += 1
        source = meta.get("src_addr", msg.src_rank)
        if _inline:
            entry.req._complete_inline(source, msg.tag, count)
        else:
            entry.req.complete(source=source, tag=msg.tag, count=count)

    # -- rendezvous ------------------------------------------------------
    def _send_cts(self, vci: Vci, entry: PostedRecv, rts: WireMessage) -> None:
        """Receiver side: a RTS met a posted receive — grant the send."""
        rid = rts.meta["rid"]
        self._rndv_recvs[rid] = entry
        cts = WireMessage(
            kind=MessageKind.RNDV_CTS,
            src_node=self.node.node_id, dst_node=rts.src_node,
            src_rank=self.rank, dst_rank=rts.src_rank,
            context_id=rts.context_id, tag=rts.tag, size=0,
            src_vci=rts.dst_vci, dst_vci=rts.src_vci,
            meta={"rid": rid},
        )
        self.issue_async(vci, cts)

    def register_rndv_send(self, rid: int, state: dict) -> None:
        self._rndv_sends[rid] = state

    def _on_rndv_cts(self, msg: WireMessage) -> None:
        """Sender side: CTS arrived — stream the payload."""
        state = self._rndv_sends.pop(msg.meta["rid"])
        vci = self.vci_pool.get(msg.dst_vci)
        meta = {"rid": msg.meta["rid"],
                "src_addr": state["src_addr"],
                "dst_addr": state["dst_addr"]}
        if state.get("hb") is not None:
            meta["_hb"] = state["hb"]
        data = WireMessage(
            kind=MessageKind.RNDV_DATA,
            src_node=self.node.node_id, dst_node=state["dst_node"],
            src_rank=self.rank, dst_rank=state["dst_rank"],
            context_id=state["context_id"], tag=state["tag"],
            size=state["size"], payload=state["payload"],
            src_vci=vci.index, dst_vci=state["dst_vci"],
            meta=meta,
        )
        depart = self.issue_async(vci, data)
        # The send request completes locally once the payload has left.
        self.complete_at(state["req"], depart, source=state["dst_addr"],
                         tag=state["tag"], count=state["count"])

    def _on_rndv_data(self, msg: WireMessage) -> None:
        """Receiver side: rendezvous payload arrived — no matching needed."""
        entry = self._rndv_recvs.pop(msg.meta["rid"])
        self._complete_recv(self.vci_pool.get(msg.dst_vci), entry, msg)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def alloc_endpoint_vci(self) -> int:
        """Hand out the next VCI index for a new endpoint (round-robin
        through the pool, like MPICH's endpoint-to-VCI assignment)."""
        idx = self._next_ep_vci % self.vci_pool.max_vcis
        self._next_ep_vci += 1
        return idx

    def progress(self) -> Generator[Event, Any, None]:
        """Charge one progress-engine poll to the calling thread."""
        yield self.cpu.progress_poll

    def complete_at(self, req: Request, when: float, *, source: int,
                    tag: int, count: int) -> None:
        """Complete ``req`` at absolute time ``when`` (>= now).

        Schedules the request's ``_done`` event itself at ``when`` instead
        of an intermediate shell event whose callback triggers ``_done``
        as a second (urgent, same-time) heap entry. Nothing can interpose
        between a shell and the urgent completion it enqueues, so merging
        the two preserves the processing order of every other event — only
        the host-side event count changes, never simulated timings. The
        request is finalized (``_completed`` set) by the first callback,
        before any waiter resumes. With no waiter yet, the scheduled
        callback *is* the request's ``_done``; a waiter's pending one is
        scheduled in its place.
        """
        done = req._done
        if req._completed or (done is not None and done._triggered):
            raise MpiUsageError(f"request {req.rid} completed twice")
        req._status = status = Status(source, tag, count)
        sim = self.sim
        if sim.checker is not None:
            # The completion is scheduled, not immediate, but the
            # happens-before contribution is the scheduling task's clock
            # (a local send completion), so record it here.
            sim.checker.on_request_complete(req)
        delay = when - sim._now
        if not delay > 0.0:
            delay = 0.0
        if done is None:
            req._done = sim.call_after(delay, req._finalize, status)
            return
        done._triggered = True
        done._value = status
        done.callbacks.insert(0, req._finalize)
        sim._schedule(done, delay)
