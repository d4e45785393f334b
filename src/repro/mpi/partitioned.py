"""MPI 4.0 partitioned communication (Psend_init / Precv_init / Pready /
Parrived), Section II-C of the paper.

Semantics modelled faithfully:

- the operation is **persistent**: ``psend_init``/``precv_init`` are local;
  the first ``start`` performs a one-time matching handshake (PART_INIT /
  PART_INIT_ACK) after which partitions flow without any matching — the
  O(1) matching cost that motivated the interface;
- partitions may be driven by different threads, and may map to distinct
  VCIs (``mpich_part_num_vcis`` hint), so they can exploit network
  parallelism;
- BUT all threads share the *single* MPI request: every ``pready`` updates
  shared completion state under the request's lock. This is the
  fundamental contention/synchronization point of Lesson 14 that the other
  two designs do not have;
- partitioned receives cannot use wildcards (Lesson 15): ``precv_init``
  rejects ``ANY_SOURCE``/``ANY_TAG``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

import numpy as np

from ..errors import MpiUsageError
from ..netsim.message import MessageKind, WireMessage
from ..sim.core import Event
from ..sim.sync import Lock
from .datatypes import check_buffer
from .info import Info
from .matching import ANY_SOURCE, ANY_TAG, PostedRecv
from .request import Request

if TYPE_CHECKING:  # pragma: no cover
    from .comm import Communicator
    from .library import MpiLibrary

__all__ = ["PsendRequest", "PrecvRequest", "psend_init", "precv_init"]


def _ensure_handlers(lib: "MpiLibrary") -> None:
    """Install the partitioned protocol handlers on first use."""
    if MessageKind.PART_INIT in lib.handlers:
        return
    lib.part_recv_channels = {}
    lib.part_send_channels = {}
    lib.part_channel_seq = 0
    lib.handlers[MessageKind.PART_INIT] = lambda m: _on_part_init(lib, m)
    lib.handlers[MessageKind.PART_INIT_ACK] = lambda m: _on_part_init_ack(lib, m)
    lib.handlers[MessageKind.PARTITION] = lambda m: _on_partition(lib, m)


def _alloc_channel(lib: "MpiLibrary") -> int:
    """Allocate the next per-library channel id. Channel ids travel in
    wire-message meta, which lands in traces and state digests — so
    they must be deterministic across runs (``id(self)`` is not)."""
    chan = lib.part_channel_seq
    lib.part_channel_seq += 1
    return chan


class _PartitionedOp:
    """State shared by send- and receive-side partitioned operations."""

    def __init__(self, comm: "Communicator", buf: np.ndarray,
                 partitions: int, count: int, peer: int, tag: int,
                 info: Optional[Info]):
        if partitions < 1:
            raise MpiUsageError(f"partitions must be >= 1, got {partitions}")
        if count < 0:
            raise MpiUsageError(f"count must be >= 0, got {count}")
        self.comm = comm
        self.lib = comm.lib
        self.sim = comm.sim
        self.flat = check_buffer(buf, partitions * count)
        self.partitions = partitions
        self.count = count
        self.peer = peer
        self.tag = tag
        #: Number of VCIs that partitions are spread over.
        self.num_vcis = 1
        if info is not None and "mpich_part_num_vcis" in info:
            self.num_vcis = max(1, int(info.get("mpich_part_num_vcis")))
        self.base_vci = comm.vci_map.send_local(comm.rank, 0, tag) \
            if peer != ANY_SOURCE else 0
        #: The shared-request lock: the Lesson 14 contention point.
        self.shared_lock = Lock(self.sim, name="partreq.lock")
        self.active = False
        self.cycle = -1
        self.request: Optional[Request] = None
        #: Deterministic channel id, allocated when the op first touches
        #: the wire (handshake / init post). Never ``id(self)``: channel
        #: ids appear in message meta and hence in state digests.
        self.channel_id: Optional[int] = None

    @property
    def _part_context_id(self) -> int:
        """Partitioned ops match in their own context stream."""
        return self.comm.context_id + 2

    def _vci_index_for_partition(self, i: int) -> int:
        if self.num_vcis <= 1:
            return self.base_vci
        return (self.base_vci + i % self.num_vcis) \
            % self.lib.vci_pool.max_vcis

    def _check_active(self, what: str) -> bool:
        """True iff the operation has an active cycle.

        Without one this is a protocol error: recorded as CHK105 when the
        checker is on (warn mode lets the caller take a safe no-op path),
        otherwise the historical MpiUsageError.
        """
        if self.active:
            return True
        chk = self.sim.checker
        if chk is not None:
            chk.violation(
                "CHK105",
                f"{what} on an inactive partitioned request (call start() "
                f"first)",
                rank=self.lib.rank, tag=self.tag, peer=self.peer)
            return False
        raise MpiUsageError(f"{what} on an inactive partitioned request "
                            "(call start() first)")

    def wait(self) -> Generator[Event, Any, None]:
        """Complete the active cycle (MPI_Wait on the partitioned request).

        After wait() the operation is inactive again and may be
        re-started — persistence in action.
        """
        if not self._check_active("wait"):
            return
        yield from self.request.wait()
        self.active = False


class PsendRequest(_PartitionedOp):
    """Send side of a partitioned operation."""

    def __init__(self, comm, buf, partitions, count, dest, tag, info):
        super().__init__(comm, buf, partitions, count, dest, tag, info)
        self.channel_ready = False
        self.handshake_sent = False
        self.remote_channel: Optional[int] = None
        self._ready: list[bool] = []
        self._departed = 0
        #: Partitions made ready before the handshake completed.
        self._deferred: list[int] = []

    def start(self) -> Generator[Event, Any, None]:
        """Activate the operation for one cycle."""
        if self.active:
            raise MpiUsageError("start on an already-active partitioned send")
        self.active = True
        self.cycle += 1
        self.request = Request(self.sim, "psend")
        self._ready = [False] * self.partitions
        self._departed = 0
        if not self.handshake_sent:
            self.handshake_sent = True
            yield from self._send_handshake()
        else:
            yield self.lib.cpu.send_post

    def _send_handshake(self) -> Generator[Event, Any, None]:
        _ensure_handlers(self.lib)
        lib, comm = self.lib, self.comm
        self.channel_id = _alloc_channel(lib)
        yield lib.cpu.send_post
        vci = lib.vci_pool.get(self.base_vci)
        dst_world = comm.group[self.peer]
        dst_proc = lib.world.proc(dst_world)
        msg = WireMessage(
            kind=MessageKind.PART_INIT,
            src_node=lib.node.node_id, dst_node=dst_proc.node.node_id,
            src_rank=lib.rank, dst_rank=dst_world,
            context_id=self._part_context_id, tag=self.tag, size=0,
            src_vci=vci.index,
            dst_vci=comm.vci_map.send_remote(comm.rank, self.peer, self.tag)
            % lib.vci_pool.max_vcis,
            meta={"src_addr": comm.rank, "dst_addr": self.peer,
                  "channel": self.channel_id, "partitions": self.partitions,
                  "bytes_per_part": self.count * self.flat.dtype.itemsize})
        lib.part_send_channels[self.channel_id] = self
        yield from lib.issue_from_thread(vci, msg)

    def pready(self, i: int) -> Generator[Event, Any, None]:
        """Mark partition ``i`` ready (MPI_Pready) — callable from any
        thread. Contends on the shared request lock."""
        if not self._check_active("pready"):
            return
        if not 0 <= i < self.partitions:
            raise MpiUsageError(f"partition {i} out of range")
        lib = self.lib
        yield lib.cpu.pready
        # --- shared-request critical section (Lesson 14) ---
        was_contended = self.shared_lock.locked
        yield from self.shared_lock.acquire()
        cost = lib.cpu.lock_acquire \
            + (lib.cpu.lock_handoff if was_contended else 0.0)
        yield cost
        if self._ready[i]:
            self.shared_lock.release()
            chk = self.sim.checker
            if chk is not None:
                # Warn mode: the duplicate pready becomes a no-op (the
                # partition is already on its way).
                chk.violation(
                    "CHK106",
                    f"partition {i} marked ready twice in cycle "
                    f"{self.cycle}",
                    rank=self.lib.rank, part=i, tag=self.tag)
                return
            raise MpiUsageError(f"partition {i} marked ready twice")
        self._ready[i] = True
        deferred = not self.channel_ready
        if deferred:
            self._deferred.append(i)
        self.shared_lock.release()
        # --- issue outside the request lock: partitions are independent
        #     on the wire ---
        if not deferred:
            yield from self._issue_partition_from_thread(i)

    def _partition_msg(self, i: int, vci_index: int) -> WireMessage:
        comm, lib = self.comm, self.lib
        lo = i * self.count
        payload = self.flat[lo:lo + self.count].copy()
        dst_world = comm.group[self.peer]
        dst_proc = lib.world.proc(dst_world)
        return WireMessage(
            kind=MessageKind.PARTITION,
            src_node=lib.node.node_id, dst_node=dst_proc.node.node_id,
            src_rank=lib.rank, dst_rank=dst_world,
            context_id=self._part_context_id, tag=self.tag,
            size=payload.nbytes, payload=payload,
            src_vci=vci_index, dst_vci=0,
            meta={"src_addr": comm.rank, "dst_addr": self.peer,
                  "channel": self.remote_channel, "part": i,
                  "cycle": self.cycle})

    def _issue_partition_from_thread(self, i: int) -> Generator:
        vci = self.lib.vci_pool.get(self._vci_index_for_partition(i))
        msg = self._partition_msg(i, vci.index)
        depart = yield from self.lib.issue_from_thread(vci, msg)
        self._track_departure(depart)

    def _issue_partition_async(self, i: int) -> None:
        vci = self.lib.vci_pool.get(self._vci_index_for_partition(i))
        msg = self._partition_msg(i, vci.index)
        depart = self.lib.issue_async(vci, msg)
        self._track_departure(depart)

    def _track_departure(self, depart: float) -> None:
        sim = self.sim
        sim.call_after(max(0.0, depart - sim._now), self._on_departed)

    def _on_departed(self, _event: Event) -> None:
        self._departed += 1
        if self._departed == self.partitions:
            self.request.complete(source=self.peer, tag=self.tag,
                                  count=self.partitions * self.count)

    def _on_channel_ready(self, remote_channel: int) -> None:
        self.channel_ready = True
        self.remote_channel = remote_channel
        # Partitions readied before the handshake leave now, in pready
        # order. At most once per persistent request, and a handful of
        # messages when it happens (docs/performance.md, PR 19).
        deferred, self._deferred = self._deferred, []
        for i in deferred:
            self._issue_partition_async(i)


class PrecvRequest(_PartitionedOp):
    """Receive side of a partitioned operation."""

    def __init__(self, comm, buf, partitions, count, source, tag, info):
        if source in (ANY_SOURCE,):
            raise MpiUsageError(
                "partitioned receives cannot use ANY_SOURCE (Lesson 15: "
                "partitioned ops are persistent and wildcard-free)")
        if tag == ANY_TAG:
            raise MpiUsageError(
                "partitioned receives cannot use ANY_TAG (Lesson 15)")
        super().__init__(comm, buf, partitions, count, source, tag, info)
        self.posted = False
        self._arrived: list[bool] = []
        self._arrived_count = 0
        #: Partitions that arrived ahead of their cycle's start.
        self._buffered: dict[tuple[int, int], WireMessage] = {}

    def start(self) -> Generator[Event, Any, None]:
        """Begin a new reception cycle; reposts partition receives."""
        if self.active:
            raise MpiUsageError("start on an already-active partitioned recv")
        self.active = True
        self.cycle += 1
        self.request = Request(self.sim, "precv")
        self._arrived = [False] * self.partitions
        self._arrived_count = 0
        if not self.posted:
            self.posted = True
            yield from self._post_init()
        else:
            yield self.lib.cpu.recv_post
        # Drain partitions that raced ahead of this start.
        for key in sorted(k for k in self._buffered if k[0] == self.cycle):
            self._accept_partition(self._buffered.pop(key))

    def _post_init(self) -> Generator[Event, Any, None]:
        """Post the one-time matching entry for the PART_INIT handshake."""
        _ensure_handlers(self.lib)
        lib, comm = self.lib, self.comm
        self.channel_id = _alloc_channel(lib)
        lib.part_recv_channels[self.channel_id] = self
        yield lib.cpu.recv_post
        vci = lib.vci_pool.get(
            comm.vci_map.recv_vci(comm.rank, self.peer, self.tag))
        yield from vci.lock.acquire()
        yield lib.cpu.lock_acquire + lib.cpu.match_base
        marker = Request(self.sim, "precv-init")
        marker.user_data = self
        entry = PostedRecv(req=marker, buf=self.flat, count=0,
                           context_id=self._part_context_id,
                           source=self.peer, tag=self.tag,
                           dst_addr=comm.rank)
        msg, _ = vci.engine.post_recv(entry)
        vci.lock.release()
        if msg is not None:  # the PART_INIT was already here (unexpected)
            _establish_recv_channel(lib, self, msg)

    def parrived(self, i: int) -> Generator[Event, Any, bool]:
        """Check arrival of partition ``i`` (MPI_Parrived): a lightweight
        flag read, no lock."""
        if not self._check_active("parrived"):
            return False
        if not 0 <= i < self.partitions:
            raise MpiUsageError(f"partition {i} out of range")
        yield self.lib.cpu.parrived
        return self._arrived[i]

    def _accept_partition(self, msg: WireMessage) -> None:
        i = msg.meta["part"]
        if msg.meta["cycle"] != self.cycle or not self.active:
            self._buffered[(msg.meta["cycle"], i)] = msg
            return
        lo = i * self.count
        n = len(msg.payload)
        self.flat[lo:lo + n] = msg.payload
        if not self._arrived[i]:
            self._arrived[i] = True
            self._arrived_count += 1
            if self._arrived_count == self.partitions:
                self.request.complete(source=self.peer, tag=self.tag,
                                      count=self.partitions * self.count)


# ----------------------------------------------------------------------
# protocol handlers
# ----------------------------------------------------------------------

def _on_part_init(lib: "MpiLibrary", msg: WireMessage) -> None:
    """PART_INIT arrival: matched through the normal engine, once."""
    vci = lib.vci_pool.get(msg.dst_vci)
    service = (lib.cpu.match_base
               + lib.cpu.match_per_element * vci.engine.posted_depth)
    done = vci.match_server.submit(service)

    def _match(_e):
        entry, _ = vci.engine.incoming(msg)
        if entry is not None:
            _establish_recv_channel(lib, entry.req.user_data, msg)

    done.add_callback(_match)


def _establish_recv_channel(lib: "MpiLibrary", preq: PrecvRequest,
                            init_msg: WireMessage) -> None:
    """Receiver side: bind the channel and ACK the sender."""
    sender_channel = init_msg.meta["channel"]
    comm = preq.comm
    vci = lib.vci_pool.get(
        comm.vci_map.recv_vci(comm.rank, preq.peer, preq.tag))
    ack = WireMessage(
        kind=MessageKind.PART_INIT_ACK,
        src_node=lib.node.node_id, dst_node=init_msg.src_node,
        src_rank=lib.rank, dst_rank=init_msg.src_rank,
        context_id=init_msg.context_id, tag=init_msg.tag, size=0,
        src_vci=vci.index, dst_vci=init_msg.src_vci,
        meta={"channel": sender_channel, "recv_channel": preq.channel_id})
    lib.issue_async(vci, ack)


def _on_part_init_ack(lib: "MpiLibrary", msg: WireMessage) -> None:
    psend: PsendRequest = lib.part_send_channels[msg.meta["channel"]]
    psend._on_channel_ready(msg.meta["recv_channel"])


def _on_partition(lib: "MpiLibrary", msg: WireMessage) -> None:
    """PARTITION arrival: direct channel delivery — no matching (O(1))."""
    preq: PrecvRequest = lib.part_recv_channels[msg.meta["channel"]]
    preq._accept_partition(msg)


# ----------------------------------------------------------------------
# public constructors (start and wait them with repro.mpi.request's
# startall / waitall)
# ----------------------------------------------------------------------

def psend_init(comm: "Communicator", buf: np.ndarray, partitions: int,
               count: int, dest: int, tag: int,
               info: Optional[Info] = None) -> PsendRequest:
    """``MPI_Psend_init``: define a persistent partitioned send (local)."""
    comm._check_alive()
    comm._check_peer(dest, wildcard_ok=False)
    comm._check_tag(tag, wildcard_ok=False)
    return PsendRequest(comm, buf, partitions, count, dest, tag, info)


def precv_init(comm: "Communicator", buf: np.ndarray, partitions: int,
               count: int, source: int, tag: int,
               info: Optional[Info] = None) -> PrecvRequest:
    """``MPI_Precv_init``: define a persistent partitioned receive (local)."""
    comm._check_alive()
    return PrecvRequest(comm, buf, partitions, count, source, tag, info)
