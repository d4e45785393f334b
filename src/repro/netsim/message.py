"""Wire message records exchanged through the simulated fabric."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["MessageKind", "WireMessage"]


class MessageKind(enum.Enum):
    """Protocol-level message types."""

    EAGER = "eager"               # pt2pt payload inlined
    RNDV_RTS = "rndv_rts"         # rendezvous request-to-send (header only)
    RNDV_CTS = "rndv_cts"         # rendezvous clear-to-send
    RNDV_DATA = "rndv_data"       # rendezvous bulk payload
    PARTITION = "partition"       # one partition of a partitioned op
    PART_INIT = "part_init"       # partitioned-op handshake (matched once)
    PART_INIT_ACK = "part_init_ack"
    RMA_PUT = "rma_put"
    RMA_GET_REQ = "rma_get_req"
    RMA_GET_RESP = "rma_get_resp"
    RMA_ACC = "rma_acc"
    RMA_ACK = "rma_ack"           # remote completion acknowledgement
    CTRL = "ctrl"                 # generic control (collectives internals)
    REL_ACK = "rel_ack"           # reliable-transport cumulative ACK
    BACKGROUND = "background"     # injected background-traffic flow unit

    # Members are singletons compared by identity; ``Enum.__hash__`` is a
    # Python-level function, and the library's handler table hashes a
    # kind once per delivered message.
    __hash__ = object.__hash__


#: Header bytes added to every wire message (envelope: context id, rank,
#: tag, seq). Affects bandwidth only for large counts of tiny messages.
HEADER_BYTES = 48


@dataclass(slots=True)
class WireMessage:
    """One message on the wire.

    ``payload`` carries the actual data so that correctness — not just
    timing — is simulated; tests assert on received values. It is a copy
    of the sender's buffer and of its type: a numpy array on every path,
    a ``bytearray`` on the point-to-point path only (the buffer contract
    of :mod:`repro.mpi.datatypes`), or a Python object for control
    messages.
    """

    kind: MessageKind
    src_node: int
    dst_node: int
    src_rank: int            # global MPI rank of sender process
    dst_rank: int            # global MPI rank of destination process
    context_id: int          # communicator context id (matching key)
    tag: int
    size: int                # payload bytes (excl. header)
    payload: Any = None
    src_vci: int = 0
    dst_vci: int = 0
    #: Never written (always 0) and read only by
    #: :func:`repro.snap.state.describe_message`: it stays a field because
    #: state format 2 names it.
    stream_seq: int = 0
    #: Free-form protocol fields (rendezvous handles, partition ids, RMA
    #: window/offset, collective phase, ...).
    meta: dict = field(default_factory=dict)
    #: Reliable-transport envelope (set by :mod:`repro.faults.transport`
    #: when a world runs with reliability enabled; None on a lossless
    #: fabric). ``rel_flow`` identifies the FIFO stream the message
    #: belongs to, ``rel_seq`` its position within it, and ``checksum``
    #: covers the payload so corrupted deliveries are detectable.
    rel_flow: Optional[tuple] = None
    rel_seq: Optional[int] = None
    checksum: int = 0

    @property
    def wire_bytes(self) -> int:
        return self.size + HEADER_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<WireMessage {self.kind.value} {self.src_rank}->{self.dst_rank} "
                f"ctx={self.context_id} tag={self.tag} size={self.size}>")
