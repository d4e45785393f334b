"""The worker protocol: length-prefixed JSON frames over a byte stream.

How the orchestrator hands points to its workers — children it forked
itself (``repro serve``, :func:`repro.serve.run_local`), each on one end
of a ``socket.socketpair()`` made at fork time. A frame is::

    [4-byte big-endian payload length][canonical JSON object]

Frames are small, self-describing objects with a ``type`` field:

============= =========================================================
``job``        orchestrator → worker: one point to execute
``result``     worker → orchestrator: the point's JSON result or error
``heartbeat``  worker → orchestrator: liveness while a point runs
============= =========================================================

There is no stop frame: the orchestrator stops a worker by closing its
end, and a worker leaves on the EOF it then reads. Either side reading
EOF is the connection's end.

Why length-prefixed JSON and not pickle: the wire format is the same
canonical JSON (:data:`CANONICAL_JSON`) the result store and the job
journal are written in, so a result is byte-identical whether it came
from the inline drain or a worker, and a frame is checked like any other
document the service reads. Truncated or oversized frames raise
:class:`repro.errors.ProtocolError`; the peer is dropped and its
in-flight job re-queued, never silently retried on a corrupt stream.
"""

from __future__ import annotations

import json
import socket
import struct
from _json import encode_basestring_ascii, make_encoder
from typing import TYPE_CHECKING, Any

from ..errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from asyncio import BaseTransport

__all__ = [
    "CANONICAL_JSON", "MAX_FRAME_BYTES", "READ_SIZE", "FrameDecoder",
    "JsonEncoder", "bound_reads", "encode_frame", "write_frame",
    "job_frame", "result_frame", "error_frame",
    "heartbeat_frame",
]


class JsonEncoder:
    """``json.JSONEncoder(sort_keys=..., separators=..., default=str)``
    with its C encoder built once, not per call.

    ``JSONEncoder.encode`` goes through ``iterencode``, which builds a
    fresh C encoder, markers dict and float closure on every call. This
    builds the C encoder once, with the arguments ``iterencode`` passes
    it (ASCII output, NaN and infinities allowed, no key skipped, a
    markers dict to detect cycles), so :meth:`encode` returns the same
    text for one C call. The encoder leaves its markers behind when it
    raises — a cycle, keys it cannot sort — and they would make the
    next encode of any of those objects a false cycle, so a failed
    encode clears them. That clear would also drop the markers of an
    encode running in another thread: threads that share an encoder
    take turns under a lock (a worker's heartbeat thread and its main
    loop write frames under one).
    """

    __slots__ = ("_markers", "_encode")

    def __init__(self, *, sort_keys: bool,
                 separators: tuple[str, str]) -> None:
        item_separator, key_separator = separators
        self._markers: dict[int, Any] = {}
        self._encode = make_encoder(
            self._markers, str, encode_basestring_ascii, None,
            key_separator, item_separator, sort_keys, False, True)

    def encode(self, obj: Any) -> str:
        """The JSON text of ``obj``; raises like ``JSONEncoder.encode``."""
        try:
            return "".join(self._encode(obj, 0))
        except BaseException:
            self._markers.clear()
            raise


#: The serve layer's one canonical-JSON encoder: sorted keys, compact
#: separators, anything else as its ``str``. Frames, HTTP bodies, job
#: journal lines and cache key records are its bytes.
CANONICAL_JSON = JsonEncoder(sort_keys=True, separators=(",", ":"))

#: Upper bound on one frame's JSON payload. Large enough for any report
#: the simulator produces, small enough that a corrupt length prefix
#: (e.g. ASCII read as a length) cannot make a reader allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: The most one socket read of a served connection asks for; a larger
#: request or frame arrives over several reads.
READ_SIZE = 64 * 1024

_HEADER = struct.Struct(">I")


def bound_reads(transport: "BaseTransport") -> None:
    """Cap each socket read of ``transport``'s connection at ``READ_SIZE``.

    asyncio's selector transport asks ``recv`` for 256 KiB per read. glibc
    maps an allocation that large (its mmap threshold starts at 128 KiB)
    and unmaps it on free, so every read of a small request would map,
    fault in and unmap fresh pages. 64 KiB comes from the heap. The
    attribute belongs to the selector transport; another loop's
    transport, without it, is left alone.
    """
    if hasattr(transport, "max_size"):
        transport.max_size = READ_SIZE


def encode_frame(frame: dict) -> bytes:
    """Serialize one frame: 4-byte length prefix + canonical JSON."""
    payload = CANONICAL_JSON.encode(frame).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound")
    return _HEADER.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> dict:
    try:
        frame = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack, which a
        # frame far under MAX_FRAME_BYTES can hold.
        raise ProtocolError(f"corrupt frame payload: {exc}") from exc
    if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
        raise ProtocolError(
            f"frame is not an object with a 'type' field: {frame!r}")
    return frame


class FrameDecoder:
    """Incremental frame decoder for a byte stream.

    Feed it whatever chunks the transport hands you; it returns every
    complete frame and buffers the remainder. :meth:`close` raises
    :class:`~repro.errors.ProtocolError` if the stream ended mid-frame —
    a truncated frame is an error, never a silently dropped job.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        """Consume ``data``; return all frames completed by it."""
        self._buf.extend(data)
        frames: list[dict] = []
        while True:
            if len(self._buf) < _HEADER.size:
                return frames
            (length,) = _HEADER.unpack_from(self._buf)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length prefix {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte bound (corrupt stream?)")
            if len(self._buf) < _HEADER.size + length:
                return frames
            payload = bytes(self._buf[_HEADER.size:_HEADER.size + length])
            del self._buf[:_HEADER.size + length]
            frames.append(_decode_payload(payload))

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def close(self) -> None:
        """Declare EOF; raises if the stream ended inside a frame."""
        if self._buf:
            raise ProtocolError(
                f"stream ended mid-frame with {len(self._buf)} buffered "
                f"byte(s) (truncated frame)")


def write_frame(sock: socket.socket, frame: dict) -> None:
    """Blocking write of one frame to a connected socket."""
    sock.sendall(encode_frame(frame))


# -- frame constructors ----------------------------------------------------
def job_frame(task_id: str, kind: str, point: dict) -> dict:
    """One point of work: the task id echoes back on the result."""
    return {"type": "job", "id": task_id, "kind": kind, "point": point}


def result_frame(task_id: str, result: Any) -> dict:
    """A successfully executed point's JSON-able result."""
    return {"type": "result", "id": task_id, "ok": True, "result": result}


def error_frame(task_id: str, error: str) -> dict:
    """A point whose execution raised; ``error`` is one line of blame."""
    return {"type": "result", "id": task_id, "ok": False, "error": error}


def heartbeat_frame() -> dict:
    """Liveness beacon of a worker running a point: the orchestrator only
    moves the connection's deadline when bytes arrive, and knows which
    point it dispatched."""
    return {"type": "heartbeat"}
