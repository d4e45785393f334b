"""Stdlib-only HTTP API over the orchestrator.

One asyncio server on a Unix socket in the state directory
(``serve.sock``, owner-only), with one :class:`asyncio.Protocol` per
connection, HTTP/1.1 keep-alive (a framing error is answered 400 and
closes the connection, cleanly like every close the server starts; a
bad document is a 400 and any other error of a route a 500, and both
keep it) — no framework, no dependency beyond the interpreter. The
surface:

========================== =============================================
``GET  /healthz``            liveness: workers (with pids), queue, cache
``GET  /metrics``            metrics-registry snapshot (JSON)
``POST /jobs``               submit ``{"kind": ..., "spec": {...}}``
                             (JSON or YAML body) → ``201`` + status doc
``GET  /jobs``               status documents for all jobs
``GET  /jobs/<id>``          one job's live progress
``GET  /jobs/<id>/result``   full result doc; ``409`` while running
``GET  /jobs/<id>/trace``    Chrome-trace JSON of the job's executions
``POST /shutdown``           stop the service loop cleanly
========================== =============================================

Job documents are the same shape on the wire as on the CLI: ``kind``
names an expansion from :data:`repro.serve.points.JOB_KINDS` and
``spec`` is its parameter mapping, so a sweep/campaign YAML file can be
POSTed as-is by ``python -m repro submit``.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket
import traceback
from http import HTTPStatus
from typing import Any, Optional

from ..errors import ServeError
from .client import parse_job_document
from .orchestrator import Orchestrator, job_text
from .protocol import CANONICAL_JSON, bound_reads

__all__ = ["HttpApi"]

#: The name of a service's socket, in its state directory.
_SOCKET = "serve.sock"

#: The longest path a Unix socket address holds: ``sun_path`` less the
#: NUL that ends it.
_SUN_PATH = 107

_MAX_BODY = 8 * 1024 * 1024

#: What a connection reads and drops after its last response before it
#: closes: closing on unread client bytes makes the kernel reset the
#: connection, and a client that has not read that response yet loses it.
_DISCARD_BYTES = 64 * 1024
_DISCARD_SECONDS = 1.0

#: The longest request head read: a head without its blank line past it
#: is a framing error.
_HEAD_LIMIT = 64 * 1024

#: Each status's response head up to the ``Content-Length`` value.
_HEADS = {status.value: (f"HTTP/1.1 {status.value} {status.phrase}\r\n"
                         f"Content-Type: application/json\r\n"
                         f"Content-Length: ").encode("ascii")
          for status in HTTPStatus}


def _parse_head(head: str) -> tuple[str, str, int, bool]:
    """A request head (request line and header fields, without the blank
    line that ends it) as ``(method, path, body length, keep-alive)``.
    Raises ValueError when it frames no request this edge can read."""
    line, _, rest = head.partition("\r\n")
    parts = line.split(" ")
    if len(parts) != 3 or parts[2] not in ("HTTP/1.1", "HTTP/1.0"):
        raise ValueError(f"malformed request line {line!r}")
    headers: dict[str, str] = {}
    for field in rest.split("\r\n"):
        name, _, value = field.partition(":")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise ValueError(f"Content-Length {headers[name]!r} and "
                             f"{value!r} disagree")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise ValueError("Transfer-Encoding is not supported; send a "
                         "Content-Length")
    length = headers.get("content-length", "0")
    if not length.isdigit() or int(length) > _MAX_BODY:
        raise ValueError(f"Content-Length {length!r} is not a byte count "
                         f"within the {_MAX_BODY}-byte bound")
    keep = (parts[2] == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close")
    return parts[0].upper(), parts[1].rstrip("/") or "/", int(length), keep


class _Connection(asyncio.Protocol):
    """One client connection, answered request by request as its bytes
    arrive: every request is routed and its response written inside
    :meth:`data_received`, so a request costs no task and no future.

    Requests on one connection are answered in order until the client
    closes, asks to (``Connection: close``, HTTP/1.0), breaks the framing
    (400: what follows cannot be trusted) or the service shuts down. A
    close the server starts sends our EOF, then drops up to
    ``_DISCARD_BYTES`` or ``_DISCARD_SECONDS`` of input before it closes,
    so it is clean. A full write buffer pauses reading until it drains.
    """

    def __init__(self, api: "HttpApi"):
        self.api = api
        self.transport: Any = None
        #: Bytes received and not yet part of an answered request.
        self._buf = bytearray()
        #: The parsed head of a request whose body is still arriving.
        self._head: Optional[tuple[str, str, int, bool]] = None
        #: The last head parsed, raw, and what it parsed to (None before
        #: the first): a client repeats its heads, and a repeated head is
        #: not parsed again.
        self._last: Optional[tuple[bytes, tuple[str, str, int, bool]]] = None
        #: Whether the transport's write buffer is over its high mark.
        self._paused = False
        #: Once closing: how many more input bytes are dropped (else None).
        self._left: Optional[int] = None
        self._timer: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport: Any) -> None:
        """Track the connection (see :meth:`HttpApi.stop`), bound its
        reads and count it."""
        self.transport = transport
        bound_reads(transport)
        self.api._conns[self] = transport
        self.api._count["serve.http.connections"].inc()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        """Forget the connection; the last one to go wakes a waiting
        :meth:`HttpApi.stop`."""
        if self._timer is not None:
            self._timer.cancel()
        api = self.api
        del api._conns[self]
        if not api._conns and api._drained is not None:
            api._drained.set()

    def pause_writing(self) -> None:
        self._paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        if self._left is None and self._buf:
            data = bytes(self._buf)
            self._buf.clear()
            self._serve(data)
        if not self._paused:
            self.transport.resume_reading()

    def data_received(self, data: bytes) -> None:
        if self._left is not None:
            self._drop(len(data))
        elif self._buf:
            self._buf += data
            head = self._head
            if head is None or len(self._buf) >= head[2]:
                data = bytes(self._buf)
                self._buf.clear()
                self._serve(data)
        else:
            self._serve(data)

    def eof_received(self) -> None:
        """The client's EOF: between requests it is a plain close, inside
        one a framing error (400). Returning None closes the transport
        once what was written has been sent."""
        if self._left is None and (self._buf or self._head is not None):
            got = len(self._buf)
            self._respond(400, {"error": "bad request: EOF after " + (
                f"{got} of {self._head[2]} body bytes"
                if self._head is not None else
                f"{got} bytes of a request head")}, keep=False)

    def _serve(self, buf: bytes) -> None:
        """Answer every whole request in ``buf`` (which starts where the
        next request, or the body of ``_head``, starts) and keep the rest
        for the next call."""
        api = self.api
        pos = 0
        while not self._paused:
            head = self._head
            if head is None:
                end = buf.find(b"\r\n\r\n", pos)
                if end < 0 and len(buf) - pos <= _HEAD_LIMIT + 3:
                    break  # the head is still arriving
                if end < 0 or end - pos > _HEAD_LIMIT:
                    self._reject(f"request head over the {_HEAD_LIMIT}-byte "
                                 f"bound", len(buf) - pos)
                    return
                raw = buf[pos:end]
                last = self._last
                if last is not None and last[0] == raw:
                    head = last[1]
                else:
                    try:
                        head = _parse_head(raw.decode("ascii", "replace"))
                    except ValueError as exc:
                        self._reject(str(exc), len(buf) - end - 4)
                        return
                    self._last = raw, head
                pos = end + 4
            method, path, length, keep = head
            if len(buf) - pos < length:
                self._head = head
                break
            self._head = None
            status, doc = api._answer(method, path, buf[pos:pos + length])
            pos += length
            keep = keep and not api.shutdown_requested.is_set()
            self._respond(status, doc, keep)
            if not keep:
                self._close(len(buf) - pos)
                return
        self._buf += buf[pos:]

    def _respond(self, status: int, doc: Any, keep: bool) -> None:
        self.api._count["serve.http.requests"].inc()
        body = CANONICAL_JSON.encode(doc).encode("utf-8")
        self.transport.write(b"%s%d\r\nConnection: %s\r\n\r\n%s" % (
            _HEADS[status], len(body),
            b"keep-alive" if keep else b"close", body))

    def _reject(self, error: str, dropped: int) -> None:
        """A framing error: answer 400 and close."""
        self._respond(400, {"error": f"bad request: {error}"}, keep=False)
        self._close(dropped)

    def _close(self, dropped: int) -> None:
        """Half-close, then drop input until EOF, ``_DISCARD_BYTES``
        (``dropped`` of them already buffered) or ``_DISCARD_SECONDS``,
        and close."""
        self._left = _DISCARD_BYTES
        try:
            self.transport.write_eof()
        except OSError:  # the peer is gone already
            self._left = 0
        self._drop(dropped)
        if self._left > 0:
            self._timer = asyncio.get_running_loop().call_later(
                _DISCARD_SECONDS, self.transport.close)

    def _drop(self, count: int) -> None:
        assert self._left is not None
        self._left -= count
        if self._left <= 0:
            self.transport.close()


class HttpApi:
    """The HTTP front of one :class:`Orchestrator`.

    Runs on the same event loop as the orchestrator, so a connection
    calls its synchronous methods directly — there is exactly one thread
    touching scheduler state.
    """

    def __init__(self, orchestrator: Orchestrator):
        self.orchestrator = orchestrator
        self._count = orchestrator.count
        #: The listening socket's path, once started.
        self.path: Optional[str] = None
        #: The private directory that holds it when the state directory's
        #: path is too long for a socket address (else None).
        self._private: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: Open connections: protocol -> its transport (see :meth:`stop`).
        self._conns: dict[_Connection, asyncio.BaseTransport] = {}
        #: Set by the last connection to go once :meth:`stop` waits.
        self._drained: Optional[asyncio.Event] = None
        #: Set when a POST /shutdown arrives; the service loop awaits it.
        self.shutdown_requested: asyncio.Event = asyncio.Event()

    async def start(self) -> str:
        """Listen on ``<state-dir>/serve.sock``; returns its path.

        The orchestrator holds the state directory's journal lock, so a
        socket file already there was left by a killed service, and is
        unlinked. When the socket's absolute path is longer than a socket
        address holds (107 bytes), it is bound in a private
        ``tempfile.mkdtemp`` directory instead. The socket is made
        owner-only (0600) before it listens, so no other user ever
        connects.

        Nothing is preloaded: a job kind's modules load with its first
        job, inside that request's answer (DESIGN §2a). The loop stalls
        for that import, and no client is reset by it, because every
        close the server starts half-closes and drains first."""
        path = os.path.abspath(os.path.join(self.orchestrator.state_dir,
                                            _SOCKET))
        if len(os.fsencode(path)) > _SUN_PATH:
            import tempfile  # here: most state directories are not this deep
            self._private = tempfile.mkdtemp(prefix="repro-serve-")
            path = os.path.join(self._private, _SOCKET)
        else:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)  # stale: the service that bound it is dead
        self.path = path
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(path)
            os.chmod(path, 0o600)
            self._server = await asyncio.get_running_loop(
            ).create_unix_server(lambda: _Connection(self), sock=sock)
        except BaseException:
            sock.close()
            self._remove()
            raise
        return path

    def _remove(self) -> None:
        """Remove the socket file and the private directory that held it
        (if any): nothing can connect any more."""
        assert self.path is not None
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path)
        if self._private is not None:
            with contextlib.suppress(OSError):
                os.rmdir(self._private)
            self._private = None

    async def stop(self) -> None:
        """Close the API server and every open connection (an idle
        keep-alive client would hold its connection for ever), and
        remove the socket file."""
        if self._server is not None:
            self._server.close()
            self._remove()
            for transport in list(self._conns.values()):
                transport.close()  # flushes a response in flight, then EOF
            if self._conns:  # each goes once its buffer is sent
                self._drained = asyncio.Event()
                try:
                    await asyncio.wait_for(self._drained.wait(), 1.0)
                except asyncio.TimeoutError:
                    pass
            await self._server.wait_closed()

    # -- routing -----------------------------------------------------------
    def _answer(self, method: str, path: str, body: bytes
                ) -> tuple[int, Any]:
        """The route's answer: a bad document is the submitter's ``400``,
        anything else a route raises (a journal append that failed, a
        bug) the service's ``500``. Either way the request was framed,
        so the connection stays."""
        try:
            return self._route(method, path, body)
        except ServeError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:
            self._count["serve.http.internal_errors"].inc()
            return 500, {"error": f"{type(exc).__name__}: {exc}",
                         "traceback": traceback.format_exc()}

    def _route(self, method: str, path: str, body: bytes) -> tuple[int, Any]:
        orch = self.orchestrator
        if path == "/healthz" and method == "GET":
            return 200, orch.healthz()
        if path == "/metrics" and method == "GET":
            return 200, {"metrics": orch.metrics.snapshot(),
                         "cache": orch.cache_counts()}
        if path == "/shutdown" and method == "POST":
            self.shutdown_requested.set()
            return 200, {"ok": True, "shutting_down": True}
        if path == "/jobs" and method == "POST":
            # A body that is, byte for byte, the canonical text of a known
            # document is that document (canonical texts are ASCII, so
            # latin-1 maps their bytes one to one): nothing is parsed.
            text = body.decode("latin-1")
            if text not in orch.expansions:
                text = job_text(*parse_job_document(body))
            job_id = orch.submit_text(text)
            return 201, orch.job_status(job_id)
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": orch.list_jobs()}
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": f"{method} not allowed on {path}"}
            parts = path.split("/")  # ['', 'jobs', '<id>', ('result'|...)]
            job_id = parts[2]
            sub = parts[3] if len(parts) > 3 else None
            if job_id not in orch.jobs:
                return 404, {"error": f"no such job {job_id!r}"}
            if sub is None:
                return 200, orch.job_status(job_id)
            if sub == "result":
                status = orch.job_status(job_id)
                if status["status"] == "running":
                    # status carries error=None; message must win the merge
                    return 409, {**status, "error": "job still running"}
                if status["status"] == "failed":
                    return 500, {**status, "error": status["error"]}
                return 200, orch.job_result(job_id)
            if sub == "trace":
                return 200, orch.job_trace(job_id)
            return 404, {"error": f"unknown job endpoint {sub!r}"}
        return 404, {"error": f"no route for {method} {path}"}
