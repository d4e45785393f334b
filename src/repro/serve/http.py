"""Stdlib-only HTTP API over the orchestrator.

One asyncio streams server, HTTP/1.1 keep-alive (a framing error is
answered 400 and closes the connection, cleanly like every close the
server starts; a bad document is a 400 and any other error of a route a
500, and both keep it) — no framework, no dependency
beyond the interpreter. The surface:

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
import json
import traceback
from http import HTTPStatus
from typing import Any, Optional

from ..errors import ServeError
from .orchestrator import Orchestrator
from .protocol import bound_reads

__all__ = ["HttpApi", "parse_job_document"]

_MAX_BODY = 8 * 1024 * 1024

#: What a handler reads and drops after its last response before it
#: closes: closing on unread client bytes makes the kernel reset the
#: connection, and a client that has not read that response yet loses it.
_DISCARD_BYTES = 64 * 1024
_DISCARD_SECONDS = 1.0

#: Every response body; built once (``json.dumps`` builds one per call).
_RESPONSE = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                             default=str)


def parse_job_document(body: bytes) -> tuple[str, dict]:
    """Parse a POST /jobs body (JSON or YAML) into ``(kind, spec)``."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        import yaml  # here, not at module level: most importers parse no job
        try:
            doc = yaml.safe_load(body.decode("utf-8", "replace"))
        except yaml.YAMLError as exc:
            raise ServeError(f"job body is neither JSON nor YAML: {exc}"
                             ) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise ServeError(
            "job document must be a mapping with a 'kind' string "
            "(e.g. {'kind': 'sweep', 'spec': {...}})")
    spec = doc.get("spec", {})
    if not isinstance(spec, dict):
        raise ServeError("job 'spec' must be a mapping")
    return doc["kind"], spec


async def _read_request(reader: asyncio.StreamReader
                        ) -> tuple[str, str, bytes, bool]:
    """One request as ``(method, path, body, keep-alive)``. Raises
    ConnectionError if the client closed where one would start, ValueError
    or the stream's own error on broken framing."""
    try:
        request = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise
        raise ConnectionError("closed between requests") from None
    line, _, rest = request.decode("ascii", "replace").partition("\r\n")
    parts = line.split(" ")
    if len(parts) != 3 or parts[2] not in ("HTTP/1.1", "HTTP/1.0"):
        raise ValueError(f"malformed request line {line!r}")
    headers = {name.strip().lower(): value.strip() for name, _, value
               in (h.partition(":") for h in rest.split("\r\n"))}
    length = headers.get("content-length", "0")
    if not length.isdigit() or int(length) > _MAX_BODY:
        raise ValueError(f"Content-Length {length!r} is not a byte count "
                         f"within the {_MAX_BODY}-byte bound")
    body = await reader.readexactly(int(length))
    keep = (parts[2] == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close")
    return parts[0].upper(), parts[1].rstrip("/") or "/", body, keep


async def _discard(reader: asyncio.StreamReader) -> None:
    """Read and drop input until EOF or ``_DISCARD_BYTES``."""
    left = _DISCARD_BYTES
    while left > 0:
        chunk = await reader.read(left)
        if not chunk:
            return
        left -= len(chunk)


class HttpApi:
    """The HTTP front of one :class:`Orchestrator`.

    Runs on the same event loop as the orchestrator, so handlers may
    call its synchronous methods directly — there is exactly one thread
    touching scheduler state.
    """

    def __init__(self, orchestrator: Orchestrator, host: str = "127.0.0.1"):
        self.orchestrator = orchestrator
        self._host = host
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: Open connections: handler task -> its writer (see :meth:`stop`).
        self._conns: dict[Any, asyncio.StreamWriter] = {}
        #: Set when a POST /shutdown arrives; the service loop awaits it.
        self.shutdown_requested: asyncio.Event = asyncio.Event()

    async def start(self) -> int:
        """Bind the API port (ephemeral by default); returns it.

        Nothing is preloaded: a job kind's modules load with its first
        job, inside that request's handler (DESIGN §2a). The loop stalls
        for that import, and no client is reset by it, because every
        close the server starts half-closes and drains first."""
        self._server = await asyncio.start_server(
            self._handle, self._host, 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        """Close the API server and every open connection (the handler
        of an idle keep-alive client would sit in its read for ever)."""
        if self._server is not None:
            self._server.close()
            for writer in self._conns.values():
                writer.close()  # flushes a response in flight, then EOF
            if self._conns:  # each handler wakes on that EOF and returns
                await asyncio.wait(list(self._conns), timeout=1.0)
            await self._server.wait_closed()

    # -- request plumbing --------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection, request after request in order, until
        the client closes, asks to (``Connection: close``, HTTP/1.0),
        breaks the framing (400: what follows cannot be trusted) or the
        service shuts down. A close the server starts sends our EOF, then
        reads and drops what the client still sends, so it is clean."""
        handler = asyncio.current_task()
        self._conns[handler] = writer
        bound_reads(writer)
        self.orchestrator.metrics.inc("serve.http.connections")
        try:
            keep = True
            while keep:
                try:
                    method, path, body, keep = await _read_request(reader)
                except (ValueError, asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError) as exc:
                    status, doc = 400, {"error": f"bad request: {exc}"}
                    keep = False
                else:
                    status, doc = self._answer(method, path, body)
                keep = keep and not self.shutdown_requested.is_set()
                self.orchestrator.metrics.inc("serve.http.requests")
                body = _RESPONSE.encode(doc).encode("utf-8")
                writer.write(
                    f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n"
                    .encode("ascii") + body)
                await writer.drain()
            writer.write_eof()
            try:
                await asyncio.wait_for(_discard(reader), _DISCARD_SECONDS)
            except asyncio.TimeoutError:
                pass
        except (ConnectionError, OSError):
            pass  # client closed or went away; nothing to clean up
        finally:
            del self._conns[handler]
            writer.close()

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
            self.orchestrator.metrics.inc("serve.http.internal_errors")
            return 500, {"error": f"{type(exc).__name__}: {exc}",
                         "traceback": traceback.format_exc()}

    def _route(self, method: str, path: str, body: bytes) -> tuple[int, Any]:
        orch = self.orchestrator
        if path == "/healthz" and method == "GET":
            return 200, orch.healthz()
        if path == "/metrics" and method == "GET":
            return 200, {"metrics": orch.metrics.snapshot(),
                         "cache": {"hits": orch.cache.hits,
                                   "misses": orch.cache.misses,
                                   "stored": len(orch.cache)}}
        if path == "/shutdown" and method == "POST":
            self.shutdown_requested.set()
            return 200, {"ok": True, "shutting_down": True}
        if path == "/jobs" and method == "POST":
            kind, spec = parse_job_document(body)
            job_id = orch.submit(kind, spec)
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
