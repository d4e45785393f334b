"""Stdlib HTTP client for the serve API over its Unix socket (used by the
CLI and tests), and the job-document parser both ends share: ``repro
submit`` checks a job with it before it dials, and the HTTP edge parses
with it every ``POST /jobs`` body that is not the canonical text of a
document it knows."""

from __future__ import annotations

import json
import re
import socket
import struct
import time
from typing import Any, Optional

from ..errors import ServeError
from .protocol import CANONICAL_JSON, READ_SIZE

__all__ = ["ServeClient", "parse_job_document"]

#: What a client reads of a response head, in one match from the status
#: line to the head's last line break: the status, the body length and
#: whether the server closes the connection after this response. Each
#: lookahead skips whole lines to its field; names and ``close`` match in
#: any case, with optional whitespace around the value.
_HEAD = re.compile(rb"""
    HTTP/1\.[01][ ]([0-9]{3})[ ]                            # the status
    (?=(?:[^\r]*\r\n)*?content-length:[ \t]*([0-9]+)[ \t]*\r\n)
    (?:(?=(?:[^\r]*\r\n)*?(connection:[ \t]*close)[ \t]*\r\n))?
""", re.I | re.X)

#: Decodes every response body; ``json.loads`` would also sniff the
#: encoding of each one.
_DECODER = json.JSONDecoder()


def parse_job_document(body: bytes) -> tuple[str, dict]:
    """Parse a POST /jobs body (JSON or YAML) into ``(kind, spec)``.

    A body nested deeper than the parsers recurse is a bad document too
    (:class:`~repro.errors.ServeError`), not the parser's
    ``RecursionError``."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except RecursionError as exc:
        raise ServeError("job document nests too deeply") from exc
    except (ValueError, UnicodeDecodeError):
        import yaml  # here, not at module level: most importers parse no job
        try:
            doc = yaml.safe_load(body.decode("utf-8", "replace"))
        except RecursionError as exc:
            raise ServeError("job document nests too deeply") from exc
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


def _more(sock: socket.socket, buf: bytearray) -> None:
    """Append the next read of ``sock`` to ``buf``; EOF mid-response
    raises."""
    data = sock.recv(READ_SIZE)
    if not data:
        raise ConnectionError("connection closed mid-response")
    buf += data


class ServeClient:
    """Synchronous client for the service listening on the Unix socket
    ``path``, on one kept-alive connection.

    Dialled on first use, dropped by :meth:`close` (``with`` does it) or
    the server's ``Connection: close``. A request is re-sent, once, on a
    fresh connection only when a *reused* one dies before the first
    response byte (the server closed it while idle), so a ``POST /jobs``
    is never replayed at a server that may have accepted it. Every method
    returns the decoded JSON document; the convenience methods raise
    :class:`~repro.errors.ServeError` on non-2xx answers, :meth:`request`
    returns ``(status, doc)`` raw for callers that care about 409/500.

    ``timeout`` bounds the connect and every send and receive, in the
    kernel: the socket blocks, with ``SO_SNDTIMEO`` and ``SO_RCVTIMEO``
    set before it connects, so a request costs no ``poll`` beside each
    call (a Python socket timeout would add one before every ``send`` and
    ``recv``). The send timeout bounds a connect to a listener whose
    backlog is full, which a Python timed connect on a Unix socket does
    not wait for. A missing or stale socket, and a service that does not
    answer in time, raise ``ServeError``.
    """

    def __init__(self, path: str, timeout: float = 30.0):
        self.path = path
        self._timeout = timeout
        #: ``timeout`` as a ``struct timeval``, at least 1 µs (0 would
        #: wait for ever).
        self._timeval = struct.pack(
            "@ll", *divmod(max(1, round(timeout * 1e6)), 1_000_000))
        #: The connection, once dialled.
        self._sock: Optional[socket.socket] = None

    def _dial(self) -> socket.socket:
        """A connection to the service, its kernel timeouts set."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO,
                            self._timeval)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                            self._timeval)
            sock.connect(self.path)
        except BaseException:
            sock.close()
            raise
        return sock

    def close(self) -> None:
        """Drop the connection (the next request dials a new one)."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _exchange(self, message: bytes) -> Optional[tuple[int, Any]]:
        """Send one request on the connection (dialled if there is none);
        returns ``(status, doc)``, or ``None`` — connection dropped — if
        the peer closed or reset it before the first response byte.

        The response is read with ``recv`` into one buffer: the head
        until its blank line, then the ``Content-Length`` bytes after it
        (one read, for most answers). Only what the client needs is read
        from the head: the status, the body length (a head without one
        raises ``ValueError``) and a ``Connection: close``."""
        sock = self._sock
        if sock is None:
            sock = self._sock = self._dial()
        try:
            sock.sendall(message)
            data = sock.recv(READ_SIZE)
        except ConnectionError:  # reset or broken pipe; a timeout is not one
            data = b""
        if not data:
            self.close()
            return None
        buf = bytearray(data)
        while (end := buf.find(b"\r\n\r\n")) < 0:
            _more(sock, buf)
        head = _HEAD.match(buf, 0, end + 2)
        if head is None:
            raise ValueError(f"response head without a status or a "
                             f"Content-Length: {bytes(buf[:end])!r}")
        status, length, close = head.groups()
        start = end + 4
        stop = start + int(length)
        while len(buf) < stop:
            _more(sock, buf)
        if close is not None:
            self.close()
        return int(status), (_DECODER.decode(buf[start:stop].decode())
                             if stop > start else None)

    def request(self, method: str, path: str,
                body: Optional[Any] = None) -> tuple[int, Any]:
        """One HTTP round-trip; returns ``(status, decoded JSON)``."""
        head, payload = (f"{method} {path} HTTP/1.1\r\n"
                         "Host: localhost\r\n"), b""
        if body is not None:
            head += "Content-Type: application/json\r\n"
            payload = CANONICAL_JSON.encode(body).encode("utf-8")
        message = (f"{head}Content-Length: {len(payload)}\r\n\r\n"
                   .encode("ascii") + payload)
        try:
            reused = self._sock is not None
            answer = self._exchange(message)
            if answer is None and reused:  # closed while idle: the one re-dial
                answer = self._exchange(message)
            if answer is None:
                raise ConnectionError("connection closed before a response")
            return answer
        except BlockingIOError as exc:  # a kernel timeout ran out
            self.close()
            raise ServeError(f"service at {self.path} did not answer in "
                             f"{self._timeout}s") from exc
        except (OSError, ValueError, LookupError) as exc:  # or garbled
            self.close()
            raise ServeError(f"service at {self.path} unreachable: {exc}"
                             ) from exc

    def _ok(self, method: str, path: str,
            body: Optional[Any] = None) -> Any:
        status, doc = self.request(method, path, body)
        if status >= 300:
            error = (doc or {}).get("error", f"HTTP {status}")
            raise ServeError(f"{method} {path}: {error}")
        return doc

    # -- conveniences ------------------------------------------------------
    def healthz(self) -> dict:
        """``GET /healthz``."""
        return self._ok("GET", "/healthz")

    def metrics(self) -> dict:
        """``GET /metrics``."""
        return self._ok("GET", "/metrics")

    def submit(self, kind: str, spec: dict) -> dict:
        """``POST /jobs``; returns the new job's status document."""
        return self._ok("POST", "/jobs", {"kind": kind, "spec": spec})

    def jobs(self) -> list[dict]:
        """``GET /jobs``; status documents for every job."""
        return self._ok("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        """``GET /jobs/<id>``; one job's live progress."""
        return self._ok("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """``GET /jobs/<id>/result``; raises while the job runs (409)."""
        return self._ok("GET", f"/jobs/{job_id}/result")

    def trace(self, job_id: str) -> dict:
        """``GET /jobs/<id>/trace``; Chrome-trace JSON."""
        return self._ok("GET", f"/jobs/{job_id}/trace")

    def shutdown(self) -> dict:
        """``POST /shutdown``."""
        return self._ok("POST", "/shutdown")

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.05) -> dict:
        """Poll until the job leaves ``running``; returns its status doc.

        Raises :class:`~repro.errors.ServeError` on job failure or when
        ``timeout`` host-seconds elapse first.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["status"] == "done":
                return status
            if status["status"] == "failed":
                raise ServeError(f"{job_id} failed: {status['error']}")
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"{job_id} still running after {timeout}s "
                    f"({status['done']}/{status['total']} points)")
            time.sleep(poll)
