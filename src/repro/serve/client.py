"""Stdlib HTTP client for the serve API (used by the CLI and tests)."""

from __future__ import annotations

import json
import time
import urllib.parse
from typing import Any, Optional

from ..errors import ServeError

__all__ = ["ServeClient"]


class ServeClient:
    """Synchronous client for one service URL.

    One connection per request (the server answers ``Connection:
    close``); every method returns the decoded JSON document. The
    convenience methods raise :class:`~repro.errors.ServeError` on
    non-2xx answers; :meth:`request` returns ``(status, doc)`` raw for
    callers that care about 409/500 semantics themselves.
    """

    def __init__(self, url: str, timeout: float = 30.0):
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServeError(f"unsupported service URL {url!r}")
        self.url = url
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._timeout = timeout

    def request(self, method: str, path: str,
                body: Optional[Any] = None) -> tuple[int, Any]:
        """One HTTP round-trip; returns ``(status, decoded JSON)``."""
        # Deferred: local runs import this package and never speak HTTP.
        import http.client
        conn = http.client.HTTPConnection(self._host, self._port,
                                          timeout=self._timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body, sort_keys=True,
                                     separators=(",", ":"),
                                     default=str).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (ConnectionError, OSError) as exc:
            raise ServeError(f"service at {self.url} unreachable: {exc}"
                             ) from exc
        finally:
            conn.close()
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else None
        except ValueError as exc:
            raise ServeError(f"non-JSON response from {path}: {exc}"
                             ) from exc
        return response.status, doc

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
