"""The orchestrator: job queue, scheduler, dedupe, requeue, resume.

The orchestrator owns every piece of scheduling state the workers do
not: the point queue, the in-flight table, the result store and the job
manifests. It is the only scheduler in the tree: ``repro serve`` feeds
its queue to socket workers, :func:`repro.serve.run_local` (``repro
sweep``, ``repro campaign``) to the same workers or — at one worker — to
:meth:`Orchestrator.drain_inline` in the calling process. Results are
byte-identical to :func:`~repro.serve.points.execute_point` applied to
each point in order either way, plus:

- **dedupe** — points are identified by their cache key
  (:func:`repro.serve.cache.cache_key`); if two jobs (or a resubmitted
  job) contain the same point, one execution serves every waiter.
- **warm hits** — completed points persist in the result cache, so a
  resubmitted job is answered without running anything.
- **requeue on worker death** — a worker that drops its socket or
  stops heartbeating (``heartbeat_timeout``) has its in-flight point
  put back on the queue, up to ``max_attempts`` tries.
- **crash resume** — every accepted job's ``(kind, spec)`` document is
  persisted under ``state_dir/jobs/`` before the submit call returns.
  Because expansion is deterministic and results live in the cache, a
  restarted orchestrator rebuilds its entire queue from manifests +
  cache: finished points are served warm, only the rest re-run.
- **known documents** — a job document has one canonical text
  (:func:`job_text`), and every text that expanded is kept with its
  expansion and its points' key records. A job whose text is known —
  submitted again, or a second manifest of it on resume — is expanded
  by no one: it costs one store lookup per point.

With socket workers, scheduling runs on one asyncio event loop; workers
attach over TCP (one connection each) and the per-connection coroutine
is the whole scheduler for that worker: claim a point, send the job
frame, await result frames (one watchdog task aborts the connection of
a busy worker gone silent). The inline drain
needs no loop at all. Host wall-clock (not simulated time) feeds the
metrics registry and trace spans — this is the service layer, the one
place in the tree where host time is the measurand.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from ..errors import ProtocolError, ServeError
from ..obs.metrics import MetricsRegistry
from .cache import PENDING, ResultCache, blob_key, point_blob
from .points import execute_point, expand_job
from .protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    job_frame,
    shutdown_frame,
)

__all__ = ["Expansion", "Job", "PointTask", "Orchestrator",
           "job_text", "read_manifest"]

_READ_CHUNK = 65536
_JOB_ID = re.compile(r"job-([0-9]{5,})")
# Built once, like the store's: ``json.dumps`` builds an encoder per call.
_JOB_TEXT = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                             default=str)


def job_text(kind: str, spec: Any) -> str:
    """The canonical text of a job document: the sorted, compact JSON of
    ``{"kind": kind, "spec": spec}``.

    It is the job's key in the orchestrator's expansion table, what is
    expanded (as JSON reads it back, so a tuple is a list live and after
    a resume alike) and, behind the job id, its manifest. Raises
    :class:`~repro.errors.ServeError` for a document JSON cannot hold
    (keys of mixed types, a cycle).
    """
    try:
        return _JOB_TEXT.encode({"kind": kind, "spec": spec})
    except (TypeError, ValueError) as exc:
        raise ServeError(f"job document is not JSON: {exc}") from exc


def _job_number(job_id: str) -> Optional[int]:
    match = _JOB_ID.fullmatch(job_id)
    return int(match[1]) if match else None


def _job_order(job_id: str) -> tuple[bool, int, str]:
    """Sort key of job ids: ``job-<n>`` by ``n`` (submit order, so
    ``job-100000`` follows ``job-99999``), then any other name."""
    number = _job_number(job_id)
    return number is None, number or 0, job_id


def read_manifest(path: str) -> dict:
    """The ``{job_id, kind, spec}`` job manifest stored at ``path``.

    Raises :class:`~repro.errors.ServeError` ("corrupt manifest ...")
    for a truncated, foreign or misnamed file, so one bad manifest never
    reads as a job.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise ServeError(f"corrupt manifest {path!r}: {exc}") from exc
    stem = os.path.basename(path)[:-len(".json")]
    if not (isinstance(manifest, dict) and manifest.get("job_id") == stem
            and isinstance(manifest.get("kind"), str)
            and isinstance(manifest.get("spec"), dict)):
        raise ServeError(f"corrupt manifest {path!r}: not a "
                         f"{{job_id: {stem!r}, kind, spec}} document")
    return manifest


@dataclass
class PointTask:
    """One deduped unit of work: a (point kind, point) pair and its fans.

    ``waiters`` lists every ``(job_id, index)`` slot awaiting this
    point's result — the in-flight dedupe table is exactly the mapping
    from cache key to one of these. ``blob`` is the point's canonical
    key record (:func:`repro.serve.cache.point_blob`), serialised once
    per job document (its :class:`Expansion`) and reused to save the
    result.
    """

    key: str
    kind: str
    point: dict
    blob: str
    status: str = "queued"  # queued | running | done | failed
    attempts: int = 0
    result: Any = None
    error: Optional[str] = None
    waiters: list[tuple[str, int]] = field(default_factory=list)


class Expansion(NamedTuple):
    """One job document, expanded: what every job with its text shares.

    ``spec`` is the document's spec as JSON reads it back, ``blobs[i]``
    the key record of ``points[i]``. Shared, like the store's results:
    read-only.
    """

    spec: dict
    point_kind: str
    points: list[dict]
    blobs: list[str]


@dataclass
class Job:
    """One submitted job: its document, expansion and fill-in results.

    ``spec`` and ``points`` are its :class:`Expansion`'s, shared with
    every job of the same document: read-only.
    """

    job_id: str
    kind: str
    spec: dict
    point_kind: str
    points: list[dict]
    results: list[Any]
    status: str = "running"  # running | done | failed
    error: Optional[str] = None
    submitted: float = 0.0
    finished: Optional[float] = None
    cache_hits: int = 0
    #: Points still without a result; kept by :meth:`fill`.
    remaining: int = 0

    @property
    def total(self) -> int:
        """Number of points in the job."""
        return len(self.points)

    @property
    def done_count(self) -> int:
        """Number of points with a result (cached or computed)."""
        return self.total - self.remaining

    def fill(self, index: int, result: Any) -> None:
        """Store point ``index``'s result."""
        if self.results[index] is PENDING:
            self.remaining -= 1
        self.results[index] = result


class Orchestrator:
    """The service's scheduler: submit jobs, feed workers, track results.

    All mutation happens on the event loop thread; the HTTP layer calls
    the synchronous query/submit methods from its own coroutines on the
    same loop, so no locking is needed.
    """

    def __init__(self, state_dir: str, heartbeat_timeout: float = 5.0,
                 max_attempts: int = 3, host: str = "127.0.0.1"):
        self.state_dir = state_dir
        self.jobs_dir = os.path.join(state_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.cache = ResultCache(os.path.join(state_dir, "cache"))
        self.heartbeat_timeout = heartbeat_timeout
        self.max_attempts = max_attempts
        self.metrics = MetricsRegistry(clock=time.monotonic)
        self.jobs: dict[str, Job] = {}
        #: Canonical text (:func:`job_text`) -> expansion, for every job
        #: document that expanded; it grows with distinct documents, as
        #: ``jobs`` grows with jobs.
        self.expansions: dict[str, Expansion] = {}
        self.tasks: dict[str, PointTask] = {}
        self.workers: dict[str, dict[str, Any]] = {}
        self.worker_port: Optional[int] = None
        self._host = host
        self._t0 = time.monotonic()
        self._trace: dict[str, list[dict]] = {}
        self._queue: asyncio.Queue[str] = asyncio.Queue()
        self._server: Optional[asyncio.AbstractServer] = None
        #: Attached connection -> when its next bytes are due (None: idle).
        self._due: dict[asyncio.StreamWriter, Optional[float]] = {}
        self._watchdog_task: Optional[asyncio.Future] = None
        self._running = 0  # jobs in status "running"
        self._idle: Optional[asyncio.Event] = None  # see wait_idle
        self._next_id = 1 + max(
            (number for number in map(_job_number, self._manifest_ids())
             if number is not None), default=0)

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> int:
        """Bind the worker port; returns it."""
        self._server = await asyncio.start_server(
            self._handle_worker, self._host, 0)
        self.worker_port = self._server.sockets[0].getsockname()[1]
        self._watchdog_task = asyncio.ensure_future(self._watchdog())
        return self.worker_port

    async def _watchdog(self) -> None:
        """Abort overdue connections; each handler wakes on the EOF."""
        while True:
            await asyncio.sleep(self.heartbeat_timeout / 4)
            now = time.monotonic()
            for writer, due in self._due.items():
                if due is not None and now > due:
                    writer.transport.abort()

    async def stop(self) -> None:
        """Tell workers to exit and close the worker server."""
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
        for writer in list(self._due):
            try:
                writer.write(encode_frame(shutdown_frame()))
                await writer.drain()
                writer.close()
            except (ConnectionError, OSError):
                continue
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def resume_jobs(self) -> None:
        """Rebuild queue state from job manifests + the result cache.

        This IS the crash-resume path: manifests are tiny (the job
        document, not the expansion), expansion is deterministic, and
        every completed point is in the cache — so the rebuilt queue
        contains exactly the points the dead orchestrator hadn't
        finished, with zero lost and zero duplicated work. A manifest
        that cannot be read or no longer expands (its sampler version
        moved underneath it) becomes a failed job naming the cause and
        never blocks the others. Manifests of one document share one
        expansion (:meth:`_expand`).
        """
        for job_id in self._manifest_ids():
            kind: str = ""
            spec: dict = {}
            try:
                manifest = read_manifest(
                    os.path.join(self.jobs_dir, f"{job_id}.json"))
                kind, spec = manifest["kind"], manifest["spec"]
                expansion = self._expand(job_text(kind, spec))
            except (OSError, ServeError) as exc:
                self.jobs[job_id] = Job(
                    job_id=job_id, kind=kind, spec=spec, point_kind="",
                    points=[], results=[], status="failed",
                    error=str(exc), submitted=time.monotonic())
                self.metrics.inc("serve.job.corrupt")
                continue
            self._register_job(job_id, kind, expansion)
            self.metrics.inc("serve.job.resumed")

    def _manifest_ids(self) -> list[str]:
        """Ids of the ``job-*.json`` manifests on disk, in
        :func:`_job_order`."""
        return sorted((name[:-len(".json")]
                       for name in os.listdir(self.jobs_dir)
                       if name.startswith("job-") and name.endswith(".json")),
                      key=_job_order)

    # -- job intake --------------------------------------------------------
    def submit(self, kind: str, spec: dict) -> str:
        """Validate, persist and enqueue one job; returns its id.

        The manifest hits disk *before* any point is queued, so a crash
        at any later instant leaves a resumable record. It is the job's
        canonical text with the id in front (``job_id`` sorts first).
        """
        text = job_text(kind, spec)
        expansion = self._expand(text)  # raises on a bad document
        job_id = f"job-{self._next_id:05d}"
        self._next_id += 1
        path = os.path.join(self.jobs_dir, f"{job_id}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f'{{"job_id":"{job_id}",{text[1:]}')
        os.replace(tmp, path)
        self._register_job(job_id, kind, expansion)
        self.metrics.inc("serve.job.submitted")
        return job_id

    def _expand(self, text: str) -> Expansion:
        """The expansion of the job document whose canonical text is
        ``text``: remembered if any job had that text, else expanded
        from the text as JSON reads it back, with its points' key
        records, and remembered. A document that fails to expand raises
        :class:`~repro.errors.ServeError` and is not remembered."""
        expansion = self.expansions.get(text)
        if expansion is None:
            doc = json.loads(text)
            point_kind, points = expand_job(doc["kind"], doc["spec"])
            expansion = self.expansions[text] = Expansion(
                doc["spec"], point_kind, points,
                [point_blob(point_kind, point) for point in points])
        return expansion

    def _register_job(self, job_id: str, kind: str,
                      expansion: Expansion) -> None:
        spec, point_kind, points, blobs = expansion
        job = Job(job_id=job_id, kind=kind, spec=spec,
                  point_kind=point_kind, points=points,
                  results=[PENDING] * len(points),
                  submitted=time.monotonic(), remaining=len(points))
        self.jobs[job_id] = job
        self._running += 1
        misses = 0
        for index, blob in enumerate(blobs):
            cached = self.cache.load_blob(blob)
            if cached is not PENDING:
                job.fill(index, cached)
                job.cache_hits += 1
                continue
            misses += 1
            key = blob_key(blob)
            task = self.tasks.get(key)
            if task is None or task.status == "failed":
                task = PointTask(key=key, kind=point_kind,
                                 point=points[index], blob=blob)
                self.tasks[key] = task
                self._queue.put_nowait(key)
                self.metrics.inc("serve.point.queued")
            elif task.status == "done":
                # Completed in memory but not in the store (its
                # ``save_blob`` raised): serve it like a hit.
                job.fill(index, task.result)
                job.cache_hits += 1
                continue
            task.waiters.append((job_id, index))
        # One increment per job, not per point; a counter that never
        # counted stays out of the snapshot, as before.
        for name, count in (("serve.cache.hit", len(points) - misses),
                            ("serve.cache.miss", misses)):
            if count:
                self.metrics.inc(name, count)
        self._maybe_finish(job)

    # -- execution ---------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any job is still waiting for points."""
        return self._running > 0

    async def wait_idle(self) -> None:
        """Return once no job is waiting for points."""
        while self._running:
            self._idle = asyncio.Event()
            await self._idle.wait()

    @property
    def queue_depth(self) -> int:
        """Number of queued (not yet claimed) points."""
        return self._queue.qsize()

    def drain_inline(self) -> None:
        """Run the queue in this process until no job is waiting.

        The one-worker executor: same claim → :func:`execute_point` →
        complete/fail steps as a socket worker's scheduler loop, minus
        the socket (a single socket worker measured +14% on the Fig 1(a)
        sweep and buys no parallelism).
        """
        while self.active and not self._queue.empty():
            task = self.tasks.get(self._queue.get_nowait())
            if task is None or task.status != "queued":
                continue
            task.status = "running"
            started = time.monotonic()
            try:
                result = execute_point(task.kind, task.point)
            except Exception:
                self._fail_task(task, traceback.format_exc())
            else:
                self._complete(task, result, worker="inline",
                               started=started)

    async def _next_frame(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter,
                          decoder: FrameDecoder, frames: deque
                          ) -> Optional[dict]:
        """Next decoded frame, or None on EOF at a frame boundary; bytes
        move the deadline out (a live worker heartbeats well inside it)."""
        while not frames:
            data = await reader.read(_READ_CHUNK)
            if not data:
                decoder.close()  # raises ProtocolError if mid-frame
                return None
            self._due[writer] = time.monotonic() + self.heartbeat_timeout
            frames.extend(decoder.feed(data))
        return frames.popleft()

    async def _handle_worker(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Per-worker scheduler loop: claim, dispatch, await, repeat."""
        decoder = FrameDecoder()
        frames: deque = deque()
        name: Optional[str] = None
        task: Optional[PointTask] = None
        reason = "connection closed"
        self._due[writer] = time.monotonic() + self.heartbeat_timeout * 4
        try:
            hello = await self._next_frame(reader, writer, decoder, frames)
            if (hello is None or hello.get("type") != "hello"
                    or hello.get("protocol") != PROTOCOL_VERSION):
                return
            name = str(hello["worker"])
            self.workers[name] = {"pid": hello.get("pid"), "busy": None}
            self.metrics.inc("serve.worker.connected")
            while True:
                self._due[writer] = None  # idle workers are never timed out
                key = await self._queue.get()
                task = self.tasks.get(key)
                if task is None or task.status != "queued":
                    task = None  # stale queue entry (completed elsewhere)
                    continue
                task.status = "running"
                self.workers[name]["busy"] = key
                writer.write(encode_frame(job_frame(key, task.kind,
                                                    task.point)))
                await writer.drain()
                started = time.monotonic()
                self._due[writer] = started + self.heartbeat_timeout
                while True:
                    frame = await self._next_frame(reader, writer, decoder,
                                                   frames)
                    if frame is None:
                        raise ConnectionError("worker EOF mid-job")
                    if frame["type"] == "heartbeat":
                        continue
                    if frame["type"] == "result":
                        if frame.get("ok"):
                            self._complete(task, frame["result"],
                                           worker=name, started=started)
                        else:
                            self._fail_task(task, str(frame.get("error")))
                        task = None
                        break
                self.workers[name]["busy"] = None
        except asyncio.CancelledError:
            reason = "orchestrator shutting down"  # loop teardown
        except (ConnectionError, ProtocolError, OSError) as exc:
            reason = str(exc) or type(exc).__name__
        finally:
            due = self._due.pop(writer)
            if due is not None and time.monotonic() > due:  # the watchdog's
                reason = f"no heartbeat for {self.heartbeat_timeout}s"
            if name is not None:
                self.workers.pop(name, None)
                self.metrics.inc("serve.worker.lost")
            if task is not None and task.status == "running":
                self._requeue(task, reason)
            writer.close()

    def _requeue(self, task: PointTask, reason: str) -> None:
        """Put a lost worker's point back on the queue (bounded tries)."""
        task.attempts += 1
        self.metrics.inc("serve.point.requeued")
        if task.attempts >= self.max_attempts:
            self._fail_task(
                task, f"gave up after {task.attempts} attempts "
                f"(last worker: {reason})")
        else:
            task.status = "queued"
            self._queue.put_nowait(task.key)

    def _complete(self, task: PointTask, result: Any, worker: str,
                  started: float) -> None:
        now = time.monotonic()
        task.status = "done"
        task.result = result
        self.cache.save_blob(task.blob, result)
        self.metrics.inc("serve.point.done")
        self.metrics.observe("serve.point.host_sec", now - started)
        event = {"name": task.kind, "cat": "serve", "ph": "X",
                 "pid": 1, "tid": worker,
                 "ts": round((started - self._t0) * 1e6),
                 "dur": round((now - started) * 1e6),
                 "args": {"key": task.key, "attempts": task.attempts}}
        for job_id, index in task.waiters:
            job = self.jobs[job_id]
            job.fill(index, result)
            self._trace.setdefault(job_id, []).append(event)
            self._maybe_finish(job)

    def _fail_task(self, task: PointTask, error: str) -> None:
        task.status = "failed"
        task.error = error
        self.metrics.inc("serve.point.failed")
        for job_id, index in task.waiters:
            job = self.jobs[job_id]
            if job.status == "running":
                job.error = f"point {index} failed: {error}"
                self._end_job(job, "failed")

    def _maybe_finish(self, job: Job) -> None:
        if job.status == "running" and not job.remaining:
            self._end_job(job, "done")
            self.metrics.inc("serve.job.done")

    def _end_job(self, job: Job, status: str) -> None:
        job.status = status
        job.finished = time.monotonic()
        self._running -= 1
        if not self._running and self._idle is not None:
            self._idle.set()

    # -- queries (HTTP layer) ----------------------------------------------
    def _job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeError(f"no such job {job_id!r}")
        return job

    def job_status(self, job_id: str) -> dict[str, Any]:
        """Live progress document for one job."""
        job = self._job(job_id)
        end = job.finished if job.finished is not None else time.monotonic()
        return {"job_id": job.job_id, "kind": job.kind,
                "status": job.status, "error": job.error,
                "total": job.total, "done": job.done_count,
                "cache_hits": job.cache_hits,
                "elapsed_sec": round(end - job.submitted, 6)}

    def list_jobs(self) -> list[dict[str, Any]]:
        """Status documents for every known job, in submit order."""
        return [self.job_status(job_id) for job_id in self.job_ids()]

    def job_ids(self) -> list[str]:
        """Every known job's id, in submit order (:func:`_job_order`)."""
        return sorted(self.jobs, key=_job_order)

    def job_result(self, job_id: str) -> dict[str, Any]:
        """The completed job's full result document.

        Raises :class:`~repro.errors.ServeError` while the job is still
        running (the HTTP layer maps that to 409) or when it failed.
        Campaign jobs additionally carry the same summary document a
        local ``run_campaign`` writes (via
        :func:`~repro.scenarios.campaign.summarize_outcomes`).
        ``spec`` and ``points`` are shared with every job of the same
        document, and ``results`` hold the store's shared results: treat
        the document as read-only.
        """
        job = self._job(job_id)
        if job.status == "failed":
            raise ServeError(f"{job_id} failed: {job.error}")
        if job.status != "done":
            raise ServeError(
                f"{job_id} still running "
                f"({job.done_count}/{job.total} points)")
        doc: dict[str, Any] = {
            "job_id": job.job_id, "kind": job.kind,
            "point_kind": job.point_kind, "spec": job.spec,
            "points": job.points, "results": job.results,
            "cache_hits": job.cache_hits,
        }
        if job.kind == "campaign":
            from ..scenarios.campaign import (campaign_manifest,
                                              summarize_outcomes)
            manifest = campaign_manifest(job.spec)
            doc["summary"] = summarize_outcomes(manifest, job.results, [])
        return doc

    def job_trace(self, job_id: str) -> dict[str, Any]:
        """Chrome-trace document of the job's point executions.

        Load it in ``chrome://tracing`` / Perfetto: one lane per worker,
        one slice per executed point (cache hits execute nothing and so
        draw nothing — an all-warm job has an empty trace).
        """
        self._job(job_id)
        return {"traceEvents": sorted(self._trace.get(job_id, []),
                                      key=lambda e: e["ts"]),
                "displayTimeUnit": "ms"}

    def healthz(self) -> dict[str, Any]:
        """Liveness document: workers (with pids), queue and cache state."""
        return {"ok": True, "worker_port": self.worker_port,
                "workers": {name: dict(info)
                            for name, info in sorted(self.workers.items())},
                "jobs": len(self.jobs),
                "queue_depth": self.queue_depth,
                "cache": {"hits": self.cache.hits,
                          "misses": self.cache.misses,
                          "stored": len(self.cache)}}
