"""The orchestrator: job queue, scheduler, dedupe, requeue, resume.

The orchestrator owns every piece of scheduling state the workers do
not: the point queue, the in-flight table, the result store and the job
journal. It is the only scheduler in the tree: ``repro serve`` feeds
its queue to socket workers, :func:`repro.serve.run_local` (``repro
msgrate``, ``repro campaign``) to the same workers or — at one worker — to
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
  put back on the queue, up to :data:`MAX_ATTEMPTS` tries.
- **crash resume** — every accepted job's ``(kind, spec)`` document is
  appended, as one line, to the journal ``state_dir/jobs.log`` before
  the submit call returns: one ``os.write`` on a descriptor opened once.
  Because expansion is deterministic and results live in the cache, a
  restarted orchestrator rebuilds its entire queue from journal +
  cache: finished points are served warm, only the rest re-run.
- **known documents** — a job document has one canonical text
  (:func:`job_text`), and every text that expanded is kept with its
  expansion and its points' key records. A job whose text is known —
  submitted again, or a second line of it on resume — is expanded by no
  one, and its job is filled by one store lookup over its points — or
  by none, once the store has proved every one of them.

With socket workers, scheduling runs on one asyncio event loop; each
worker is a child the service forked, attached (:meth:`Orchestrator.attach`)
on its end of a socketpair as one :class:`asyncio.Protocol`. That
connection is the worker's whole life: the protocol always reads, so a
worker that exits, is killed or is aborted by the watchdog (a busy
worker gone silent) ends it whether idle or busy, and its end is the
one place a worker is dropped and its point requeued. Points pair with
idle workers in :meth:`Orchestrator._dispatch`, which runs on submit,
on requeue, on attach and after each result. The inline drain
needs no loop at all. Host wall-clock (not simulated time) feeds the
metrics registry and trace spans — this is the service layer, the one
place in the tree where host time is the measurand.
"""

from __future__ import annotations

import asyncio
import errno
import fcntl
import json
import math
import os
import re
import socket
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from ..errors import ProtocolError, ServeError
from ..obs.metrics import Counters, MetricsRegistry
from .cache import PENDING, ResultCache, blob_key, point_blob
from .points import execute_point, expand_job
from .protocol import (
    CANONICAL_JSON,
    FrameDecoder,
    bound_reads,
    encode_frame,
    job_frame,
)

__all__ = ["Expansion", "Job", "JournalLine", "PointTask", "Orchestrator",
           "JOURNAL", "MAX_ATTEMPTS", "job_text", "read_journal"]

_JOB_ID = re.compile(r"job-([0-9]{5,})")
#: The job journal's name in a state directory: one line per accepted job.
JOURNAL = "jobs.log"
#: How many workers may be lost running one point before it fails.
MAX_ATTEMPTS = 3


def job_text(kind: str, spec: Any) -> str:
    """The canonical text of a job document: the sorted, compact JSON of
    ``{"kind": kind, "spec": spec}`` as JSON reads it back.

    It is the job's key in the orchestrator's expansion table, what is
    expanded (so a tuple is a list live and after a resume alike) and,
    behind the job id, its journal line. It reads back to itself: a key
    that is no string (a YAML ``10:``) is sorted before it becomes one,
    so the text is sorted again as JSON reads it, and once read back
    every key is a string. Raises :class:`~repro.errors.ServeError` for a
    document JSON cannot hold (keys of mixed types, a cycle).
    """
    try:
        text = CANONICAL_JSON.encode({"kind": kind, "spec": spec})
    except (TypeError, ValueError) as exc:
        raise ServeError(f"job document is not JSON: {exc}") from exc
    return CANONICAL_JSON.encode(json.loads(text))


def _job_number(job_id: str) -> Optional[int]:
    match = _JOB_ID.fullmatch(job_id)
    return int(match[1]) if match else None


class JournalLine(NamedTuple):
    """One whole line of a job journal, read.

    ``error`` is None for a job, else why the line is none; the line then
    stands for a failed job named ``line-<number>``.
    """

    number: int
    job_id: str
    kind: str
    spec: dict
    error: Optional[str] = None


def _journal_bytes(state_dir: str) -> bytes:
    """The bytes of ``state_dir``'s journal, or ``b""`` when it has none."""
    try:
        with open(os.path.join(state_dir, JOURNAL), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _whole(data: bytes) -> bytes:
    """``data`` up to its last newline: a last line without one is a torn
    append, never acknowledged, so it is no job."""
    return data[:data.rfind(b"\n") + 1]


def _parse_line(raw: bytes, seen: set[str]) -> tuple[Any, str]:
    """``(doc, "")`` for a job line, else ``(None, why it is none)``."""
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        return None, f"not JSON ({type(exc).__name__})"
    if not (isinstance(doc, dict) and doc.keys() == {"job_id", "kind", "spec"}
            and isinstance(doc["job_id"], str)
            and _job_number(doc["job_id"]) is not None
            and isinstance(doc["kind"], str)
            and isinstance(doc["spec"], dict)):
        return None, "not a {job_id, kind, spec} line"
    if doc["job_id"] in seen:
        return None, f"{doc['job_id']} is taken by an earlier line"
    return doc, ""


def _read_lines(path: str, data: bytes) -> list[JournalLine]:
    """Each line of ``data``, whole lines of the journal at ``path``."""
    lines: list[JournalLine] = []
    seen: set[str] = set()
    for number, raw in enumerate(data.split(b"\n")[:-1], 1):
        doc, why = _parse_line(raw, seen)
        if why:
            lines.append(JournalLine(number, f"line-{number}", "", {},
                                     f"{path}:{number}: corrupt job line: "
                                     f"{why}"))
            continue
        seen.add(doc["job_id"])
        lines.append(JournalLine(number, doc["job_id"], doc["kind"],
                                 doc["spec"]))
    return lines


def read_journal(state_dir: str) -> list[JournalLine]:
    """Every whole line of ``state_dir``'s job journal, in order.

    The one reader of a state directory's jobs: an :class:`Orchestrator`
    resumes what it returns, a campaign is its first line. A torn last
    line is not read.
    """
    return _read_lines(os.path.join(state_dir, JOURNAL),
                       _whole(_journal_bytes(state_dir)))


@dataclass
class PointTask:
    """One deduped unit of work: a (point kind, point) pair and its fans.

    ``waiters`` lists every ``(job_id, index)`` slot awaiting this
    point's result — the in-flight dedupe table is exactly the mapping
    from cache key to one of these, queued or running, until it is done
    or failed. ``blob`` is the point's canonical
    key record (:func:`repro.serve.cache.point_blob`), serialised once
    per job document (its :class:`Expansion`) and reused to save the
    result.
    """

    key: str
    kind: str
    point: dict
    blob: str
    attempts: int = 0
    waiters: list[tuple[str, int]] = field(default_factory=list)


@dataclass(slots=True)
class Expansion:
    """One job document, expanded: what every job with its text shares.

    ``kind`` and ``spec`` are the document's as JSON reads them back,
    ``blobs[i]`` the key record of ``points[i]``. ``warm`` is the result
    list of the first job of this document whose every point hit the
    store, and the result list of every later job of it: the store never
    forgets a proved point and answers it with the same object every
    time, so those lists would be equal. Shared, like the store's
    results: read-only.
    """

    kind: str
    spec: dict
    point_kind: str
    points: list[dict]
    blobs: list[str]
    warm: Optional[list[Any]] = None


@dataclass(slots=True)
class Job:
    """One submitted job: its document, expansion and fill-in results.

    ``kind``, ``spec`` and ``points`` are its :class:`Expansion`'s,
    shared with every job of the same document: read-only. So are the
    ``results`` of a job whose every point hit the store
    (:attr:`Expansion.warm`); a job with a miss has a list of its own,
    which :meth:`fill` fills. Slotted: a service keeps every job it
    accepted.
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


class _WorkerLink(asyncio.Protocol):
    """One attached worker's connection, read for as long as it lasts.

    The link holds the worker's running point, when it was sent
    (``started``) and when the worker's next bytes are due (``due``:
    only a busy link has a deadline). A result frame completes or fails
    the point and makes the link idle again. :meth:`connection_lost` is
    the one place a worker ends, idle or busy: its point is requeued and
    :attr:`ended` resolves.
    """

    def __init__(self, orch: "Orchestrator", name: str, pid: int):
        self.orch = orch
        self.name = name
        self.pid = pid
        self.transport: Any = None
        self.decoder = FrameDecoder()
        self.task: Optional[PointTask] = None
        self.started = 0.0
        self.due: Optional[float] = None
        #: Why the connection ended, named in a requeued point's error.
        self.reason = "connection closed"
        #: Resolves once the connection has ended.
        self.ended: asyncio.Future = \
            asyncio.get_running_loop().create_future()

    def connection_made(self, transport: Any) -> None:
        """List the worker and offer it a point."""
        self.transport = transport
        bound_reads(transport)
        orch = self.orch
        orch._links.add(self)
        orch.count["serve.worker.connected"].inc()
        orch._ready.append(self)
        orch._dispatch()

    def run(self, task: PointTask) -> None:
        """Send ``task`` to the worker and start its deadline."""
        self.task = task
        self.transport.write(encode_frame(job_frame(task.key, task.kind,
                                                    task.point)))
        self.started = time.monotonic()
        self.due = self.started + self.orch.heartbeat_timeout

    def data_received(self, data: bytes) -> None:
        """Bytes move a busy link's deadline out (a live worker beats
        well inside it); a result frame ends its point."""
        if self.due is not None:
            self.due = time.monotonic() + self.orch.heartbeat_timeout
        try:
            frames = self.decoder.feed(data)
        except ProtocolError as exc:
            self.drop(str(exc))
            return
        orch = self.orch
        for frame in frames:
            task = self.task
            if frame["type"] != "result" or task is None:
                continue  # a heartbeat
            self.task = self.due = None
            if frame.get("ok"):
                orch._complete(task, frame["result"], worker=self.name,
                               started=self.started)
            else:
                orch._fail_task(task, str(frame.get("error")))
            orch._ready.append(self)
        orch._dispatch()

    def eof_received(self) -> None:
        """The worker closed: at a frame boundary a plain close, inside
        a frame a protocol error. Returning None closes the transport."""
        try:
            self.decoder.close()
        except ProtocolError as exc:
            self.reason = str(exc)

    def drop(self, reason: str) -> None:
        """End the connection now, naming ``reason``."""
        self.reason = reason
        self.transport.abort()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        """The worker's end: unlist it, requeue its point, resolve
        :attr:`ended`."""
        if exc is not None:
            self.reason = str(exc) or type(exc).__name__
        orch = self.orch
        orch._links.discard(self)
        if self in orch._ready:
            orch._ready.remove(self)
        orch.count["serve.worker.lost"].inc()
        if self.task is not None:
            orch._requeue(self.task, self.reason)
        self.ended.set_result(None)


class Orchestrator:
    """The service's scheduler: submit jobs, feed workers, track results.

    All mutation happens on the event loop thread; the HTTP layer calls
    the synchronous query/submit methods from its own coroutines on the
    same loop, so no locking is needed.

    The orchestrator owns ``state_dir``: it opens the job journal once,
    for appends, when it is built, holds an exclusive ``flock`` on it
    (a second orchestrator on the directory raises
    :class:`~repro.errors.ServeError`) and cuts a torn last line off
    (:func:`read_journal`). :meth:`stop` (or :meth:`close`) closes the
    journal and so releases the directory. ``heartbeat_timeout`` must be
    a positive, finite number of seconds.

    The store (:attr:`cache`) owns finished results, the counters own the
    hit counts (:meth:`cache_counts`), and :attr:`tasks` holds only the
    points queued or running, so a later job reruns a failed point.
    """

    def __init__(self, state_dir: str, heartbeat_timeout: float = 5.0):
        if not (math.isfinite(heartbeat_timeout) and heartbeat_timeout > 0):
            raise ValueError(f"heartbeat_timeout must be a positive, finite "
                             f"number of seconds, not {heartbeat_timeout!r}")
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.cache = ResultCache(os.path.join(state_dir, "cache"))
        self.heartbeat_timeout = heartbeat_timeout
        self.metrics = MetricsRegistry()
        #: Held counter handles of ``metrics`` (the HTTP edge's too).
        self.count = Counters(self.metrics)
        self.jobs: dict[str, Job] = {}
        #: Canonical text (:func:`job_text`) -> expansion, for every job
        #: document that expanded; it grows with distinct documents, as
        #: ``jobs`` grows with jobs.
        self.expansions: dict[str, Expansion] = {}
        self.tasks: dict[str, PointTask] = {}
        self._t0 = time.monotonic()
        self._trace: dict[str, list[dict]] = {}
        #: Keys of queued points, in claim order.
        self._queue: deque[str] = deque()
        #: Every attached worker's link, and the idle ones in wait order.
        self._links: set[_WorkerLink] = set()
        self._ready: deque[_WorkerLink] = deque()
        self._watchdog_task: Optional[asyncio.Future] = None
        self._running = 0  # jobs in status "running"
        self._idle: Optional[asyncio.Event] = None  # see wait_idle
        self._journal = os.path.join(state_dir, JOURNAL)
        #: The journal's lines, until :meth:`resume_jobs` registers them.
        self._held = self._open_journal()
        self._next_id = 1 + max((_job_number(line.job_id) or 0
                                 for line in self._held), default=0)

    def _open_journal(self) -> list[JournalLine]:
        """Open and lock the journal for appends, cutting a torn last
        line off; returns its lines."""
        self._journal_fd = os.open(
            self._journal, os.O_WRONLY | os.O_APPEND | os.O_CREAT
            | os.O_CLOEXEC, 0o666)
        try:
            fcntl.flock(self._journal_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            self.close()
            raise ServeError(f"state directory {self.state_dir} is held by "
                             f"another orchestrator") from None
        data = _journal_bytes(self.state_dir)
        whole = _whole(data)
        if len(whole) < len(data):  # a torn append
            os.ftruncate(self._journal_fd, len(whole))
        #: The journal's length: where a failed append is cut back to.
        self._journal_size = len(whole)
        return _read_lines(self._journal, whole)

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Start the watchdog of attached workers."""
        self._watchdog_task = asyncio.ensure_future(self._watchdog())

    async def attach(self, sock: socket.socket, name: str,
                     pid: int) -> asyncio.Future:
        """Feed points to the worker ``name`` (process ``pid``) at the other
        end of the connected ``sock``, from now until the connection ends.
        The worker is listed in :attr:`workers` once this returns; the
        returned future resolves when its connection has ended."""
        _transport, link = await asyncio.get_running_loop(
        ).create_connection(lambda: _WorkerLink(self, name, pid), sock=sock)
        return link.ended

    @property
    def workers(self) -> dict[str, dict[str, Any]]:
        """Each attached worker's pid and running point (None: idle)."""
        return {link.name: {"pid": link.pid,
                            "busy": link.task.key if link.task else None}
                for link in self._links}

    async def _watchdog(self) -> None:
        """Drop busy links whose deadline has passed."""
        reason = f"no heartbeat for {self.heartbeat_timeout}s"
        while True:
            await asyncio.sleep(self.heartbeat_timeout / 4)
            now = time.monotonic()
            for link in list(self._links):
                if link.due is not None and now > link.due:
                    link.drop(reason)

    def close(self) -> None:
        """Close the job journal; a later submit raises."""
        if self._journal_fd >= 0:
            os.close(self._journal_fd)
            self._journal_fd = -1

    async def stop(self) -> None:
        """Close the job journal and every worker's connection (EOF tells
        a worker to leave), and wait until each has ended."""
        self.close()
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
        self._ready.clear()  # nothing more is sent
        links = list(self._links)
        for link in links:
            link.transport.close()
        await asyncio.gather(*(link.ended for link in links))

    def resume_jobs(self) -> None:
        """Rebuild queue state from the job journal + the result cache.

        This IS the crash-resume path: journal lines are tiny (the job
        document, not the expansion), expansion is deterministic, and
        every completed point is in the cache — so the rebuilt queue
        contains exactly the points the dead orchestrator hadn't
        finished, with zero lost and zero duplicated work. Jobs resume in
        journal order. A line that cannot be read or no longer expands
        (its sampler version moved underneath it) becomes a failed job
        whose error names the line, and never blocks the others. Lines of
        one document share one expansion (:meth:`_expand`).
        """
        held, self._held = self._held, []
        for line in held:
            error = line.error
            if error is None:
                try:
                    expansion = self._expand(job_text(line.kind, line.spec))
                except ServeError as exc:
                    error = f"{self._journal}:{line.number}: {exc}"
                else:
                    self._register_job(line.job_id, expansion)
                    self.count["serve.job.resumed"].inc()
                    continue
            self.jobs[line.job_id] = Job(
                job_id=line.job_id, kind=line.kind, spec=line.spec,
                point_kind="", points=[], results=[], status="failed",
                error=error, submitted=time.monotonic())
            self.count["serve.job.corrupt"].inc()

    # -- job intake --------------------------------------------------------
    def submit(self, kind: str, spec: dict) -> str:
        """Validate, persist and enqueue one job; returns its id.

        The job's journal line is written *before* any point is queued,
        so a crash at any later instant leaves a resumable record. It is
        the job's canonical text with the id in front (``job_id`` sorts
        first), the bytes every build wrote as a manifest, and a newline.
        An append that fails raises ``OSError`` and consumes no id.
        """
        return self.submit_text(job_text(kind, spec))

    def submit_text(self, text: str) -> str:
        """:meth:`submit` of the job document whose canonical text
        (:func:`job_text`) is ``text``."""
        expansion = self._expand(text)  # raises on a bad document
        job_id = f"job-{self._next_id:05d}"
        self._append(f'{{"job_id":"{job_id}",{text[1:]}\n'.encode())
        self._next_id += 1
        self._register_job(job_id, expansion)
        self.count["serve.job.submitted"].inc()
        return job_id

    def _append(self, line: bytes) -> None:
        """Write ``line`` to the journal in one ``os.write``; a failed or
        short write is cut back off the journal, then raises."""
        try:
            written = os.write(self._journal_fd, line)
            if written != len(line):
                raise OSError(errno.EIO, f"short write to {self._journal}: "
                              f"{written} of {len(line)} bytes")
        except OSError:
            os.ftruncate(self._journal_fd, self._journal_size)
            raise
        self._journal_size += written

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
                doc["kind"], doc["spec"], point_kind, points,
                [point_blob(point_kind, point) for point in points])
        return expansion

    def _register_job(self, job_id: str, expansion: Expansion) -> None:
        """Add a job and fill it from the store in one lookup (none once
        the store has proved every point of its document) that skips the
        points in flight or queued; only the points the store lacks are
        deduped against those tasks."""
        points, blobs = expansion.points, expansion.blobs
        results = expansion.warm
        if results is not None:
            misses = 0
        else:
            results = self.cache.load_blobs(
                blobs, [task.blob for task in self.tasks.values()])
            misses = results.count(PENDING)
            if not misses:
                expansion.warm = results
        job = Job(job_id=job_id, kind=expansion.kind, spec=expansion.spec,
                  point_kind=expansion.point_kind, points=points,
                  results=results, submitted=time.monotonic(),
                  remaining=misses, cache_hits=len(points) - misses)
        self.jobs[job_id] = job
        self._running += 1
        if misses:
            for index, blob in enumerate(blobs):
                if results[index] is not PENDING:
                    continue
                key = blob_key(blob)
                task = self.tasks.get(key)
                if task is None:
                    task = PointTask(key=key, kind=expansion.point_kind,
                                     point=points[index], blob=blob)
                    self.tasks[key] = task
                    self._queue.append(key)
                    self.count["serve.point.queued"].inc()
                task.waiters.append((job_id, index))
            self.count["serve.cache.miss"].inc(misses)
            self._dispatch()
        # One increment per job, not per point; a counter that never
        # counted stays out of the snapshot.
        if len(points) > misses:
            self.count["serve.cache.hit"].inc(len(points) - misses)
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
        return len(self._queue)

    def _dispatch(self) -> None:
        """Pair queued points with idle workers while both wait."""
        queue, ready = self._queue, self._ready
        while queue and ready:
            ready.popleft().run(self.tasks[queue.popleft()])

    def drain_inline(self) -> None:
        """Run the whole queue in this process, as a service's workers do
        (a failed job's other points too): :attr:`tasks` ends empty.

        The one-worker executor: same claim → :func:`execute_point` →
        complete/fail steps as a socket worker's link, minus
        the socket (a single socket worker measured +14% on the Fig 1(a)
        sweep and buys no parallelism).
        """
        while self._queue:
            task = self.tasks[self._queue.popleft()]
            started = time.monotonic()
            try:
                result = execute_point(task.kind, task.point)
            except Exception:
                self._fail_task(task, traceback.format_exc())
            else:
                self._complete(task, result, worker="inline",
                               started=started)

    def _requeue(self, task: PointTask, reason: str) -> None:
        """Put a lost worker's point back on the queue (bounded tries)."""
        task.attempts += 1
        self.count["serve.point.requeued"].inc()
        if task.attempts >= MAX_ATTEMPTS:
            self._fail_task(
                task, f"gave up after {task.attempts} attempts "
                f"(last worker: {reason})")
        else:
            self._queue.append(task.key)
            self._dispatch()

    def _complete(self, task: PointTask, result: Any, worker: str,
                  started: float) -> None:
        now = time.monotonic()
        del self.tasks[task.key]
        try:
            self.cache.save_blob(task.blob, result)
        except OSError:
            # The store remembers the result all the same: its waiters
            # are filled now, and a later job asking for it hits.
            self.count["serve.cache.save_failed"].inc()
        self.count["serve.point.done"].inc()
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
        del self.tasks[task.key]
        self.count["serve.point.failed"].inc()
        for job_id, index in task.waiters:
            job = self.jobs[job_id]
            if job.status == "running":
                job.error = f"point {index} failed: {error}"
                self._end_job(job, "failed")

    def _maybe_finish(self, job: Job) -> None:
        if job.status == "running" and not job.remaining:
            self._end_job(job, "done")
            self.count["serve.job.done"].inc()

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
        """Every known job's id, in journal (submit) order."""
        return list(self.jobs)

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

    def cache_counts(self) -> dict[str, int]:
        """The ``cache`` document of ``/healthz`` and ``/metrics``: the
        ``serve.cache.hit``/``.miss`` counters and the stored points."""
        value = self.metrics.value
        return {"hits": int(value("serve.cache.hit")),
                "misses": int(value("serve.cache.miss")),
                "stored": len(self.cache)}

    def healthz(self) -> dict[str, Any]:
        """Liveness document: workers (with pids), queue and cache state."""
        return {"ok": True,
                "workers": dict(sorted(self.workers.items())),
                "jobs": len(self.jobs),
                "queue_depth": self.queue_depth,
                "cache": self.cache_counts()}
