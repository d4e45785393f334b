"""Process wiring: the long-running service and the local run.

:func:`run_service` is the whole service in one call (the CLI's
``python -m repro serve`` is a thin wrapper): fork the worker pool, each
worker on its own socketpair attached to the orchestrator, start the
HTTP API on the same event loop, and announce readiness by atomically
writing ``state_dir/serve.json`` (``pid``, ``socket``, ``workers``) —
the discovery file tests and ``repro submit`` read to find the service.
The API's Unix socket (``state_dir/serve.sock``, owner-only) is the only
address a service listens on; it binds no port (a path too long for a
socket address puts the socket in a private temporary directory, and
``serve.json`` names it). Each worker has one slot: when its connection
ends, however it ends, the orchestrator has requeued its point, and the
slot kills and reaps the process and forks a replacement. Workers beat
every tenth of the heartbeat timeout.

:func:`run_local` is the same orchestrator, store and workers without
the HTTP API: submit one job (or resume the job journal of a state
directory), run the queue to completion in this call, return the result
documents. ``repro msgrate`` and ``repro campaign`` are built on it, so a
local checkpoint directory *is* a service state directory.

Worker-pool sizing (:func:`auto_jobs`): never more workers than the
CPUs this process may run on (:func:`usable_cpus`) unless
``oversubscribe=True`` — on a 1-CPU host, extra workers only add
dispatch overhead.

:func:`spawn_service` forks the service into a child process and waits
for its announcement, returning a :class:`ServiceHandle` that tests
use to ``kill -9`` the service (crash-resume) or individual workers
(requeue), then restart on the same ``state_dir``.

Every serve process maps only what serving runs. The service and its
workers are :class:`ForkedProcess` children (``os.fork`` and
``waitpid``, no process-pool package), and the event loop is imported
without TLS (:func:`import_asyncio`): no serve path speaks it, and
asyncio's ``ssl`` import would map OpenSSL into the service and every
worker it forks. The top level imports only what a submitting process
runs (:class:`ServiceHandle`, :func:`spawn_service`, :func:`auto_jobs`):
the event loop, the orchestrator, the HTTP API and the worker module
load inside the functions that run a service, so the forked service
child (or :func:`run_local`'s caller) loads them and the process that
forked it never does.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import json
import os
import select
import signal
import socket
import stat
import sys
import time
from dataclasses import dataclass
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import ServeError
from .client import ServeClient

if TYPE_CHECKING:
    from .orchestrator import Orchestrator

__all__ = ["ForkedProcess", "ServiceHandle", "auto_jobs", "import_asyncio",
           "read_discovery", "run_local", "run_service", "spawn_service"]

_DISCOVERY = "serve.json"
#: Seconds a terminated child has to exit before it is killed.
_GRACE = 5.0


def import_asyncio() -> ModuleType:
    """``import asyncio`` as an interpreter built without ``ssl`` does it.

    ``ssl`` is blocked (``sys.modules["ssl"] = None``) for this one
    import and unblocked after it, so a later ``import ssl`` anywhere
    still works; asyncio guards each of its ``ssl`` imports with
    ``except ImportError`` and then serves plain sockets only, which is
    all a serve process speaks. Where ``ssl`` or asyncio is loaded already
    there is nothing to save, and a normal import is all this does; if
    asyncio ever fails to import with ``ssl`` blocked, its partial
    import is dropped and it is imported normally.
    """
    if "ssl" not in sys.modules and "asyncio" not in sys.modules:
        sys.modules["ssl"] = None  # type: ignore[assignment]
        try:
            import asyncio
            return asyncio
        except ImportError:
            for name in [m for m in sys.modules
                         if m.partition(".")[0] == "asyncio"]:
                del sys.modules[name]
        finally:
            del sys.modules["ssl"]
    import asyncio
    return asyncio


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, OSError, ValueError):
            stream.flush()


def _child(target: Callable[..., object], args: tuple,
           kwargs: dict[str, Any]) -> int:
    """Run ``target`` in a forked child; its exit code (see
    :class:`ForkedProcess`)."""
    try:
        try:
            sys.stdin.close()
            sys.stdin = open(os.devnull, encoding="utf-8")
        except (AttributeError, OSError, ValueError):
            pass  # no stdin to close
        target(*args, **kwargs)
        return 0
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        sys.stderr.write(f"{exc.code}\n")
        return 1
    except BaseException:
        import traceback  # here: a submitting process never needs it
        traceback.print_exc()
        return 1
    finally:
        _flush_std_streams()


class ForkedProcess:
    """``target(*args, **kwargs)`` in a child forked now: ``os.fork`` and
    ``waitpid``, with the part of the standard library's process surface
    that serving uses (``pid``, ``is_alive``, ``join``, ``terminate``,
    ``kill``, ``exitcode``).

    The parent flushes its std streams first; the child closes its stdin
    (reopened on ``os.devnull``), runs the call and always leaves through
    ``os._exit``: 0 on return, a ``SystemExit``'s code, 1 with the
    traceback on stderr for any other exception. ``exitcode`` is None
    until the child is reaped, then its code, or ``-signal`` for a child
    a signal killed. Only the process that forked it may wait for it.
    """

    def __init__(self, target: Callable[..., object], *args: Any,
                 **kwargs: Any):
        _flush_std_streams()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child's coverage is lost
            code = 1
            try:
                code = _child(target, args, kwargs)
            finally:
                os._exit(code)
        self.pid = pid
        self.exitcode: Optional[int] = None

    def _reap(self, flags: int) -> bool:
        """Whether the child has exited (and is reaped), waiting for it
        unless ``flags`` holds ``os.WNOHANG``."""
        if self.exitcode is None:
            try:
                pid, status = os.waitpid(self.pid, flags)
            except ChildProcessError:
                return False  # not ours to wait for
            if pid == 0:
                return False
            self.exitcode = os.waitstatus_to_exitcode(status)
        return True

    def is_alive(self) -> bool:
        """Whether the child still runs; reaps it once it has exited."""
        return not self._reap(os.WNOHANG)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait until the child exits, or at most ``timeout`` seconds."""
        if timeout is None:
            self._reap(0)
            return
        deadline = time.monotonic() + timeout
        delay = 0.001
        while not self._reap(os.WNOHANG):
            left = deadline - time.monotonic()
            if left <= 0:
                return
            time.sleep(min(delay, left))
            delay = min(2 * delay, 0.02)

    def _signal(self, signum: int) -> None:
        if self.exitcode is None:  # a reaped pid may be someone else's
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signum)

    def terminate(self) -> None:
        """Send the child ``SIGTERM``."""
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        """Send the child ``SIGKILL``."""
        self._signal(signal.SIGKILL)


def _end(procs: list[ForkedProcess]) -> None:
    """Terminate every child of ``procs`` still running, give them
    :data:`_GRACE` seconds together to exit, kill the ones that did not,
    and reap them all."""
    for proc in procs:
        proc.terminate()
    deadline = time.monotonic() + _GRACE
    for proc in procs:
        proc.join(deadline - time.monotonic())
    for proc in procs:
        if proc.is_alive():
            proc.kill()
            proc.join()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (``taskset -c 0`` means 1 on any host), else the
    host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def auto_jobs(requested: Optional[int] = None,
              n_points: Optional[int] = None,
              oversubscribe: bool = False) -> int:
    """Worker count that never oversubscribes the host by default.

    Past the CPU count, dispatch overhead (IPC, scheduling) is pure loss:
    every usable CPU (:func:`usable_cpus`) and no more when ``requested
    is None``; an explicit request is capped at that count unless
    ``oversubscribe=True``; never more workers than ``n_points`` (idle
    workers are pure start-up cost); always at least 1.
    """
    cpus = max(1, usable_cpus())
    jobs = cpus if requested is None else max(1, int(requested))
    if not oversubscribe:
        jobs = min(jobs, cpus)
    if n_points is not None:
        jobs = min(jobs, max(1, int(n_points)))
    return jobs


@contextlib.asynccontextmanager
async def _workers(orch: Orchestrator, n: int):
    """``n`` forked workers, each attached to ``orch`` on a socketpair.

    Each worker has a slot: once its connection ends (it died, was
    killed, or the watchdog dropped it), the orchestrator has requeued
    its point, and the slot kills and reaps it and forks a replacement.
    The first ``n`` are forked and attached before this yields. On exit
    the slots stop, the orchestrator closes every connection, and every
    worker is terminated and reaped (killed if it outlives
    :data:`_GRACE`).
    """
    import asyncio

    from .worker import spawn_worker
    await orch.start()
    beat = orch.heartbeat_timeout / 10
    seq = itertools.count()
    pool = [spawn_worker(beat) for _ in range(n)]
    procs = [proc for proc, _sock in pool]
    ends = [await orch.attach(sock, f"w{next(seq)}", proc.pid)
            for proc, sock in pool]

    async def slot(i: int, ended: asyncio.Future) -> None:
        while True:
            await asyncio.shield(ended)
            procs[i].kill()
            procs[i].join()
            procs[i], sock = spawn_worker(beat)
            ended = await orch.attach(sock, f"w{next(seq)}", procs[i].pid)

    slots = [asyncio.ensure_future(slot(i, ended))
             for i, ended in enumerate(ends)]
    try:
        yield
    finally:
        for task in slots:
            task.cancel()
        await orch.stop()
        _end(procs)


def _write_discovery(state_dir: str, doc: dict) -> str:
    path = os.path.join(state_dir, _DISCOVERY)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    os.replace(tmp, path)
    return path


def read_discovery(state_dir: str) -> dict[str, Any]:
    """The discovery document in ``state_dir`` (``pid``, ``socket``,
    ``workers``), the one reader of ``serve.json``; a ServeError naming
    the file, caused by the error that read it, if none names a socket."""
    path = os.path.join(state_dir, _DISCOVERY)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not (isinstance(doc, dict) and isinstance(doc.get("socket"), str)):
            raise ValueError("it names no socket")
    except (OSError, ValueError) as exc:
        raise ServeError(f"no running service found via {path!r}") from exc
    return doc


def _remove_stale_socket(state_dir: str) -> None:
    """As the journal lock's holder, remove the private directory and
    socket a killed service's ``serve.json`` names: only a socket in a
    ``repro-serve-*`` directory that refuses a connection. A copy of a
    live state directory names a socket that accepts, and a damaged file
    may name anything; both are left alone."""
    with contextlib.suppress(ServeError, OSError):
        path = read_discovery(state_dir)["socket"]
        private = os.path.dirname(path)
        if not (os.path.basename(private).startswith("repro-serve-")
                and stat.S_ISSOCK(os.lstat(path).st_mode)):
            return
        with socket.socket(socket.AF_UNIX) as probe:
            probe.settimeout(1.0)
            if probe.connect_ex(path) != errno.ECONNREFUSED:
                return  # a live service listens on it
        os.unlink(path)
        os.rmdir(private)


async def _serve(state_dir: str, workers: Optional[int],
                 oversubscribe: bool, heartbeat_timeout: float,
                 announce: Callable[[str], None]) -> None:
    from .http import HttpApi
    from .orchestrator import Orchestrator
    orch = Orchestrator(state_dir, heartbeat_timeout=heartbeat_timeout)
    _remove_stale_socket(state_dir)
    n = auto_jobs(requested=workers, oversubscribe=oversubscribe)
    async with _workers(orch, n):
        orch.resume_jobs()
        api = HttpApi(orch)
        path = await api.start()
        _write_discovery(state_dir, {"socket": path, "pid": os.getpid(),
                                     "workers": n})
        announce(f"serving on {path} ({n} worker(s), state={state_dir})")
        try:
            await api.shutdown_requested.wait()
        finally:
            await api.stop()
            with contextlib.suppress(OSError):  # removed by hand
                os.remove(os.path.join(state_dir, _DISCOVERY))


def run_service(state_dir: str, workers: Optional[int] = None,
                oversubscribe: bool = False, heartbeat_timeout: float = 5.0,
                announce: Optional[Callable[[str], None]] = None) -> None:
    """Run the service until a ``POST /shutdown`` arrives (blocking).

    ``workers=None`` auto-sizes the local pool to the host
    (:func:`auto_jobs`); an explicit count is capped at the CPU count
    unless ``oversubscribe=True``; there is always at least one worker.
    A busy worker silent for ``heartbeat_timeout`` seconds is dropped
    and replaced. asyncio is imported without TLS
    (:func:`import_asyncio`) before anything else loads it.
    """
    asyncio = import_asyncio()
    os.makedirs(state_dir, exist_ok=True)
    asyncio.run(_serve(state_dir, workers, oversubscribe, heartbeat_timeout,
                       announce or (lambda _: None)))


async def _drain_with_workers(orch: Orchestrator, n: int) -> None:
    async with _workers(orch, n):
        await orch.wait_idle()


def run_local(state_dir: Optional[str] = None, kind: Optional[str] = None,
              spec: Optional[dict] = None, workers: int = 1) -> list[dict]:
    """Run one job — or resume a state directory — in this call, no HTTP.

    Builds an :class:`Orchestrator` on ``state_dir`` (a temporary one
    when ``None``), submits ``(kind, spec)`` or, with no job given,
    resumes every job of its journal, runs the queue and returns the
    documents ``GET /jobs/<id>/result`` would answer, in job order.
    Points already in ``state_dir/cache`` are reused, the rest execute:
    inline in this process when :func:`auto_jobs` settles on one worker,
    otherwise on that many forked socket workers (which exit on EOF, so
    killing the caller leaks nothing). A failed job raises
    :class:`~repro.errors.ServeError` naming the point and its error.
    """
    if state_dir is None:
        import tempfile
        with tempfile.TemporaryDirectory() as scratch:
            return run_local(scratch, kind, spec, workers)
    asyncio = import_asyncio()  # before the orchestrator imports it
    from .orchestrator import Orchestrator
    orch = Orchestrator(state_dir)
    try:
        if kind is None:
            orch.resume_jobs()
        else:
            orch.submit(kind, spec)
        n = auto_jobs(workers, orch.queue_depth)
        if n == 1:
            orch.drain_inline()
        else:
            asyncio.run(_drain_with_workers(orch, n))
        return [orch.job_result(job_id) for job_id in orch.job_ids()]
    finally:
        orch.close()


@dataclass
class ServiceHandle:
    """A forked service process and how to reach (and kill) it."""

    state_dir: str
    #: The path of the service's Unix socket.
    socket: str
    pid: int
    proc: ForkedProcess

    def client(self) -> ServeClient:
        """An HTTP client bound to this service."""
        return ServeClient(self.socket)

    def worker_pids(self) -> list[int]:
        """Pids of the currently attached workers (for kill tests)."""
        with self.client() as client:
            workers = client.healthz()["workers"]
        return sorted(info["pid"] for info in workers.values())

    def alive(self) -> bool:
        """Whether the service process is still running."""
        return self.proc.is_alive()

    def kill(self) -> None:
        """``kill -9`` the service process (crash-resume testing) and
        reap it."""
        self.proc.kill()
        self.proc.join()

    def stop(self) -> None:
        """Clean shutdown via ``POST /shutdown``; joins the process."""
        try:
            with self.client() as client:
                client.shutdown()
        except (ServeError, OSError):
            pass  # already dead; join below still reaps it
        self.proc.join(timeout=10)
        if self.proc.is_alive():  # pragma: no cover - hung service
            self.kill()


def spawn_service(state_dir: str, workers: Optional[int] = None,
                  oversubscribe: bool = False, heartbeat_timeout: float = 5.0,
                  timeout: float = 30.0) -> ServiceHandle:
    """Fork :func:`run_service` and wait for its announcement.

    The child writes one line on a pipe once ``state_dir/serve.json`` is
    written, so the caller can immediately submit jobs. Raises
    :class:`~repro.errors.ServeError` if the child dies (EOF, no line)
    or does not announce within ``timeout`` seconds; a child given up on
    is terminated (killed if it outlives :data:`_GRACE`) and reaped.
    """
    os.makedirs(state_dir, exist_ok=True)
    ready, announced = os.pipe()

    def announce(line: str) -> None:
        os.write(announced, line.encode() + b"\n")
        os.close(announced)

    proc = ForkedProcess(
        run_service, state_dir, workers=workers, oversubscribe=oversubscribe,
        heartbeat_timeout=heartbeat_timeout, announce=announce)
    os.close(announced)
    try:
        if not select.select([ready], [], [], timeout)[0]:
            raise ServeError(f"service did not become ready in {timeout}s")
        if not os.read(ready, 4096):
            proc.join(_GRACE)  # its end closes as it exits
            raise ServeError(f"service process died during startup "
                             f"(exitcode {proc.exitcode})")
        return ServiceHandle(state_dir=state_dir,
                             socket=read_discovery(state_dir)["socket"],
                             pid=proc.pid, proc=proc)
    except BaseException:
        _end([proc])
        raise
    finally:
        os.close(ready)
