"""Socket worker: connects to the orchestrator, runs points, reports.

A worker is deliberately dumb — it owns no queue, no cache and no retry
policy. It connects, says hello, and then loops: read a job frame, run
the point via the single shared execution path
(:func:`repro.serve.points.execute_point`), write back a result or error
frame. All scheduling intelligence (dedupe, requeue, caching) lives in
the orchestrator, so a worker can die at any instant — ``kill -9``
included — and the only observable effect is a dropped socket, which the
orchestrator treats as "re-queue whatever that worker held".

While a point runs, the worker's one daemon thread writes a heartbeat every
``heartbeat`` seconds so the orchestrator can tell a *slow* worker from
a *wedged* one (a SIGSTOP'd worker stops heartbeating and is declared
dead after the timeout; a worker grinding through a big simulation keeps
heartbeating and is left alone).
"""

from __future__ import annotations

import os
import socket
import threading
import traceback
from typing import Iterator, Optional

from .points import execute_point
from .protocol import (
    FrameDecoder,
    heartbeat_frame,
    hello_frame,
    result_frame,
    write_frame,
)
from .protocol import error_frame as _error_frame
from .service import ForkedProcess, fork_available

__all__ = ["worker_main", "spawn_worker"]


class _Heart(threading.Thread):
    """The worker's one daemon thread: until ``done`` is set it writes a
    heartbeat frame every ``interval`` host seconds while a point executes
    (``busy``, which the main loop sets around ``execute_point``). Socket
    writes are serialized with the result writes through ``lock`` — and
    ``busy`` is read and cleared under it — so a heartbeat can neither
    interleave bytes mid-frame nor follow its point's result.
    """

    def __init__(self, sock: socket.socket, lock: threading.Lock,
                 name: str, interval: float):
        super().__init__(daemon=True)
        self._sock = sock
        self._lock = lock
        self._name = name
        self._interval = interval
        self.busy = False
        self.done = threading.Event()

    def run(self) -> None:
        """Beat every ``interval`` host seconds until ``done``."""
        while not self.done.wait(self._interval):
            try:
                with self._lock:
                    if self.busy:
                        write_frame(self._sock, heartbeat_frame(self._name,
                                                                busy=True))
            except OSError:
                return  # orchestrator is gone; main loop will notice too


def _frames(sock: socket.socket) -> Iterator[dict]:
    """Every frame the peer sends, until it closes the connection.

    A clean EOF at a frame boundary ends the iteration; EOF inside a
    frame raises :class:`~repro.errors.ProtocolError`.
    """
    decoder = FrameDecoder()
    while data := sock.recv(65536):
        yield from decoder.feed(data)
    decoder.close()


def worker_main(host: str, port: int, name: str,
                heartbeat: float = 0.5) -> None:
    """Run the worker loop until the orchestrator closes the connection.

    Connects to the orchestrator's worker port, sends a hello frame
    (name + pid, so the service can expose worker pids for test
    harnesses to ``kill -9``), then serves job frames one at a time.
    A failing point produces an ``error`` frame with the traceback; the
    worker itself survives and asks for the next job. EOF or a
    ``shutdown`` frame ends the loop — so orphaned workers exit on
    their own when the orchestrator dies.
    """
    sock = socket.create_connection((host, port))
    lock = threading.Lock()
    heart = _Heart(sock, lock, name, heartbeat)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        write_frame(sock, hello_frame(name, os.getpid()))
        heart.start()
        for frame in _frames(sock):
            if frame["type"] == "shutdown":
                return
            if frame["type"] != "job":
                continue  # future-proof: ignore unknown orchestrator frames
            heart.busy = True
            try:
                reply = result_frame(frame["id"], execute_point(
                    frame["kind"], frame["point"]))
            except Exception:
                reply = _error_frame(frame["id"], traceback.format_exc())
            with lock:
                heart.busy = False
                write_frame(sock, reply)
    except OSError:
        return  # connection lost: orchestrator will requeue our job
    finally:
        heart.done.set()
        sock.close()


def spawn_worker(host: str, port: int, name: str,
                 heartbeat: float = 0.5) -> Optional[ForkedProcess]:
    """Fork a local worker process running :func:`worker_main`.

    A forked worker inherits loaded modules and starts in milliseconds.
    Returns ``None`` where ``fork`` is unavailable (non-POSIX hosts).
    """
    if not fork_available():  # pragma: no cover - non-POSIX hosts
        return None
    return ForkedProcess(worker_main, host, port, name, heartbeat=heartbeat)
