"""Socket worker: a forked child that runs points and reports.

A worker is deliberately dumb — it owns no queue, no cache and no retry
policy. The orchestrator forks it with one end of a socketpair
(:func:`spawn_worker`), and it loops: read a job frame, run the point via
the single shared execution path
(:func:`repro.serve.points.execute_point`), write back a result or error
frame. All scheduling intelligence (dedupe, requeue, caching) lives in
the orchestrator, so a worker can die at any instant — ``kill -9``
included — and the only observable effect is a dropped socket, which the
orchestrator treats as "re-queue whatever that worker held". The pair
is the only way in: no port is bound, so no other process can attach.
A forked worker closes every descriptor it inherited but its std streams
and its own end, so it holds no other worker's pair, no HTTP socket and
no job journal; EOF on its end is the one signal to leave.

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
from typing import Iterator

from .points import execute_point
from .protocol import (
    FrameDecoder,
    heartbeat_frame,
    result_frame,
    write_frame,
)
from .protocol import error_frame as _error_frame
from .service import ForkedProcess

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
                 interval: float):
        super().__init__(daemon=True)
        self._sock = sock
        self._lock = lock
        self._interval = interval
        self.busy = False
        self.done = threading.Event()

    def run(self) -> None:
        """Beat every ``interval`` host seconds until ``done``."""
        while not self.done.wait(self._interval):
            try:
                with self._lock:
                    if self.busy:
                        write_frame(self._sock, heartbeat_frame())
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


def worker_main(sock: socket.socket, heartbeat: float = 0.5) -> None:
    """Run the worker loop on ``sock`` until the orchestrator closes it.

    Serves job frames one at a time. A failing point produces an
    ``error`` frame with the traceback; the worker itself survives and
    asks for the next job. EOF ends the loop — the orchestrator's way to
    stop a worker, and why orphaned workers exit on their own when the
    orchestrator dies.
    """
    lock = threading.Lock()
    heart = _Heart(sock, lock, heartbeat)
    try:
        heart.start()
        for frame in _frames(sock):
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


def _forked_worker(sock: socket.socket, heartbeat: float) -> None:
    """A forked worker: close every inherited descriptor but 0-2 and
    ``sock``, then serve. The child never returns to the service's event
    loop, so none of the objects that held those descriptors is used
    again."""
    fd = sock.fileno()
    os.closerange(3, fd)
    os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
    worker_main(sock, heartbeat)


def spawn_worker(heartbeat: float = 0.5
                 ) -> tuple[ForkedProcess, socket.socket]:
    """Fork a worker running :func:`worker_main` on a new socketpair.

    Returns the process and the service's end of the pair (for
    :meth:`~repro.serve.orchestrator.Orchestrator.attach`). A forked
    worker inherits loaded modules and starts in milliseconds.
    """
    ours, theirs = socket.socketpair()
    with theirs:
        proc = ForkedProcess(_forked_worker, theirs, heartbeat)
    return proc, ours
