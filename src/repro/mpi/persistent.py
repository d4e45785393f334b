"""Persistent point-to-point operations (MPI_Send_init / MPI_Recv_init).

Classic persistent requests predate partitioned communication and are the
natural baseline for it: the argument setup is hoisted out of the critical
path, but — unlike partitioned operations — every ``start`` still produces
a full message that is matched anew, so the O(n) matching behaviour of
multithreaded communication is unchanged. Comparing the two isolates what
partitioned communication actually buys (match-once channels) from mere
persistence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import MpiUsageError
from ..sim.core import Event
from .datatypes import p2p_buffer
from .request import Request

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .comm import Communicator

__all__ = ["PersistentRequest", "send_init", "recv_init"]


class PersistentRequest:
    """A reusable send or receive: init once, then start/wait repeatedly."""

    def __init__(self, comm: "Communicator", kind: str,
                 buf: np.ndarray | bytearray,
                 peer: int, tag: int, count: Optional[int]):
        if kind not in ("send", "recv"):
            raise MpiUsageError(f"bad persistent request kind {kind!r}")
        self.comm = comm
        self.kind = kind
        self.buf = buf
        self.peer = peer
        self.tag = tag
        self.count = count
        self.active: Optional[Request] = None
        self.cycles = 0

    def start(self) -> Generator[Event, Any, None]:
        """Activate the operation (MPI_Start)."""
        if self.active is not None and not self.active.done:
            raise MpiUsageError(
                "MPI_Start on a persistent request whose previous cycle "
                "has not completed")
        if self.kind == "send":
            self.active = yield from self.comm.Isend(self.buf, self.peer,
                                                     self.tag, self.count)
        else:
            self.active = yield from self.comm.Irecv(self.buf, self.peer,
                                                     self.tag, self.count)
        self.cycles += 1

    def wait(self) -> Generator[Event, Any, Any]:
        """Complete the active cycle; the request stays reusable."""
        if self.active is None:
            raise MpiUsageError("wait on a never-started persistent request")
        status = yield from self.active.wait()
        return status

    def test(self):
        if self.active is None:
            return None
        return self.active.test()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PersistentRequest {self.kind} peer={self.peer} "
                f"tag={self.tag} cycles={self.cycles}>")


def send_init(comm: "Communicator", buf: np.ndarray | bytearray, dest: int,
              tag: int,
              count: Optional[int] = None) -> PersistentRequest:
    """``MPI_Send_init``: local; validates arguments eagerly."""
    comm._check_alive()
    comm._check_peer(dest, wildcard_ok=False)
    comm._check_tag(tag, wildcard_ok=False)
    p2p_buffer(buf, count)
    return PersistentRequest(comm, "send", buf, dest, tag, count)


def recv_init(comm: "Communicator", buf: np.ndarray | bytearray,
              source: int, tag: int,
              count: Optional[int] = None) -> PersistentRequest:
    """``MPI_Recv_init``: local; wildcards permitted (unlike partitioned
    receives — Lesson 15's distinction)."""
    comm._check_alive()
    comm._check_peer(source, wildcard_ok=True)
    comm._check_tag(tag, wildcard_ok=True)
    p2p_buffer(buf, count)
    return PersistentRequest(comm, "recv", buf, source, tag, count)
