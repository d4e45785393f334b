"""Per-process logical channels: the one place a p2p mechanism lives.

The paper's mechanisms (Lessons 1-13) are four ways of telling the MPI
library which messages are independent. From the application's side they
all answer the same question — *thread* ``tid`` *talks to thread*
``peer_tid`` *of process* ``peer_rank`` *about* ``app_tag``: *which
handle, which peer rank, which tag?* — and the library maps the answer
to a VCI. A :class:`Channels` object is that answer for one process,
resolved once at set-up (:func:`open_channels`, collective) instead of
re-decided at every call site:

- ``original``      — every thread on one communicator; thread ids may ride
  in the tag, but the library is told nothing (one VCI).
- ``tags``          — the same code plus the Listing 2 hint bundle on a
  duplicated communicator (Lessons 6-9).
- ``communicators`` — one duplicated communicator per sending thread
  (Listing 1's idea, keyed by thread id; the stencil's direction-keyed
  maps stay in :mod:`repro.apps.stencil.drivers`).
- ``endpoints``     — one endpoint per thread, addressed by endpoint rank
  (Listing 3).

Adding a p2p mechanism means adding one subclass here and its name to
:data:`MECHANISMS`; drivers — every app under :mod:`repro.apps` and the
Fig 1(a) microbenchmark, :mod:`repro.bench.msgrate` — never branch on the
mechanism name.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import MpiUsageError
from ..mapping.tags import TagSchema, listing2_info
from ..mpi.endpoints import comm_create_endpoints

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.info import Info
    from ..runtime.world import MpiProcess

__all__ = ["Channels", "MECHANISMS", "Route", "open_channels"]

#: ``(handle, peer, tag)`` — what ``Isend``/``Irecv`` need besides a buffer.
Route = tuple[Any, int, int]


class Channels:
    """One process's channels under one mechanism (base: ``original``).

    ``nthreads`` threads per process take part, of which the first
    ``senders`` (default: all) ever send. With ``app_bits`` set, the
    one-communicator mechanisms encode ``(src tid, dst tid, app_tag)``
    into the wire tag (Listing 2's layout, ``app_tag`` folded into
    ``app_bits`` bits); without it ``original`` passes ``app_tag``
    through. ``info`` is what the app asserts on ``original``'s
    communicator (none: ``COMM_WORLD`` itself, nothing is duplicated);
    ``comm_name`` names the duplicate those mechanisms make, and
    per-thread communicators are named ``f"{thread_prefix}{tid}"`` —
    names reach checker reports, so apps keep the ones they have always
    used.
    """

    #: A thread's incoming traffic may arrive on any of several handles
    #: (it cannot know which): a poller must keep a receive posted on,
    #: and test, every handle of :meth:`sweep`.
    scattered = False

    def __init__(self, proc: MpiProcess, nthreads: int,
                 senders: Optional[int] = None,
                 app_bits: Optional[int] = None,
                 comm_name: Optional[str] = None,
                 info: Optional[Info] = None,
                 thread_prefix: str = ""):
        self.proc = proc
        self.nthreads = nthreads
        self.senders = nthreads if senders is None else senders
        self.comm_name = comm_name
        self.info = info
        self.thread_prefix = thread_prefix
        self.tid_bits = max(1, math.ceil(math.log2(max(2, nthreads))))
        self.schema = None if app_bits is None else TagSchema(
            num_tid_bits=self.tid_bits, num_app_bits=app_bits)
        self.comm: Any = None
        #: MPI objects this mechanism keeps per process (Lesson 3's cost).
        self.resources = 1

    def open(self) -> Generator[Any, Any, None]:
        """Collective set-up: create what the mechanism communicates on."""
        if self.info is None:
            self.comm = self.proc.comm_world
        else:
            self.comm = yield from self.proc.comm_world.Dup(
                self.info, name=self.comm_name)

    def _tag(self, src_tid: int, dst_tid: int, app_tag: int) -> int:
        if self.schema is None:
            return app_tag
        return self.schema.encode(src_tid, dst_tid,
                                  app_tag & self.schema.max_app_tag)

    def handle(self, tid: int) -> Any:
        """The handle thread ``tid`` drives (its sends, its collectives)."""
        return self.comm

    def send(self, tid: int, peer_rank: int, peer_tid: int,
             app_tag: int) -> Route:
        """Route of a message from local thread ``tid``."""
        return self.comm, peer_rank, self._tag(tid, peer_tid, app_tag)

    def recv(self, tid: int, peer_rank: int, peer_tid: int,
             app_tag: int) -> Route:
        """Route on which local thread ``tid`` receives that message's
        mirror image (sent by ``peer_tid`` of ``peer_rank``)."""
        return self.comm, peer_rank, self._tag(peer_tid, tid, app_tag)

    def sweep(self, tid: int) -> list[Any]:
        """Every handle on which traffic for thread ``tid`` can arrive."""
        return [self.comm]


class TagChannels(Channels):
    """``tags``: ``original`` plus the Listing 2 hints — the mechanism is
    a one-line ``Dup`` on existing ``MPI_THREAD_MULTIPLE`` code."""

    def open(self) -> Generator[Any, Any, None]:
        if self.schema is None:
            raise MpiUsageError(
                "the tags mechanism needs app_bits: the hints describe a "
                "tag layout to the library")
        self.comm = yield from self.proc.comm_world.Dup(
            listing2_info(self.nthreads, self.tid_bits),
            name=self.comm_name)


class ThreadComms(Channels):
    """``communicators``: a static map of one communicator per sending
    thread, duplicated in thread order (``Comm_dup`` is collective)."""

    scattered = True

    def open(self) -> Generator[Any, Any, None]:
        """Dup one communicator per sending thread, in thread order."""
        self.comms = []
        for tid in range(self.senders):
            self.comms.append((yield from self.proc.comm_world.Dup(
                name=f"{self.thread_prefix}{tid}")))
        self.resources = len(self.comms)

    def handle(self, tid: int) -> Any:
        return self.comms[tid]

    def send(self, tid: int, peer_rank: int, peer_tid: int,
             app_tag: int) -> Route:
        return self.comms[tid], peer_rank, app_tag

    def recv(self, tid: int, peer_rank: int, peer_tid: int,
             app_tag: int) -> Route:
        # The receiver must know which communicator each partner sends
        # on — and distinct partners may share it (Lesson 5's conflicts).
        return self.comms[peer_tid], peer_rank, app_tag

    def sweep(self, tid: int) -> list[Any]:
        return list(self.comms)


class EndpointChannels(Channels):
    """``endpoints``: thread ``t`` of rank ``r`` *is* endpoint rank
    ``r * nthreads + t``; matching and parallelism are decoupled."""

    def open(self) -> Generator[Any, Any, None]:
        self.eps = yield from comm_create_endpoints(
            self.proc.comm_world, self.nthreads)
        self.resources = len(self.eps)

    def handle(self, tid: int) -> Any:
        return self.eps[tid]

    def send(self, tid: int, peer_rank: int, peer_tid: int,
             app_tag: int) -> Route:
        return self.eps[tid], peer_rank * self.nthreads + peer_tid, app_tag

    recv = send

    def sweep(self, tid: int) -> list[Any]:
        return [self.eps[tid]]


_IMPLEMENTATIONS: dict[str, type[Channels]] = {
    "original": Channels, "tags": TagChannels,
    "communicators": ThreadComms, "endpoints": EndpointChannels,
}

#: The p2p mechanisms an application can open channels under.
MECHANISMS = tuple(_IMPLEMENTATIONS)


def open_channels(proc: MpiProcess, mechanism: str, nthreads: int,
                  **options: Any) -> Generator[Any, Any, Channels]:
    """Collectively open ``proc``'s channels under ``mechanism``
    (``options`` as for :class:`Channels`); every rank must call this at
    the same point of its set-up — context ids are allocated in call
    order and pick the VCI."""
    try:
        cls = _IMPLEMENTATIONS[mechanism]
    except KeyError:
        raise MpiUsageError(
            f"no channels for mechanism {mechanism!r}; choose from "
            f"{MECHANISMS}") from None
    channels = cls(proc, nthreads, **options)
    yield from channels.open()
    return channels
