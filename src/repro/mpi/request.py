"""Requests and statuses for nonblocking operations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import MpiUsageError
from ..sim.core import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..check.hb import Access, Publication

__all__ = ["Status", "Request", "startall", "waitall"]


@dataclass(slots=True)
class Status:
    """Completion status of one operation (MPI_Status)."""

    source: int = -1
    tag: int = -1
    count: int = 0
    error: Optional[BaseException] = None
    cancelled: bool = False


class Request:
    """Handle for a nonblocking operation.

    A request is created *active* and is completed exactly once by the
    library (locally for sends, on matching+delivery for receives). Waiting
    is done with ``status = yield from req.wait()``.
    """

    __slots__ = ("sim", "kind", "rid", "_done", "_status", "_completed",
                 "user_data", "vci", "_hb_access", "_hb_edges")

    # Checker-only, assigned by ``Checker.on_request_new`` and never set on
    # an unchecked simulator: the last wait/test/cancel on this request,
    # and the clocks its completion published — at most the sender's and
    # the completing task's — which a waiter joins when it observes it.
    _hb_access: Optional["Access"]
    _hb_edges: tuple["Publication", ...]

    def __init__(self, sim: Simulator, kind: str = "generic"):
        self.sim = sim
        self.kind = kind
        # Per-simulator numbering: request ids (which appear in checker
        # diagnostics) must be a function of the run alone, not of how
        # many Worlds this process executed before — campaign replays
        # compare diagnostics byte for byte.
        self.rid = rid = sim._next_rid
        sim._next_rid = rid + 1
        # The completion event, built when something needs it (see
        # :meth:`_event`): an eager receive completed before anyone waits
        # never builds one.
        self._done: Optional[Event] = None
        # Built by whatever completes the request, with its fields: none
        # is read before then (see :attr:`status`).
        self._status: Optional[Status] = None
        self._completed = False
        #: Scratch slot for library internals (e.g. matching bookkeeping).
        self.user_data: Any = None
        #: The VCI the operation was posted on (set by the posting path);
        #: MPI_Test on the request serializes on this channel's lock.
        self.vci = None
        if sim.checker is not None:
            sim.checker.on_request_new(self)

    def _event(self) -> Event:
        """The ``_done`` event, built on first need: by a waiter, or by a
        completion that schedules it (``MpiLibrary.complete_at`` builds
        its own, already triggered)."""
        done = self._done
        if done is None:
            # Hand-built pending Event: the shell needs no __init__ logic.
            done = self._done = Event.__new__(Event)
            done.sim = self.sim
            done.callbacks = []
            done._value = None
            done._exc = None
            done._triggered = False
            done._processed = False
        return done

    # -- library side ------------------------------------------------------
    def complete(self, source: int = -1, tag: int = -1, count: int = 0) -> None:
        """Mark the request complete (library-internal)."""
        if self._completed:
            raise MpiUsageError(f"request {self.rid} completed twice")
        self._completed = True
        self._status = status = Status(source, tag, count)
        if self.sim.checker is not None:
            self.sim.checker.on_request_complete(self)
        self._event().succeed(status)

    def _complete_inline(self, source: int, tag: int, count: int) -> None:
        """Like :meth:`complete`, but processes ``_done`` synchronously
        instead of via a same-time urgent heap event.

        Only valid when the caller is the last action of the current event
        dispatch (nothing else runs between it and the urgent completion
        event the normal path would enqueue), so the waiters' resume point
        in the global event order is identical either way. The eager
        receive-completion path qualifies; see ``MpiLibrary._complete_recv``.
        With no waiter yet there is no ``_done`` to process, and none is
        built: a later wait finds the request complete.
        """
        if self._completed:
            raise MpiUsageError(f"request {self.rid} completed twice")
        self._completed = True
        self._status = status = Status(source, tag, count)
        if self.sim.checker is not None:
            self.sim.checker.on_request_complete(self)
        done = self._done
        if done is not None:
            done._triggered = True
            done._value = status
            done._process()

    def _finalize(self, event: Event) -> None:
        """First callback of a pre-scheduled completion (see
        ``MpiLibrary.complete_at``): mark the request complete at the
        moment the ``_done`` event processes, before waiters resume."""
        self._completed = True

    def complete_with_error(self, exc: BaseException) -> None:
        """Complete the request carrying ``exc`` in its status."""
        if self._completed:
            raise MpiUsageError(f"request {self.rid} completed twice")
        self._completed = True
        self._status = Status(error=exc)
        if self.sim.checker is not None:
            self.sim.checker.on_request_complete(self)
        self._event().fail(exc)

    # -- user side ----------------------------------------------------------
    def cancel(self) -> bool:
        """Cancel the operation if it has not yet matched (MPI_Cancel).

        Only a receive still sitting in its VCI's posted queue can be
        cancelled: a request that already completed, a receive that
        already matched a message (the race is decided by the matching
        engine, atomically in simulated time), and any send request all
        report False and complete normally. On success the request
        completes immediately with ``status.cancelled`` set — visible
        through :meth:`test`, :meth:`wait`, and :func:`waitall`.
        """
        if self.sim.checker is not None:
            self.sim.checker.on_request_access(self)
        if self._completed:
            return False
        if self.vci is None or not self.vci.engine.cancel_posted(self):
            return False
        self._completed = True
        self._status = status = Status(cancelled=True)
        if self.sim.checker is not None:
            self.sim.checker.on_request_complete(self)
        self._event().succeed(status)
        return True

    @property
    def done(self) -> bool:
        return self._completed

    @property
    def status(self) -> Status:
        """The completion status (MPI_Status); a default one until the
        request completes."""
        if self._status is None:
            self._status = Status()
        return self._status

    def test(self) -> Optional[Status]:
        """Nonblocking completion check (MPI_Test): Status or None."""
        chk = self.sim.checker
        if chk is not None:
            chk.on_request_access(self)
        if self._completed:
            return self._result(chk)
        return None

    def wait(self) -> Generator[Event, Any, Status]:
        """Block (in simulated time) until complete; returns the Status.
        (:func:`waitall` does the same for a plain request, inline.)"""
        chk = self.sim.checker
        if chk is not None:
            chk.on_request_access(self)
        if not self._completed:
            yield self._event()
        return self._result(chk)

    def _result(self, chk) -> Status:
        """What a completed request's test or wait returns: its status,
        after the checker (``chk``, or None) joins the completion's clocks;
        raises the error it completed with."""
        if chk is not None:
            chk.on_request_join(self)
        status = self._status
        if status.error is not None:
            raise status.error
        return status

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._completed else "active"
        return f"<Request #{self.rid} {self.kind} {state}>"


def startall(requests: list[Any]) -> Generator[Event, Any, None]:
    """Start every persistent or partitioned request (MPI_Startall)."""
    for req in requests:
        yield from req.start()


def waitall(requests: list[Any]) -> Generator[Event, Any, list[Status]]:
    """Wait for all requests — plain, persistent or partitioned; returns
    what each ``wait`` returned (a partitioned one returns None), in
    order.

    A plain :class:`Request` is waited on here, as :meth:`Request.wait`
    does it, without a generator of its own: a message rate's window is
    one ``waitall`` over many plain requests.
    """
    statuses = []
    for req in requests:
        if type(req) is not Request:
            statuses.append((yield from req.wait()))
            continue
        chk = req.sim.checker
        if chk is not None:
            chk.on_request_access(req)
        if not req._completed:
            yield req._event()
        statuses.append(req._result(chk))
    return statuses
