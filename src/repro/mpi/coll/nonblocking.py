"""Nonblocking collectives (MPI-3 ``I...`` variants).

Each nonblocking collective spawns a library-internal progress task that
runs the blocking algorithm and completes a :class:`Request` when done —
the standard way to overlap a collective with computation::

    req = yield from comm.Iallreduce(send, recv)
    yield proc.compute(work)        # overlap
    yield from req.wait()

The serial-collective rule still applies: the communicator is busy until
the nonblocking collective *completes*, and a second collective issued
meanwhile is rejected (MPI forbids two outstanding collectives on one
communicator from overlapping arbitrarily; modelling the strict variant
keeps the paper's "use distinct communicators to parallelize" guidance
honest).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ...sim.core import Event
from ..request import Request

if TYPE_CHECKING:  # pragma: no cover
    from ..comm import Communicator

__all__ = ["start_nonblocking_collective"]


def start_nonblocking_collective(comm: "Communicator", opname: str,
                                 algorithm: Generator
                                 ) -> Generator[Event, Any, Request]:
    """Launch ``algorithm`` (a collective generator) as a progress task.

    Returns the request that completes when the collective finishes on
    this rank. Holds the communicator's serial-collective guard for the
    whole lifetime of the operation.
    """
    guard = comm._collective(opname, "nonblocking collective")
    guard.__enter__()
    req = Request(comm.sim, f"icoll-{opname}")
    yield comm.sim.timeout(comm.lib.cpu.send_post)  # issue cost

    def progress() -> Generator[Event, Any, None]:
        try:
            yield from algorithm
        finally:
            guard.__exit__(None, None, None)
        req.complete()

    comm.sim.spawn(progress(), name=f"{comm.name}.{opname}")
    return req
