"""User-visible MPI endpoints (the suspended MPI Forum proposal, a.k.a.
"MPI Rankpoints" in the paper's Section IV).

``comm_create_endpoints(parent, my_num_ep)`` is collective over the parent
communicator and returns ``my_num_ep`` endpoint handles. Each handle *is a
communicator rank*: endpoints are addressed exactly like processes in MPI
everywhere, which is why the paper calls them intuitive (Lesson 10). Every
endpoint gets a dedicated VCI, and the target VCI is derived from the
target endpoint rank — so matching information (ranks) and parallelism
information coincide, wildcards stay legal, and the library gets the
optimal mapping without implementation-specific hints (Lessons 11–12).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import MpiUsageError
from ..sim.core import Event
from .comm import Communicator
from .info import Info
from .vci import EndpointVciMap

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .library import MpiLibrary

__all__ = ["Endpoint", "comm_create_endpoints",
           "comm_create_rankpoints"]


class Endpoint(Communicator):
    """One endpoint handle of an endpoints communicator.

    Behaves exactly like a :class:`Communicator` whose rank is the endpoint
    rank; point-to-point and collectives work per endpoint.
    """

    def __init__(self, lib: "MpiLibrary", group: tuple[int, ...], ep_rank: int,
                 context_id: int, vci_map: EndpointVciMap,
                 parent: Communicator, local_index: int, name: str):
        # An endpoint commits exactly one channel, ``vci_map.my_vci`` —
        # "only as many endpoints as there are communicating threads"
        # (Lesson 12).
        super().__init__(lib, group, ep_rank, context_id,
                         hints=parent.hints, vci_map=vci_map, name=name)
        self.parent = parent
        #: Index of this endpoint among the creating process's endpoints.
        self.local_index = local_index

    def Dup(self, info: Optional[Info] = None, name: Optional[str] = None):
        raise MpiUsageError(
            "endpoint communicators cannot be duplicated; create a new set "
            "of endpoints from the parent communicator instead")

    def Allreduce(self, sendbuf: "np.ndarray", recvbuf: "np.ndarray",
                  op: Any = None) -> Generator[Event, Any, None]:
        """One-step allreduce: the library performs both the intranode and
        the internode portions (Lesson 18) via the hierarchical
        endpoint-aware algorithm."""
        from .coll import SUM
        from .coll.endpoint_coll import endpoint_allreduce
        with self._collective("Allreduce"):
            yield from endpoint_allreduce(self, sendbuf, recvbuf, op or SUM)


def comm_create_endpoints(parent: Communicator, my_num_ep: int,
                          info: Optional[Info] = None
                          ) -> Generator[Event, Any, list[Endpoint]]:
    """``MPI_Comm_create_endpoints`` (Fig 2 of the paper).

    Collective over ``parent``: every member passes its own ``my_num_ep``
    (counts may differ per process) and receives that many endpoint
    handles. Endpoint ranks are ordered by parent rank, then by local
    endpoint index — so with a uniform ``N`` endpoints per process,
    endpoint ``j`` of parent rank ``p`` has endpoint rank ``p*N + j``
    (the addressing used in Listing 3).
    """
    if my_num_ep < 0:
        raise MpiUsageError(f"my_num_ep must be >= 0, got {my_num_ep}")
    lib = parent.lib
    world = lib.world
    seq = next(parent._create_seq)
    key = ("create_endpoints", parent.context_id, seq)
    my_vcis = [lib.alloc_endpoint_vci() for _ in range(my_num_ep)]
    meeting = yield from world.meet(
        key, nmembers=parent.size, rank=parent.rank,
        contribution=(my_num_ep, my_vcis),
        alloc=lambda: {"context_id": world.alloc_context_id()})
    context_id = meeting.shared["context_id"]

    # Assemble the global endpoint rank space, ordered by parent rank.
    group: list[int] = []        # ep rank -> world rank of owner
    vci_table: list[int] = []    # ep rank -> VCI index on the owner
    my_offset = 0
    for prank in range(parent.size):
        count, vcis = meeting.contributions[prank]
        if prank == parent.rank:
            my_offset = len(group)
        owner_world = parent.group[prank]
        group.extend([owner_world] * count)
        vci_table.extend(vcis)

    ep_group = tuple(group)
    handles = []
    for i in range(my_num_ep):
        ep_rank = my_offset + i
        vci_map = EndpointVciMap(my_vci=my_vcis[i], ep_vci_table=vci_table)
        handles.append(Endpoint(
            lib, ep_group, ep_rank, context_id, vci_map, parent,
            local_index=i, name=f"{parent.name}.ep{ep_rank}"))
    return handles


def comm_create_rankpoints(parent: Communicator, my_num_rankpoints: int,
                           info: Optional[Info] = None
                           ) -> Generator[Event, Any, list[Endpoint]]:
    """``MPI_Comm_create_rankpoints`` — Section IV's rebranding.

    The paper argues the endpoints proposal should be re-presented to
    domain scientists as *rankpoints*: "users can create multiple MPI
    ranks within a process", emphasizing that these are not handles to
    network resources (Lesson 17) but a flexible way to express
    parallelism. Semantically identical to
    :func:`comm_create_endpoints`.
    """
    handles = yield from comm_create_endpoints(parent, my_num_rankpoints,
                                               info)
    return handles
