"""The simulated MPI library (MPICH-flavoured, VCI-enabled).

Implements the three designs the paper compares:

- existing mechanisms: communicators (:class:`~repro.mpi.comm.Communicator`
  with Dup), tags + Info hints (:mod:`repro.mpi.info`), RMA windows
  (:mod:`repro.mpi.rma`);
- user-visible endpoints (:mod:`repro.mpi.endpoints`);
- partitioned communication (:mod:`repro.mpi.partitioned`).
"""

from .. import _lazy
from .comm import Communicator, MatchedMessage
from .datatypes import (
    BYTE,
    COMPLEX,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    Datatype,
    VectorType,
)
from .info import CommHints, Info, WindowHints, parse_comm_hints, parse_window_hints
from .library import MpiLibrary
from .matching import ANY_SOURCE, ANY_TAG, MatchingEngine, PostedRecv
from .request import Request, Status, startall, testall, testany, waitall, waitany
from .vci import (
    TAG_BITS,
    TAG_UB,
    EndpointVciMap,
    SingleVciMap,
    TagBitsVciMap,
    Vci,
    VciPool,
    mix_hash,
)

#: Persistent requests load with the first program that asks for one.
__getattr__, __dir__ = _lazy(__name__, {
    ".persistent": ("PersistentRequest", "recv_init", "send_init"),
})

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "BYTE", "COMPLEX", "CommHints", "Communicator",
    "DOUBLE", "Datatype", "EndpointVciMap", "FLOAT", "INT", "Info", "LONG",
    "MatchedMessage", "MatchingEngine", "MpiLibrary", "PersistentRequest",
    "PostedRecv", "Request", "SingleVciMap", "Status", "TAG_BITS", "TAG_UB",
    "TagBitsVciMap", "Vci", "VciPool", "VectorType", "WindowHints",
    "mix_hash", "parse_comm_hints", "parse_window_hints", "recv_init",
    "send_init", "startall", "testall", "testany", "waitall", "waitany",
]
