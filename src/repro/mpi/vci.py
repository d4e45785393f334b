"""Virtual Communication Interfaces (VCIs) and VCI-selection policies.

A VCI is MPICH's unit of software communication parallelism: an
independent communication channel with its own lock, its own matching
engine, and its own NIC hardware context [Zambre et al., ICS'20]. The MPI
library maps *logically parallel* operations onto distinct VCIs; operations
on the same VCI serialize on its lock and matching engine.

The mapping policies here implement the three ways the paper's mechanisms
expose parallelism:

- :class:`SingleVciMap` — MPI's default semantics: one VCI per
  communicator (chosen by hashing the context id into the pool). Multiple
  *communicators* therefore land on multiple VCIs, which is exactly the
  communicator mechanism of Lesson 1.
- :class:`TagBitsVciMap` — the "tags with hints" mechanism (Listing 2):
  VCIs selected from tag bits (one-to-one) or a tag hash. Receive-side
  spreading requires the no-wildcard assertions; ``allow_overtaking``
  alone unlocks only sender-side spreading.
- :class:`EndpointVciMap` — user-visible endpoints: every endpoint has a
  dedicated VCI; the sender derives the target VCI from the target
  endpoint rank. Matching information (ranks) and parallelism information
  coincide, so wildcards remain usable (Lesson 11).
"""

from __future__ import annotations

from typing import Optional

from ..errors import HintViolationError, MpiUsageError
from ..netsim.config import CpuCosts
from ..netsim.nic import HardwareContext, Nic
from ..sim.core import Simulator
from ..sim.resources import FIFOServer
from ..sim.sync import Lock
from .info import CommHints
from .matching import ANY_TAG, MatchingEngine

__all__ = ["TAG_BITS", "TAG_UB", "mix_hash", "Vci", "VciPool", "VciMap",
           "SingleVciMap", "TagBitsVciMap", "EndpointVciMap"]

#: Width of the MPI tag space in bits. MPI guarantees MPI_TAG_UB >= 32767;
#: we model a 20-bit space, small enough that encoding thread ids into tags
#: meaningfully eats the application's tag space (Lesson 9).
TAG_BITS = 20
TAG_UB = (1 << TAG_BITS) - 1


def mix_hash(x: int) -> int:
    """Deterministic 64-bit integer mixer (splitmix64 finalizer).

    Used wherever both sides of a transfer must agree on a hash (Python's
    ``hash`` is the identity on small ints, which would collapse tag hashes
    onto the application bits).
    """
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class Vci:
    """One virtual communication interface.

    With a metrics registry on the simulator the VCI pre-builds its
    issue-path metric handles (``m_*``) so the hot path in
    :meth:`~repro.mpi.library.MpiLibrary.issue_from_thread` records stage
    timings with plain attribute updates, and instruments its lock with a
    contention observer (the doorbell lock is instrumented by the NIC
    layer, which knows the node/context labels).
    """

    __slots__ = ("sim", "index", "lock", "engine", "match_server",
                 "hw_context", "sends", "recvs", "m_issue", "m_issue_async",
                 "m_lock_wait", "m_db_wait", "m_sw_cost", "m_inject_delay",
                 "m_shared_post")

    def __init__(self, sim: Simulator, index: int, cpu: CpuCosts,
                 hw_context: HardwareContext, rank: int = 0):
        self.sim = sim
        self.index = index
        #: Serializes thread access to this channel's send path and queues.
        self.lock = Lock(sim, name=f"vci{index}.lock")
        labels = {"rank": rank, "vci": index}
        metrics = sim.metrics
        if metrics is not None:
            from ..obs.metrics import instrument_lock
            self.engine = MatchingEngine(metrics, labels)
            self.m_issue = metrics.counter("mpi.issue.count", **labels)
            self.m_issue_async = metrics.counter("mpi.issue.async", **labels)
            self.m_lock_wait = metrics.histogram("mpi.issue.lock_wait",
                                                 **labels)
            self.m_db_wait = metrics.histogram("mpi.issue.doorbell_wait",
                                               **labels)
            self.m_sw_cost = metrics.histogram("mpi.issue.sw_cost", **labels)
            self.m_inject_delay = metrics.histogram("mpi.issue.inject_delay",
                                                    **labels)
            self.m_shared_post = metrics.counter("nic.shared_post", **labels)
            instrument_lock(self.lock, metrics, rank=rank, vci=index)
        else:
            self.engine = MatchingEngine()
            self.m_issue = None
            self.m_issue_async = None
            self.m_lock_wait = None
            self.m_db_wait = None
            self.m_sw_cost = None
            self.m_inject_delay = None
            self.m_shared_post = None
        #: Serializes arrival-side matching work in *time* (matching is "a
        #: costly serial operation", Section II-C).
        self.match_server = FIFOServer(sim, name=f"vci{index}.match")
        self.hw_context = hw_context
        self.sends = 0
        self.recvs = 0


class VciPool:
    """The per-process pool of VCIs.

    Mirrors MPICH: the pool size is fixed at init (``MPIR_CVAR_CH4_NUM_VCIS``);
    logical channels are mapped into the pool, and each VCI draws a NIC
    hardware context from the node's (possibly smaller) context pool —
    creating the resource pressure of Lesson 3 when many communicators are
    used to express parallelism.
    """

    def __init__(self, sim: Simulator, nic: Nic, cpu: CpuCosts,
                 max_vcis: int = 64, rank: int = 0):
        if max_vcis < 1:
            raise MpiUsageError("VCI pool needs at least one VCI")
        self.sim = sim
        self.nic = nic
        self.cpu = cpu
        self.max_vcis = max_vcis
        self.rank = rank
        self._vcis: dict[int, Vci] = {}

    def get(self, index: int) -> Vci:
        """Return VCI ``index % max_vcis``, creating it on first use."""
        index %= self.max_vcis
        vci = self._vcis.get(index)
        if vci is None:
            vci = Vci(self.sim, index, self.cpu, self.nic.allocate_context(),
                      rank=self.rank)
            self._vcis[index] = vci
        return vci

    def vci_index_for_context(self, context_id: int) -> int:
        """Default communicator-to-VCI assignment: hash the context id.

        This is the "overloaded definition" hazard of Lesson 4: *every*
        communicator — whether created for grouping or for parallelism —
        consumes a slot by this hash, so grouping communicators can
        collide with parallelism communicators.
        """
        return mix_hash(context_id) % self.max_vcis

    @property
    def num_active(self) -> int:
        return len(self._vcis)

    @property
    def active_vcis(self) -> list[Vci]:
        return [self._vcis[i] for i in sorted(self._vcis)]


class VciMap:
    """Policy mapping an operation to (local VCI, remote VCI)."""

    #: The one local VCI index every operation under this map uses, or
    #: None when the VCIs depend on the tag and are picked per message.
    #: When set, ``send_remote`` depends on the destination alone, so a
    #: communicator may resolve its route to a peer once.
    fixed_vci: Optional[int] = None

    def send_local(self, src_addr: int, dst_addr: int, tag: int) -> int:
        raise NotImplementedError

    def send_remote(self, src_addr: int, dst_addr: int, tag: int) -> int:
        raise NotImplementedError

    def recv_vci(self, dst_addr: int, source: int, tag: int) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class SingleVciMap(VciMap):
    """Everything on one VCI — MPI's default per-communicator behaviour."""

    def __init__(self, index: int):
        self.index = self.fixed_vci = index

    def send_local(self, src_addr: int, dst_addr: int, tag: int) -> int:
        return self.index

    def send_remote(self, src_addr: int, dst_addr: int, tag: int) -> int:
        return self.index

    def recv_vci(self, dst_addr: int, source: int, tag: int) -> int:
        return self.index

    def describe(self) -> str:
        return f"single(vci={self.index})"


class TagBitsVciMap(VciMap):
    """Tag-driven VCI selection, configured by MPICH hints (Listing 2).

    Tag layout with MSB placement and ``b = num_tag_bits_vci``::

        | src_tid (b bits) | dst_tid (b bits) | application bits |
        ^ bit TAG_BITS-1                       ^ bit 0

    With LSB placement the src/dst fields sit in the low bits instead.

    - ``one-to-one``: local VCI from the sender-thread bits, remote VCI
      from the receiver-thread bits. Requires no-wildcard assertions.
    - ``hash``: both sides hash the whole tag. Receive-side hashing also
      requires no wildcards; with only ``allow_overtaking`` the hash is
      applied on the send side and the receive side stays on the base VCI.
    """

    def __init__(self, hints: CommHints, base_index: int, num_pool_vcis: int):
        if hints.num_vcis < 1:
            raise MpiUsageError("TagBitsVciMap requires num_vcis >= 1")
        self.hints = hints
        self.base = base_index
        self.n = min(hints.num_vcis, num_pool_vcis)
        self.bits = hints.num_tag_bits_vci
        self.msb = hints.place_tag_bits_local_vci == "MSB"
        self.one_to_one = hints.tag_vci_hash_type == "one-to-one"

    # -- tag-field extraction ------------------------------------------------
    def src_field(self, tag: int) -> int:
        mask = (1 << self.bits) - 1
        if self.msb:
            return (tag >> (TAG_BITS - self.bits)) & mask
        return tag & mask

    def dst_field(self, tag: int) -> int:
        mask = (1 << self.bits) - 1
        if self.msb:
            return (tag >> (TAG_BITS - 2 * self.bits)) & mask
        return (tag >> self.bits) & mask

    def _spread(self, value: int) -> int:
        return self.base + value % self.n

    # -- policy ---------------------------------------------------------------
    def send_local(self, src_addr: int, dst_addr: int, tag: int) -> int:
        if not self.hints.send_side_spreading:
            return self.base
        if self.one_to_one:
            return self._spread(self.src_field(tag))
        return self._spread(mix_hash(tag))

    def send_remote(self, src_addr: int, dst_addr: int, tag: int) -> int:
        if not self.hints.recv_side_spreading:
            return self.base
        if self.one_to_one:
            return self._spread(self.dst_field(tag))
        return self._spread(mix_hash(tag))

    def recv_vci(self, dst_addr: int, source: int, tag: int) -> int:
        """VCI whose queues a posted receive with this tag lives on."""
        if not self.hints.recv_side_spreading:
            return self.base
        if tag == ANY_TAG:
            raise HintViolationError(
                "ANY_TAG receive on a communicator asserting "
                "mpi_assert_no_any_tag")
        if self.one_to_one:
            return self._spread(self.dst_field(tag))
        return self._spread(mix_hash(tag))

    def describe(self) -> str:
        kind = "one-to-one" if self.one_to_one else "hash"
        return (f"tag-bits({kind}, n={self.n}, bits={self.bits}, "
                f"base={self.base})")


class EndpointVciMap(VciMap):
    """Dedicated VCI per endpoint; target VCI derived from target rank."""

    def __init__(self, my_vci: int, ep_vci_table: list[int]):
        self.my_vci = self.fixed_vci = my_vci
        #: ``ep_vci_table[ep_rank]`` = VCI index on the *owner process* of
        #: that endpoint. Shared by all endpoints of the communicator.
        self.table = ep_vci_table

    def send_local(self, src_addr: int, dst_addr: int, tag: int) -> int:
        return self.my_vci

    def send_remote(self, src_addr: int, dst_addr: int, tag: int) -> int:
        return self.table[dst_addr]

    def recv_vci(self, dst_addr: int, source: int, tag: int) -> int:
        # Matching lives on the endpoint's own VCI regardless of source or
        # tag — wildcards remain legal (Lesson 11).
        return self.my_vci

    def describe(self) -> str:
        return f"endpoint(vci={self.my_vci})"
