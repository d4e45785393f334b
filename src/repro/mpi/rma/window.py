"""RMA windows: Put / Get / Accumulate with flush-based completion
(Section III-B of the paper).

Channel-mapping semantics (Lesson 16):

- **nonatomic** operations (Put/Get) are unordered by MPI's default
  semantics, so with ``mpich_rma_num_vcis > 1`` the library spreads them
  over VCIs by hashing ``(target, offset-block)``;
- **atomic** operations (Accumulate) are ordered per
  (origin, target, location) by default. The library cannot prove two
  atomics independent, so with default ordering they all ride the window's
  single base VCI. Setting ``accumulate_ordering=none`` lets the library
  hash-spread them — but "any hashing policy is prone to collisions";
- a window created over an **endpoints** communicator routes each
  endpoint's operations through that endpoint's dedicated VCI: parallelism
  *and* atomicity, the paper's argument for endpoints in RMA.

Remote completion: every operation is acknowledged by the target; ``Flush``
blocks until all outstanding operations to the target are acknowledged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

import numpy as np

from ...errors import MpiUsageError, RmaSemanticsError
from ...netsim.message import MessageKind, WireMessage
from ...sim.core import Event
from ..coll import ops as _ops
from ..coll.ops import SUM, Op
from ..datatypes import check_buffer
from ..info import Info, WindowHints, parse_window_hints
from ..request import Request
from ..vci import EndpointVciMap, Vci, mix_hash

if TYPE_CHECKING:  # pragma: no cover
    from ...check.hb import Access
    from ..comm import Communicator
    from ..library import MpiLibrary

__all__ = ["Window", "win_create"]

#: Elements per hash block for channel spreading of RMA operations.
HASH_BLOCK_ELEMS = 256


def _ensure_handlers(lib: "MpiLibrary") -> None:
    if MessageKind.RMA_PUT in lib.handlers:
        return
    lib.rma_windows = {}
    lib.rma_get_pending = {}
    lib.handlers[MessageKind.RMA_PUT] = lambda m: _on_put(lib, m)
    lib.handlers[MessageKind.RMA_GET_REQ] = lambda m: _on_get_req(lib, m)
    lib.handlers[MessageKind.RMA_GET_RESP] = lambda m: _on_get_resp(lib, m)
    lib.handlers[MessageKind.RMA_ACC] = lambda m: _on_acc(lib, m)
    lib.handlers[MessageKind.RMA_ACK] = lambda m: _on_ack(lib, m)


class Window:
    """One process's (or endpoint's) handle on an RMA window."""

    # Checker-only, assigned by ``Checker.register_window`` and never set
    # on an unchecked simulator: the targets with an open Lock epoch and
    # whether the handle ever opened one (CHK107); per target, the last
    # nonatomic write and read as ``(access, lo, hi)`` (CHK108).
    _hb_locked: set
    _hb_epochs_used: bool
    _hb_last_write: dict[int, tuple["Access", int, int]]
    _hb_last_read: dict[int, tuple["Access", int, int]]

    def __init__(self, comm: "Communicator", memory: np.ndarray,
                 win_id: int, sizes: list[int], hints: WindowHints):
        self.comm = comm
        self.lib = comm.lib
        self.sim = comm.sim
        self.memory = check_buffer(memory)
        self.win_id = win_id
        #: ``sizes[target]`` = element count exposed by each window rank.
        self.sizes = sizes
        self.hints = hints
        self.base_vci = self.lib.vci_pool.vci_index_for_context(win_id)
        #: Outstanding (unacknowledged) operations per target rank.
        self._outstanding: dict[int, int] = {}
        self._flush_waiters: list[tuple[Optional[int], Event]] = []

    # ------------------------------------------------------------------
    # channel selection
    # ------------------------------------------------------------------
    def _vci_index(self, target: int, disp: int, atomic: bool) -> int:
        vm = self.comm.vci_map
        if isinstance(vm, EndpointVciMap):
            # Endpoints: each endpoint is an independent origin — its own
            # channel is always legal, even for atomics (Lesson 16).
            return vm.my_vci
        if atomic and not self.hints.atomics_may_spread:
            return self.base_vci
        if self.hints.num_vcis > 1:
            block = disp // HASH_BLOCK_ELEMS
            h = mix_hash((target << 24) ^ block)
            return (self.base_vci + h % self.hints.num_vcis) \
                % self.lib.vci_pool.max_vcis
        return self.base_vci

    def _remote_vci_index(self, target: int, disp: int, atomic: bool) -> int:
        vm = self.comm.vci_map
        if isinstance(vm, EndpointVciMap):
            return vm.table[target]
        return self._vci_index(target, disp, atomic)

    # ------------------------------------------------------------------
    # origin-side helpers
    # ------------------------------------------------------------------
    def _check_rank(self, target: Optional[int]) -> None:
        """Reject a target that is not a rank of the window (``None``,
        every target, is always valid)."""
        if target is not None and not 0 <= target < self.comm.size:
            raise MpiUsageError(f"window target {target} out of range")

    def _check_target(self, target: int, disp: int, count: int) -> None:
        self._check_rank(target)
        if disp < 0 or count < 0:
            raise RmaSemanticsError("negative displacement/count")
        if disp + count > self.sizes[target]:
            raise RmaSemanticsError(
                f"access [{disp}, {disp + count}) exceeds window size "
                f"{self.sizes[target]} at target {target}")

    def _build(self, kind: MessageKind, target: int, disp: int,
               data: Optional[np.ndarray], atomic: bool,
               extra: dict[str, Any]) -> tuple[Vci, WireMessage]:
        lib = self.lib
        local_idx = self._vci_index(target, disp, atomic)
        remote_idx = self._remote_vci_index(target, disp, atomic)
        dst_world = self.comm.group[target]
        dst_proc = lib.world.proc(dst_world)
        meta = {"win": self.win_id, "dst_addr": target,
                "src_addr": self.comm.rank, "disp": disp,
                "origin_node": lib.node.node_id, "origin_rank": lib.rank,
                "origin_vci": local_idx}
        meta.update(extra)
        msg = WireMessage(
            kind=kind, src_node=lib.node.node_id,
            dst_node=dst_proc.node.node_id, src_rank=lib.rank,
            dst_rank=dst_world, context_id=self.win_id, tag=0,
            size=0 if data is None else data.nbytes,
            payload=None if data is None else data.copy(),
            src_vci=local_idx, dst_vci=remote_idx, meta=meta)
        return lib.vci_pool.get(local_idx), msg

    def _track(self, target: int) -> None:
        self._outstanding[target] = self._outstanding.get(target, 0) + 1

    def _pending(self, target: Optional[int]) -> bool:
        """Is an operation to ``target`` (``None``: to anyone) unacked?"""
        if target is None:
            return any(self._outstanding.values())
        return bool(self._outstanding.get(target, 0))

    def _acked(self, target: int) -> None:
        self._outstanding[target] -= 1
        if self._outstanding[target] == 0:
            waiters, self._flush_waiters = self._flush_waiters, []
            for tgt, ev in waiters:
                if self._pending(tgt):
                    self._flush_waiters.append((tgt, ev))
                else:
                    ev.succeed()

    def _originate(self, opname: str, kind: MessageKind, target: int,
                   disp: int, n: int, data: Optional[np.ndarray], *,
                   atomic: bool, write: bool = True,
                   fetch: Optional[tuple[str, np.ndarray]] = None,
                   **extra: Any) -> Generator[Event, Any, Any]:
        """The origin side of every operation: ``opname`` on ``n``
        elements at ``disp`` of ``target``, shipping ``data`` as ``kind``.

        A fetching operation passes ``fetch=(request kind, buffer the
        reply lands in)`` and gets the request back; ``extra`` is the
        operation's own ``meta``. The order of the steps is observable
        (checker reports, request ids, state digests): bounds, checker
        hook, request, post cost — and only then the copy of ``data``,
        the pending-fetch entry and the message.
        """
        self._check_target(target, disp, n)
        if self.sim.checker is not None:
            self.sim.checker.on_rma_op(self, opname, target, disp, n,
                                       atomic=atomic, write=write)
        lib = self.lib
        req = None
        if fetch is not None:
            req = Request(lib.sim, fetch[0])
            req.user_data = fetch[1]
        yield lib.cpu.send_post
        if req is not None:
            lib.rma_get_pending[req.rid] = (req, self)
            extra = {"rid": req.rid, **extra}
        vci, msg = self._build(kind, target, disp, data, atomic, extra)
        self._track(target)
        yield from lib.issue_from_thread(vci, msg)
        return req

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def Put(self, origin: np.ndarray, target: int, disp: int,
            count: Optional[int] = None) -> Generator[Event, Any, None]:
        """Nonblocking put; completes remotely at the next Flush."""
        flat = check_buffer(origin, count)
        n = flat.size if count is None else count
        yield from self._originate("Put", MessageKind.RMA_PUT, target, disp,
                                   n, flat[:n], atomic=False)

    def Get(self, origin: np.ndarray, target: int, disp: int,
            count: Optional[int] = None) -> Generator[Event, Any, Request]:
        """Nonblocking get; the returned request completes when the data
        lands in ``origin``."""
        flat = check_buffer(origin, count)
        n = flat.size if count is None else count
        return (yield from self._originate(
            "Get", MessageKind.RMA_GET_REQ, target, disp, n, None,
            atomic=False, write=False, fetch=("rma-get", flat[:n]),
            count=n))

    def Accumulate(self, origin: np.ndarray, target: int, disp: int,
                   op: Op = SUM, count: Optional[int] = None
                   ) -> Generator[Event, Any, None]:
        """Atomic elementwise update of target memory (MPI_Accumulate)."""
        flat = check_buffer(origin, count)
        n = flat.size if count is None else count
        yield from self._originate("Accumulate", MessageKind.RMA_ACC, target,
                                   disp, n, flat[:n], atomic=True,
                                   op=op.name)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def Flush(self, target: Optional[int]) -> Generator[Event, Any, None]:
        """Block until all operations this handle issued to ``target``
        (``None``: to any target) have completed at the target."""
        self._check_rank(target)
        yield self.lib.cpu.progress_poll
        if self._pending(target):
            ev = self.sim.event()
            self._flush_waiters.append((target, ev))
            yield ev

    def Flush_all(self) -> Generator[Event, Any, None]:
        """Flush every target (MPI_Win_flush_all)."""
        return self.Flush(None)

    def Lock(self, target: Optional[int]) -> Generator[Event, Any, None]:
        """Passive-target lock of ``target`` — ``None``: of every target
        (modelled as an epoch open: local cost only)."""
        self._check_rank(target)
        if self.sim.checker is not None:
            self.sim.checker.on_rma_sync(self, "lock", target)
        yield self.lib.cpu.lock_acquire

    def Unlock(self, target: Optional[int]) -> Generator[Event, Any, None]:
        """Close a passive epoch: flush the target (``None``: all)."""
        self._check_rank(target)
        if self.sim.checker is not None:
            self.sim.checker.on_rma_sync(self, "unlock", target)
        yield from self.Flush(target)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Window id={self.win_id} rank {self.comm.rank}/"
                f"{self.comm.size} size={self.memory.size}>")


# ----------------------------------------------------------------------
# target-side handlers
# ----------------------------------------------------------------------

def _window_for(lib: "MpiLibrary", msg: WireMessage) -> Window:
    return lib.rma_windows[(msg.meta["win"], msg.meta["dst_addr"])]


def _reply(lib: "MpiLibrary", msg: WireMessage, kind: MessageKind,
           data: Optional[np.ndarray] = None, **meta: Any) -> None:
    """Answer the operation ``msg`` carried: back to its origin, over the
    pair of channels it travelled on, reversed."""
    lib.issue_async(lib.vci_pool.get(msg.dst_vci), WireMessage(
        kind=kind, src_node=lib.node.node_id,
        dst_node=msg.meta["origin_node"], src_rank=lib.rank,
        dst_rank=msg.meta["origin_rank"], context_id=msg.context_id, tag=0,
        size=0 if data is None else data.nbytes, payload=data,
        src_vci=msg.dst_vci, dst_vci=msg.meta["origin_vci"],
        meta={**meta, "target": msg.meta["dst_addr"]}))


def _send_ack(lib: "MpiLibrary", msg: WireMessage) -> None:
    _reply(lib, msg, MessageKind.RMA_ACK, win=msg.meta["win"],
           dst_addr=msg.meta["src_addr"])


def _on_put(lib: "MpiLibrary", msg: WireMessage) -> None:
    win = _window_for(lib, msg)
    disp = msg.meta["disp"]
    data = msg.payload
    win.memory[disp:disp + len(data)] = data
    _send_ack(lib, msg)


def _on_acc(lib: "MpiLibrary", msg: WireMessage) -> None:
    win = _window_for(lib, msg)
    disp = msg.meta["disp"]
    data = msg.payload
    op: Op = getattr(_ops, msg.meta["op"])
    # Applied in one event-loop step: atomic by construction.
    op.apply(win.memory[disp:disp + len(data)], data)
    _send_ack(lib, msg)


def _on_get_req(lib: "MpiLibrary", msg: WireMessage) -> None:
    win = _window_for(lib, msg)
    disp, n = msg.meta["disp"], msg.meta["count"]
    _reply(lib, msg, MessageKind.RMA_GET_RESP,
           win.memory[disp:disp + n].copy(), rid=msg.meta["rid"])


def _on_get_resp(lib: "MpiLibrary", msg: WireMessage) -> None:
    req, win = lib.rma_get_pending.pop(msg.meta["rid"])
    buf: np.ndarray = req.user_data
    buf[: len(msg.payload)] = msg.payload
    win._acked(msg.meta["target"])
    req.complete(source=msg.meta["target"], tag=0, count=len(msg.payload))


def _on_ack(lib: "MpiLibrary", msg: WireMessage) -> None:
    _window_for(lib, msg)._acked(msg.meta["target"])


# ----------------------------------------------------------------------
# creation
# ----------------------------------------------------------------------

def win_create(comm: "Communicator", memory: np.ndarray,
               info: Optional[Info] = None
               ) -> Generator[Event, Any, Window]:
    """``MPI_Win_create``: collective over ``comm``.

    Every rank (or endpoint, when ``comm`` is an endpoints communicator)
    exposes ``memory``; endpoints of one process may — and for the NWChem
    pattern should — pass the *same* array, sharing one memory region.
    """
    lib = comm.lib
    _ensure_handlers(lib)
    world = lib.world
    flat = check_buffer(memory)
    hints = parse_window_hints(info)
    seq = next(comm._create_seq)
    key = ("win_create", comm.context_id, seq)
    meeting = yield from world.meet(
        key, nmembers=comm.size, rank=comm.rank, contribution=flat.size,
        alloc=lambda: {"win_id": world.alloc_context_id()})
    win_id = meeting.shared["win_id"]
    sizes = [meeting.contributions[r] for r in range(comm.size)]
    win = Window(comm, flat, win_id, sizes, hints)
    lib.rma_windows[(win_id, comm.rank)] = win
    if lib.sim.checker is not None:
        lib.sim.checker.register_window(win)
    return win
