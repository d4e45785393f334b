"""Communicators: the user-facing handle for point-to-point and collective
communication.

API style follows mpi4py's upper-case buffer convention (``Isend``,
``Irecv``, ``Allreduce``...), except that every potentially time-consuming
call is a *generator* to be driven with ``yield from`` inside a simulated
thread::

    req = yield from comm.Isend(buf, dest=1, tag=7)
    status = yield from req.wait()

A communicator's traffic is mapped to VCIs by its ``vci_map`` (see
:mod:`repro.mpi.vci`): by default everything lands on one VCI chosen by
hashing the context id — so *duplicating* communicators is what spreads
traffic over channels, exactly the communicator mechanism the paper
analyzes in Lessons 1–5.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Generator, Iterator, Optional

from ..errors import HintViolationError, InvalidHintError, MpiUsageError, \
    TagOverflowError
from ..netsim.message import MessageKind, WireMessage
from ..sim.core import Event
from .datatypes import check_buffer, p2p_buffer
from .info import CommHints, Info, parse_comm_hints
from .matching import ANY_SOURCE, ANY_TAG, PostedRecv
from .request import Request
from .vci import TAG_UB, SingleVciMap, TagBitsVciMap, Vci, VciMap

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .library import MpiLibrary

__all__ = ["COLL_ALGORITHMS", "Communicator"]

#: What :meth:`Communicator.set_coll_algorithm` may select per operation;
#: ``"auto"`` (the library's size-based heuristic) is implicit.
COLL_ALGORITHMS = {"allreduce": ("recursive_doubling", "ring")}


class Communicator:
    """A communicator handle owned by one process.

    ``group[i]`` is the world rank of the process owning communicator rank
    ``i``; for ordinary communicators addressing and matching both use
    these communicator ranks. A group is an immutable tuple, shared by
    every handle over the same ranks (COMM_WORLD's by the whole World, a
    duplicate's with its parent).
    """

    def __init__(self, lib: "MpiLibrary", group: tuple[int, ...], rank: int,
                 context_id: int, hints: Optional[CommHints] = None,
                 vci_map: Optional[VciMap] = None, name: str = "comm"):
        self.lib = lib
        self.group = group
        self.rank = rank
        self.context_id = context_id
        self.hints = hints or CommHints()
        if vci_map is None:
            vci_map = SingleVciMap(lib.vci_pool.vci_index_for_context(context_id))
        self.vci_map = vci_map
        # Network resources are committed at communicator creation, as in
        # MPICH: the library cannot know whether a communicator is for
        # grouping or for parallelism (Lesson 4), so every communicator
        # claims its VCI(s) — this is what makes the communicator
        # mechanism resource-hungry (Lesson 3).
        #: The communicator's VCI when its map is tag-independent
        #: (resolved once, here); None when picked per message.
        self._vci: Optional[Vci] = None
        if vci_map.fixed_vci is not None:
            self._vci = lib.vci_pool.get(vci_map.fixed_vci)
        elif isinstance(vci_map, TagBitsVciMap):
            for i in range(vci_map.n):
                lib.vci_pool.get(vci_map.base + i)
        #: ``dest -> (world rank, node id, remote VCI index or None)``: the
        #: tag-independent part of a send's route, resolved on the first
        #: send to each peer (bounded by the group size).
        self._routes: dict[int, tuple[int, int, Optional[int]]] = {}
        self.name = name
        self.freed = False
        #: Per-handle collective algorithm selections (op -> algorithm);
        #: absent ops use the "auto" heuristic. Local handle state, as in
        #: real MPI libraries — Dup/Split copy the parent's choices.
        self._coll_algorithms: dict[str, str] = {}
        #: Per-handle counter so repeated Dup calls agree on meeting keys.
        self._create_seq = itertools.count()
        #: MPI requires collectives on a communicator to be issued
        #: serially; this flag detects (and rejects) violations.
        self._collective_active: Optional[str] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.group)

    @property
    def coll_context_id(self) -> int:
        """Context id of the communicator's internal collective stream.

        Context ids are allocated in pairs (even = point-to-point, odd =
        collectives, as in MPICH), so collective traffic can never match
        user receives — including wildcard receives — on the same
        communicator.
        """
        return self.context_id + 1

    @property
    def sim(self):
        return self.lib.sim

    def set_coll_algorithm(self, op: str, algorithm: str) -> None:
        """Pin the algorithm for collective ``op`` on this handle.

        ``comm.set_coll_algorithm("allreduce", "ring")`` forces the ring
        regardless of message size; ``"auto"`` restores the size-based
        heuristic. Names are case- and whitespace-insensitive; valid ones
        live in :data:`COLL_ALGORITHMS`, and invalid pairs raise
        :class:`~repro.errors.InvalidHintError`. Local operation (no
        communication), like MPICH's CVAR overrides.
        """
        self._check_alive()
        op, algorithm = op.strip().lower(), algorithm.strip().lower()
        if op not in COLL_ALGORITHMS:
            raise InvalidHintError(
                f"unknown collective operation {op!r}; selectable: "
                f"{', '.join(sorted(COLL_ALGORITHMS))}")
        choices = COLL_ALGORITHMS[op] + ("auto",)
        if algorithm not in choices:
            raise InvalidHintError(
                f"unknown {op} algorithm {algorithm!r}; choices: "
                f"{', '.join(sorted(choices))}")
        if algorithm == "auto":
            self._coll_algorithms.pop(op, None)
        else:
            self._coll_algorithms[op] = algorithm

    def Get_rank(self) -> int:
        return self.rank

    def __repr__(self) -> str:
        return (f"<Communicator {self.name!r} rank {self.rank}/{self.size} "
                f"ctx={self.context_id} map={self.vci_map.describe()}>")

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self.freed:
            raise MpiUsageError(f"operation on freed communicator {self.name!r}")

    def _check_peer(self, peer: int, *, wildcard_ok: bool) -> None:
        if peer == ANY_SOURCE:
            if not wildcard_ok:
                raise MpiUsageError("ANY_SOURCE is invalid for sends")
            if self.hints.no_any_source:
                chk = self.lib.sim.checker
                if chk is not None:
                    # Raise mode raises CheckError inside violation();
                    # warn mode records and lets the wildcard through
                    # (the simulation handles it fine — the hint is a
                    # contract with the real MPI library, not with us).
                    chk.violation(
                        "CHK104",
                        f"ANY_SOURCE used on communicator {self.name!r} "
                        f"asserting mpi_assert_no_any_source",
                        rank=self.lib.rank, comm=self.name)
                    return
                raise HintViolationError(
                    "ANY_SOURCE used on a communicator asserting "
                    "mpi_assert_no_any_source")
            return
        if not 0 <= peer < self.size:
            raise MpiUsageError(
                f"rank {peer} out of range for communicator of size {self.size}")

    def _check_tag(self, tag: int, *, wildcard_ok: bool) -> None:
        if tag == ANY_TAG:
            if not wildcard_ok:
                raise MpiUsageError("ANY_TAG is invalid for sends")
            if self.hints.no_any_tag:
                chk = self.lib.sim.checker
                if chk is not None:
                    chk.violation(
                        "CHK104",
                        f"ANY_TAG used on communicator {self.name!r} "
                        f"asserting mpi_assert_no_any_tag",
                        rank=self.lib.rank, comm=self.name)
                    return
                raise HintViolationError(
                    "ANY_TAG used on a communicator asserting "
                    "mpi_assert_no_any_tag")
            return
        if tag < 0:
            raise MpiUsageError(f"negative tag: {tag}")
        if tag > TAG_UB:
            raise TagOverflowError(
                f"tag {tag} exceeds TAG_UB={TAG_UB} — the tag space is "
                "exhausted (cf. Lesson 9: encoding parallelism information "
                "into tags eats the application's tag bits)")

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def Isend(self, buf: np.ndarray | bytearray, dest: int, tag: int,
              count: Optional[int] = None,
              _context_id: Optional[int] = None
              ) -> Generator[Event, Any, Request]:
        """Nonblocking send; returns the send Request."""
        if self.freed or not 0 <= dest < len(self.group) \
                or not 0 <= tag <= TAG_UB:
            # Anything but a plain in-range send: the full checks raise
            # (or report) exactly what is wrong.
            self._check_alive()
            self._check_peer(dest, wildcard_ok=False)
            self._check_tag(tag, wildcard_ok=False)
        flat, n, itemsize = p2p_buffer(buf, count)
        size = n * itemsize
        lib = self.lib
        sim = lib.sim
        req = Request(sim, "send")
        yield lib.cpu.send_post

        route = self._routes.get(dest)
        if route is None:
            route = self._resolve_route(dest)
        dst_world, dst_node, remote_vci_idx = route
        local_vci = self._vci
        if local_vci is None:
            pool = lib.vci_pool
            local_vci = pool.get(self.vci_map.send_local(self.rank, dest, tag))
            remote_vci_idx = self.vci_map.send_remote(self.rank, dest, tag) \
                % pool.max_vcis
        req.vci = local_vci
        context_id = self.context_id if _context_id is None else _context_id
        # A bytearray slice is already a copy; an array slice is a view.
        payload = flat[:n] if type(flat) is bytearray else flat[:n].copy()
        meta = {"src_addr": self.rank, "dst_addr": dest}
        chk = sim.checker
        if chk is not None:
            # The sender's clock rides in the message meta so the
            # receiver's completion inherits a happens-before edge.
            hb = chk.on_channel_send(self, dest, tag, context_id)
            if hb is not None:
                meta["_hb"] = hb

        if size <= lib.cfg.fabric.eager_threshold:
            # Fields by position (kind, src/dst node, src/dst rank, ...):
            # eleven keywords cost ~0.3 us, once per message.
            msg = WireMessage(
                MessageKind.EAGER, lib.node.node_id, dst_node, lib.rank,
                dst_world, context_id, tag, size, payload,
                local_vci.index, remote_vci_idx, meta=meta)
            depart = yield from lib.issue_from_thread(local_vci, msg)
            lib.complete_at(req, depart, source=dest, tag=tag, count=n)
        else:
            meta = dict(meta, rid=req.rid, total_size=size)
            rts = WireMessage(
                kind=MessageKind.RNDV_RTS,
                src_node=lib.node.node_id, dst_node=dst_node,
                src_rank=lib.rank, dst_rank=dst_world,
                context_id=context_id, tag=tag, size=size, payload=None,
                src_vci=local_vci.index, dst_vci=remote_vci_idx, meta=meta)
            lib.register_rndv_send(req.rid, {
                "req": req, "payload": payload, "size": size, "count": n,
                "tag": tag, "context_id": context_id,
                "dst_node": dst_node, "dst_rank": dst_world,
                "dst_vci": remote_vci_idx,
                "src_addr": self.rank, "dst_addr": dest,
                "hb": meta.get("_hb"),
            })
            # The RTS is a header-only control message on the wire.
            rts.size = 0
            yield from lib.issue_from_thread(local_vci, rts)
        return req

    def _resolve_route(self, dest: int) -> tuple[int, int, Optional[int]]:
        """Resolve and remember the tag-independent route to ``dest``."""
        lib = self.lib
        dst_world = self.group[dest]
        remote_vci_idx = None
        if self._vci is not None:
            remote_vci_idx = self.vci_map.send_remote(self.rank, dest, 0) \
                % lib.vci_pool.max_vcis
        route = self._routes[dest] = (
            dst_world, lib.world.proc(dst_world).node.node_id,
            remote_vci_idx)
        return route

    def Irecv(self, buf: np.ndarray | bytearray, source: int, tag: int,
              count: Optional[int] = None,
              _context_id: Optional[int] = None
              ) -> Generator[Event, Any, Request]:
        """Nonblocking receive; returns the recv Request."""
        if self.freed or not 0 <= source < len(self.group) \
                or not 0 <= tag <= TAG_UB:
            # Wildcards land here too: the full checks admit them, or
            # report the no-wildcard hint they break.
            self._check_alive()
            self._check_peer(source, wildcard_ok=True)
            self._check_tag(tag, wildcard_ok=True)
        flat, n, _ = p2p_buffer(buf, count)
        lib = self.lib
        sim = lib.sim
        cpu = lib.cpu
        req = Request(sim, "recv")
        lib.recvs_posted += 1
        yield cpu.recv_post

        vci = self._vci
        if vci is None:
            vci = lib.vci_pool.get(
                self.vci_map.recv_vci(self.rank, source, tag))
        req.vci = vci
        lock = vci.lock
        was_contended = lock.locked
        if was_contended:
            yield from lock.acquire()
        else:
            lock.try_acquire()
        context_id = self.context_id if _context_id is None else _context_id
        if sim.checker is not None:
            sim.checker.on_channel_recv(self, source, tag, context_id,
                                        vci.index)
        # Matching is scan-until-match: a receive that matches the head of
        # the unexpected queue is O(1) even when the queue is deep.
        engine = vci.engine
        hint, scan = engine.lookup_unexpected(context_id, source, tag,
                                              self.rank)
        cost = cpu.lock_acquire \
            + (cpu.lock_handoff if was_contended else 0.0) \
            + cpu.match_base + cpu.match_per_element * scan
        yield cost
        # (req, buf, count, context_id, source, tag, dst_addr) by position.
        entry = PostedRecv(req, flat, n, context_id, source, tag, self.rank)
        msg, _scanned = engine.post_recv(entry, hint)
        if msg is not None:
            if msg.kind is MessageKind.EAGER:
                yield cpu.request_completion
                # Inline is safe: the request has not been returned yet, so
                # its done event has no waiters to resume early.
                lib._complete_recv(vci, entry, msg, _inline=True)
            else:  # unexpected RNDV_RTS: grant it now
                lib._send_cts(vci, entry, msg)
        lock.release()
        return req

    def Send(self, buf: np.ndarray | bytearray, dest: int, tag: int,
             count: Optional[int] = None) -> Generator[Event, Any, None]:
        """Blocking send."""
        req = yield from self.Isend(buf, dest, tag, count)
        yield from req.wait()

    def Recv(self, buf: np.ndarray | bytearray, source: int, tag: int,
             count: Optional[int] = None) -> Generator[Event, Any, Any]:
        """Blocking receive; returns the Status."""
        req = yield from self.Irecv(buf, source, tag, count)
        status = yield from req.wait()
        return status

    def Test(self, req: Request
             ) -> Generator[Event, Any, Optional[Any]]:
        """Nonblocking completion check (MPI_Test) with realistic costs.

        A real MPI_Test drives progress on the request's channel, which
        means taking that channel's lock: on a shared channel ("original"
        MPI_THREAD_MULTIPLE) the polling thread's tests serialize against
        every sender — one of the reasons logically parallel communication
        speeds up event-driven runtimes (Fig 1c, Fig 5).
        """
        self._check_alive()
        lib = self.lib
        vci = req.vci
        if vci is not None:
            lock = vci.lock
            was_contended = lock.locked
            if was_contended:
                yield from lock.acquire()
            else:
                lock.try_acquire()
            cost = lib.cpu.probe + lib.cpu.lock_acquire \
                + (lib.cpu.lock_handoff if was_contended else 0.0)
            yield cost
            lock.release()
        else:
            yield lib.cpu.probe
        return req.test()

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def Split(self, color: Optional[int], key: int = 0,
              name: Optional[str] = None
              ) -> Generator[Event, Any, Optional["Communicator"]]:
        """Collective split (MPI_Comm_split).

        Ranks with the same ``color`` form a new communicator, ordered by
        ``(key, old rank)``. ``color=None`` (MPI_UNDEFINED) yields None.
        Like Dup, every new communicator claims a VCI by context hash —
        splitting for *grouping* spends the same network resources as
        splitting for parallelism (Lesson 4).
        """
        self._check_alive()
        seq = next(self._create_seq)
        key_id = ("comm_split", self.context_id, seq)
        world = self.lib.world

        def finalize(meeting):
            colors = sorted({c for c, _k in meeting.contributions.values()
                             if c is not None})
            meeting.shared["ctx_by_color"] = {
                c: world.alloc_context_id() for c in colors}

        meeting = yield from world.meet(
            key_id, nmembers=self.size, rank=self.rank,
            contribution=(color, key), finalize=finalize)
        if color is None:
            return None
        members = sorted(
            (r for r in range(self.size)
             if meeting.contributions[r][0] == color),
            key=lambda r: (meeting.contributions[r][1], r))
        new_group = tuple(self.group[r] for r in members)
        new_rank = members.index(self.rank)
        context_id = meeting.shared["ctx_by_color"][color]
        new_comm = Communicator(self.lib, new_group, new_rank, context_id,
                                hints=self.hints,
                                name=name or f"{self.name}.split{color}")
        new_comm._coll_algorithms.update(self._coll_algorithms)
        return new_comm

    def Dup(self, info: Optional[Info] = None,
            name: Optional[str] = None) -> Generator[Event, Any, "Communicator"]:
        """Collective duplicate (MPI_Comm_dup / MPI_Comm_dup_with_info).

        All members of the communicator must call Dup in the same order.
        The duplicate gets a fresh context id and therefore (by the
        context-hash policy) generally a different VCI — this is how the
        communicator mechanism exposes parallelism.
        """
        self._check_alive()
        seq = next(self._create_seq)
        key = ("comm_dup", self.context_id, seq)
        world = self.lib.world
        meeting = yield from world.meet(
            key, nmembers=self.size, rank=self.rank,
            alloc=lambda: {"context_id": world.alloc_context_id()})
        context_id = meeting.shared["context_id"]
        hints = parse_comm_hints(info)
        pool = self.lib.vci_pool
        base = pool.vci_index_for_context(context_id)
        if hints.num_vcis > 1:
            vci_map: VciMap = TagBitsVciMap(hints, base, pool.max_vcis)
        else:
            vci_map = SingleVciMap(base)
        new_comm = Communicator(self.lib, self.group, self.rank,
                                context_id, hints=hints, vci_map=vci_map,
                                name=name or f"{self.name}.dup{seq}")
        new_comm._coll_algorithms.update(self._coll_algorithms)
        return new_comm

    def Free(self) -> None:
        """Release the communicator handle (local bookkeeping only)."""
        self._check_alive()
        self.freed = True

    # ------------------------------------------------------------------
    # collectives (implementations in repro.mpi.coll)
    # ------------------------------------------------------------------
    @contextmanager
    def _collective(self, opname: str) -> Iterator[None]:
        """One collective's hold on this communicator.

        MPI requires the collectives of a communicator to be issued
        serially: the communicator is busy for the ``with`` block around
        a collective, and entering while it is busy is an error.
        """
        self._check_alive()
        active = self._collective_active
        if active is not None:
            chk = self.lib.sim.checker
            if chk is not None:
                # Hard rule: recorded for the report, but the library
                # must still raise — interleaving two collectives would
                # corrupt the matching stream.
                chk.violation(
                    "CHK111",
                    f"collective {opname!r} overlaps {active!r} on "
                    f"communicator {self.name!r}",
                    rank=self.lib.rank, comm=self.name, hard=True)
            raise MpiUsageError(
                f"collective {opname!r} issued on communicator "
                f"{self.name!r} while {active!r} is in flight: MPI "
                "requires collectives on a communicator to be issued "
                "serially (use distinct communicators, endpoints, or "
                "partitioned collectives to parallelize — Section II-A)")
        self._collective_active = opname
        try:
            yield
        finally:
            self._collective_active = None

    def Barrier(self) -> Generator[Event, Any, None]:
        """Blocking barrier (dissemination algorithm)."""
        from .coll import SUM, algorithms as _coll
        with self._collective("Barrier"):
            yield from _coll.run_schedule(
                self, _coll.dissemination_rounds(self.size, self.rank),
                _coll.NO_DATA, SUM)

    #: Allreduce switches from recursive doubling (latency-optimal) to a
    #: ring (bandwidth-optimal) beyond this payload size, as real MPI
    #: libraries do.
    ALLREDUCE_RING_THRESHOLD = 64 * 1024

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
                  op=None) -> Generator[Event, Any, None]:
        """Blocking allreduce; ring beyond ALLREDUCE_RING_THRESHOLD."""
        from .coll import SUM, algorithms as _coll
        with self._collective("Allreduce"):
            nbytes = check_buffer(sendbuf).nbytes
            algorithm = self._coll_algorithms.get("allreduce", "auto")
            if algorithm == "auto":
                algorithm = ("ring" if self.size > 2
                             and nbytes >= self.ALLREDUCE_RING_THRESHOLD
                             else "recursive_doubling")
            yield from _coll.allreduce(
                self, sendbuf, recvbuf, op or SUM,
                _coll.ring_rounds if algorithm == "ring"
                else _coll.recursive_doubling_rounds)
