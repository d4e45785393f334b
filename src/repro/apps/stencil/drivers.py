"""Stencil halo-exchange drivers — one per mechanism the paper compares.

Every driver runs the same computation (Jacobi iterations over one patch
per thread) and differs only in *how the communication parallelism is
exposed*:

- :class:`ChannelRun` covers "MPI+threads (Original)" (thread ids in tags
  on one plain communicator — everything lands on one VCI), the "tags
  with hints" mechanism of Listing 2 (same code plus an Info bundle) and
  user-visible endpoints (Listing 3): whatever
  :func:`repro.apps.channels.open_channels` resolves the mechanism to;
- :class:`CommunicatorRun` uses a direction-keyed communicator map from
  :mod:`repro.mapping.communicators` (Listing 1 generalized);
- :class:`PartitionedRun` uses partitioned operations per process face
  (Listing 4), including the shared-request synchronization and the
  ``omp single``-style Waitall+restart step.

The p2p drivers differ only in their :meth:`~P2PRun.routes` — which
``(handle, peer, tag)`` an exchange travels on — and share one
``exchange`` over a per-thread plan computed once.

In-process neighbours exchange through shared memory in all mechanisms
(the ``need_mpi_op`` branch of the paper's listings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ...errors import MpiUsageError
from ...mapping.communicators import (
    STENCIL_2D_5PT,
    STENCIL_2D_9PT,
    STENCIL_3D_7PT,
    STENCIL_3D_27PT,
    Coord,
    CornerOptimizedCommMap,
    Exchange,
    MirroredCommMap,
    NaiveCommMap,
    StencilGeometry,
)
from ...mapping.partitioned import PartitionPlan
from ...mpi.partitioned import precv_init, psend_init
from ...mpi.request import startall, waitall
from ...runtime.world import MpiProcess
from ...sim.sync import Barrier
from ..channels import Route, open_channels
from .field import DIR_TAGS, DIR_TAGS_3D, halo_slices, jacobi, make_patches

__all__ = ["StencilConfig", "StencilProcessRun", "P2PRun", "ChannelRun",
           "CommunicatorRun", "PartitionedRun", "make_run", "MECHANISMS",
           "COMM_MAPS"]

MECHANISMS = ("original", "tags", "communicators", "endpoints", "partitioned")

#: ``comm_map`` name -> direction-keyed communicator map (Fig 4).
COMM_MAPS = {"naive": NaiveCommMap, "mirrored": MirroredCommMap,
             "corner": CornerOptimizedCommMap}

_STENCILS = {5: STENCIL_2D_5PT, 9: STENCIL_2D_9PT,
             7: STENCIL_3D_7PT, 27: STENCIL_3D_27PT}


@dataclass
class StencilConfig:
    """Parameters of one stencil experiment.

    2D stencils (5/9 points) use ``(px, py)`` grids; 3D stencils (7/27
    points — the hypre shape of Lesson 3) use ``(px, py, pz)`` grids plus
    ``pnz``.
    """

    proc_grid: tuple = (2, 2)
    thread_grid: tuple = (3, 3)
    pnx: int = 8
    pny: int = 8
    pnz: int = 4
    stencil_points: int = 5          # 5 or 9 (2D); 7 or 27 (3D)
    iters: int = 4
    mechanism: str = "tags"
    #: For mechanism == "communicators": naive | mirrored | corner.
    comm_map: str = "mirrored"
    #: Simulated compute cost per interior cell per iteration.
    compute_cost_per_cell: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.stencil_points not in _STENCILS:
            raise MpiUsageError("stencil_points must be 5/9 (2D) or "
                                "7/27 (3D)")
        if len(self.proc_grid) != self.dim or len(self.thread_grid) != self.dim:
            raise MpiUsageError(
                f"{self.stencil_points}-pt stencils need "
                f"{self.dim}-dimensional process/thread grids")
        if self.mechanism not in MECHANISMS:
            raise MpiUsageError(f"unknown mechanism {self.mechanism!r}; "
                                f"choose from {MECHANISMS}")
        if self.mechanism == "partitioned" and self.stencil_points not in (5, 7):
            raise MpiUsageError(
                "partitioned stencils support face exchanges only "
                "(Lesson 15): use stencil_points=5 or 7")
        if self.comm_map not in COMM_MAPS:
            raise MpiUsageError(f"unknown comm map {self.comm_map!r}; "
                                f"choose from {sorted(COMM_MAPS)}")
        if min(self.shape) < 1:
            raise MpiUsageError("patch extents pnx/pny/pnz must be >= 1, "
                                f"got {self.shape[::-1]}")
        if not self.compute_cost_per_cell >= 0.0:
            raise MpiUsageError("compute_cost_per_cell must be >= 0, got "
                                f"{self.compute_cost_per_cell!r}")

    @property
    def dim(self) -> int:
        return 2 if self.stencil_points in (5, 9) else 3

    @property
    def stencil(self):
        return _STENCILS[self.stencil_points]

    @property
    def nthreads(self) -> int:
        n = 1
        for c in self.thread_grid:
            n *= c
        return n

    @property
    def shape(self) -> tuple[int, ...]:
        """Interior extents of one patch in array order: ``(pny, pnx)``
        or ``(pnz, pny, pnx)``."""
        return (self.pnz, self.pny, self.pnx)[-self.dim:]

    @property
    def patch_cells(self) -> int:
        n = 1
        for c in self.shape:
            n *= c
        return n

    def geometry(self) -> StencilGeometry:
        return StencilGeometry(self.proc_grid, self.thread_grid, self.stencil)


class StencilProcessRun:
    """Per-process state and the mechanism-independent iteration skeleton."""

    def __init__(self, proc: MpiProcess, pcoord: Coord, cfg: StencilConfig):
        self.proc = proc
        self.p = pcoord
        self.cfg = cfg
        self.geom = cfg.geometry()
        self.patches = make_patches(self.geom, pcoord, cfg.shape, cfg.seed)
        self.dir_tags = DIR_TAGS if cfg.dim == 2 else DIR_TAGS_3D
        self.barrier = Barrier(proc.sim, cfg.nthreads,
                               per_entry_cost=proc.world.cfg.cpu.lock_acquire)
        self.halo_time = 0.0      # max over threads, accumulated per thread
        self._thread_halo: dict[Coord, float] = {}
        #: Mechanism-specific resource count (comms/endpoints/part-ops).
        self.resources_created = 0

    # -- hooks --------------------------------------------------------------
    def setup(self) -> Generator:
        """Collective setup (communicator/endpoint/op creation)."""
        raise NotImplementedError

    def plan(self, t: Coord) -> list:
        """What thread ``t`` exchanges every iteration (computed once)."""
        raise NotImplementedError

    def exchange(self, t: Coord, plan: list) -> Generator:
        """Fill thread ``t``'s halos (remote via MPI, local via shm)."""
        raise NotImplementedError

    # -- shared pieces --------------------------------------------------------
    def shm_neighbors(self, t: Coord) -> Generator:
        """Copy halos from same-process neighbour patches."""
        geom, shape = self.geom, self.cfg.shape
        me = self.patches[t]
        for d, g2, remote in geom.neighbors(self.p, t):
            if remote:
                continue
            nbr = self.patches[geom.thread_of(g2)]
            send_sl, _ = halo_slices(shape, tuple(-c for c in d))
            _, recv_sl = halo_slices(shape, d)
            strip = nbr.data[send_sl]
            yield self.proc.shm_exchange(strip.nbytes)
            me.data[recv_sl] = strip

    def pack(self, t: Coord, d: Coord) -> np.ndarray:
        send_sl, _ = halo_slices(self.cfg.shape, d)
        return np.ascontiguousarray(self.patches[t].data[send_sl]).reshape(-1)

    def unpack(self, t: Coord, d: Coord, buf: np.ndarray) -> None:
        _, recv_sl = halo_slices(self.cfg.shape, d)
        target = self.patches[t].data[recv_sl]
        target[:] = buf.reshape(target.shape)

    def recv_shape_len(self, d: Coord) -> int:
        _, recv_sl = halo_slices(self.cfg.shape, d)
        dummy = self.patches[next(iter(self.patches))].data[recv_sl]
        return dummy.size

    # -- the iteration skeleton ------------------------------------------------
    def thread_body(self, t: Coord) -> Generator:
        """Per-thread iteration loop: compute, exchange halos, reduce."""
        cfg = self.cfg
        temp = np.zeros(cfg.shape)
        plan = self.plan(t)
        self._thread_halo[t] = 0.0
        for _ in range(cfg.iters):
            t0 = self.proc.sim.now
            yield from self.exchange(t, plan)
            yield from self.barrier.wait()
            self._thread_halo[t] += self.proc.sim.now - t0
            # compute + commit (reads own data, writes own interior)
            patch = self.patches[t]
            jacobi(cfg.stencil_points, patch, temp)
            yield self.proc.compute(
                cfg.compute_cost_per_cell * cfg.patch_cells)
            patch.interior[:] = temp
            yield from self.barrier.wait()
        self.halo_time = max(self._thread_halo.values())


class P2PRun(StencilProcessRun):
    """Nonblocking point-to-point halo exchange; subclasses say on which
    ``(handle, peer, tag)`` each exchange travels."""

    def routes(self, t: Coord, ex: Exchange) -> tuple[Route, Route]:
        """``(recv, send)`` routes of thread ``t``'s outgoing exchange
        ``ex``: it sends its strip along ``ex`` and receives the
        neighbour's along the mirror exchange ``ex.dst -> ex.src``."""
        raise NotImplementedError

    def plan(self, t: Coord) -> list[tuple[Coord, Route, Route]]:
        return [(ex.direction, *self.routes(t, ex))
                for ex in self.geom.exchanges_from(self.p, t)]

    def exchange(self, t: Coord, plan: list) -> Generator:
        """Post every remote receive and send of the plan, copy the
        in-process halos while they fly, then complete and unpack."""
        reqs = []
        bufs = []
        for d, (rcomm, rpeer, rtag), (scomm, speer, stag) in plan:
            rbuf = np.zeros(self.recv_shape_len(d))
            rreq = yield from rcomm.Irecv(rbuf, rpeer, rtag)
            reqs.append(rreq)
            bufs.append((d, rbuf))
            sreq = yield from scomm.Isend(self.pack(t, d), speer, stag)
            reqs.append(sreq)
        yield from self.shm_neighbors(t)
        yield from waitall(reqs)
        for d, rbuf in bufs:
            self.unpack(t, d, rbuf)


class ChannelRun(P2PRun):
    """Original, tags-with-hints (Listing 2) and endpoints (Listing 3):
    thread-addressed channels, one line of set-up apart."""

    def setup(self) -> Generator:
        cfg = self.cfg
        self.channels = yield from open_channels(
            self.proc, cfg.mechanism, cfg.nthreads,
            app_bits=4 if cfg.dim == 2 else 5,   # 8 vs 26 directions
            comm_name="tag_par_app_comm")
        self.resources_created = self.channels.resources

    def routes(self, t: Coord, ex: Exchange) -> tuple[Route, Route]:
        """Thread-addressed: (rank, linear tid) of both ends + direction."""
        geom = self.geom
        tid = geom.linear_tid(t)
        nbr = (geom.rank_of(geom.proc_of(ex.dst)),
               geom.linear_tid(geom.thread_of(ex.dst)))
        d = ex.direction
        nd = tuple(-c for c in d)
        return (self.channels.recv(tid, *nbr, self.dir_tags[nd]),
                self.channels.send(tid, *nbr, self.dir_tags[d]))


class CommunicatorRun(P2PRun):
    """Communicator-map driver (Listing 1 generalized)."""

    def __init__(self, proc, pcoord, cfg):
        super().__init__(proc, pcoord, cfg)
        self.cmap = COMM_MAPS[cfg.comm_map](self.geom)
        self.handles: dict[Any, Any] = {}

    def setup(self) -> Generator:
        """Dup one communicator per map label — every process must create
        every label's communicator, in the same global order (Comm_dup is
        collective): the global resource footprint of Lesson 3."""
        labels = sorted(self.cmap.all_labels(), key=repr)
        for label in labels:
            self.handles[label] = yield from self.proc.comm_world.Dup(
                name=f"stencil{label!r}")
        self.resources_created = len(labels)

    def routes(self, t: Coord, ex: Exchange) -> tuple[Route, Route]:
        """Exchange-addressed: the map labels the exchange, the label
        names the communicator, the direction is the tag."""
        nbr_rank = self.geom.rank_of(self.geom.proc_of(ex.dst))
        mirror = Exchange(ex.dst, ex.src)  # the neighbour's message to us
        return ((self.handles[self.cmap.label(mirror)], nbr_rank,
                 self.dir_tags[mirror.direction]),
                (self.handles[self.cmap.label(ex)], nbr_rank,
                 self.dir_tags[ex.direction]))


class PartitionedRun(StencilProcessRun):
    """Partitioned-communication driver (Listing 4): one persistent
    partitioned send+recv per process face; threads drive partitions."""

    def __init__(self, proc, pcoord, cfg):
        super().__init__(proc, pcoord, cfg)
        self.partitions = PartitionPlan(self.geom)
        self.ops: dict[Coord, dict] = {}
        #: Exchanges still to come; the completing thread restarts the
        #: persistent requests only when another cycle will consume them
        #: (a trailing start would leak an open cycle at finalize).
        self._cycles_left = cfg.iters

    def setup(self) -> Generator:
        """Initialize partitioned send/recv channels for every face once."""
        comm = self.proc.comm_world
        all_reqs = []
        for f in self.partitions.faces(self.p):
            count = self.recv_shape_len(f.direction)
            nbr_rank = self.geom.rank_of(f.neighbor_proc)
            nd = tuple(-c for c in f.direction)
            send_buf = np.zeros(f.partitions * count)
            recv_buf = np.zeros(f.partitions * count)
            psend = psend_init(comm, send_buf, f.partitions, count,
                               dest=nbr_rank,
                               tag=self.dir_tags[f.direction])
            precv = precv_init(comm, recv_buf, f.partitions, count,
                               source=nbr_rank, tag=self.dir_tags[nd])
            self.ops[f.direction] = {
                "face": f, "count": count, "send_buf": send_buf,
                "recv_buf": recv_buf, "psend": psend, "precv": precv,
            }
            all_reqs.extend([psend, precv])
        yield from startall(all_reqs)
        self.resources_created = len(all_reqs)

    def plan(self, t: Coord) -> list[tuple[Coord, dict]]:
        """The faces thread ``t`` owns a partition of."""
        return [(d, op) for d, op in self.ops.items()
                if t in op["face"].partition_of]

    def exchange(self, t: Coord, plan: list) -> Generator:
        """Mark owned partitions ready, then wait for neighbor arrivals."""
        # 1. pack my strips and mark partitions ready
        for d, op in plan:
            i = op["face"].partition_of[t]
            count = op["count"]
            op["send_buf"][i * count:(i + 1) * count] = self.pack(t, d)
            yield from op["psend"].pready(i)
        # 2. shared-memory neighbours while remote partitions fly
        yield from self.shm_neighbors(t)
        # 3. poll my incoming partitions (Listing 4's test_recv_from loop)
        for d, op in plan:
            i = op["face"].partition_of[t]
            while not (yield from op["precv"].parrived(i)):
                yield self.proc.compute(50e-9)
            count = op["count"]
            self.unpack(t, d, op["recv_buf"][i * count:(i + 1) * count])
        # 4. "omp single": one thread completes and restarts the requests,
        #    everyone else waits at the implicit barrier (Lesson 14's
        #    synchronization requirement, lines 37-40 of Listing 4)
        yield from self.barrier.wait()
        if self.geom.linear_tid(t) == 0:
            reqs = [op[k] for op in self.ops.values()
                    for k in ("psend", "precv")]
            yield from waitall(reqs)
            self._cycles_left -= 1
            if self._cycles_left > 0:
                yield from startall(reqs)


_RUNS = {"communicators": CommunicatorRun, "partitioned": PartitionedRun}


def make_run(proc: MpiProcess, pcoord: Coord,
             cfg: StencilConfig) -> StencilProcessRun:
    """Instantiate the right driver for ``cfg.mechanism``."""
    return _RUNS.get(cfg.mechanism, ChannelRun)(proc, pcoord, cfg)
