"""NWChem-style get-compute-update over RMA (Fig 6, Lesson 16).

Block-sparse matrix multiplication: each worker thread repeatedly

1. ``MPI_Get``\\ s two remote tiles,
2. multiplies them (a real numpy matmul plus charged compute time),
3. ``MPI_Accumulate``\\ s the product into the destination tile.

All accumulates of a process must go through a *single window* for
atomicity. The three channel strategies compared:

- ``window`` — default accumulate ordering: the library cannot spread
  atomics, every accumulate rides the window's base VCI (serialization);
- ``window-relaxed`` — ``accumulate_ordering=none`` +
  ``mpich_rma_num_vcis``: the library hashes operations over VCIs, but
  "any hashing policy is prone to collisions";
- ``endpoints`` — a window over an endpoints communicator: each thread's
  endpoint has a dedicated channel, giving parallelism *and* atomicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ...errors import MpiUsageError
from ...mpi.coll.ops import SUM
from ...mpi.endpoints import comm_create_endpoints
from ...mpi.info import Info
from ...mpi.rma import win_create
from ..harness import run_app

__all__ = ["NwchemConfig", "NwchemResult", "run_nwchem"]

MECHANISMS = ("window", "window-relaxed", "endpoints")


@dataclass
class NwchemConfig:
    """Parameters for the NWChem block-sparse RMA proxy."""

    num_nodes: int = 4
    threads_per_proc: int = 8
    #: Tiles hosted per process.
    tiles_per_proc: int = 16
    #: Tile is ``tile_dim x tile_dim`` float64.
    tile_dim: int = 16
    #: get-compute-update tasks per thread.
    tasks_per_thread: int = 8
    mechanism: str = "endpoints"
    #: Charged time per fused multiply-add of the tile product.
    flop_cost: float = 0.05e-9
    seed: int = 0

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise MpiUsageError(f"unknown mechanism {self.mechanism!r}")
        if self.tiles_per_proc < 1 or self.tile_dim < 1:
            raise MpiUsageError(
                "tiles_per_proc and tile_dim must be >= 1, got "
                f"{self.tiles_per_proc!r} and {self.tile_dim!r}")

    @property
    def tile_elems(self) -> int:
        return self.tile_dim * self.tile_dim

    @property
    def window_elems(self) -> int:
        return self.tiles_per_proc * self.tile_elems


@dataclass
class NwchemResult:
    """Timing summary of one NWChem-proxy run."""

    cfg: NwchemConfig
    wall_time: float
    #: Max accumulated RMA (get+acc+flush) time over threads.
    rma_time: float
    #: Max/mean traffic across the VCIs used for RMA on node 0 (1.0 =
    #: perfectly spread; high = hashing collisions or serialization).
    channel_imbalance: float
    #: Distinct VCIs that carried RMA traffic on process 0.
    channels_used: int
    correct: bool

    def __str__(self) -> str:
        return (f"{self.cfg.mechanism:15s} wall={self.wall_time * 1e6:9.1f}us "
                f"rma={self.rma_time * 1e6:9.1f}us "
                f"channels={self.channels_used:3d} "
                f"imbalance={self.channel_imbalance:5.2f}")


def _tasks(cfg: NwchemConfig, rank: int, tid: int) -> list[tuple]:
    """Deterministic task list: (a_rank, a_tile, b_rank, b_tile, c_rank,
    c_tile) per task."""
    rng = np.random.default_rng((cfg.seed, rank, tid))
    out = []
    for _ in range(cfg.tasks_per_thread):
        a_r, b_r, c_r = rng.integers(cfg.num_nodes, size=3)
        a_t, b_t, c_t = rng.integers(cfg.tiles_per_proc, size=3)
        out.append((int(a_r), int(a_t), int(b_r), int(b_t),
                    int(c_r), int(c_t)))
    return out


def run_nwchem(cfg: NwchemConfig, **env: Any) -> NwchemResult:
    """Run the block-sparse RMA proxy under the configured mechanism.

    ``env`` is the harness keyword block (``net``, ``faults``,
    ``traffic``, ``topology``, ... — see
    :func:`repro.apps.harness.run_app`); defaults reproduce the
    historical lossless direct-fabric run byte for byte.
    """
    dim, te = cfg.tile_dim, cfg.tile_elems
    memories: dict[int, np.ndarray] = {}
    rma_times: dict[tuple[int, int], float] = {}

    def proc_main(proc):
        # Input tiles (A/B) live in a read-only window of all-ones; output
        # tiles (C) in a separate window starting at zero. Each task thus
        # accumulates a tile whose entries are exactly `tile_dim`.
        mem_in = np.ones(cfg.window_elems)
        mem_out = np.zeros(cfg.window_elems)
        memories[proc.rank] = mem_out

        if cfg.mechanism == "endpoints":
            eps = yield from comm_create_endpoints(
                proc.comm_world, cfg.threads_per_proc)

            def create_wins(ep):
                win_in = yield from win_create(ep, mem_in)
                win_out = yield from win_create(ep, mem_out)
                return win_in, win_out

            pairs = yield proc.sim.all_of(
                [proc.spawn(create_wins(ep)) for ep in eps])
            wins_in = [p[0] for p in pairs]
            wins_out = [p[1] for p in pairs]
        else:
            info = None
            if cfg.mechanism == "window-relaxed":
                info = Info({"accumulate_ordering": "none",
                             "mpich_rma_num_vcis": str(cfg.threads_per_proc)})
            win_in = yield from win_create(proc.comm_world, mem_in, info)
            win_out = yield from win_create(proc.comm_world, mem_out, info)
            wins_in = [win_in] * cfg.threads_per_proc
            wins_out = [win_out] * cfg.threads_per_proc

        def worker(tid):
            win_in, win_out = wins_in[tid], wins_out[tid]
            # In endpoints mode targets are endpoint ranks; tile t of
            # process r lives at rank r*T (any endpoint of r exposes the
            # same memory) — use endpoint r*T+tid to spread target-side
            # channels too.
            T = cfg.threads_per_proc
            ga = np.zeros(te)
            gb = np.zeros(te)
            for (a_r, a_t, b_r, b_t, c_r, c_t) in _tasks(cfg, proc.rank, tid):
                t0 = proc.sim.now
                if cfg.mechanism == "endpoints":
                    a_target = a_r * T + tid
                    b_target = b_r * T + tid
                    c_target = c_r * T + tid
                else:
                    a_target, b_target, c_target = a_r, b_r, c_r
                r1 = yield from win_in.Get(ga, a_target, a_t * te)
                r2 = yield from win_in.Get(gb, b_target, b_t * te)
                yield from r1.wait()
                yield from r2.wait()
                rma_times[(proc.rank, tid)] = rma_times.get(
                    (proc.rank, tid), 0.0) + proc.sim.now - t0
                # compute: C_tile += A @ B (a real matmul; with all-ones
                # inputs every product entry equals tile_dim)
                prod = ga.reshape(dim, dim) @ gb.reshape(dim, dim)
                yield proc.compute(cfg.flop_cost * dim * dim * dim)
                t0 = proc.sim.now
                yield from win_out.Accumulate(prod.reshape(-1), c_target,
                                              c_t * te, op=SUM)
                yield from win_out.Flush(c_target)
                rma_times[(proc.rank, tid)] = rma_times.get(
                    (proc.rank, tid), 0.0) + proc.sim.now - t0

        threads = [proc.spawn(worker(tid))
                   for tid in range(cfg.threads_per_proc)]
        yield proc.sim.all_of(threads)
        # Quiesce before checking (active-target style).
        yield from wins_out[0].Flush_all()
        yield from proc.comm_world.Barrier()
        return proc.sim.now

    world, ends = run_app(cfg.num_nodes, cfg.threads_per_proc, proc_main,
                          seed=cfg.seed, **env)

    # Expected contributions per C tile.
    expected = {r: np.zeros(cfg.window_elems) for r in range(cfg.num_nodes)}
    for r in range(cfg.num_nodes):
        for tid in range(cfg.threads_per_proc):
            for (_ar, _at, _br, _bt, c_r, c_t) in _tasks(cfg, r, tid):
                expected[c_r][c_t * te:(c_t + 1) * te] += dim
    correct = all(np.allclose(memories[r], expected[r])
                  for r in range(cfg.num_nodes))

    pool0 = world.procs[0].lib.vci_pool
    counts = [v.sends for v in pool0.active_vcis if v.sends > 0]
    imbalance = (max(counts) / (sum(counts) / len(counts))) if counts else 0.0
    return NwchemResult(
        cfg=cfg,
        wall_time=max(ends),
        rma_time=max(rma_times.values()) if rma_times else 0.0,
        channel_imbalance=imbalance,
        channels_used=len(counts),
        correct=correct,
    )
