"""Experiment runner for the stencil application suite.

``run_stencil`` runs the chosen mechanism's driver on the shared app
harness (:func:`repro.apps.harness.run_app`), checks data correctness
against the sequential reference, and returns timings and resource
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ...runtime.world import World
from ..harness import run_app
from .drivers import StencilConfig, StencilProcessRun, make_run
from .field import assemble_global, reference_jacobi

__all__ = ["StencilResult", "run_stencil"]


@dataclass
class StencilResult:
    """Outcome of one stencil experiment."""

    cfg: StencilConfig
    #: Total simulated wall time of the slowest process.
    wall_time: float
    #: Max over threads of accumulated halo-exchange time (incl. waits).
    halo_time: float
    #: Mechanism resources created per process (comms / endpoints / ops).
    resources_created: int
    #: VCIs actually instantiated on process 0.
    vcis_used: int
    #: Mean NIC hardware-context sharing on node 0 (1.0 = dedicated).
    nic_oversubscription: float
    #: Max/mean message load across node-0 hardware contexts.
    nic_load_imbalance: float
    #: Did the final field match the sequential reference?
    correct: bool
    max_error: float
    #: Kernel events processed — an exact determinism fingerprint: two
    #: runs of the same (cfg, plan, seed) execute the same event count.
    sim_steps: int = 0
    #: The assembled final field (``check=True`` runs only) — lets tests
    #: compare lossy vs lossless runs byte for byte.
    final_field: Optional[np.ndarray] = None
    #: The world the experiment ran on (reliability reports, metrics).
    world: Optional[World] = None

    def __str__(self) -> str:
        return (f"{self.cfg.mechanism:14s} wall={self.wall_time * 1e6:9.1f}us "
                f"halo={self.halo_time * 1e6:9.1f}us "
                f"res={self.resources_created:4d} vcis={self.vcis_used:4d} "
                f"oversub={self.nic_oversubscription:4.1f} "
                f"correct={self.correct}")


def run_stencil(cfg: StencilConfig, check: bool = True,
                **env: Any) -> StencilResult:
    """Run one stencil experiment end to end.

    ``env`` is the harness keyword block (``net``, ``max_vcis_per_proc``,
    ``metrics``/``tracer``, ``faults``/``transport``, ``traffic``,
    ``topology``, ... — see :func:`repro.apps.harness.run_app`); a plain
    call runs the same lossless, uninstrumented world as always, and
    ``wall_time`` always measures the application tasks only.
    """
    geom = cfg.geometry()
    coords = {geom.rank_of(p): p for p in geom.procs()}
    runs: dict[int, StencilProcessRun] = {}

    def proc_main(proc):
        run = make_run(proc, coords[proc.rank], cfg)
        runs[proc.rank] = run
        yield from run.setup()
        threads = [proc.spawn(run.thread_body(t), name=f"r{proc.rank}.t{t}")
                   for t in geom.threads()]
        yield proc.sim.all_of(threads)
        return proc.sim.now

    world, end_times = run_app(len(coords), cfg.nthreads, proc_main,
                               seed=cfg.seed, **env)

    correct, max_err, final = True, 0.0, None
    if check:
        all_patches = {coords[r]: run.patches for r, run in runs.items()}
        final = assemble_global(geom, all_patches, cfg.shape)
        ref = reference_jacobi(geom, cfg.shape, cfg.iters,
                               cfg.stencil_points, cfg.seed)
        max_err = float(np.max(np.abs(final - ref)))
        correct = bool(np.allclose(final, ref))

    lib0 = world.procs[0].lib
    nic0 = world.nodes[0].nic
    return StencilResult(
        cfg=cfg,
        wall_time=max(end_times),
        halo_time=max(r.halo_time for r in runs.values()),
        resources_created=runs[0].resources_created,
        vcis_used=lib0.vci_pool.num_active,
        nic_oversubscription=nic0.oversubscription,
        nic_load_imbalance=nic0.load_imbalance(),
        correct=correct,
        max_error=max_err,
        sim_steps=world.sim.steps,
        final_field=final,
        world=world,
    )
