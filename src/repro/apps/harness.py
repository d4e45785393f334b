"""The one way an application proxy is run.

Every driver under :mod:`repro.apps`, the scenario layer's ``racer`` demo
and the Fig 1(a) microbenchmark (:mod:`repro.bench.msgrate`) describes
its computation as a ``proc_main(proc)`` generator — what one MPI process
does — and hands it to :func:`run_app`, which owns everything around it:
the cluster and its interconnect, the
:class:`~repro.runtime.world.World`, one simulated main thread per rank,
the optional background traffic, and the run loop. The keyword block
below is therefore declared exactly once; each ``run_<app>(cfg, **env)``
forwards its ``env`` here untouched, so the scenario layer
(:mod:`repro.scenarios`) drives any application through one calling
convention.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..netsim.topology import ClusterSpec
from ..runtime.world import World

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan
    from ..faults.transport import TransportParams
    from ..netsim.config import NetworkConfig
    from ..netsim.traffic import TrafficShape
    from ..obs.metrics import MetricsRegistry
    from ..runtime.world import MpiProcess
    from ..sim.trace import Tracer

__all__ = ["run_app"]


def run_app(nodes: int, threads_per_proc: int,
            proc_main: Callable[[MpiProcess], Generator[Any, Any, float]],
            *, procs_per_node: int = 1, seed: int = 0,
            net: Optional[NetworkConfig] = None,
            max_vcis_per_proc: int = 64,
            metrics: Optional[MetricsRegistry] = None,
            tracer: Optional[Tracer] = None,
            faults: Optional[FaultPlan] = None,
            transport: Optional[TransportParams] = None,
            traffic: Optional[TrafficShape] = None,
            traffic_seed: int = 0,
            topology: str = "direct",
            topology_params: Optional[dict[str, Any]] = None
            ) -> tuple[World, list[float]]:
    """Run ``proc_main`` on every rank of a fresh world.

    One process per node, as in the paper's MPI+threads configurations,
    unless ``procs_per_node`` packs more (MPI everywhere: one per core).
    ``proc_main(proc)`` returns the simulated time its process finished;
    the result is ``(world, [that time per rank])`` — background flows
    run to completion with the application but never count towards it.

    A plain call builds the lossless, uninstrumented, single-hop world
    the drivers have always run. ``metrics``/``tracer`` enable
    observability and ``faults``/``transport`` fault injection with
    reliable recovery, all forwarded to the :class:`World` untouched;
    ``traffic``/``traffic_seed`` add seeded background flows contending
    with the application (:mod:`repro.netsim.traffic`); ``topology``
    names a registered interconnect to route the cluster over, with
    ``topology_params`` forwarded to its generator (fat-tree arity,
    dragonfly groups, torus dims, ...).
    """
    cluster = ClusterSpec(nodes=nodes, procs_per_node=procs_per_node,
                          threads_per_proc=threads_per_proc,
                          topology=topology, network=net,
                          **(topology_params or {}))
    world = World(cluster=cluster, max_vcis_per_proc=max_vcis_per_proc,
                  seed=seed, metrics=metrics, tracer=tracer,
                  faults=faults, transport=transport)
    tasks = [proc.spawn(proc_main(proc)) for proc in world.procs]
    background: list[Any] = []
    if traffic is not None:
        from ..netsim.traffic import install_traffic
        background = install_traffic(world, traffic, traffic_seed)
    end_times = world.run_all(tasks + background,
                              max_steps=None)[:len(tasks)]
    return world, end_times
