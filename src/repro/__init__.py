"""repro — a reproduction of "Lessons Learned on MPI+Threads Communication"
(Zambre & Chandramowlishwaran, SC 2022).

The package implements, from scratch and on a deterministic discrete-event
simulator, everything the paper's comparison rests on:

- a VCI-enabled, MPICH-flavoured MPI library (:mod:`repro.mpi`) with
  point-to-point, RMA, and collective communication, MPI-4.0 Info hints,
  **user-visible endpoints**, and **partitioned communication**;
- a NIC/fabric hardware model with limited hardware contexts
  (:mod:`repro.netsim`);
- the mechanism-mapping helpers the paper's lessons are about
  (:mod:`repro.mapping`): mirrored communicator maps, Listing-2 tag
  encodings, endpoint addressing, partition plans, and the Lesson-3
  resource formulas;
- application proxies (:mod:`repro.apps`): stencil halo exchange
  (hypre/Smilei/Pencil), a Legion-style event runtime and circuit
  simulation, Vite-style dynamic graph communication, NWChem's
  get-compute-update RMA pattern, and VASP-style multithreaded
  collectives;
- benchmark workloads (:mod:`repro.bench`) and the Table-I scope/usability
  analysis (:mod:`repro.analysis`);
- an observability subsystem (:mod:`repro.obs`): per-VCI/per-context
  metrics with contention histograms, plain-text reports, and Chrome-trace
  export. Pass ``World(metrics=MetricsRegistry(), tracer=Tracer())`` to
  instrument a run, or use ``python -m repro msgrate --profile``;
- fault injection with reliable transport (:mod:`repro.faults`):
  per-seed-reproducible fault plans (message drop/dup/corrupt/delay, NIC
  context stalls, link flaps) and a sequencing/ACK/retransmission layer
  that keeps every MPI mechanism correct on a lossy fabric. Pass
  ``World(faults=FaultPlan(drop=0.05))``, or use ``python -m repro
  stencil --plan``.

Quick start::

    import numpy as np
    from repro import World

    world = World(num_nodes=2, procs_per_node=1)

    def rank0(proc):
        yield from proc.comm_world.Send(np.arange(4.0), dest=1, tag=0)

    def rank1(proc):
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)

    world.run_all([world.procs[0].spawn(rank0(world.procs[0])),
                   world.procs[1].spawn(rank1(world.procs[1]))])
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable

__version__ = "1.0.0"


def _lazy(package: str, exports: dict[str, tuple[str, ...]]
          ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """PEP 562 ``(__getattr__, __dir__)`` for ``package``, whose
    ``exports`` map a submodule (relative to it) to the names it defines.

    A name's submodule is imported on the name's first access and the
    value is then bound in the package, so later lookups never come back
    here. Importing a package therefore costs only what its top-level
    imports run; ``dir()``, ``from package import *`` and every
    ``from package import name`` work as if all were imported eagerly.
    """
    namespace = sys.modules[package].__dict__
    source = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__


#: Nothing loads with ``import repro``: a run pays for the layers it uses.
__getattr__, __dir__ = _lazy(__name__, {
    ".errors": ("FaultPlanError", "HintViolationError", "InvalidHintError",
                "MpiError", "MpiUsageError", "RmaSemanticsError",
                "TagOverflowError", "TopologyError", "TransportError",
                "TruncationError"),
    ".faults": ("FaultPlan", "TransportParams"),
    ".mpi": ("ANY_SOURCE", "ANY_TAG", "Communicator", "Info", "Request",
             "Status"),
    ".mpi.endpoints": ("Endpoint", "comm_create_endpoints"),
    ".mpi.partitioned": ("precv_init", "psend_init"),
    ".mpi.rma": ("win_create",),
    ".netsim": ("ClusterSpec", "NetworkConfig"),
    ".netsim.traffic": ("TrafficShape",),
    ".obs": ("MetricsRegistry", "export_chrome_trace"),
    ".runtime": ("MpiProcess", "Node", "World"),
    ".scenarios": ("ScenarioSpec", "run_campaign", "run_scenario",
                   "sample_scenarios"),
    ".sim.trace": ("TraceCategory", "Tracer"),
})

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "ClusterSpec", "Communicator", "Endpoint",
    "FaultPlan", "FaultPlanError", "HintViolationError", "Info",
    "InvalidHintError", "MetricsRegistry", "MpiError", "MpiProcess",
    "MpiUsageError", "NetworkConfig", "Node", "Request",
    "RmaSemanticsError", "ScenarioSpec", "Status", "TagOverflowError",
    "TopologyError", "TraceCategory", "Tracer", "TrafficShape",
    "TransportError", "TransportParams", "TruncationError",
    "World", "__version__", "comm_create_endpoints",
    "export_chrome_trace", "precv_init", "psend_init",
    "run_campaign", "run_scenario",
    "sample_scenarios", "win_create",
]
