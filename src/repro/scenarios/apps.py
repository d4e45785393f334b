"""The application registry: the bridge from a ScenarioSpec to a driver run.

Each of the seven paper application proxies (plus one deliberately racy
demo program) is one :class:`AppAdapter` row: where its config dataclass
and driver live, and how the generic scenario fields (``nodes``,
``threads``, ``app_params``) map onto that config. Everything else is
generic — :meth:`AppAdapter.build` makes the config (and lets its
``__post_init__`` complain, which is how a spec is validated without
running anything), :meth:`AppAdapter.run` hands it to the driver with the
spec's environment (:func:`spec_env`), and the mechanism list is the
``MECHANISMS`` constant of the app's module. Rows name their module and
its attributes as strings resolved on first use: importing
:mod:`repro.scenarios` must not import any application (the sweep
service starts in a third of a second without them).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..errors import MpiUsageError, ScenarioError

if TYPE_CHECKING:  # pragma: no cover
    from .spec import ScenarioSpec

__all__ = ["AppAdapter", "APP_REGISTRY", "get_app", "app_names", "spec_env"]


def spec_env(spec: "ScenarioSpec") -> dict[str, Any]:
    """The spec's environment as the keyword block every driver forwards
    to :func:`repro.apps.harness.run_app`."""
    return {
        "faults": spec.faults,
        "transport": spec.transport,
        "traffic": spec.traffic,
        "traffic_seed": spec.traffic_seed,
        "topology": spec.topology,
        "topology_params": dict(spec.topology_params) or None,
    }


@dataclass(frozen=True)
class AppAdapter:
    """One runnable application in the scenario space."""

    #: Registry name (the spec's ``app`` field).
    name: str
    #: Module that defines the app (imported on first use), and in it
    #: the names of the config dataclass and of ``driver(config, **env)``.
    module: str
    config_cls: str
    driver: str
    #: Config field -> the spec attribute (``nodes``/``threads``) it is
    #: bound to; ``app_params`` may not name these.
    shape: dict[str, str]
    #: ``defaults(spec)``: campaign-sized values for the config fields
    #: that ``app_params`` may override.
    defaults: Callable[["ScenarioSpec"], dict[str, Any]]
    #: Whether the default sampler may draw this app (the racy demo app is
    #: opt-in only: it exists to exercise the finding/shrinking path).
    samplable: bool = True

    def load(self) -> tuple[type, Callable[..., Any]]:
        """Import the app: ``(config class, driver)``."""
        module = import_module(self.module)
        return getattr(module, self.config_cls), getattr(module, self.driver)

    @property
    def mechanisms(self) -> tuple[str, ...]:
        """Mechanisms the app supports (spec ``mechanism`` must be one):
        its module's ``MECHANISMS``."""
        return import_module(self.module).MECHANISMS

    def build(self, spec: "ScenarioSpec") -> Any:
        """The app's config for ``spec``; raises what the config raises."""
        cls = self.load()[0]
        bound = {field: getattr(spec, attr)
                 for field, attr in self.shape.items()}
        if "seed" in cls.__dataclass_fields__:
            bound["seed"] = spec.seed
        return cls(mechanism=spec.mechanism, **bound,
                   **{**self.defaults(spec), **spec.app_params})

    def validate(self, spec: "ScenarioSpec") -> None:
        """Raise :class:`ScenarioError` if the spec cannot run."""
        try:
            self.build(spec)
        except MpiUsageError as exc:
            raise ScenarioError(
                f"invalid {self.name} scenario: {exc}") from exc
        except TypeError as exc:
            raise ScenarioError(
                f"invalid {self.name} app_params: {exc}") from exc

    def run(self, spec: "ScenarioSpec") -> Any:
        """Execute the scenario; returns the driver's result object."""
        config = self.build(spec)
        env = spec_env(spec)
        if "seed" not in config.__dataclass_fields__:
            env["seed"] = spec.seed     # no seed of its own: the world's
        return self.load()[1](config, **env)


def _stencil(spec: "ScenarioSpec") -> dict[str, Any]:
    points = spec.app_params.get("stencil_points", 5)
    pad = (1,) * (1 if points in (5, 9) else 2)
    return {"proc_grid": (spec.nodes,) + pad,
            "thread_grid": (spec.threads,) + pad,
            "pnx": 6, "pny": 6, "iters": 2}


_RUNTIME = {"num_nodes": "nodes", "task_threads": "threads"}
_THREADED = {"num_nodes": "nodes", "threads_per_proc": "threads"}


# -- racer: a deliberately broken program ----------------------------------

MECHANISMS = ("default",)


@dataclass
class RacerConfig:
    """The racy demo's shape (it has no knobs of its own)."""

    nodes: int
    threads: int
    mechanism: str = "default"

    def __post_init__(self):
        if self.nodes < 2:
            raise MpiUsageError("racer needs 2 nodes")


def run_racer(cfg: RacerConfig, **env: Any) -> SimpleNamespace:
    """A two-rank program with a textbook MPI+threads defect.

    Two spawned threads poke ``req.test()`` on the *same* Isend request
    without synchronization — the shared-request race of CHK101. The data
    still arrives (the race is on completion polling, not the payload),
    so this app always *finishes*; only the analyzer flags it. It exists
    to give campaigns a guaranteed finding to shrink, and is excluded
    from the default sampler (``samplable=False``).
    """
    from ..apps.harness import run_app
    got = np.zeros(4)

    def rank0(proc):
        req = yield from proc.comm_world.Isend(np.arange(4.0), dest=1, tag=0)

        def poker():
            req.test()
            yield proc.sim.timeout(0)

        t1 = proc.spawn(poker(), name="poker1")
        t2 = proc.spawn(poker(), name="poker2")
        yield proc.sim.all_of([t1, t2])
        yield from req.wait()
        return proc.sim.now

    def rank1(proc):
        yield from proc.comm_world.Recv(got, source=0, tag=0)
        return proc.sim.now

    def idle(proc):
        yield proc.sim.timeout(0)
        return proc.sim.now

    def proc_main(proc):
        return (rank0, rank1, idle)[min(proc.rank, 2)](proc)

    _, ends = run_app(cfg.nodes, max(2, cfg.threads), proc_main, **env)
    return SimpleNamespace(correct=bool((got == np.arange(4.0)).all()),
                           wall_time=max(ends))


APP_REGISTRY: dict[str, AppAdapter] = {a.name: a for a in (
    AppAdapter("stencil", "repro.apps.stencil", "StencilConfig",
               "run_stencil", {}, _stencil),
    AppAdapter("legion", "repro.apps.legion.runtime", "LegionConfig",
               "run_legion", _RUNTIME, lambda spec: {"msgs_per_thread": 4}),
    AppAdapter("circuit", "repro.apps.legion.circuit", "CircuitConfig",
               "run_circuit", _RUNTIME,
               lambda spec: {"wires_per_thread": 2, "timesteps": 3}),
    AppAdapter("graph", "repro.apps.graph.vite", "GraphConfig", "run_graph",
               _THREADED, lambda spec: {"graph_vertices": 48, "iters": 2}),
    AppAdapter("nwchem", "repro.apps.nwchem.blocksparse", "NwchemConfig",
               "run_nwchem", _THREADED,
               lambda spec: {"tiles_per_proc": 4, "tile_dim": 4,
                             "tasks_per_thread": 2}),
    AppAdapter("vasp", "repro.apps.vasp.allreduce", "VaspConfig", "run_vasp",
               _THREADED,
               lambda spec: {"elems": 16 * spec.threads, "repeats": 1}),
    AppAdapter("device", "repro.apps.device.offload", "DeviceConfig",
               "run_device", {"num_nodes": "nodes", "blocks": "threads"},
               lambda spec: {"count": 16, "timesteps": 3}),
    AppAdapter("racer", __name__, "RacerConfig", "run_racer",
               {"nodes": "nodes", "threads": "threads"}, lambda spec: {},
               samplable=False),
)}


def get_app(name: str) -> AppAdapter:
    """Look up an adapter; raises :class:`ScenarioError` if unknown."""
    try:
        return APP_REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown app {name!r}; choose from "
            f"{sorted(APP_REGISTRY)}") from None


def app_names(samplable_only: bool = False) -> list[str]:
    """Registered app names, optionally only the sampler-eligible ones."""
    return sorted(name for name, a in APP_REGISTRY.items()
                  if a.samplable or not samplable_only)
