"""A fence around the one route instruments take to the layers.

A run's metrics registry and tracer ride on its simulator, beside the
checker: ``World`` installs ``sim.metrics`` and ``sim.tracer`` before it
builds any layer, and each layer reads them from its simulator once,
when built, keeping its own handles for the hot path. No layer takes
them as a constructor knob, so a caller cannot hand one layer an
instrument the rest of the run does not see.

This test parses ``src/repro/{sim,netsim,mpi,faults,runtime}`` and fails
on an ``__init__`` with a parameter named ``metrics`` or ``tracer``, and
parses all of ``src/repro`` for an assignment to ``sim.metrics`` or
``sim.tracer`` (``<x>.sim.metrics`` too) outside ``runtime/world.py``.
Two classes are exempt: ``World``, whose keywords are where a run's
instruments come in, and ``MatchingEngine``, which has no simulator (a
VCI hands it its registry) and which the frozen stack benchmark builds
bare.
"""

import ast
from pathlib import Path

from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, Tracer
from repro.runtime import World

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

LAYER_PACKAGES = ("sim", "netsim", "mpi", "faults", "runtime")
INSTRUMENTS = {"metrics", "tracer"}

#: Classes whose constructor may take an instrument, and why.
EXEMPT = {
    "World": "the run's entry point: it installs them on its simulator",
    "MatchingEngine": "no simulator; benchmarks/stack builds it bare",
}

#: The one module that installs the instruments on a simulator.
INSTALLER = "runtime/world.py"


def _trees(packages=None):
    roots = [SRC / p for p in packages] if packages else [SRC]
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield (path.relative_to(SRC).as_posix(),
                   ast.parse(path.read_text(encoding="utf-8")))


def _instrument_parameters():
    """``file:Class`` of every ``__init__`` taking an instrument."""
    found = []
    for rel, tree in _trees(LAYER_PACKAGES):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name in EXEMPT:
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and fn.name == "__init__"):
                    args = fn.args
                    names = {a.arg for a in args.posonlyargs + args.args
                             + args.kwonlyargs}
                    for name in sorted(names & INSTRUMENTS):
                        found.append(f"{rel}:{cls.name}({name}=)")
    return found


def _is_sim(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "sim")
            or (isinstance(node, ast.Attribute) and node.attr == "sim"))


def _installers():
    """``file:line`` of every assignment to ``sim.metrics``/``sim.tracer``."""
    found = []
    for rel, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr in INSTRUMENTS
                        and _is_sim(target.value)):
                    found.append(f"{rel}:{node.lineno}")
    return found


def test_no_layer_takes_an_instrument_as_a_parameter():
    assert _instrument_parameters() == [], (
        "a layer reads metrics/tracer from its simulator when built, "
        "not from a constructor parameter")


def test_only_the_world_installs_instruments_on_a_simulator():
    sites = _installers()
    assert sites and all(s.startswith(INSTALLER + ":") for s in sites), sites


def test_every_layer_holds_the_worlds_instruments():
    metrics, tracer = MetricsRegistry(), Tracer()
    world = World(num_nodes=2, metrics=metrics, tracer=tracer,
                  faults=FaultPlan(drop=0.1))
    assert world.sim.metrics is world.metrics is metrics
    assert world.sim.tracer is world.tracer is tracer
    assert world.fabric.metrics is metrics and world.fabric.tracer is tracer
    assert world.injector.metrics is metrics
    assert world.injector.tracer is tracer
    assert all(proc.lib.tracer is tracer for proc in world.procs)
    bare = World(num_nodes=2)
    assert bare.sim.metrics is None and bare.sim.tracer is None
