"""A finished World is freed by its owner.

A World is a reference cycle, so only the cyclic collector frees it. The
collector is off for the life of the World's *owner* — ``run_msgrate``,
``run_scenario`` and a checking ``Session`` (``repro.sim.core.gc_suspended``)
— and the outermost owner's exit frees what it dropped in one young
collection. These tests record a weak reference to every World built,
leave the collector enabled and never collect themselves: a World that
outlives its owner here is one that drifts into an older generation in a
long sweep. The World counter is ``benchmarks/heapgrowth.py``'s, so this
gate and the script count the same way.
"""

import ast
import gc
import importlib.util
import weakref
from pathlib import Path

import pytest

import repro.bench.msgrate as msgrate
from repro.bench import MsgRateConfig, run_msgrate
from repro.check import CheckConfig, checking
from repro.check.session import Session, run_program
from repro.runtime.world import World
from repro.scenarios import run_scenario, sample_scenarios
from repro.snap.reproduction import reproduce

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

_spec = importlib.util.spec_from_file_location(
    "heapgrowth", ROOT / "benchmarks" / "heapgrowth.py")
heapgrowth = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(heapgrowth)
alive = heapgrowth.alive

#: The paper's five Fig 1(a) modes.
MODES = ["everywhere", "threads-original", "threads-tags", "threads-comms",
         "threads-endpoints"]


@pytest.fixture
def worlds(monkeypatch):
    """A list that gets a weak reference to every World built."""
    refs: list[weakref.ref] = []
    monkeypatch.setattr(World, "__init__", heapgrowth.recording_init(refs))
    assert gc.isenabled()
    return refs


def small(mode: str) -> MsgRateConfig:
    return MsgRateConfig(mode=mode, cores=2, msgs_per_core=2)


@pytest.mark.parametrize("mode", MODES)
def test_run_msgrate_frees_its_world(worlds, mode):
    result = run_msgrate(small(mode))
    assert result.messages == 4
    assert len(worlds) == 1
    assert alive(worlds) == 0
    assert gc.isenabled()


def test_run_scenario_frees_its_worlds(worlds):
    specs = sample_scenarios(42, 6)
    for spec in specs:
        assert run_scenario(spec)["status"] == "ok"
    assert len(worlds) >= len(specs)
    assert alive(worlds) == 0
    assert gc.isenabled()


def test_a_closed_session_frees_its_worlds_at_exit(worlds):
    with checking(CheckConfig(emit_warnings=False)) as session:
        run_msgrate(small("threads-tags"))
        assert session.report().clean
        session.close()
    assert len(worlds) == 1
    assert alive(worlds) == 0
    assert gc.isenabled()


def test_a_nested_owner_does_not_collect_inside_an_open_session(worlds):
    with checking(CheckConfig(emit_warnings=False)) as session:
        run_msgrate(small("everywhere"))
        # run_msgrate's scope was nested: it neither re-enabled the
        # collector nor ended the session's World.
        assert not gc.isenabled()
        assert alive(worlds) == 1
        session.close()
    assert alive(worlds) == 0
    assert gc.isenabled()


def test_reproduce_frees_the_worlds_of_both_runs(worlds):
    record, result = reproduce({"mode": "threads-tags"},
                               lambda: run_msgrate(small("threads-tags")))
    assert record is not None and record.verified
    assert result.messages == 4
    assert len(worlds) == 2
    assert alive(worlds) == 0
    assert gc.isenabled()


def test_a_script_run_in_a_session_is_no_owner(tmp_path):
    script = tmp_path / "collector.py"
    script.write_text("import gc, sys\n"
                      "sys.exit(0 if gc.isenabled() else 3)\n")
    with Session():
        assert not gc.isenabled()
        assert run_program(str(script), []) == 0
        assert not gc.isenabled()
    assert gc.isenabled()


def test_a_run_that_raises_restores_the_collector(monkeypatch):
    def failing_sender(*_args):
        raise RuntimeError("sender failed")
        yield  # pragma: no cover - makes this a generator

    monkeypatch.setattr(msgrate, "_sender", failing_sender)
    with pytest.raises(RuntimeError, match="sender failed"):
        run_msgrate(small("everywhere"))
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="sender failed"):
        with checking(CheckConfig(emit_warnings=False)):
            run_msgrate(small("threads-endpoints"))
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_gets_it_back_disabled():
    gc.disable()
    try:
        run_msgrate(small("threads-comms"))
        assert not gc.isenabled()
        with checking(CheckConfig(emit_warnings=False)) as session:
            run_msgrate(small("everywhere"))
            session.close()
        assert not gc.isenabled()
        run_scenario(sample_scenarios(42, 1)[0])
        assert not gc.isenabled()
    finally:
        gc.enable()


def _gc_calls(path: Path) -> list[str]:
    """``gc.<switch>`` uses in ``path``: attributes of the ``gc`` module
    and names imported from it."""
    switches = {"disable", "enable", "collect"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in switches \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "gc":
            found.append(f"gc.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found += [f"gc.{alias.name}" for alias in node.names
                      if alias.name in switches]
    return found


def test_only_the_kernel_switches_the_collector():
    users = {str(path.relative_to(SRC)): calls
             for path in sorted(SRC.rglob("*.py"))
             if (calls := _gc_calls(path))}
    assert set(users) == {"sim/core.py"}, users
    assert set(users["sim/core.py"]) == {"gc.disable", "gc.enable",
                                         "gc.collect"}
