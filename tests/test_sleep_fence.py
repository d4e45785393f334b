"""A fence around the kernel's one sleep form and its event shells.

A task sleeps by yielding its delay as a float (``yield cpu.send_post``,
``yield proc.compute(x)``): the kernel schedules the task itself,
allocating nothing. ``sim.timeout(d)`` builds a
:class:`~repro.sim.core.Timeout`, the composable event (a callback, an
``AllOf`` member, a user script's ``yield``). No task in ``src/`` sleeps
on one: every sleep there is a float (``MpiProcess.compute`` and
``Barrier`` convert their argument, ``_flow_task`` its draws), so the
allow-list below is empty. The exceptions are the racer app's
``timeout(0)``s, which its digests pin: a ``timeout(0)`` describes
``delay: 0`` in a state digest, where a yielded ``0.0`` would describe
``0.0``. The reliable transport's retransmission timer is a Timeout
too, but a callback waits on it, not a sleeping task.

This test parses ``src/repro`` and fails on any other ``yield
<expr>.timeout(...)``, and on a hand-built ``Event.__new__(Event)``
outside the kernel — a scheduled callback is ``Simulator.call_after``; a
request's pending ``_done`` shell is never scheduled when built. Last,
it counts the Timeouts a Fig 1(a) grid and a chaos sample build, by call
site.
"""

import ast
import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.bench import MODES, MsgRateConfig, run_msgrate
from repro.netsim import NetworkConfig
from repro.runtime import World
from repro.scenarios import run_scenario, sample_scenarios
from repro.sim import Barrier

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

_spec = importlib.util.spec_from_file_location(
    "opcount", ROOT / "benchmarks" / "opcount.py")
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)

#: ``file:function`` -> (``yield ....timeout(...)`` count, why it stays).
#: Empty: every task sleep in ``src/`` is a yielded float.
ALLOWED_TIMEOUTS: dict[str, tuple[int, str]] = {}

#: Files that may build an ``Event`` shell by hand.
EVENT_SHELLS = {"sim/core.py", "mpi/request.py"}


def _sites():
    """(``file:function`` of every ``yield X.timeout(arg)`` and its
    argument, files with ``Event.__new__(Event)``)."""
    sleeps, shells = [], set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for child in ast.walk(node):
                    if child is not node:
                        scopes.setdefault(child, []).append(node.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Yield)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "timeout"):
                where = ".".join(scopes.get(node, []))
                sleeps.append((f"{rel}:{where}", node.value.args))
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__new__"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "Event"):
                shells.add(rel)
    return sleeps, shells


def _int_literal(args) -> bool:
    return (len(args) == 1 and isinstance(args[0], ast.Constant)
            and type(args[0].value) is int)


def test_a_float_sleep_is_a_yielded_delay():
    sleeps, _ = _sites()
    counts = Counter(where for where, args in sleeps
                     if not _int_literal(args))
    allowed = {where: n for where, (n, _why) in ALLOWED_TIMEOUTS.items()}
    assert counts == allowed, (
        "a `yield X.timeout(d)` whose d is a float should be `yield d`; "
        f"found {dict(counts)}, allowed {allowed}")


def test_int_literal_timeouts_are_the_racer_app_zeros():
    """``timeout(0)`` stays where the racer app's digests pin it."""
    sleeps, _ = _sites()
    literal = sorted(where for where, args in sleeps if _int_literal(args))
    assert literal == ["scenarios/apps.py:run_racer.idle",
                       "scenarios/apps.py:run_racer.rank0.poker"]


def test_event_shells_are_built_in_the_kernel_and_for_requests_only():
    _, shells = _sites()
    assert shells == EVENT_SHELLS


# ------------------------------------------------ Timeouts by call site

def test_timeouts_come_only_from_the_retransmission_timer():
    """No task sleep builds a Timeout: the Fig 1(a) grid builds none, and
    a chaos sample (compute, barriers, shared-memory copies, background
    flows, lossy fabrics) builds only the reliable transport's timers."""
    def grid():
        for mode in MODES:
            for cores in (1, 4, 16):
                run_msgrate(MsgRateConfig(mode=mode, cores=cores,
                                          msg_bytes=8, window=16,
                                          msgs_per_core=8),
                            net=NetworkConfig.omnipath())

    def chaos():
        for spec in sample_scenarios(42, 8):
            run_scenario(spec)

    assert opcount.count_timeouts(grid) == Counter()
    sites = opcount.count_timeouts(chaos)
    assert set(sites) == {"repro/faults/transport.py:_arm_timer"}, sites


def test_task_sleeps_are_float_delays_checked_at_the_call():
    world = World(num_nodes=1, procs_per_node=1)
    proc = world.procs[0]
    for seconds in (3, 0, 2.5e-6, np.float64(1e-6)):
        delay = proc.compute(seconds)
        assert type(delay) is float and delay == seconds
    assert type(proc.shm_exchange(64)) is float
    for bad in (math.nan, -1, -1e-9):
        with pytest.raises(ValueError, match="compute time must be >= 0"):
            proc.compute(bad)
        with pytest.raises(ValueError, match="per_entry_cost"):
            Barrier(world.sim, 2, per_entry_cost=bad)
    assert type(Barrier(world.sim, 2, per_entry_cost=1).per_entry_cost) \
        is float
