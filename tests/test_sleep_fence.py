"""A fence around the kernel's two sleep forms and its event shells.

A task sleeps by yielding its delay (``yield cpu.send_post``): the kernel
schedules the task itself, allocating nothing. ``sim.timeout(d)`` builds a
:class:`~repro.sim.core.Timeout`, the composable event (``AnyOf``,
callbacks, user scripts), and inside ``src/`` it stays only where the
delay may not be a float: a yielded ``int`` or numpy float is an error,
and a ``timeout(0)`` describes ``delay: 0`` in a state digest where a
yielded ``0.0`` would describe ``0.0``. This test parses ``src/repro``
and fails on any other ``yield <expr>.timeout(...)``, and on a
hand-built ``Event.__new__(Event)`` outside the kernel — a scheduled
callback is ``Simulator.call_after``; a request's pending ``_done`` shell
is never scheduled when built.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``file:function`` -> (``yield ....timeout(...)`` count, why it stays).
ALLOWED_TIMEOUTS = {
    "sim/sync.py:Barrier.wait": (
        1, "per_entry_cost is a constructor argument of any number type"),
    "netsim/traffic.py:_flow_task": (
        3, "traffic shapes are user and sampler numbers (int, numpy float)"),
}

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
