"""repro.check: an MPI+threads correctness analyzer for the simulator.

Two sides, one rule catalog (:mod:`repro.check.rules`):

- **dynamic** — enable with ``World(check=CheckConfig(...))`` (or wrap a
  whole program with ``python -m repro check program.py``). A
  vector-clock happens-before engine, a lock-order graph and an MPI
  semantics validator observe the simulated run and report races on
  shared MPI objects, potential deadlocks, hint violations, partitioned
  and RMA protocol errors, and leaked resources — with rank/VCI/simulated
  time context. Observer-only: simulated timings are byte-identical with
  the checker on or off.
- **static** — ``python -m repro analyze program.py`` runs the
  interprocedural analyzer (:mod:`repro.check.static_`) over a driver's
  AST without executing it: race/lifecycle/collective rules S301-S312
  (the static twins of the CHK catalog) plus the VCI-mappability
  advisor (S313-S315). ``python -m repro lint`` runs the repository's
  own AST lint (host nondeterminism in simulated paths, raw
  trace-category strings, hygiene rules).

See ``docs/checking.md`` and ``docs/static-analysis.md`` for the rule
catalogs and suppression syntax.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

from .checker import CheckConfig, Checker
from .report import CheckReport, CheckWarning, Violation
from .rules import ALL_RULES, CHK_EQUIVALENT, DYNAMIC_RULES, LINT_RULES, \
    STATIC_FOR_DYNAMIC, STATIC_RULES, Rule, rule
from .session import checking

#: The static side's names and the submodule each lives in. A simulation
#: needs the dynamic side only, so these load on first use (PEP 562):
#: ``from repro.check import analyze_path`` works as before.
_ON_FIRST_USE = {
    "Finding": ".lint", "run_lint": ".lint",
    "StaticFinding": ".static_", "StaticReport": ".static_",
    "analyze_path": ".static_", "analyze_paths": ".static_",
    "analyze_source": ".static_", "to_sarif": ".static_",
}


def __getattr__(name: str) -> Any:
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "CheckConfig",
    "Checker",
    "CheckReport",
    "CheckWarning",
    "Violation",
    "Rule",
    "rule",
    "ALL_RULES",
    "DYNAMIC_RULES",
    "LINT_RULES",
    "STATIC_RULES",
    "CHK_EQUIVALENT",
    "STATIC_FOR_DYNAMIC",
    "Finding",
    "run_lint",
    "StaticFinding",
    "StaticReport",
    "analyze_path",
    "analyze_paths",
    "analyze_source",
    "to_sarif",
    "checking",
]
