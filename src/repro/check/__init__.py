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

from .. import _lazy

#: Nothing loads with the package: a World imports the checker only when
#: it checks, a session or ``hb`` loads without the static side, and the
#: static side loads where it is run. ``from repro.check import
#: analyze_path`` works as before.
__getattr__, __dir__ = _lazy(__name__, {
    ".checker": ("CheckConfig", "Checker"),
    ".lint": ("Finding", "run_lint"),
    ".report": ("CheckReport", "CheckWarning", "Violation"),
    ".rules": ("ALL_RULES", "CHK_EQUIVALENT", "DYNAMIC_RULES", "LINT_RULES",
               "STATIC_FOR_DYNAMIC", "STATIC_RULES", "Rule", "rule"),
    ".session": ("checking",),
    ".static_": ("StaticFinding", "StaticReport", "analyze_path",
                 "analyze_paths", "analyze_source", "to_sarif"),
})

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
