"""Scenario execution: one spec in, one classified outcome out.

``run_scenario`` wraps a driver run in the dynamic analyzer
(:mod:`repro.check`), digests the end state of the last World the driver
built (:mod:`repro.snap`), and reduces whatever happened to a small
JSON-serializable *outcome* dict.
The outcome's ``(status, rule)`` pair is the failure *signature* the
shrinker preserves, and its ``digest`` is the end-of-run state digest that
makes replay verification byte-exact: two runs of the same spec must
produce byte-identical outcome dicts, digest included.
"""

from __future__ import annotations

from typing import Any, Optional

from ..check import CheckConfig, checking
from ..errors import CheckError, MpiError, ScenarioError, TransportError
from ..sim.core import SimulationError
from ..snap import capture_state, state_digest
from .apps import get_app
from .spec import ScenarioSpec

__all__ = ["run_scenario", "outcome_signature", "STATUSES"]

#: Every status an outcome can carry, healthiest first.
STATUSES = ("ok", "finding", "incorrect", "transport", "deadlock", "crash")


def outcome_signature(outcome: dict[str, Any]) -> tuple[str, Optional[str]]:
    """The (status, rule) pair the shrinker must preserve."""
    return (outcome["status"], outcome.get("rule"))


def _first_line(exc: BaseException) -> str:
    text = str(exc) or type(exc).__name__
    return text.splitlines()[0][:240]


def run_scenario(spec: ScenarioSpec) -> dict[str, Any]:
    """Run one scenario under the analyzer; classify the result.

    Returns a plain-data outcome dict::

        {"status":   "ok" | "finding" | "incorrect" | "transport"
                     | "deadlock" | "crash",
         "rule":     None | "CHK###" | "data-mismatch" | exception name,
         "detail":   first line of the message (or ""),
         "checks":   {"CHK101": 2, ...},          # all analyzer hits
         "digest":   end-of-run state digest (None if uncapturable),
         "wall_time": simulated seconds (None unless the driver returned),
         "spec":     spec.to_dict()}

    Deterministic: the same spec yields a byte-identical dict. Statuses
    past ``ok`` are ordered by blame — an analyzer finding outranks
    nothing, but a crash/deadlock/transport failure outranks a finding
    recorded on the way down.
    """
    if not isinstance(spec, ScenarioSpec):
        raise ScenarioError(
            f"run_scenario needs a ScenarioSpec, got {type(spec).__name__}")
    adapter = get_app(spec.app)
    status: str = "ok"
    rule: Optional[str] = None
    detail = ""
    wall: Optional[float] = None
    with checking(CheckConfig(mode="warn", emit_warnings=False)) as session:
        try:
            result = adapter.run(spec)
            wall = getattr(result, "wall_time", None)
            if getattr(result, "correct", True) is False:
                status, rule = "incorrect", "data-mismatch"
                detail = "driver self-check reported wrong data"
        except TransportError as exc:
            status, rule, detail = ("transport", "TransportError",
                                    _first_line(exc))
        except CheckError as exc:
            status = "finding"
            rule = exc.violation.rule_id if getattr(
                exc, "violation", None) else "CheckError"
            detail = _first_line(exc)
        except SimulationError as exc:
            status, rule, detail = ("deadlock", "SimulationError",
                                    _first_line(exc))
        except (MpiError, ArithmeticError, ValueError, KeyError,
                IndexError, AssertionError, RuntimeError) as exc:
            status, rule, detail = ("crash", type(exc).__name__,
                                    _first_line(exc))
        report = session.report()
        checks = report.counts()
        if status == "ok" and not report.clean:
            # Analyzer findings only take the blame when the run itself
            # survived; otherwise they stay visible in ``checks``.
            status = "finding"
            rule = next(iter(sorted(checks)))
            detail = report.violations[0].describe()[:240]
        state_dig: Optional[str] = None
        if session.worlds:
            try:
                state_dig = state_digest(capture_state(session.worlds[-1]))
            except MpiError as exc:
                detail = detail or f"digest failed: {_first_line(exc)}"
    return {
        "status": status,
        "rule": rule,
        "detail": detail,
        "checks": checks,
        "digest": state_dig,
        "wall_time": wall,
        "spec": spec.to_dict(),
    }
