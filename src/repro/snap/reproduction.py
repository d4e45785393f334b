"""Reproduction: one record, one verifier, two views.

A reproduction record is ``{recipe, stop, digest}``: what to run (a
program and its arguments, or a scenario spec), where that run stopped —
which of the worlds it built, and that world's cumulative kernel step —
and the state digest there. The stop is where the ``--until`` horizon
stopped the run, where a ``--to-finding`` rule first fired (the world
runs on to the end of that pass; a rule that fires only at finalize is
met at the world's end step), or, with neither, the last world's end (a
recipe that built no world stops at world -1 with an empty state).

:func:`reproduce` is the one verifier: it runs the recipe once to locate
the stop, again — stdout suppressed — under a
:class:`~repro.check.session.Session` that stops it again (at the same
horizon, or at exactly the step the rule fired), and reports
``verified`` when world, step, digest and finding are equal (for an end
stop, what the runs returned too); on a
mismatch it lists the :func:`~repro.snap.state.diff_states` paths
between the two captures. The recipe is a zero-argument callable, so
both CLI verbs are views of it: ``repro replay`` (:func:`run_replay`)
passes ``run_program(path, argv)``, ``repro campaign replay``
(:func:`verify_artifact`) ``run_scenario(spec)``. A campaign artifact
(``repro_artifact: 1``, :func:`write_artifact` / :func:`load_artifact`)
is the scenario record on disk: the minimal spec, its failure signature
and end digest, how it was shrunk, and the command that replays it.
"""

from __future__ import annotations

import math
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..check.checker import CheckConfig
from ..check.report import Violation
from ..check.session import Session, run_program
from ..errors import ScenarioError
from .state import capture_state, diff_states, state_digest

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.world import World
    from ..scenarios.shrink import ShrinkResult
    from ..scenarios.spec import ScenarioSpec

__all__ = ["ARTIFACT_VERSION", "Reproduction", "reproduce", "replay_target",
           "run_replay", "write_artifact", "load_artifact", "verify_artifact"]

#: On-disk version of a campaign artifact (``repro_artifact:``).
ARTIFACT_VERSION = 1


class _Stopped(BaseException):
    """Unwinds the recipe at its stop; a ``BaseException`` so that an
    ``except Exception`` block in the program cannot swallow it."""


@dataclass
class Reproduction:
    """A reproduction record — recipe, stop, digest — and its verdict."""

    recipe: dict[str, Any]
    reason: str                       # "until" | "finding" | "end"
    world: int                        # index among the recipe's worlds
    step: int                         # that world's cumulative kernel step
    clock: float                      # simulated time there
    #: State digest at the stop; empty while unknown: the first run goes
    #: past a finding before the recipe can be stopped.
    digest: str
    finding: Optional[dict[str, Any]] = None
    verified: bool = False
    #: Where the two runs' captures differ, when they do.
    paths: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Multi-line human report (``python -m repro replay``)."""
        lines = [f"replay target: {self.reason} at step {self.step} "
                 f"(t={self.clock:.9f}s)",
                 f"reached by: re-executing world {self.world} of the "
                 f"program ({self.step} events)"]
        if self.finding is not None:
            lines.append(f"finding: {self.finding.get('rule')} "
                         f"\"{self.finding.get('message', '')}\" "
                         f"[task={self.finding.get('task')}]")
        lines.append(f"state digest: {self.digest[:16]}")
        lines.append(f"reproduction verified: {self.verified}")
        lines.extend(f"  differs at {path}" for path in self.paths[:16])
        return "\n".join(lines)


class _Run(Session):
    """One run of a recipe: owns (for a finding, checks) the worlds it
    builds and meets the stop in one of them — the first to cross the
    ``until`` horizon, the first step the rule fired at (``stop_step``,
    when a first run has located it), or the last world's end."""

    def __init__(self, until: Optional[float], rule: Optional[str],
                 stop_step: Optional[int] = None):
        super().__init__(CheckConfig(mode="warn", emit_warnings=False)
                         if rule else None)
        self.reason = ("until" if until is not None
                       else "finding" if rule else "end")
        self.rule = rule
        self.stop_step = stop_step
        self.stop_horizon = until
        self.on_stop = self._stopped
        #: Where the run met its stop, the state there if the world still
        #: sat at that step, and what the recipe returned if not unwound.
        self.stop: Optional[tuple[int, int, float]] = None
        self.state: Optional[dict[str, Any]] = None
        self.value: Any = None
        self.finding: Optional[dict[str, Any]] = None
        self._found_in: Optional["World"] = None

    def execute(self, run: Callable[[], Any]) -> None:
        """Run the recipe, finalize, then release its worlds."""
        with self:
            try:
                self.value = run()
                if self.rule:  # lock-order cycles and leaks fire only here
                    self.report()
                    if self._found_in is not None:
                        self._stopped(self._found_in)
                elif self.reason == "end" and self.worlds:
                    world = self.worlds[-1]
                    self._meet(world, world.sim.steps, world.sim.now)
                elif self.reason == "end":  # no world: no state, just a value
                    self.stop, self.state = (-1, 0, 0.0), {}
            except _Stopped:
                pass
        self.close()
        self._found_in = None
        # The stop is met once: a world the caller resumes runs on.
        self.stop_step = self.stop_horizon = None

    def attach(self, world: "World") -> None:
        """List ``world`` and, for a finding, watch its checker: the first
        violation of the rule records where it fired."""
        super().attach(world)
        if self.rule is None or world.checker is None:
            return
        prev = world.checker.on_violation

        def observe(violation: Violation) -> None:
            if prev is not None:
                prev(violation)
            if self.finding is None and violation.rule_id.upper() == self.rule:
                self.finding = {"rule": violation.rule_id,
                                "message": violation.message,
                                "task": violation.task,
                                "time": violation.time,
                                "step": world.sim.steps}
                self._found_in = world
                # A stop the running pass has crossed: it ends the pass.
                self.stop_step = world.sim.steps

        world.checker.on_violation = observe

    def _stopped(self, world: "World") -> None:
        found = self._found_in
        if found is not None and self.finding is not None:
            self._meet(found, self.finding["step"], self.finding["time"])
        if self.reason == "until":
            self._meet(world, world.sim.steps, world.sim.now)
        # An end stop is met when the recipe returns.

    def _meet(self, world: "World", step: int, clock: float) -> None:
        self.stop = (self.worlds.index(world), step, clock)
        if world.sim.steps == step:
            self.state = capture_state(world)
        raise _Stopped()


def reproduce(recipe: dict[str, Any], run: Callable[[], Any],
              until: Optional[float] = None,
              to_finding: Optional[str] = None
              ) -> tuple[Optional[Reproduction], Any]:
    """Run ``run`` to its stop, again to the same stop, and compare.

    ``recipe`` says what ``run`` runs; it is recorded, not read. The stop
    is the ``until`` horizon, the first firing of rule ``to_finding``,
    or, with neither, the last world's end. Returns ``(record, value)``:
    what the first run returned (``None`` if unwound at its stop), and
    ``None`` for the record when that run never met its horizon or rule
    (an end stop is always met).
    """
    if until is not None and to_finding is not None:
        raise ValueError("one stop: until= or to_finding=, not both")
    rule = to_finding.upper() if to_finding else None
    first = _Run(until, rule)
    first.execute(run)
    if first.stop is None:
        return None, first.value
    world, step, clock = first.stop
    second = _Run(until, rule, step if rule else None)
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        second.execute(run)
    digests = [state_digest(r.state) if r.state is not None else ""
               for r in (first, second)]
    record = Reproduction(recipe=recipe, reason=first.reason, world=world,
                          step=step, clock=clock, digest=digests[0],
                          finding=first.finding)
    # Same stop, the state captured at exactly that step there and equal
    # to the first run's (which has none when it ran past a finding).
    record.verified = (
        second.stop is not None and second.stop[:2] == (world, step)
        and digests[1] != "" and digests[0] in ("", digests[1])
        and second.finding == first.finding
        and (first.reason != "end" or second.value == first.value))
    if record.verified:
        record.digest = digests[1]
    elif first.state is not None and second.state is not None:
        record.paths = diff_states(first.state, second.state)
    return record, first.value


# -- the program view: python -m repro replay --------------------------------

def replay_target(until: Optional[float],
                  to_finding: Optional[str]) -> None:
    """Refuse a replay target before anything runs (:class:`ValueError`):
    it is exactly one of a finite simulated time ``>= 0`` and a dynamic
    checker rule, in any case."""
    from ..check.rules import DYNAMIC_RULES

    rules = [r.id for r in DYNAMIC_RULES]
    if (until is None) == (to_finding is None):
        raise ValueError("replay needs exactly one of --until / --to-finding")
    if until is not None and not (math.isfinite(until) and until >= 0):
        raise ValueError(f"--until must be a finite time >= 0, got {until!r}")
    if to_finding is not None and to_finding.upper() not in rules:
        raise ValueError(f"--to-finding {to_finding!r} is not one of "
                         f"{', '.join(rules)}")


def run_replay(program: str, argv: list[str], *,
               until: Optional[float] = None,
               to_finding: Optional[str] = None
               ) -> tuple[Optional[Reproduction], int]:
    """Reproduce ``program`` to ``until`` or ``to_finding``; returns
    ``(record, program status)``, the record ``None`` when the program
    ran to completion without meeting the target."""
    replay_target(until, to_finding)
    record, status = reproduce(
        {"program": program, "argv": list(argv)},
        lambda: run_program(program, argv), until, to_finding)
    return record, status or 0


# -- the scenario view: python -m repro campaign replay ----------------------

def write_artifact(path: str, result: "ShrinkResult") -> None:
    """Write a shrunk scenario as a self-contained ``repro_artifact: 1``
    YAML document."""
    doc = {
        "repro_artifact": ARTIFACT_VERSION,
        "signature": {"status": result.outcome["status"],
                      "rule": result.outcome["rule"]},
        "fingerprint": {"digest": result.outcome["digest"],
                        "detail": result.outcome["detail"],
                        "checks": result.outcome["checks"]},
        "scenario": result.minimal.to_dict(),
        "shrink": {"evals": result.evals, "steps": result.steps,
                   "original": result.original.to_dict()},
        "replay": f"python -m repro campaign replay {path}",
    }
    import yaml  # on first use: only a failing campaign writes artifacts
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True, default_flow_style=False)


def load_artifact(path: str
                  ) -> tuple["ScenarioSpec", tuple[str, Optional[str]],
                             Optional[str]]:
    """A ``repro_artifact: 1`` document as its reproduction record (an
    end stop): the scenario, the failure signature ``(status, rule)`` and
    the end-of-run digest (``None`` if the run could not be captured).
    Anything else is a :class:`~repro.errors.ScenarioError`."""
    import yaml  # on first use: only artifacts are YAML here

    from ..scenarios.spec import ScenarioSpec
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read artifact {path!r}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        raise ScenarioError(f"unparseable artifact {path!r}: {exc}") from exc
    if not isinstance(doc, dict) or "scenario" not in doc:
        raise ScenarioError(f"{path!r} is not a repro artifact")
    if doc.get("repro_artifact") != ARTIFACT_VERSION:
        raise ScenarioError(
            f"artifact version {doc.get('repro_artifact')!r} unsupported "
            f"(expected {ARTIFACT_VERSION})")
    signature, fingerprint = doc.get("signature"), doc.get("fingerprint")
    if not (isinstance(signature, dict)
            and isinstance(signature.get("status"), str)
            and isinstance(signature.get("rule"), (str, type(None)))):
        raise ScenarioError(f"{path!r}: signature needs a status string "
                            "and a rule string or null")
    if not (isinstance(fingerprint, dict)
            and isinstance(fingerprint.get("digest"), (str, type(None)))):
        raise ScenarioError(f"{path!r}: fingerprint needs a digest string "
                            "or null")
    try:
        spec = ScenarioSpec.from_dict(doc["scenario"])
    except ScenarioError as exc:
        raise ScenarioError(f"{path!r}: {exc}") from exc
    return (spec, (signature["status"], signature.get("rule")),
            fingerprint.get("digest"))


def verify_artifact(path: str) -> dict[str, Any]:
    """Reproduce an artifact's scenario to its end and match its
    signature and digest: ``{"ok", "outcome" (the first run's),
    "problems"}``."""
    from ..scenarios.executor import outcome_signature, run_scenario

    spec, signature, digest = load_artifact(path)
    record, outcome = reproduce({"scenario": spec.to_dict()},
                                lambda: run_scenario(spec))
    assert record is not None  # an end stop is always met
    problems: list[str] = []
    if not record.verified:
        where = ", ".join(record.paths[:8])
        problems.append("replay is not deterministic: two runs differ"
                        + (f" at {where}" if where else ""))
    if outcome_signature(outcome) != signature:
        problems.append(f"signature changed: artifact {signature}, "
                        f"replay {outcome_signature(outcome)}")
    if digest is not None and outcome["digest"] != digest:
        problems.append(f"state digest changed: artifact {digest[:16]}..., "
                        f"replay {str(outcome['digest'])[:16]}...")
    return {"ok": not problems, "outcome": outcome, "problems": problems}
