"""Record-replay: locate a target in a run, reach it again, compare.

``python -m repro replay <prog> --until T`` (or ``--to-finding CHK###``)
executes an unmodified program twice in this process, each time inside
one :class:`ReplayController` session:

1. the first execution *locates* the target — which of the worlds the
   program builds, and that world's cumulative kernel step: where the
   ``--until`` horizon stopped it, or where the rule first fired (the
   world runs on to the end of that run's pass before the program
   unwinds; a rule that fires only at finalize is met at the world's end
   step);
2. the second execution, its stdout suppressed, stops the world at
   exactly that step (:attr:`~repro.check.session.Session.stop_step`),
   captures the state there, optionally saves it as a versioned
   snapshot, and is compared with the first:

   - ``--until``: same world, same step, equal state digest;
   - ``--to-finding``: the same rule re-fired in the same world at the
     same step.

The proof is the repository's own contract — same spec, same bytes —
applied to the program: one that differs between two executions is
reported ``reproduction verified: False``. The cost is one extra
execution up to the target (docs/snapshot.md has the numbers).
"""

from __future__ import annotations

import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..check.checker import CheckConfig
from ..check.report import Violation
from ..check.session import Session, run_program
from .snapshot import Snapshot, save_snapshot, take_snapshot

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.world import World

__all__ = ["ReplayStop", "ReplayResult", "ReplayController", "run_replay"]


class ReplayStop(BaseException):
    """Raised to unwind the replayed program once the target is reached.

    A ``BaseException`` so application-level ``except Exception`` blocks
    in the program cannot swallow it.
    """


@dataclass
class ReplayResult:
    """Where an execution met the target, and whether a second one met
    it again in the same state."""

    reason: str                       # "until" | "finding"
    world: int                        # index among the program's worlds
    step: int                         # that world's cumulative kernel step
    clock: float                      # simulated time there
    #: State digest at the target; empty while unknown: the first
    #: execution runs past a finding before the program can be stopped.
    digest: str
    verified: bool = False            # reproduction proof (see module doc)
    finding: Optional[dict[str, Any]] = None
    snapshot_path: Optional[str] = None

    def render(self) -> str:
        """Multi-line human report."""
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
        if self.snapshot_path:
            lines.append(f"snapshot written: {self.snapshot_path}")
        return "\n".join(lines)


class ReplayController(Session):
    """The session of one execution: stops the program where it meets
    the target. A ``--to-finding`` replay checks every world, as
    ``repro check`` does."""

    def __init__(self, until: Optional[float] = None,
                 to_finding: Optional[str] = None,
                 recipe: Optional[dict[str, Any]] = None):
        if (until is None) == (to_finding is None):
            raise ValueError(
                "replay needs exactly one of until= / to_finding=")
        super().__init__(CheckConfig(mode="warn", emit_warnings=False)
                         if to_finding else None)
        self.to_finding = to_finding.upper() if to_finding else None
        self.stop_horizon = until
        self.on_stop = self._stopped
        self.recipe = dict(recipe or {})
        #: Where the current execution met the target, and the state
        #: there if the world still sat at that step when it stopped.
        self.result: Optional[ReplayResult] = None
        self.snapshot: Optional[Snapshot] = None
        self._finding: Optional[dict[str, Any]] = None
        self._found_in: Optional["World"] = None

    def reset(self, stop_step: Optional[int]) -> None:
        """Forget the last execution and release its worlds; the next
        one stops at ``stop_step``."""
        self.worlds = []
        self.result = self.snapshot = self._finding = self._found_in = None
        self.stop_step = stop_step

    def attach(self, world: "World") -> None:
        """List ``world`` and, for ``--to-finding``, watch its checker:
        the first violation of the rule records where it fired."""
        super().attach(world)
        if self.to_finding is None or world.checker is None:
            return
        prev = world.checker.on_violation

        def observe(violation: Violation) -> None:
            if prev is not None:
                prev(violation)
            if self._finding is None \
                    and violation.rule_id.upper() == self.to_finding:
                self._finding = {"rule": violation.rule_id,
                                 "message": violation.message,
                                 "task": violation.task,
                                 "time": violation.time,
                                 "step": world.sim.steps}
                self._found_in = world
                # A stop the running pass has crossed: it ends the pass.
                self.stop_step = world.sim.steps

        world.checker.on_violation = observe

    def finalize(self) -> None:
        """The program ended: finalize every world, as ``repro check``
        does. A rule that fires only there (lock-order cycles, leaks)
        meets the target at that world's end step."""
        self.report()
        if self._found_in is not None:
            self._stopped(self._found_in)

    def _stopped(self, world: "World") -> None:
        if self._finding is not None:
            self._reach(world, "finding", self._finding["step"],
                        self._finding["time"])
        elif self.to_finding is None:
            self._reach(world, "until", world.sim.steps, world.sim.now)

    def _reach(self, world: "World", reason: str, step: int,
               clock: float) -> None:
        if world.sim.steps == step:
            self.snapshot = take_snapshot(world, recipe=self.recipe)
        self.result = ReplayResult(
            reason=reason, world=self.worlds.index(world), step=step,
            clock=clock, finding=self._finding,
            digest=self.snapshot.digest if self.snapshot else "")
        raise ReplayStop()


def _execute(controller: ReplayController, program: str,
             argv: list[str]) -> int:
    """Run ``program`` once under ``controller``; returns its exit status."""
    status = 0
    with controller:
        try:
            status = run_program(program, argv)
            controller.finalize()
        except ReplayStop:
            pass
    return status


def run_replay(program: str, argv: list[str], *,
               until: Optional[float] = None,
               to_finding: Optional[str] = None,
               snapshot_path: Optional[str] = None
               ) -> tuple[Optional[ReplayResult], int]:
    """Run ``program`` under replay; returns (result, program_status).

    ``result`` is ``None`` when the program ran to completion without
    meeting the target.
    """
    controller = ReplayController(
        until=until, to_finding=to_finding,
        recipe={"program": program, "argv": list(argv),
                "until": until, "to_finding": to_finding})
    status = _execute(controller, program, argv)
    result = controller.result
    if result is None:
        return None, status
    controller.reset(stop_step=result.step if to_finding else None)
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        _execute(controller, program, argv)
    again = controller.result
    # Same world and step (for a finding: the rule re-fired there), the
    # state captured at exactly that step, and equal to the one the first
    # execution captured there (it ran past a finding, so has none).
    result.verified = (
        again is not None and again.digest != ""
        and (again.world, again.step) == (result.world, result.step)
        and result.digest in ("", again.digest))
    if result.verified:
        assert again is not None and controller.snapshot is not None
        result.digest = again.digest
        if snapshot_path:
            result.snapshot_path = save_snapshot(controller.snapshot,
                                                 snapshot_path)
    return result, status
