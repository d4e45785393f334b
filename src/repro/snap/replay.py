"""Record-replay: locate a target in a run, reach it again, compare.

``python -m repro replay <prog> --until T`` (or ``--to-finding CHK###``)
executes an unmodified program twice in this process under one
:class:`ReplayController`:

1. the first execution *locates* the target — which of the worlds the
   program builds, and that world's cumulative kernel step: where the
   ``--until`` horizon stopped it, or where the rule first fired (the
   world overruns to the end of that slice before the program unwinds);
2. the second execution, its stdout suppressed, ends a slice at exactly
   that step (:attr:`~repro.snap.session.SnapController.stop_step`),
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
import runpy
import sys
from contextlib import ExitStack, redirect_stdout
from dataclasses import dataclass
from typing import Any, Optional

from .session import SnapController, recording
from .snapshot import Snapshot, save_snapshot, take_snapshot

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


class ReplayController(SnapController):
    """Stops one execution of the program where it meets the target."""

    def __init__(self, until: Optional[float] = None,
                 to_finding: Optional[str] = None,
                 recipe: Optional[dict[str, Any]] = None):
        super().__init__()
        if (until is None) == (to_finding is None):
            raise ValueError(
                "replay needs exactly one of until= / to_finding=")
        self.to_finding = to_finding.upper() if to_finding else None
        self.stop_horizon = until
        self.recipe = dict(recipe or {})
        #: Where the current execution met the target, and the state
        #: there if the world still sat at that step when it stopped.
        self.result: Optional[ReplayResult] = None
        self.snapshot: Optional[Snapshot] = None
        self._finding: Optional[dict[str, Any]] = None

    def reset(self, stop_step: int) -> None:
        """Forget the last execution and release its worlds; the next
        one ends a slice at ``stop_step``."""
        self.worlds = []
        self.result = self.snapshot = self._finding = None
        self.stop_step = stop_step

    # -- wiring ----------------------------------------------------------
    def attach(self, world) -> None:
        super().attach(world)
        if self.to_finding is not None and world.checker is not None:
            prev = world.checker.on_violation

            def observe(violation, _prev=prev, _world=world):
                if _prev is not None:
                    _prev(violation)
                if self._finding is None \
                        and violation.rule_id.upper() == self.to_finding:
                    self._finding = {"rule": violation.rule_id,
                                     "message": violation.message,
                                     "task": violation.task,
                                     "time": violation.time,
                                     "step": _world.sim.steps}

            world.checker.on_violation = observe

    # -- drive hooks -------------------------------------------------------
    def after_slice(self, world) -> None:
        if self._finding is not None:
            self._reach(world, "finding", self._finding["step"],
                        self._finding["time"])

    def on_stop_horizon(self, world) -> None:
        self._reach(world, "until", world.sim.steps, world.sim._now)

    def _reach(self, world, reason: str, step: int, clock: float) -> None:
        if world.sim.steps == step:
            self.snapshot = take_snapshot(world, recipe=self.recipe)
        self.result = ReplayResult(
            reason=reason, world=self.worlds.index(world), step=step,
            clock=clock, finding=self._finding,
            digest=self.snapshot.digest if self.snapshot else "")
        raise ReplayStop()


def _execute(controller: ReplayController, program: str, argv: list[str],
             check_config: Optional[Any]) -> int:
    """Run ``program`` once under ``controller``; returns its exit status."""
    status = 0
    old_argv = sys.argv
    try:
        with ExitStack() as stack:
            stack.enter_context(recording(controller))
            if controller.to_finding is not None:
                from ..check import CheckConfig, checking
                stack.enter_context(checking(
                    check_config
                    or CheckConfig(mode="warn", emit_warnings=False)))
            sys.argv = [program] + list(argv)
            try:
                runpy.run_path(program, run_name="__main__")
            except ReplayStop:
                pass
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = old_argv
    return status


def run_replay(program: str, argv: list[str], *,
               until: Optional[float] = None,
               to_finding: Optional[str] = None,
               snapshot_path: Optional[str] = None,
               check_config: Optional[Any] = None
               ) -> tuple[Optional[ReplayResult], int]:
    """Run ``program`` under replay; returns (result, program_status).

    ``result`` is ``None`` when the program ran to completion without
    meeting the target. ``--to-finding`` replays need the checker:
    ``check_config`` (default warn-mode) is installed as the session
    default exactly as ``repro check`` does, so unmodified programs run
    checked.
    """
    controller = ReplayController(
        until=until, to_finding=to_finding,
        recipe={"program": program, "argv": list(argv),
                "until": until, "to_finding": to_finding})
    status = _execute(controller, program, argv, check_config)
    result = controller.result
    if result is None:
        return None, status
    controller.reset(stop_step=result.step)
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        _execute(controller, program, argv, check_config)
    again = controller.result
    # Same world and step (for a finding: the rule re-fired there), the
    # state captured at exactly that step, and equal to the one the first
    # execution captured there (it ran past a finding, so has none).
    result.verified = (
        again is not None and again.digest != ""
        and (again.world, again.step) == (result.world, result.step)
        and result.digest in ("", again.digest))
    if result.verified:
        result.digest = again.digest
        if snapshot_path:
            result.snapshot_path = save_snapshot(controller.snapshot,
                                                 snapshot_path)
    return result, status
