"""Snapshot sessions: sliced execution of unmodified programs.

Mirrors :mod:`repro.check.session`: a process-wide default controller is
installed by :func:`recording` (or the ``repro replay`` CLI), and every
:class:`~repro.runtime.world.World` built while it is active attaches
itself. The world then routes ``run``/``run_all`` through
:meth:`SnapController.drive`, which executes the event loop in slices of
``interval`` kernel steps and fires checkpoint hooks at the boundaries.

Slicing is invisible to the simulation: the kernel's
:meth:`~repro.sim.core.Simulator.run_steps` pops the same events in the
same order as an uninterrupted run, boundaries schedule nothing, and
captures only read state — so a checkpointed run is byte-identical to a
bare one (property-tested in ``tests/test_snap_property.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Optional

from ..sim.core import Event, SimulationError, gc_suspended

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.world import World

__all__ = ["SnapController", "recording", "default_snap_controller"]

_default_controller: Optional["SnapController"] = None


def default_snap_controller() -> Optional["SnapController"]:
    """The controller a new ``World`` should attach to, if any."""
    return _default_controller


class SnapController:
    """Drives worlds in fixed-size step slices with boundary hooks.

    ``interval`` is the checkpoint cadence in kernel steps.
    :meth:`on_boundary` runs whenever the global step count crosses a
    multiple of the interval; subclasses override it for captures (the
    property tests) and add stop conditions (:mod:`repro.snap.replay`).
    """

    def __init__(self, interval: int = 20_000):
        if interval < 1:
            raise ValueError("snapshot interval must be >= 1 step")
        self.interval = interval
        self.worlds: list["World"] = []
        #: Optional simulated-time stop (used by replay ``--until``): the
        #: drive loop never processes an event scheduled beyond it and
        #: calls :meth:`on_stop_horizon` at the exact step boundary.
        self.stop_horizon: Optional[float] = None
        #: Optional kernel step no slice runs across (used by replay's
        #: second execution): the slice that reaches it ends there, so
        #: :meth:`after_slice` sees the world at exactly that step.
        self.stop_step: Optional[int] = None

    # -- wiring ---------------------------------------------------------
    def attach(self, world: "World") -> None:
        """Called by ``World.__init__`` while this controller is default."""
        self.worlds.append(world)

    # -- subclass extension points --------------------------------------
    def on_boundary(self, world: "World") -> None:
        """Interval boundary reached (between steps; state is quiescent)."""

    def after_slice(self, world: "World") -> None:
        """Called after every slice, boundary or not (stop-condition
        checks that must react to mid-slice observations)."""

    def on_stop_horizon(self, world: "World") -> None:
        """The drive stopped because ``stop_horizon`` was reached."""

    # -- the drive loop --------------------------------------------------
    def drive(self, world: "World", until: Optional[float | Event] = None,
              max_steps: Optional[int] = None) -> Any:
        """Sliced equivalent of ``world.sim.run(until, max_steps)``.

        Event order, deadlock detection and the float-horizon clock clamp
        all match :meth:`repro.sim.core.Simulator.run` exactly.
        """
        sim = world.sim
        start_steps = sim.steps
        target: Optional[Event] = None
        horizon: Optional[float] = None
        if isinstance(until, Event):
            target = until
        elif until is not None:
            horizon = float(until)
        limit = horizon
        if self.stop_horizon is not None:
            limit = self.stop_horizon if limit is None \
                else min(limit, self.stop_horizon)
        with gc_suspended():
            while True:
                if target is not None and target._processed:
                    return target.value
                next_time = sim.peek_time()
                if next_time is None:
                    if target is not None:
                        raise SimulationError(sim._deadlock_report())
                    break
                if limit is not None and next_time > limit:
                    if limit == self.stop_horizon and \
                            (horizon is None or limit < horizon):
                        self.on_stop_horizon(world)
                    break
                budget = self.interval - sim.steps % self.interval
                if self.stop_step is not None and sim.steps < self.stop_step:
                    budget = min(budget, self.stop_step - sim.steps)
                if max_steps is not None:
                    done = sim.steps - start_steps
                    if done >= max_steps:
                        raise SimulationError(
                            f"exceeded max_steps={max_steps}")
                    budget = min(budget, max_steps - done)
                n = sim.run_steps(budget, horizon=limit, stop_event=target)
                if n and sim.steps % self.interval == 0:
                    self.on_boundary(world)
                self.after_slice(world)
        if horizon is not None and sim._now < horizon:
            sim._now = horizon
        return None


@contextmanager
def recording(ctrl: Optional[SnapController] = None
              ) -> Iterator[SnapController]:
    """Attach every World built in this block to ``ctrl``.

    >>> with recording(SnapController(interval=4096)) as ctrl:
    ...     main()          # worlds run sliced, hooks fire at boundaries
    """
    global _default_controller
    ctrl = ctrl or SnapController()
    prev, _default_controller = _default_controller, ctrl
    try:
        yield ctrl
    finally:
        _default_controller = prev
