"""Sessions: the Worlds a block builds, checked and stopped as it says.

Programs under ``python -m repro check`` or ``python -m repro replay``
are ordinary scripts that build their own
:class:`~repro.runtime.world.World`; the CLI cannot pass anything through
them. Instead it enters a :class:`Session` here, and every World built
while the session is innermost appends itself to ``session.worlds`` and
adopts ``session.config`` (so the CLI, replay and the tests can collect
reports from all Worlds a program created, however many). A session
whose ``on_stop`` is set also *runs* the worlds built under it, nested
sessions included: it stops them at ``stop_step`` / ``stop_horizon`` and
calls ``on_stop(world)`` there. :func:`run_program` runs a script.
"""

from __future__ import annotations

import sys
from typing import (TYPE_CHECKING, Any, Callable, ContextManager, Optional,
                    Sequence)

from ..sim.core import _UNBOUNDED, Event, gc_suspended
from .checker import CheckConfig
from .report import CheckReport

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.world import World

__all__ = ["Session", "checking", "current_session", "run_program"]

_session: Optional["Session"] = None


def current_session() -> Optional["Session"]:
    """The innermost active session, if any."""
    return _session


class Session:
    """A ``with`` block's Worlds: it owns every World built while it is
    the innermost session, and nothing else refers to the list. With
    ``config`` set, those Worlds are checked with it (``World(check=None)``
    adopts it).

    A session is a World owner in the sense of
    :func:`~repro.sim.core.gc_suspended`: the cyclic collector is off from
    ``__enter__`` to ``__exit__``, and the exit frees, in one young
    collection, every World the block released with :meth:`close`. A
    World still listed when the block ends lives until the session is
    closed or dropped, and then waits for an older collection. A script
    that :func:`run_program` runs in the block is no owner: the collector
    runs for it as the session found it.

    A session whose ``on_stop`` is set (before its Worlds are built) stops
    the Worlds built under it — also those an inner session owns, which then
    join its ``worlds`` too. A World it runs is stopped when a run passes
    ``stop_step`` (exactly there when the step lies ahead of the run; at
    the end of the pass that crossed it when it was set during one, as a
    checker observer does) or would process an event beyond
    ``stop_horizon``. ``on_stop(world)`` is called there; it may unwind
    the program (raise), move the stop on, or return and let the run go
    on.
    """

    def __init__(self, config: Optional[CheckConfig] = None):
        self.config = config
        self.worlds: list["World"] = []
        self.stop_step: Optional[int] = None
        self.stop_horizon: Optional[float] = None
        self.on_stop: Optional[Callable[["World"], None]] = None
        self._outer: Optional[Session] = None
        self._gc_scope: Optional[ContextManager[None]] = None

    def __enter__(self) -> "Session":
        global _session
        self._suspend_gc()
        self._outer, _session = _session, self
        return self

    def __exit__(self, *exc: object) -> None:
        global _session
        _session, self._outer = self._outer, None
        self._resume_gc()

    def _suspend_gc(self) -> None:
        self._gc_scope = gc_suspended()
        self._gc_scope.__enter__()

    def _resume_gc(self) -> None:
        scope, self._gc_scope = self._gc_scope, None
        if scope is not None:
            scope.__exit__(None, None, None)

    # -- the worlds ---------------------------------------------------------
    def adopt(self, world: "World") -> Optional["Session"]:
        """Called by ``World.__init__`` while this session is innermost:
        own ``world`` and return the session that runs it (the innermost
        one of this nest with an ``on_stop``), which owns it too."""
        self.attach(world)
        runner: Optional[Session] = self
        while runner is not None and runner.on_stop is None:
            runner = runner._outer
        if runner is not None and runner is not self:
            runner.attach(world)
        return runner

    def attach(self, world: "World") -> None:
        """Append ``world`` to this session's list."""
        self.worlds.append(world)

    def report(self) -> CheckReport:
        """Finalize and merge the report of every World this block built."""
        report = CheckReport([], mode=self.config.mode if self.config
                             else "warn")
        for world in self.worlds:
            report = report.merge(world.check_report())
        return report

    def close(self) -> None:
        """Release this block's worlds. Called inside the block, after
        its last :meth:`report`, it lets the block's exit free them (see
        the class docstring). A closed session reports empty."""
        self.worlds.clear()

    # -- a stopped run --------------------------------------------------------
    def run(self, world: "World", until: Optional[float | Event] = None,
            max_steps: Optional[int] = None) -> Any:
        """``world.run(until, max_steps)`` for a World this session runs.

        The steps before a stop run on :meth:`Simulator.run_steps`; once
        no stop is met the rest is :meth:`Simulator.run`'s, which alone
        states the run contract (target value, deadlock report,
        ``max_steps``, horizon clamp) — so a stopped and resumed run is
        the same run.
        """
        sim, on_stop = world.sim, self.on_stop
        assert on_stop is not None, "World.run reached a session it skips"
        target = until if isinstance(until, Event) else None
        horizon = None if target is not None or until is None \
            else float(until)
        left = _UNBOUNDED if max_steps is None else max_steps
        with gc_suspended():
            while True:
                before = sim.steps
                n = left
                if self.stop_step is not None and self.stop_step > before:
                    n = min(n, self.stop_step - before)
                cap = self.stop_horizon
                if cap is not None and horizon is not None \
                        and horizon <= cap:
                    cap = None  # the run ends first
                left -= sim.run_steps(n, horizon if cap is None else cap,
                                      target)
                if self.stop_step is not None \
                        and before < self.stop_step <= sim.steps:
                    on_stop(world)
                    continue
                if cap is not None and not (target is not None
                                            and target._processed):
                    when = sim.peek_time()
                    if when is not None and when > cap:
                        on_stop(world)
                break
        return sim.run(until, None if max_steps is None else left)


def checking(config: Optional[CheckConfig] = None) -> Session:
    """A session that checks every World built in its block.

    >>> with checking(CheckConfig(mode="warn")) as session:
    ...     main()                      # builds Worlds with check=None
    >>> print(session.report().render())
    """
    return Session(config or CheckConfig())


def run_program(path: str, argv: Sequence[str]) -> int:
    """Run the script at ``path`` as ``__main__`` with ``argv`` as its
    arguments; returns its exit status.

    ``sys.argv`` is restored whatever happens. ``SystemExit`` becomes the
    status (``None`` is 0, a non-integer code 1); any other exception
    propagates.

    A script is no World owner: its session's caller reads the Worlds
    after the block, and the script may run for as long as it likes. So
    the session's collector scope is closed while the script runs and
    reopened after it; the owners and runs inside the script collect as
    they would outside any session.
    """
    import runpy

    session = current_session()
    if session is not None:
        session._resume_gc()
    old_argv = sys.argv
    sys.argv = [path, *argv]
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 1
    finally:
        sys.argv = old_argv
        if session is not None:
            session._suspend_gc()
    return 0
