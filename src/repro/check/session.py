"""Checker sessions: a block's default config and the Worlds it built.

Programs under ``python -m repro check <program>`` are ordinary scripts
that build their own :class:`~repro.runtime.world.World`; the CLI cannot
pass ``check=`` through them. Instead :func:`checking` installs a
:class:`Session` here: ``World(check=None)`` adopts its config, and every
World built while the session is innermost appends itself to
``session.worlds`` so the CLI (and the corpus tests) can collect reports
from all Worlds a program created, however many.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from .checker import CheckConfig
from .report import CheckReport

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.world import World

__all__ = ["Session", "checking", "current_session"]

_session: Optional["Session"] = None


def current_session() -> Optional["Session"]:
    """The innermost active :func:`checking` block's session, if any."""
    return _session


class Session:
    """Handle returned by :func:`checking`. It owns its ``worlds`` list and
    nothing else refers to it: dropping the session releases the worlds."""

    def __init__(self, config: CheckConfig):
        self.config = config
        self.worlds: list["World"] = []

    def report(self) -> CheckReport:
        """Finalize and merge the report of every World this block built."""
        # The mode is that of the session innermost *now*, not this one.
        report = CheckReport([], mode=(_session.config.mode
                                       if _session else "warn"))
        for world in self.worlds:
            report = report.merge(world.check_report())
        return report

    def close(self) -> None:
        """Release this block's worlds now rather than with the session
        (for a caller that keeps the session alive past its last
        :meth:`report`). A closed session reports empty."""
        self.worlds.clear()


@contextmanager
def checking(config: Optional[CheckConfig] = None) -> Iterator[Session]:
    """Enable checking-by-default for every World built in this block.

    >>> with checking(CheckConfig(mode="warn")) as session:
    ...     main()                      # builds Worlds with check=None
    >>> print(session.report().render())
    """
    global _session
    session = Session(config or CheckConfig())
    prev, _session = _session, session
    try:
        yield session
    finally:
        _session = prev
