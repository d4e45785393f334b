"""First-divergence search between two simulation configurations.

:func:`first_divergence` runs two freshly built worlds in lockstep,
comparing canonical state digests at interval boundaries; when a window
diverges it rebuilds both and walks that window one kernel step at a
time, returning the exact first step whose states differ and the state
paths that differ there. Typical uses: linear vs indexed matching
engines (pass ``ignore=("engine.internals",)`` to compare the logical
queues only), faults-on vs faults-off, or two seeds of the same config.

Builders must be repeatable: each call returns a new world with the
workload already spawned (tasks pending on the heap, nothing run yet) —
the refinement pass rebuilds both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .restore import advance_to
from .state import capture_state, diff_states, prune_state, state_digest

__all__ = ["Divergence", "first_divergence"]


@dataclass
class Divergence:
    """The first kernel step at which two configurations differ."""

    step: int                 # first step whose post-state differs
    clock_a: float
    clock_b: float
    digest_a: str
    digest_b: str
    paths: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Multi-line human report."""
        lines = [f"first divergence after kernel step {self.step}",
                 f"  clock a={self.clock_a:.9f}s b={self.clock_b:.9f}s",
                 f"  digest a={self.digest_a[:16]} b={self.digest_b[:16]}"]
        lines.extend(f"  {p}" for p in self.paths[:16])
        if len(self.paths) > 16:
            lines.append(f"  ... and {len(self.paths) - 16} more paths")
        return "\n".join(lines)


def _capture(world: Any, ignore: tuple[str, ...]) -> tuple[str, dict]:
    state = prune_state(capture_state(world), ignore)
    return state_digest(state), state


def first_divergence(build_a: Callable[[], Any],
                     build_b: Callable[[], Any], *,
                     interval: int = 256,
                     max_steps: int = 1_000_000,
                     ignore: Iterable[str] = ()) -> Optional[Divergence]:
    """Locate the first step at which the two configs' states differ.

    Returns ``None`` when both runs complete (or ``max_steps`` is hit)
    with byte-identical pruned states throughout. ``ignore`` drops state
    paths containing any given substring before comparison.
    """
    if interval < 1:
        raise ValueError("interval must be >= 1")
    ignore = tuple(ignore)
    world_a, world_b = build_a(), build_b()
    digest_a, state_a = _capture(world_a, ignore)
    digest_b, state_b = _capture(world_b, ignore)
    if digest_a != digest_b:
        return Divergence(step=0, clock_a=world_a.sim._now,
                          clock_b=world_b.sim._now, digest_a=digest_a,
                          digest_b=digest_b,
                          paths=diff_states(state_a, state_b))
    agreed = 0  # both sides byte-identical after this many steps
    while agreed < max_steps:
        span = min(interval, max_steps - agreed)
        n_a = world_a.sim.run_steps(span)
        n_b = world_b.sim.run_steps(span)
        digest_a, _ = _capture(world_a, ignore)
        digest_b, _ = _capture(world_b, ignore)
        if n_a != n_b or digest_a != digest_b:
            break
        if n_a == 0:
            return None  # both complete, never diverged
        agreed += n_a
    else:
        return None  # max_steps reached while still identical
    # Refine: rebuild, replay the agreed prefix, then single-step.
    world_a, world_b = build_a(), build_b()
    advance_to(world_a, agreed)
    advance_to(world_b, agreed)
    while True:
        n_a = world_a.sim.run_steps(1)
        n_b = world_b.sim.run_steps(1)
        digest_a, state_a = _capture(world_a, ignore)
        digest_b, state_b = _capture(world_b, ignore)
        if n_a != n_b or digest_a != digest_b:
            paths = diff_states(state_a, state_b)
            if n_a != n_b:
                paths.insert(0, f"$.completion: a ran {n_a} event(s), "
                                f"b ran {n_b}")
            return Divergence(step=world_a.sim.steps,
                              clock_a=world_a.sim._now,
                              clock_b=world_b.sim._now,
                              digest_a=digest_a, digest_b=digest_b,
                              paths=paths)
        if n_a == 0:  # should not happen: the window diverged above
            return None
