"""Restore: rebuild from the recipe, fast-forward, verify byte-identity.

Python generators cannot be serialized, so a snapshot cannot reload task
frames directly. Restore instead exploits the kernel's determinism: the
builder re-creates the world exactly as the original run did (same
config, same seed, same spawned workload), :func:`fast_forward` replays
the event loop to the snapshot's kernel step, and the re-captured state
must match the snapshot digest byte-for-byte — otherwise
:class:`~repro.errors.SnapshotMismatchError` names the divergent paths.
``repro replay`` reaches a past state the same way, by running the
program a second time (:mod:`repro.snap.replay`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import SnapshotMismatchError
from ..sim.core import gc_suspended
from .snapshot import Snapshot
from .state import capture_state, diff_states, state_digest

__all__ = ["advance_to", "fast_forward", "restore_snapshot"]


def advance_to(world: Any, step: int) -> bool:
    """Run ``world`` up to kernel step ``step``; False if its events ran
    out first."""
    sim = world.sim
    with gc_suspended():
        sim.run_steps(step - sim.steps)
    return sim.steps >= step


def fast_forward(world: Any, step: int,
                 clock: Optional[float] = None) -> None:
    """Advance a freshly built world to exactly ``step`` kernel steps.

    ``clock`` re-applies the horizon clamp of ``run(until=<time>)``: a
    snapshot taken after such a run can hold a clock strictly beyond the
    last processed event, which replaying events alone cannot reproduce.
    """
    sim = world.sim
    if sim.steps > step:
        raise SnapshotMismatchError(
            f"world already at step {sim.steps}, past snapshot step {step} "
            "(restore needs a freshly built world)")
    if not advance_to(world, step):
        raise SnapshotMismatchError(
            f"simulation ran out of events at step {sim.steps}, "
            f"before snapshot step {step} — the rebuilt workload "
            "does not match the snapshot's recipe")
    if clock is not None and clock > sim._now:
        sim._now = clock


def restore_snapshot(snap: Snapshot, build: Callable[[], Any],
                     verify: bool = True) -> Any:
    """Rebuild via ``build()``, fast-forward, and verify the digest.

    ``build`` must return a world with the original workload already
    spawned (tasks pending on the heap) — exactly the state the original
    builder produced before its first ``run``. Returns the restored
    world, positioned at ``snap.step`` and proven byte-identical to the
    captured state; with ``verify=False`` the (cheaper) capture/compare
    pass is skipped.
    """
    world = build()
    fast_forward(world, snap.step, snap.clock)
    if verify:
        state = capture_state(world)
        digest = state_digest(state)
        if digest != snap.digest:
            paths = diff_states(snap.state, state)
            detail = "\n  ".join(paths[:12]) or "(no structural diff)"
            raise SnapshotMismatchError(
                f"restored state diverges from snapshot at step "
                f"{snap.step}: digest {digest[:12]} != {snap.digest[:12]}"
                f"\n  {detail}", paths=paths)
    return world
