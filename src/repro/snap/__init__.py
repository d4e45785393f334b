"""Snapshot/restore and deterministic record-replay.

The robustness primitive behind long deterministic campaigns (see
docs/snapshot.md): capture the full canonical state of a running
simulation (:func:`capture_state`), persist it versioned
(:class:`Snapshot`), prove restores byte-identical
(:func:`restore_snapshot`), reach a past state of a program's run a
second time and compare (``python -m repro replay``), and locate the
first step at which two configurations diverge
(:func:`first_divergence`).
"""

from .bisect import Divergence, first_divergence
from .replay import ReplayController, ReplayResult, ReplayStop, run_replay
from .restore import fast_forward, restore_snapshot
from .snapshot import (
    SNAP_VERSION,
    Snapshot,
    load_snapshot,
    save_snapshot,
    take_snapshot,
)
from .state import (
    STATE_FORMAT_VERSION,
    capture_state,
    canonical_json,
    diff_states,
    prune_state,
    state_digest,
)

__all__ = [
    "SNAP_VERSION", "STATE_FORMAT_VERSION",
    "Snapshot", "take_snapshot", "save_snapshot", "load_snapshot",
    "capture_state", "canonical_json", "state_digest", "diff_states",
    "prune_state",
    "fast_forward", "restore_snapshot",
    "ReplayController", "ReplayResult", "ReplayStop", "run_replay",
    "Divergence", "first_divergence",
]
