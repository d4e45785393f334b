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

from .. import _lazy

#: A capture needs only :mod:`.state`, and a result store only the two
#: format versions; replay, restore and bisection load where they run.
__getattr__, __dir__ = _lazy(__name__, {
    ".bisect": ("Divergence", "first_divergence"),
    ".replay": ("ReplayController", "ReplayResult", "ReplayStop",
                "run_replay"),
    ".restore": ("fast_forward", "restore_snapshot"),
    ".snapshot": ("SNAP_VERSION", "Snapshot", "load_snapshot",
                  "save_snapshot", "take_snapshot"),
    ".state": ("STATE_FORMAT_VERSION", "capture_state", "canonical_json",
               "diff_states", "prune_state", "state_digest"),
})

__all__ = [
    "SNAP_VERSION", "STATE_FORMAT_VERSION",
    "Snapshot", "take_snapshot", "save_snapshot", "load_snapshot",
    "capture_state", "canonical_json", "state_digest", "diff_states",
    "prune_state",
    "fast_forward", "restore_snapshot",
    "ReplayController", "ReplayResult", "ReplayStop", "run_replay",
    "Divergence", "first_divergence",
]
