"""Canonical state capture and verified reproduction.

The robustness primitive behind long deterministic campaigns (see
docs/snapshot.md): capture the full canonical state of a running
simulation (:func:`capture_state`), digest and compare it
(:func:`state_digest`, :func:`diff_states`), and prove a run reproduces
by running it a second time to the same stop (:func:`reproduce`; the
``python -m repro replay`` and ``campaign replay`` verbs are its views).
"""

from .. import _lazy

#: A capture needs only :mod:`.state`; reproduction loads where it runs.
__getattr__, __dir__ = _lazy(__name__, {
    ".reproduction": ("Reproduction", "reproduce", "run_replay"),
    ".state": ("STATE_FORMAT_VERSION", "capture_state", "canonical_json",
               "diff_states", "prune_state", "state_digest"),
})

__all__ = [
    "STATE_FORMAT_VERSION",
    "capture_state", "canonical_json", "state_digest", "diff_states",
    "prune_state",
    "Reproduction", "reproduce", "run_replay",
]
