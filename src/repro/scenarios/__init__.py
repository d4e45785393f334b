"""Scenario DSL and chaos-fuzzing campaigns.

The robustness counterpart of the benchmark sweeps: a declarative
:class:`ScenarioSpec` composes application x mechanism x topology x
fault plan x transport tuning x background traffic into one YAML-round-
trippable document; :func:`sample_scenarios` draws thousands of valid
specs from a weighted space; :func:`run_campaign` executes them under
the dynamic analyzer with crash-safe checkpoints; and every failure is
delta-debugged down to a minimal, byte-exactly-replayable YAML artifact
(:func:`shrink_scenario`; :func:`verify_artifact` is the scenario view
of :func:`repro.snap.reproduction.reproduce`).

See ``docs/scenarios.md`` for the workflow and the CLI
(``python -m repro campaign run|resume|report|replay``).
"""

from .. import _lazy

#: A scenario run loads the executor with the spec and app table it
#: imports; campaigns, the shrinker and artifact replay load on first use.
__getattr__, __dir__ = _lazy(__name__, {
    "..snap.reproduction": ("load_artifact", "verify_artifact",
                            "write_artifact"),
    ".apps": ("APP_REGISTRY", "AppAdapter", "app_names", "get_app"),
    ".campaign": ("campaign_report", "load_manifest", "render_report",
                  "run_campaign", "summarize_outcomes"),
    ".executor": ("STATUSES", "outcome_signature", "run_scenario"),
    ".sample": ("sample_one", "sample_scenarios"),
    ".shrink": ("ShrinkResult", "shrink_scenario"),
    ".spec": ("ScenarioSpec",),
})

__all__ = [
    "APP_REGISTRY", "AppAdapter", "app_names", "get_app",
    "ScenarioSpec", "sample_one", "sample_scenarios",
    "STATUSES", "outcome_signature", "run_scenario",
    "ShrinkResult", "shrink_scenario", "write_artifact", "load_artifact",
    "verify_artifact",
    "run_campaign", "campaign_report", "render_report", "load_manifest",
    "summarize_outcomes",
]
