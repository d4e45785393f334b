"""Delta-debugging shrinker: a failing scenario down to a minimal repro.

Given a scenario whose outcome has a failure signature (``status`` +
``rule``), :func:`shrink_scenario` greedily tries simplifications —
dropping background traffic, zeroing fault rates, collapsing the topology
to the direct fabric, halving sizes, removing nodes and threads — and
accepts a candidate iff its outcome signature is *unchanged*. Because
every run is deterministic, one re-execution per candidate is a sound
oracle; the state digest of the final minimal run is recorded in the
artifact so replays can be verified byte-identically.

:mod:`repro.snap.reproduction` owns the artifact, the YAML document a
:class:`ShrinkResult` is written to, read from and verified as.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from ..errors import MpiError, ScenarioError
from .executor import outcome_signature, run_scenario
from .spec import ScenarioSpec

__all__ = ["shrink_scenario", "ShrinkResult"]

#: Floors below which numeric app params are never shrunk (the smallest
#: configuration each driver accepts and still exercises communication).
_PARAM_FLOORS = {
    "pnx": 4, "pny": 4, "pnz": 2, "iters": 1, "msgs_per_thread": 1,
    "payload": 1, "wires_per_thread": 1, "timesteps": 1,
    "graph_vertices": 16, "graph_degree": 2, "tiles_per_proc": 2,
    "tile_dim": 2, "tasks_per_thread": 1, "elems": 1, "repeats": 1,
    "count": 4, "blocks": 1, "window": 1,
}


class ShrinkResult:
    """Outcome of one shrink campaign."""

    def __init__(self, original: ScenarioSpec, minimal: ScenarioSpec,
                 outcome: dict[str, Any], evals: int, steps: list[str]):
        #: The failing spec the shrink started from.
        self.original = original
        #: The smallest spec still failing with the same signature.
        self.minimal = minimal
        #: The minimal spec's (re-run) outcome.
        self.outcome = outcome
        #: Scenario executions spent shrinking.
        self.evals = evals
        #: Accepted simplification labels, in order.
        self.steps = steps

    @property
    def signature(self) -> tuple[str, Optional[str]]:
        return outcome_signature(self.outcome)


def _half_toward(value: int, floor: int) -> int:
    """One halving step toward (never past) the floor."""
    return max(floor, value // 2)


def _candidates(spec: ScenarioSpec) -> Iterator[tuple[str, ScenarioSpec]]:
    """Ordered simplification attempts: biggest cuts first.

    Yields ``(label, candidate)`` pairs; candidates that fail eager
    validation are skipped by the caller. Order matters: removing whole
    subsystems (traffic, topology, faults) prunes the space far faster
    than nibbling at sizes.
    """
    if spec.traffic is not None:
        yield "drop-traffic", spec.with_(traffic=None, traffic_seed=0)
        t = spec.traffic
        if t.flows > 1:
            yield "halve-flows", spec.with_(
                traffic=t.with_(flows=_half_toward(t.flows, 1)))
        if t.msgs_per_flow > 1:
            yield "halve-bg-msgs", spec.with_(
                traffic=t.with_(
                    msgs_per_flow=_half_toward(t.msgs_per_flow, 1)))
    if spec.topology != "direct":
        yield "direct-topology", spec.with_(topology="direct",
                                            topology_params={})
    if spec.faults is not None:
        f = spec.faults
        if f.stalls:
            yield "drop-stalls", spec.with_(faults=f.with_(stalls=()))
        if f.links:
            yield "drop-links", spec.with_(faults=f.with_(links=()))
        for rate in ("dup", "corrupt", "delay", "drop"):
            value = getattr(f, rate)
            if value > 0:
                zeroed = f.with_(**{rate: 0.0})
                if not zeroed.lossless:
                    yield f"zero-{rate}", spec.with_(faults=zeroed)
                else:
                    # the last nonzero rate: try removing faults entirely
                    yield "drop-faults", spec.with_(faults=None,
                                                    transport=None)
    for key in sorted(spec.app_params):
        value = spec.app_params[key]
        floor = _PARAM_FLOORS.get(key)
        if floor is not None and isinstance(value, int) and value > floor:
            params = dict(spec.app_params)
            params[key] = _half_toward(value, floor)
            yield f"halve-{key}", spec.with_(app_params=params)
    if spec.nodes > 2:
        yield "halve-nodes", spec.with_(nodes=_half_toward(spec.nodes, 2))
    if spec.threads > 1:
        yield "halve-threads", spec.with_(
            threads=_half_toward(spec.threads, 1))


def shrink_scenario(spec: ScenarioSpec,
                    outcome: Optional[dict[str, Any]] = None,
                    max_evals: int = 150,
                    runner: Callable[[ScenarioSpec], dict[str, Any]]
                    = run_scenario) -> ShrinkResult:
    """Greedy ddmin over :func:`_candidates`, signature-preserving.

    ``outcome`` is the spec's known outcome (re-run if omitted); it must
    have a failing signature. ``runner`` is injectable for tests. Each
    accepted simplification restarts the candidate scan, so cheap big
    cuts are retried after every success; the loop ends when a full scan
    yields no acceptable candidate or the eval budget runs out.
    """
    if outcome is None:
        outcome = runner(spec)
    signature = outcome_signature(outcome)
    if signature[0] == "ok":
        raise ScenarioError("nothing to shrink: the scenario passes")
    best, best_outcome = spec, outcome
    evals = 0
    steps: list[str] = []
    improved = True
    while improved and evals < max_evals:
        improved = False
        for label, candidate in _candidates(best):
            if evals >= max_evals:
                break
            try:
                candidate_outcome = runner(candidate)
            except MpiError:
                continue  # invalid or broken candidate: not a shrink
            evals += 1
            if outcome_signature(candidate_outcome) == signature:
                best, best_outcome = candidate, candidate_outcome
                steps.append(label)
                improved = True
                break
    if best is spec:
        # Re-run the original so the artifact's outcome (digest included)
        # is a fresh execution, not whatever dict the caller passed in.
        best_outcome = runner(spec)
        evals += 1
    return ShrinkResult(original=spec, minimal=best, outcome=best_outcome,
                        evals=evals, steps=steps)
