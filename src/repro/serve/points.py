"""Point kinds and job expansion: the service's unit of work.

A *point* is one self-contained simulation. It is named (a *point
kind*) and executed through one registry (:func:`execute_point`) whether
it runs in the calling process (``repro msgrate``/``repro campaign`` at
one worker) or in a forked socket worker, and always
JSON-canonicalized, so every run returns byte-identical data.

A *job* is a named expansion into points (:func:`expand_job`):

``sweep``
    Cartesian product of ``spec["params"]`` over the message-rate
    microbenchmark (the Fig 1(a) sweep as a service).
``campaign``
    ``sample_scenarios(seed, n, apps)`` — the chaos campaign's scenario
    list, one scenario per point.
``scenarios``
    An explicit list of :class:`~repro.scenarios.spec.ScenarioSpec`
    dicts (e.g. parsed from YAML documents).
``selftest``
    Tiny deterministic arithmetic points (optionally sleepy or failing)
    used by the protocol tests and the smoke job.

Expansion is deterministic: the same job document always yields the
same point list in the same order, which is what lets a restarted
orchestrator rebuild its queue from its job journal plus the result
cache.

Every expander and point function imports what its kind needs inside
itself, so a job kind's modules load with its first job: expansion in
the service's handler, execution in the worker. A service that runs only
sweep and selftest jobs never loads numpy or the scenario layer.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Any, Callable

from ..errors import MpiError, ServeError
from .cache import json_roundtrip

__all__ = ["POINT_KINDS", "JOB_KINDS", "execute_point", "expand_job",
           "msgrate_point", "scenario_point", "selftest_point"]


def msgrate_point(mode: str, cores: int, msgs_per_core: int = 64,
                  msg_bytes: int = 8, window: int = 16,
                  seed: int = 0) -> dict[str, Any]:
    """One message-rate sweep point."""
    from ..bench.msgrate import MsgRateConfig, run_msgrate
    r = run_msgrate(MsgRateConfig(mode=mode, cores=cores,
                                  msgs_per_core=msgs_per_core,
                                  msg_bytes=msg_bytes, window=window,
                                  seed=seed))
    return {"rate": r.rate, "span": r.span, "messages": r.messages,
            "rate_Mmsgs": round(r.rate / 1e6, 2)}


def scenario_point(spec: dict) -> dict[str, Any]:
    """One chaos scenario, classified (see ``repro.scenarios.executor``)."""
    from ..scenarios.executor import run_scenario
    from ..scenarios.spec import ScenarioSpec
    return run_scenario(ScenarioSpec.from_dict(spec))


def selftest_point(i: int, ms: float = 0.0, fail: bool = False) -> dict:
    """Deterministic arithmetic point for protocol tests and smoke runs.

    ``ms`` sleeps host milliseconds (a window for kill/stall tests);
    ``fail`` raises, exercising the error-result path.
    """
    if ms:
        time.sleep(ms / 1000.0)
    if fail:
        raise ValueError(f"selftest point {i} asked to fail")
    return {"i": i, "value": i * i}


#: Point kind registry: name -> point function taking ``**point``.
POINT_KINDS: dict[str, Callable[..., Any]] = {
    "msgrate": msgrate_point,
    "scenario": scenario_point,
    "selftest": selftest_point,
}


def execute_point(kind: str, point: dict) -> Any:
    """Run one point through its registered kind; JSON-canonical result.

    The only way a point runs: called by the orchestrator's inline
    drain and by the socket worker, which therefore return byte-identical
    data for the same (kind, point).
    """
    fn = POINT_KINDS.get(kind)
    if fn is None:
        raise ServeError(f"unknown point kind {kind!r} "
                         f"(known: {', '.join(sorted(POINT_KINDS))})")
    return json_roundtrip(fn(**point))


# -- job expansion ---------------------------------------------------------
def _expand_sweep(spec: dict) -> tuple[str, list[dict]]:
    from ..bench.msgrate import MsgRateConfig
    params = spec.get("params")
    if not isinstance(params, dict) or not {"mode", "cores"} <= set(params):
        raise ServeError("sweep job needs a 'params' mapping with at least "
                         "'mode' and 'cores' (e.g. {'mode': [...], "
                         "'cores': [...]})")
    experiment = spec.get("experiment", "msgrate")
    if experiment != "msgrate":
        raise ServeError(f"unknown sweep experiment {experiment!r}")
    # Canonical (sorted) key order: a job document's expansion must not
    # depend on mapping key order, which JSON/YAML round-trips (e.g. a
    # client serializing with sort_keys) do not preserve.
    keys = sorted(params)
    values = [params[k] if isinstance(params[k], list) else [params[k]]
              for k in keys]
    points = [dict(zip(keys, combo))
              for combo in itertools.product(*values)]
    for point in points:  # a bad point fails at submit, not on a worker
        MsgRateConfig(**point)
    return "msgrate", points


def _expand_campaign(spec: dict) -> tuple[str, list[dict]]:
    from ..scenarios.sample import SAMPLER_VERSION, sample_scenarios
    sampled_by = spec.get("sampler_version", SAMPLER_VERSION)
    if sampled_by != SAMPLER_VERSION:
        raise ServeError(
            f"campaign was sampled by sampler v{sampled_by}, this build "
            f"is v{SAMPLER_VERSION}; re-run instead of resuming")
    n = int(spec.get("n", 0))
    if n < 1:
        raise ServeError("campaign job needs n >= 1 scenarios")
    specs = sample_scenarios(int(spec.get("seed", 0)), n,
                             apps=spec.get("apps"))
    return "scenario", [{"spec": s.to_dict()} for s in specs]


def _expand_scenarios(spec: dict) -> tuple[str, list[dict]]:
    from ..scenarios.spec import ScenarioSpec
    raw = spec.get("specs")
    if not isinstance(raw, list) or not raw:
        raise ServeError("scenarios job needs a non-empty 'specs' list")
    # Validate eagerly: a malformed spec fails at submit, not on a worker.
    points = [{"spec": ScenarioSpec.from_dict(d).to_dict()} for d in raw]
    return "scenario", points


def _expand_selftest(spec: dict) -> tuple[str, list[dict]]:
    n = int(spec.get("n", 0))
    if n < 1:
        raise ServeError("selftest job needs n >= 1 points")
    ms = float(spec.get("ms", 0.0))
    if not math.isfinite(ms) or ms < 0:
        raise ServeError(f"selftest ms must be a finite number >= 0, "
                         f"got {ms!r}")
    points: list[dict] = []
    for i in range(n):
        point: dict[str, Any] = {"i": i}
        if ms:
            point["ms"] = ms
        if spec.get("fail_at") == i:
            point["fail"] = True
        points.append(point)
    return "selftest", points


#: Job kind registry: name -> expansion into (point kind, point list).
JOB_KINDS: dict[str, Callable[[dict], tuple[str, list[dict]]]] = {
    "sweep": _expand_sweep,
    "campaign": _expand_campaign,
    "scenarios": _expand_scenarios,
    "selftest": _expand_selftest,
}


def expand_job(kind: str, spec: dict) -> tuple[str, list[dict]]:
    """Deterministically expand a job document into its point list.

    Returns ``(point_kind, points)``. The same ``(kind, spec)`` always
    expands to the same ordered list — resubmission and orchestrator
    restart both rely on it.
    """
    expander = JOB_KINDS.get(kind)
    if expander is None:
        raise ServeError(f"unknown job kind {kind!r} "
                         f"(known: {', '.join(sorted(JOB_KINDS))})")
    if not isinstance(spec, dict):
        raise ServeError(f"job spec must be a mapping, got "
                         f"{type(spec).__name__}")
    try:
        point_kind, points = expander(spec)
    except ServeError:
        raise
    except (MpiError, TypeError, ValueError, ArithmeticError) as exc:
        # A field of the wrong type (``int(Infinity)`` overflows) or a spec
        # the scenario layer rejects: the submitter's error (HTTP 400),
        # not a crash of the handler.
        raise ServeError(f"bad {kind} job document: {exc}") from exc
    return point_kind, json_roundtrip(points)
