"""Campaign runner: sampled chaos sweeps with resume, report and replay.

A *campaign* is ``n`` sampled scenarios executed under the analyzer and
fault injector. It runs as a ``campaign`` job of :mod:`repro.serve`
(:func:`repro.serve.run_local`), so a campaign directory *is* a service
state directory: the first line of its job journal names the sample, every
completed scenario lands atomically in ``cache/`` the moment it finishes,
and resumability is the orchestrator's — kill the process at any time,
``resume`` re-expands the identical scenario list from the manifest and
runs only the missing points, byte-identical to an uninterrupted run.

Every failing scenario is handed to the delta-debugging shrinker; the
minimal repro is written as a self-contained YAML artifact and then
*verified* (:func:`repro.snap.reproduction.verify_artifact`: reproduced to
its end, fingerprint match) before the campaign will vouch for it.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Optional, Sequence

from ..errors import ScenarioError
from ..snap.reproduction import verify_artifact, write_artifact
from .sample import SAMPLER_VERSION
from .shrink import shrink_scenario
from .spec import ScenarioSpec

__all__ = ["run_campaign", "campaign_report", "render_report",
           "load_manifest", "campaign_manifest", "summarize_outcomes"]


def _atomic_write_json(path: str, data: Any) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)


def campaign_manifest(spec: dict) -> dict[str, Any]:
    """A campaign job spec, normalized: seed, n, apps, sampler version.

    What a local campaign submits as its job spec and what every summary
    (local or served) carries as ``manifest``.
    """
    apps = spec.get("apps")
    return {"seed": int(spec.get("seed", 0)), "n": int(spec.get("n", 0)),
            "apps": sorted(apps) if apps else None,
            "sampler_version": spec.get("sampler_version", SAMPLER_VERSION)}


def _held_manifest(out_dir: str) -> Optional[dict[str, Any]]:
    """The manifest of the campaign ``out_dir`` holds — its campaign job,
    the first line of its job journal — or None if it holds no job."""
    from ..serve.orchestrator import JOURNAL, read_journal
    try:
        lines = read_journal(out_dir)
    except OSError as exc:
        raise ScenarioError(f"{out_dir!r} is unreadable ({exc})") from exc
    if not lines:
        return None
    job = lines[0]
    if job.error is not None:
        raise ScenarioError(job.error)
    if job.kind != "campaign":
        raise ScenarioError(f"{os.path.join(out_dir, JOURNAL)}:1: a "
                            f"{job.kind} job, not a campaign")
    return campaign_manifest(job.spec)


def load_manifest(out_dir: str) -> dict[str, Any]:
    """Read a campaign directory's manifest (its campaign job's spec)."""
    held = _held_manifest(out_dir)
    if held is None:
        raise ScenarioError(f"{out_dir!r} has no campaign manifest "
                            "(its job journal holds no job)")
    return held


def run_campaign(out_dir: str, seed: int = 0, n: int = 100,
                 jobs: int = 1,
                 apps: Optional[Sequence[str]] = None,
                 resume: bool = False,
                 shrink: bool = True,
                 max_shrink_evals: int = 120,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> dict[str, Any]:
    """Run (or resume) a campaign; returns the summary dict.

    ``out_dir`` layout (a :mod:`repro.serve` state directory)::

        jobs.log             job journal; its first line is the manifest:
                             the campaign job (seed, n, apps, sampler
                             version)
        cache/point-*.json   one stored result per completed scenario
        artifacts/*.yaml     one verified minimal repro per failure
        summary.json         the returned summary

    Scenarios already in ``cache/`` are reused, never re-run. With
    ``resume=True`` the manifest's (seed, n, apps) override the
    arguments, so a resumed campaign always matches its original sample;
    a campaign sampled by another sampler version refuses to resume
    (:class:`~repro.errors.ServeError`).
    """
    from ..serve import run_local  # deferred: keeps `import repro` light
    say = progress or (lambda _line: None)
    manifest = campaign_manifest({"seed": seed, "n": n, "apps": apps})
    held = load_manifest(out_dir) if resume else _held_manifest(out_dir)
    if resume:
        manifest = held
    elif held not in (None, manifest):
        raise ScenarioError(
            f"{out_dir!r} already holds a different campaign "
            f"(seed={held['seed']}, n={held['n']}, apps={held['apps']}); "
            "use a fresh directory or pass resume")
    say(f"campaign: {manifest['n']} scenarios (seed={manifest['seed']})")
    job = () if held else ("campaign", manifest)
    doc = run_local(out_dir, *job, workers=jobs)[0]
    outcomes = doc["results"]

    failures = [(index, ScenarioSpec.from_dict(doc["points"][index]["spec"]),
                 outcome)
                for index, outcome in enumerate(outcomes)
                if outcome["status"] != "ok"]
    say(f"campaign: {len(failures)} failing / {len(outcomes)} run")

    artifacts: list[dict[str, Any]] = []
    if shrink and failures:
        artifact_dir = os.path.join(out_dir, "artifacts")
        os.makedirs(artifact_dir, exist_ok=True)
        for index, spec, outcome in failures:
            result = shrink_scenario(spec, outcome,
                                     max_evals=max_shrink_evals)
            name = (f"fail-{index:04d}-{outcome['status']}-"
                    f"{(outcome['rule'] or 'none').replace(' ', '')}.yaml")
            path = os.path.join(artifact_dir, name)
            write_artifact(path, result)
            verdict = verify_artifact(path)
            say(f"  shrunk #{index} ({outcome['status']}/{outcome['rule']}) "
                f"in {result.evals} evals -> {name}"
                + ("" if verdict["ok"] else "  [VERIFY FAILED]"))
            artifacts.append({
                "index": index, "path": path,
                "status": outcome["status"], "rule": outcome["rule"],
                "evals": result.evals, "steps": result.steps,
                "verified": verdict["ok"],
                "problems": verdict["problems"],
            })

    summary = summarize_outcomes(manifest, outcomes, artifacts)
    _atomic_write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def summarize_outcomes(manifest: dict, outcomes: list[dict],
                       artifacts: list[dict]) -> dict[str, Any]:
    """Aggregate outcome dicts into the campaign summary document.

    Shared by the local campaign runner and the serve API's campaign
    result endpoint, so a served campaign's report JSON has exactly the
    shape (and sort order) of a local ``summary.json``.
    """
    by_status: dict[str, int] = {}
    by_rule: dict[str, int] = {}
    by_app: dict[str, dict[str, int]] = {}
    for outcome in outcomes:
        status = outcome["status"]
        by_status[status] = by_status.get(status, 0) + 1
        if outcome.get("rule"):
            by_rule[outcome["rule"]] = by_rule.get(outcome["rule"], 0) + 1
        app = outcome["spec"]["app"]
        per = by_app.setdefault(app, {})
        per[status] = per.get(status, 0) + 1
    return {
        "manifest": manifest,
        "total": len(outcomes),
        "by_status": dict(sorted(by_status.items())),
        "by_rule": dict(sorted(by_rule.items())),
        "by_app": {a: dict(sorted(c.items()))
                   for a, c in sorted(by_app.items())},
        "failures": sum(count for status, count in by_status.items()
                        if status != "ok"),
        "artifacts": artifacts,
        "all_verified": all(a["verified"] for a in artifacts),
    }


def campaign_report(out_dir: str) -> dict[str, Any]:
    """Progress/summary of a campaign directory, finished or not.

    Reads only the manifest and the stored results, so it works on a
    half-finished (or killed) campaign without running anything.
    """
    from ..serve import PENDING, ResultCache, expand_job
    manifest = load_manifest(out_dir)
    point_kind, points = expand_job("campaign", manifest)
    cache = ResultCache(os.path.join(out_dir, "cache"))
    done = [result for result in (cache.load(point_kind, point)
                                  for point in points)
            if result is not PENDING]
    summary = summarize_outcomes(manifest, done, _load_artifact_index(out_dir))
    summary["pending"] = len(points) - len(done)
    return summary


def _load_artifact_index(out_dir: str) -> list[dict]:
    path = os.path.join(out_dir, "summary.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh).get("artifacts", [])
    except (OSError, json.JSONDecodeError):
        return []


def render_report(summary: dict[str, Any]) -> str:
    """Human rendering of a campaign summary."""
    manifest = summary["manifest"]
    lines = [f"campaign seed={manifest['seed']} n={manifest['n']} "
             f"(sampler v{manifest['sampler_version']})",
             f"  run: {summary['total']}"
             + (f"  pending: {summary['pending']}"
                if summary.get("pending") else "")]
    for status, count in summary["by_status"].items():
        lines.append(f"  {status:10s} {count:5d}")
    if summary["by_rule"]:
        lines.append("  rules: " + ", ".join(
            f"{rule} x{count}" for rule, count in summary["by_rule"].items()))
    lines.append("  by app:")
    for app, counts in summary["by_app"].items():
        rendered = " ".join(f"{status}={count}"
                            for status, count in counts.items())
        lines.append(f"    {app:10s} {rendered}")
    for art in summary.get("artifacts", []):
        state = "verified" if art["verified"] else "VERIFY FAILED"
        lines.append(f"  artifact #{art['index']}: "
                     f"{art['status']}/{art['rule']} "
                     f"({art['evals']} evals, {state})")
        lines.append(f"    {art['path']}")
    return "\n".join(lines)
