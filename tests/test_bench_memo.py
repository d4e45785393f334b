"""One store: a point is simulated once and reused wherever it recurs.

The contract the warm-prefix memo cache used to answer to, held against
the single path (:func:`repro.serve.run_local` over
:class:`repro.serve.ResultCache`): (1) stored results equal the direct
reference, cold or warm; (2) one execution per unique point within a
run; (3) a repeated job against a warm directory re-simulates ZERO
points, and the store self-invalidates when the cache version changes.
"""

import json
import os

import pytest

from repro.bench import MsgRateConfig, run_msgrate
from repro.errors import ServeError
from repro.scenarios import ScenarioSpec, run_scenario
from repro.serve import SERVE_CACHE_VERSION, Orchestrator, run_local
from repro.snap import STATE_FORMAT_VERSION

SWEEP = {"params": {"mode": ["everywhere", "threads-tags"], "cores": [2],
                    "msgs_per_core": [8, 16, 24]}}
N_POINTS = 6
CAMPAIGN = {"seed": 5, "n": 4}


def _sweep(state_dir, spec=SWEEP, workers=1):
    return run_local(state_dir, "sweep", spec, workers=workers)[0]


def test_memo_version_tracks_snapshot_formats():
    """``serve1-memo1-snap2`` is frozen: every existing store hits."""
    assert SERVE_CACHE_VERSION == "serve1-memo1-snap2-state2"
    assert SERVE_CACHE_VERSION.endswith(f"-state{STATE_FORMAT_VERSION}")


def test_fig1a_memo_matches_unmemoized_reference(tmp_path):
    _sweep(str(tmp_path))
    warm = _sweep(str(tmp_path))
    assert warm["cache_hits"] == N_POINTS
    for point, result in zip(warm["points"], warm["results"]):
        ref = run_msgrate(MsgRateConfig(**point))
        assert (result["rate"], result["span"], result["messages"]) == \
            (ref.rate, ref.span, ref.messages)


def test_one_warmup_per_unique_prefix(tmp_path):
    """A point that recurs — within a job or across jobs — runs once."""
    orch = Orchestrator(str(tmp_path))
    twice = {"params": {**SWEEP["params"], "cores": [2, 2]}}
    first, second = orch.submit("sweep", twice), orch.submit("sweep", SWEEP)
    orch.drain_inline()
    assert orch.metrics.value("serve.point.done") == N_POINTS
    assert len(orch.job_result(first)["results"]) == 2 * N_POINTS
    assert orch.job_result(second)["results"] == _sweep(None)["results"]


def test_repeated_sweep_resimulates_zero_warmups(tmp_path):
    cold = _sweep(str(tmp_path))
    assert cold["cache_hits"] == 0
    warm = _sweep(str(tmp_path))
    assert warm["cache_hits"] == N_POINTS       # nothing executed
    assert warm["results"] == cold["results"]


def test_new_points_reuse_cached_prefix_digests(tmp_path):
    _sweep(str(tmp_path))
    extended = {"params": {**SWEEP["params"],
                           "msgs_per_core": [8, 16, 24, 32]}}
    doc = _sweep(str(tmp_path), extended)
    assert doc["cache_hits"] == N_POINTS        # only the two new points ran
    assert doc["results"][-1]["messages"] == 2 * 32


def test_version_bump_invalidates_cache(tmp_path, monkeypatch):
    _sweep(str(tmp_path))
    monkeypatch.setattr("repro.serve.cache.SERVE_CACHE_VERSION",
                        "serve0-other")
    assert _sweep(str(tmp_path))["cache_hits"] == 0


def test_results_keyed_by_digest_not_prefix_params(tmp_path):
    """A stored file whose key record lies is distrusted, not served."""
    cold = _sweep(str(tmp_path))
    cache = tmp_path / "cache"
    victim = cache / sorted(os.listdir(cache))[0]
    payload = json.loads(victim.read_text())
    payload["point"]["point"]["cores"] = 64
    payload["result"] = {"rate": -1.0}
    victim.write_text(json.dumps(payload))
    again = _sweep(str(tmp_path))
    assert again["cache_hits"] == N_POINTS - 1  # the liar was recomputed
    assert again["results"] == cold["results"]


def test_forked_tail_error_propagates(monkeypatch):
    monkeypatch.setattr("repro.serve.service.usable_cpus", lambda: 2)
    with pytest.raises(ServeError, match="asked to fail"):
        run_local(None, "selftest", {"n": 4, "fail_at": 1}, workers=2)


def test_scenarios_memoized_executor(tmp_path):
    first, second = (run_local(str(tmp_path), "campaign", CAMPAIGN)[0]
                     for _ in range(2))
    plain = [json.loads(json.dumps(
        run_scenario(ScenarioSpec.from_dict(p["spec"])), default=str))
        for p in first["points"]]
    assert first["results"] == second["results"] == plain
    assert (first["cache_hits"], second["cache_hits"]) == (0, CAMPAIGN["n"])


def test_scenarios_memo_results_in_spec_order():
    doc = run_local(None, "campaign", {"seed": 5, "n": 3})[0]
    assert [o["spec"] for o in doc["results"]] == \
        [p["spec"] for p in doc["points"]]
