"""Scenario DSL, sampler, executor, shrinker, campaigns (repro.scenarios)."""

import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ScenarioError, ServeError
from repro.faults import FaultPlan, TransportParams
from repro.netsim.traffic import TrafficShape
from repro.scenarios import (
    APP_REGISTRY,
    ScenarioSpec,
    app_names,
    campaign_report,
    outcome_signature,
    render_report,
    run_campaign,
    run_scenario,
    sample_scenarios,
    shrink_scenario,
    verify_artifact,
    write_artifact,
)
from repro.scenarios.shrink import load_artifact


def racer_spec(**overrides):
    """A scenario guaranteed to produce a CHK101 finding."""
    kwargs = dict(app="racer", mechanism="default", nodes=2, threads=2,
                  seed=3)
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestSpec:
    def test_yaml_roundtrip_full(self):
        spec = ScenarioSpec(
            app="stencil", mechanism="partitioned", seed=9, nodes=4,
            threads=2, topology="torus", topology_params={"dims": (2, 2)},
            app_params={"pnx": 4, "pny": 4, "iters": 1},
            faults=FaultPlan(drop=0.1, delay=0.05, delay_max=5e-6),
            transport=TransportParams(max_retries=6),
            traffic=TrafficShape(kind="bursty", flows=2),
            traffic_seed=4, name="x")
        again = ScenarioSpec.from_yaml(spec.to_yaml())
        assert again == spec
        assert again.topology_params["dims"] == (2, 2)  # tuple restored

    def test_unknown_app_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(app="hpl", mechanism="tags")

    def test_wrong_mechanism_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(app="vasp", mechanism="tags")

    def test_bad_topology_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(app="legion", mechanism="endpoints", nodes=100,
                         topology="torus", topology_params={"dims": (2, 2)})

    def test_bad_app_params_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(app="graph", mechanism="tags",
                         app_params={"churn": 1.5})
        with pytest.raises(ScenarioError):
            ScenarioSpec(app="legion", mechanism="endpoints",
                         app_params={"not_a_knob": 1})

    @pytest.mark.parametrize("app,mechanism,params", [
        # once escaped run_scenario from inside the graph generator
        ("graph", "tags", {"graph_vertices": 2}),
        ("graph", "tags", {"graph_degree": 0}),
        # passed validation, came back crash/MpiUsageError
        ("stencil", "communicators", {"comm_map": "bogus"}),
        # came back as deadlocks
        ("circuit", "original", {"timesteps": 0}),
        ("circuit", "original", {"wires_per_thread": 0}),
        # came back as ValueError/ZeroDivisionError/IndexError crashes
        ("stencil", "tags", {"pnx": 0}),
        ("stencil", "tags", {"compute_cost_per_cell": -1}),
        ("nwchem", "endpoints", {"tiles_per_proc": 0}),
        ("vasp", "existing", {"repeats": 0}),
        ("device", "host-driven", {"timesteps": 0}),
        ("device", "host-driven", {"count": 0}),
        ("legion", "endpoints", {"payload": 0}),
    ], ids=lambda v: next(iter(v)) if isinstance(v, dict) else v)
    def test_degenerate_app_params_rejected_at_construction(
            self, app, mechanism, params):
        """Values that only arrive from outside (YAML, ``repro submit``,
        ``POST /jobs``) and used to surface mid-run as a crash, a deadlock
        or an uncaught exception: the spec refuses them."""
        with pytest.raises(ScenarioError):
            ScenarioSpec(app=app, mechanism=mechanism, nodes=2, threads=2,
                         app_params=params)

    def test_shape_fields_are_not_app_params(self):
        # nodes/threads come from the spec, never from app_params
        with pytest.raises(ScenarioError):
            ScenarioSpec(app="graph", mechanism="tags",
                         app_params={"num_nodes": 3})
        with pytest.raises(ScenarioError):
            ScenarioSpec(app="racer", mechanism="default",
                         app_params={"nodes": 3})

    def test_vasp_divisibility_enforced(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(app="vasp", mechanism="existing", threads=4,
                         app_params={"elems": 6})

    def test_unknown_yaml_key_rejected(self):
        data = ScenarioSpec(app="circuit", mechanism="original").to_dict()
        data["grandfathered"] = True
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict(data)

    def test_save_load(self, tmp_path):
        spec = ScenarioSpec(app="device", mechanism="host-driven")
        path = str(tmp_path / "s.yaml")
        spec.save(path)
        assert ScenarioSpec.load(path) == spec


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_spec_yaml_roundtrip_property(data):
    """spec -> YAML -> spec is the identity across the sampled space."""
    app = data.draw(st.sampled_from(app_names(samplable_only=True)))
    adapter = APP_REGISTRY[app]
    mechanism = data.draw(st.sampled_from(list(adapter.mechanisms)))
    nodes = 2 if app == "device" else data.draw(st.sampled_from([2, 3, 4]))
    threads = data.draw(st.sampled_from([1, 2, 4]))
    faults = data.draw(st.one_of(
        st.none(),
        st.builds(FaultPlan,
                  drop=st.sampled_from([0.0, 0.05, 0.2]),
                  dup=st.sampled_from([0.0, 0.1]),
                  corrupt=st.sampled_from([0.0, 0.05]))))
    traffic = data.draw(st.one_of(
        st.none(),
        st.builds(TrafficShape,
                  kind=st.sampled_from(["mice", "elephants", "bursty",
                                        "requests"]),
                  flows=st.integers(1, 4),
                  msgs_per_flow=st.integers(1, 8))))
    app_params = {"elems": threads * 8} if app == "vasp" else {}
    try:
        spec = ScenarioSpec(app=app, mechanism=mechanism,
                            seed=data.draw(st.integers(0, 2**30)),
                            nodes=nodes, threads=threads,
                            app_params=app_params,
                            faults=faults, traffic=traffic,
                            traffic_seed=data.draw(st.integers(0, 1000)))
    except ScenarioError:
        return  # invalid corner of the cross-product: nothing to check
    assert ScenarioSpec.from_yaml(spec.to_yaml()) == spec
    assert ScenarioSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))) == spec


class TestSampler:
    def test_deterministic(self):
        assert sample_scenarios(3, 40) == sample_scenarios(3, 40)

    def test_prefix_stable(self):
        # the first k draws do not depend on n
        assert sample_scenarios(3, 40)[:10] == sample_scenarios(3, 10)

    @pytest.mark.parametrize("seed,digest", [
        (42, "a5455ae61efc3ac1996cb484a0d71e041aa0a2264f96cfdf32b5c841ababd8e1"),
        (7, "1e0f88130c7b0f798c42a117cc25b04f412458ba6b60874624ae437c2db112c4"),
    ])
    def test_draws_are_stable_across_validation_changes(self, seed, digest):
        """A config check that rejected a drawn value would silently shift
        every later draw (and every campaign keyed on the seed): the
        48-spec lists are the ones recorded before PR 16's checks."""
        import hashlib
        text = json.dumps([s.to_dict() for s in sample_scenarios(seed, 48)],
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_seeds_differ(self):
        assert sample_scenarios(1, 10) != sample_scenarios(2, 10)

    def test_apps_filter(self):
        specs = sample_scenarios(0, 12, apps=["stencil", "vasp"])
        assert {s.app for s in specs} <= {"stencil", "vasp"}

    def test_racer_never_sampled_by_default(self):
        assert all(s.app != "racer" for s in sample_scenarios(0, 60))

    def test_unknown_app_rejected(self):
        with pytest.raises(ScenarioError):
            sample_scenarios(0, 5, apps=["hpl"])

    def test_variety(self):
        specs = sample_scenarios(5, 60)
        assert len({s.app for s in specs}) >= 5
        assert any(s.faults is not None for s in specs)
        assert any(s.traffic is not None for s in specs)
        assert any(s.topology != "direct" for s in specs)


class TestExecutor:
    def test_ok_outcome(self):
        spec = ScenarioSpec(app="circuit", mechanism="endpoints",
                            app_params={"timesteps": 2,
                                        "wires_per_thread": 2})
        out = run_scenario(spec)
        assert out["status"] == "ok" and out["rule"] is None
        assert out["digest"] and out["wall_time"] > 0
        assert out["spec"] == spec.to_dict()

    def test_finding_outcome(self):
        out = run_scenario(racer_spec())
        assert outcome_signature(out) == ("finding", "CHK101")
        assert out["checks"].get("CHK101", 0) >= 1
        assert "poker" in out["detail"]

    def test_transport_outcome(self):
        spec = ScenarioSpec(
            app="legion", mechanism="endpoints", seed=1,
            app_params={"msgs_per_thread": 4},
            faults=FaultPlan(drop=0.9),
            transport=TransportParams(max_retries=1))
        out = run_scenario(spec)
        assert outcome_signature(out) == ("transport", "TransportError")
        assert "retries" in out["detail"]

    def test_outcomes_byte_identical(self):
        spec = racer_spec(faults=FaultPlan(drop=0.05),
                          traffic=TrafficShape(flows=2, msgs_per_flow=4))
        a, b = run_scenario(spec), run_scenario(spec)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_outcome_json_serializable(self):
        out = run_scenario(ScenarioSpec(app="device",
                                        mechanism="device-partitioned",
                                        app_params={"timesteps": 2}))
        assert json.loads(json.dumps(out)) == out

    def test_scenarios_are_not_recorded(self, monkeypatch):
        """A scenario world runs on ``Simulator.run``: the executor learns
        which world the driver built from its checking session, which
        stops nothing, and reports what it always reported."""
        import hashlib

        from repro.check.session import Session

        def run(*args, **kwargs):
            raise AssertionError("run_scenario stopped a world")

        monkeypatch.setattr(Session, "run", run)
        outcomes = [run_scenario(spec) for spec in sample_scenarios(42, 48)]
        blob = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
        # benchmarks/stack/golden.json, "full" / "chaos_campaign".
        assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == (
            "dc00f51fa95439b4b55bf5c574a4f54d"
            "b7f8ba083935c12c1d97268bfd8807cf")


class TestShrinker:
    def test_seeded_failure_shrinks_to_minimal(self):
        spec = racer_spec(
            nodes=4, threads=4, topology="fat_tree",
            topology_params={"k": 4},
            faults=FaultPlan(drop=0.05, dup=0.02),
            traffic=TrafficShape(kind="mice", flows=4, msgs_per_flow=8))
        result = shrink_scenario(spec)
        assert result.signature == ("finding", "CHK101")
        minimal = result.minimal
        # every removable dimension was removed
        assert minimal.traffic is None
        assert minimal.faults is None
        assert minimal.topology == "direct"
        assert minimal.nodes == 2 and minimal.threads == 1
        assert result.evals <= 150 and result.steps

    def test_passing_scenario_refused(self):
        spec = ScenarioSpec(app="circuit", mechanism="original",
                            app_params={"timesteps": 2})
        with pytest.raises(ScenarioError):
            shrink_scenario(spec)

    def test_artifact_replay_byte_identical(self, tmp_path):
        result = shrink_scenario(racer_spec(
            traffic=TrafficShape(flows=2, msgs_per_flow=4)))
        path = str(tmp_path / "artifact.yaml")
        write_artifact(path, result)
        doc = load_artifact(path)
        assert doc["signature"] == {"status": "finding", "rule": "CHK101"}
        assert doc["replay"].startswith("python -m repro campaign replay")
        verdict = verify_artifact(path)
        assert verdict["ok"], verdict["problems"]
        assert verdict["outcome"]["digest"] == doc["fingerprint"]["digest"]

    def test_tampered_artifact_fails_verify(self, tmp_path):
        result = shrink_scenario(racer_spec())
        path = str(tmp_path / "artifact.yaml")
        write_artifact(path, result)
        import yaml as _yaml
        with open(path) as fh:
            doc = _yaml.safe_load(fh)
        doc["fingerprint"]["digest"] = "0" * 64
        with open(path, "w") as fh:
            _yaml.safe_dump(doc, fh)
        assert not verify_artifact(path)["ok"]


def _racer_campaign(out_dir, **kwargs):
    """A tiny campaign guaranteed to contain failures (racer app only)."""
    kwargs.setdefault("seed", 2)
    kwargs.setdefault("n", 6)
    kwargs.setdefault("apps", ["racer"])
    return run_campaign(out_dir, **kwargs)


class TestCampaign:
    def test_clean_campaign(self, tmp_path):
        summary = run_campaign(str(tmp_path / "c"), seed=11, n=8)
        assert summary["total"] == 8
        assert summary["failures"] == summary["by_status"].get(
            "transport", 0) + summary["by_status"].get(
            "finding", 0) + summary["by_status"].get(
            "deadlock", 0) + summary["by_status"].get(
            "incorrect", 0) + summary["by_status"].get("crash", 0)
        assert (tmp_path / "c" / "summary.json").exists()

    def test_deterministic_per_seed(self, tmp_path):
        s1 = run_campaign(str(tmp_path / "a"), seed=4, n=8, shrink=False)
        s2 = run_campaign(str(tmp_path / "b"), seed=4, n=8, shrink=False)
        for key in ("by_status", "by_rule", "by_app", "total", "failures"):
            assert s1[key] == s2[key]

    def test_failures_produce_verified_artifacts(self, tmp_path):
        summary = _racer_campaign(str(tmp_path / "c"))
        assert summary["failures"] == summary["total"] == 6
        assert len(summary["artifacts"]) == 6
        assert summary["all_verified"]
        for art in summary["artifacts"]:
            assert os.path.exists(art["path"])
            assert art["rule"] == "CHK101"

    def test_report_render(self, tmp_path):
        summary = _racer_campaign(str(tmp_path / "c"))
        text = render_report(summary)
        assert "finding" in text and "CHK101" in text and "verified" in text

    def test_resume_noop_after_completion(self, tmp_path):
        out = str(tmp_path / "c")
        s1 = run_campaign(out, seed=7, n=6, shrink=False)
        s2 = run_campaign(out, resume=True, shrink=False)
        assert s1["by_status"] == s2["by_status"]

    def test_seed_mismatch_rejected(self, tmp_path):
        out = str(tmp_path / "c")
        run_campaign(out, seed=1, n=4, shrink=False)
        with pytest.raises(ScenarioError):
            run_campaign(out, seed=2, n=4, shrink=False)

    def test_report_on_fresh_dir_fails_cleanly(self, tmp_path):
        with pytest.raises(ScenarioError):
            campaign_report(str(tmp_path / "nothing"))

    def test_corrupt_or_foreign_manifest_is_refused(self, tmp_path):
        out = str(tmp_path / "c")
        run_campaign(out, seed=1, n=3, shrink=False)
        manifest = tmp_path / "c" / "jobs" / "job-00001.json"
        good = manifest.read_text()
        stored = sorted(os.listdir(tmp_path / "c" / "cache"))

        # Sampled by another sampler version: never resumed, never re-run.
        manifest.write_text(good.replace('"sampler_version":1',
                                         '"sampler_version":0'))
        for refused in (lambda: run_campaign(out, resume=True),
                        lambda: campaign_report(out)):
            with pytest.raises(ServeError, match="sampled by sampler v0"):
                refused()

        for damage in (good[:len(good) // 2], "[]",
                       good.replace('"campaign"', '"selftest"')):
            manifest.write_text(damage)
            for refused in (lambda: run_campaign(out, resume=True),
                            lambda: run_campaign(out, seed=1, n=3),
                            lambda: campaign_report(out)):
                with pytest.raises(ScenarioError, match="corrupt manifest"):
                    refused()
        assert sorted(os.listdir(tmp_path / "c" / "cache")) == stored


class TestCrashResume:
    def test_kill9_then_resume_is_byte_identical(self, tmp_path):
        """A campaign killed mid-flight resumes to the exact same bytes."""
        reference = str(tmp_path / "ref")
        crashed = str(tmp_path / "crash")
        run_campaign(reference, seed=2, n=6, apps=["racer"], shrink=False)

        # The simulated kill -9: the fourth scenario to start takes the
        # whole process down, from inside the one execution path.
        script = textwrap.dedent(f"""\
            import os
            from repro.scenarios import run_campaign
            from repro.serve.points import POINT_KINDS
            real, started = POINT_KINDS["scenario"], []
            def crashing(spec):
                if len(started) == 3:
                    os._exit(9)
                started.append(spec)
                return real(spec)
            POINT_KINDS["scenario"] = crashing
            run_campaign({crashed!r}, seed=2, n=6, apps=["racer"],
                         shrink=False)
            """)
        code = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True).returncode
        assert code == 9

        partial = campaign_report(crashed)
        assert 0 < partial["total"] < 6 and partial["pending"] > 0

        resumed = run_campaign(crashed, resume=True, shrink=False)
        # store files must match the uninterrupted run byte for byte
        def point_bytes(root):
            points = {}
            for name in os.listdir(os.path.join(root, "cache")):
                with open(os.path.join(root, "cache", name), "rb") as fh:
                    points[name] = fh.read()
            return points
        assert point_bytes(reference) == point_bytes(crashed)
        assert resumed["total"] == 6 and resumed["failures"] == 6


class TestCampaignCli:
    def test_run_report_replay(self, tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "c")
        code = main(["campaign", "run", out, "--seed", "2", "-n", "4",
                     "--apps", "racer"])
        assert code == 0
        text = capsys.readouterr().out
        assert "finding" in text
        artifacts = sorted(os.listdir(os.path.join(out, "artifacts")))
        assert artifacts

        assert main(["campaign", "report", out]) == 0
        assert "CHK101" in capsys.readouterr().out

        artifact = os.path.join(out, "artifacts", artifacts[0])
        assert main(["campaign", "replay", artifact]) == 0
        assert "verified" in capsys.readouterr().out

    def test_resume_via_cli(self, tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "c")
        assert main(["campaign", "run", out, "--seed", "3", "-n", "3"]) == 0
        capsys.readouterr()
        assert main(["campaign", "resume", out]) == 0
        assert "run: 3" in capsys.readouterr().out
