"""Smoke test of the stack benchmark itself (run by path; not tier-1)::

    python -m pytest benchmarks/stack/test_stack_bench.py

A ``--quick`` pass of every workload must print exactly the workload and
metric names of ``BENCHMARK.json``, each with its unit; a corrupted
golden digest must turn into ``failed_share`` > 0 and a non-zero exit;
and a directory holding only the benchmark (no simulator source) must
fail without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args: str, cwd: str = REPO, script: str = RUN
         ) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _printed(stdout: str) -> dict[tuple[str, str], str]:
    """``(workload, metric) -> unit`` for every ``metric`` line."""
    found = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, workload, metric, value, unit = line.split()[:5]
            float(value)
            assert (workload, metric) not in found, line
            found[workload, metric] = unit
    return found


def test_quick_pass_prints_exactly_the_contract(tmp_path) -> None:
    """Every workload x metric of BENCHMARK.json, by name, with its unit."""
    contract = _contract()
    out = tmp_path / "result.json"
    done = _run("--quick", "--traced", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    printed = _printed(done.stdout)
    expected = {}
    for workload in contract["workloads"]:
        assert NAME.match(workload["name"]) and "\n" not in workload["why"]
        for metric in contract["end_to_end"] + contract["per_layer"]:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric
            expected[workload["name"], metric["name"]] = metric["unit"]
    assert printed == expected
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in contract["end_to_end"])

    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1

    doc = json.loads(out.read_text())
    assert {"python", "numpy", "nproc", "cpu_model"} <= set(doc["host"])
    first = doc["sets"][0]
    assert "noisy_host" in first and len(first["loadavg"]) == 3
    assert all(r["rounds"] and "op_ms" in r["rounds"][0]["passes"][0]
               for r in first["runs"])
    # The eager grid must not touch the layers it is there to bypass.
    eager = next(r for r in first["runs"]
                 if r["workload"] == "fig1a_eager" and r["trace"])
    for idle in ("check.hook_calls", "netsim.topology.hops",
                 "faults.retransmits", "snap.capture_calls",
                 "serve.protocol.bytes_per_point"):
        assert eager["metrics"][idle]["value"] == 0, idle
    assert eager["metrics"]["sim.events"]["value"] > 0


def test_driver_line_holds_exactly_the_asked_metrics() -> None:
    """``--trace 0`` gives the end-to-end set, ``--trace 1`` the layers."""
    contract = _contract()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run("--quick", "--workload", "served_fig1a", "--seed", "7",
                    "--seconds", "1", "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        final = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert set(final["metrics"]) == {m["name"] for m in contract[key]}
        for metric in contract[key]:
            assert final["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_corrupted_golden_digest_fails_the_run(tmp_path) -> None:
    """A wrong pinned digest counts into failed_share and the exit code."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    golden["quick"]["fig1a_eager"] = "0" * 64
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    done = _run("--quick", "--workload", "fig1a_eager", "--golden", str(bad))
    assert done.returncode != 0
    share = re.search(r"^failed_share fig1a_eager (\d+)/(\d+)$", done.stdout,
                      re.MULTILINE)
    assert share and int(share.group(1)) > 0
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert final["correct"] is False and final["failed"] > 0


def test_benchmark_alone_fails_without_a_result(tmp_path) -> None:
    """Only BENCHMARK.json and the benchmark's directory: non-zero exit,
    no result line."""
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "stack",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    script = str(tmp_path / "benchmarks" / "stack" / "run.py")
    done = _run("--workload", "fig1a_eager", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path), script=script)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
    assert '"correct"' not in done.stdout
