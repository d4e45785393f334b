"""End-to-end service battery (tier 2): byte-identity under chaos.

THE acceptance criterion: a 200-point mixed sweep+campaign served over
HTTP across 2 workers returns results byte-identical to the in-process
reference (``[execute_point(kind, p) for p in points]``) — while
surviving a ``kill -9`` of one worker *and* a ``kill -9`` + restart of
the orchestrator mid-run, with zero lost and zero duplicated points —
and a resubmission of the same jobs is answered 100% from the warm
result cache without executing anything.

These tests fork real service processes (no event loop in the test),
so they exercise the same discovery file, supervision and crash paths
an operator would hit.
"""

import json
import os
import signal
import socket
import time

import pytest

from repro.serve.points import execute_point, expand_job
from repro.serve.service import spawn_service, usable_cpus

pytestmark = pytest.mark.tier2

# The 200-point battery: a 40-point Fig 1(a)-style sweep plus a
# 160-scenario chaos campaign, mixed in one service run.
SWEEP_SPEC = {"params": {"mode": ["everywhere", "threads-original",
                                  "threads-tags", "threads-comms",
                                  "threads-endpoints"],
                         "cores": [1, 2],
                         "msgs_per_core": [8, 16, 24, 32],
                         "window": [4]}}
CAMPAIGN_SPEC = {"seed": 11, "n": 160}


def _canon(doc):
    """Canonical bytes of a JSON document (byte-identity comparisons)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=str).encode("utf-8")


def _reference(kind, spec):
    """The in-process reference: every point of the job, in order."""
    point_kind, points = expand_job(kind, spec)
    return points, [execute_point(point_kind, p) for p in points]


def _total_done(client, job_ids):
    return sum(client.job(j)["done"] for j in job_ids)


def _wait_until(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def test_200_point_battery_survives_kills_and_is_byte_identical(tmp_path):
    state = str(tmp_path / "serve")
    handle = spawn_service(state, workers=2, oversubscribe=True,
                           heartbeat_timeout=3.0)
    try:
        with handle.client() as client:
            sweep = client.submit("sweep", SWEEP_SPEC)
            campaign = client.submit("campaign", CAMPAIGN_SPEC)
            job_ids = [sweep["job_id"], campaign["job_id"]]
            assert sweep["total"] + campaign["total"] == 200

            # Chaos 1: kill -9 one worker once points are flowing. Its
            # in-flight point must be requeued; the supervisor respawns
            # capacity.
            _wait_until(lambda: _total_done(client, job_ids) >= 5, 60,
                        "first points")
            victim = handle.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            _wait_until(lambda: victim not in handle.worker_pids(), 30,
                        "dead worker detection")
            _wait_until(lambda: len(handle.worker_pids()) == 2, 30,
                        "worker respawn")

            # Chaos 2: kill -9 the orchestrator itself mid-run, then
            # restart on the same state dir. Manifests + result cache must
            # rebuild the queue with exactly the unfinished points.
            _wait_until(lambda: _total_done(client, job_ids) >= 60, 120,
                        "mid-run progress")
            done_before_crash = _total_done(client, job_ids)
            handle.kill()
        assert not handle.alive()
        handle = spawn_service(state, workers=2, oversubscribe=True,
                               heartbeat_timeout=3.0)
        with handle.client() as client:
            resumed = {j["job_id"]: j for j in client.jobs()}
            # The same ids, from the journal.
            assert set(resumed) == set(job_ids)
            # Completed points were served from the cache, not re-run.
            assert sum(j["cache_hits"] for j in resumed.values()) >= \
                done_before_crash - 2  # minus at most the in-flight points

            for job_id in job_ids:
                client.wait(job_id, timeout=300)

            # Byte-identity against the in-process references.
            sweep_doc = client.result(sweep["job_id"])
            sweep_points, reference = _reference("sweep", SWEEP_SPEC)
            assert sweep_doc["points"] == sweep_points
            assert _canon(sweep_doc["results"]) == _canon(reference)

            campaign_doc = client.result(campaign["job_id"])
            assert _canon(campaign_doc["results"]) == \
                _canon(_reference("campaign", CAMPAIGN_SPEC)[1])
            # Zero lost, zero duplicated: every point slot filled exactly
            # once, in expansion order.
            assert len(campaign_doc["results"]) == 160
            assert len(sweep_doc["results"]) == 40

            # Resubmission: 100% warm cache hits, nothing executes.
            for kind, spec, total in (("sweep", SWEEP_SPEC, 40),
                                      ("campaign", CAMPAIGN_SPEC, 160)):
                again = client.submit(kind, spec)
                assert again["status"] == "done", again
                assert again["cache_hits"] == total == again["done"]
            metrics = client.metrics()
            assert metrics["cache"]["hits"] >= 200
    finally:
        handle.stop()


def test_campaign_result_carries_local_summary_shape(tmp_path):
    spec = {"seed": 3, "n": 6}
    handle = spawn_service(str(tmp_path / "s"), workers=1)
    try:
        with handle.client() as client:
            job = client.submit("campaign", spec)
            client.wait(job["job_id"], timeout=120)
            summary = client.result(job["job_id"])["summary"]
    finally:
        handle.stop()
    from repro.scenarios.campaign import summarize_outcomes
    from repro.scenarios.sample import SAMPLER_VERSION
    outcomes = _reference("campaign", spec)[1]
    manifest = {"seed": 3, "n": 6, "apps": None,
                "sampler_version": SAMPLER_VERSION}
    assert _canon(summary) == \
        _canon(summarize_outcomes(manifest, outcomes, []))


def test_http_api_status_codes(tmp_path):
    handle = spawn_service(str(tmp_path / "s"), workers=1)
    try:
        with handle.client() as client:
            # In-flight job: /result answers 409, not a broken document.
            job = client.submit("selftest", {"n": 4, "ms": 200})
            status, doc = client.request(
                "GET", f"/jobs/{job['job_id']}/result")
            assert status == 409 and "running" in doc["error"]
            # Unknown job: 404. Bad documents and kinds: 400.
            assert client.request("GET", "/jobs/job-99999")[0] == 404
            assert client.request("POST", "/jobs", {"kind": "nope"})[0] == 400
            assert client.request("POST", "/jobs", {"no": "kind"})[0] == 400
            # Wrong-typed fields and impossible points too: a 400 naming the
            # problem, not a dropped connection or a job that fails later.
            for kind, spec in (("selftest", {"n": None}),
                               ("selftest", {"n": 2, "ms": "slow"}),
                               ("campaign", {"n": 2, "seed": "x"}),
                               ("sweep", {"params": {"mode": ["everywere"],
                                                     "cores": [1]}})):
                status, doc = client.request("POST", "/jobs",
                                             {"kind": kind, "spec": spec})
                assert status == 400 and "bad" in doc["error"], (spec, doc)
            # A failing point turns into a 500 on /result with the blame.
            failing = client.submit("selftest", {"n": 1, "fail_at": 0})
            _wait_until(lambda: client.job(failing["job_id"])["status"] ==
                        "failed", 60, "failing job")
            status, doc = client.request(
                "GET", f"/jobs/{failing['job_id']}/result")
            assert status == 500 and "asked to fail" in doc["error"]
            # The sleepy job still completes cleanly afterwards.
            client.wait(job["job_id"], timeout=120)
            trace = client.trace(job["job_id"])
            # One slice per executed point.
            assert len(trace["traceEvents"]) == 4
    finally:
        handle.stop()


def test_local_and_served_runs_share_one_store(tmp_path):
    """A directory filled by ``repro msgrate --checkpoint-dir D`` answers
    the same job 100% warm under ``repro serve --state-dir D`` — and a
    directory filled by the service answers the CLI without executing."""
    from repro.cli import main
    from repro.serve import run_local
    spec = {"experiment": "msgrate",
            "params": {"mode": ["everywhere", "threads-tags"],
                       "cores": [1, 2], "msgs_per_core": [8], "seed": [0]}}
    cli = ["msgrate", "--modes", "everywhere", "threads-tags",
           "--cores", "1", "2", "--messages", "8", "--checkpoint-dir"]

    local = str(tmp_path / "local")
    assert main(cli + [local]) == 0
    handle = spawn_service(local, workers=1)
    try:
        with handle.client() as client:
            # The CLI's own job was resumed from its journal line, all warm...
            assert [(j["status"], j["cache_hits"]) for j in client.jobs()] == \
                [("done", 4)]
            # ...and so is a resubmission.
            again = client.submit("sweep", spec)
            assert (again["status"], again["cache_hits"]) == ("done", 4)
            assert client.metrics()["metrics"].get("serve.point.done") is None
    finally:
        handle.stop()

    served = str(tmp_path / "served")
    handle = spawn_service(served, workers=1)
    try:
        with handle.client() as client:
            job = client.submit("sweep", spec)
            client.wait(job["job_id"], timeout=120)
            results = client.result(job["job_id"])["results"]
    finally:
        handle.stop()
    doc = run_local(served, "sweep", spec)[0]
    assert doc["cache_hits"] == 4 and _canon(doc["results"]) == _canon(results)
    assert main(cli + [served]) == 0  # the CLI builds that same document
    assert sorted(os.listdir(os.path.join(served, "cache"))) == \
        sorted(os.listdir(os.path.join(local, "cache")))


def test_service_auto_sizes_workers_to_host(tmp_path):
    """The sizing bugfix end to end: asking for 64 workers on this host
    must start one worker per usable CPU, not 64 — unless oversubscribe.
    ``serve.json`` names the count the service forked; the workers attach
    after it is written, so their pids are polled for."""
    handle = spawn_service(str(tmp_path / "s"), workers=64)
    try:
        with open(os.path.join(handle.state_dir, "serve.json"),
                  encoding="utf-8") as fh:
            assert json.load(fh)["workers"] == usable_cpus()
        deadline = time.monotonic() + 10
        while (len(handle.worker_pids()) < usable_cpus()
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert len(handle.worker_pids()) == usable_cpus()
    finally:
        handle.stop()


def test_yaml_job_document_over_http(tmp_path):
    handle = spawn_service(str(tmp_path / "s"), workers=1)
    try:
        with handle.client() as client:
            body = b"kind: selftest\nspec:\n  n: 3\n"
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.settimeout(30)
                conn.connect(handle.socket)
                conn.sendall(b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
                             b"Connection: close\r\nContent-Length: %d\r\n"
                             b"\r\n%s" % (len(body), body))
                response = b"".join(iter(lambda: conn.recv(65536), b""))
            head, _, payload = response.partition(b"\r\n\r\n")
            doc = json.loads(payload)
            assert head.startswith(b"HTTP/1.1 201 ") and doc["total"] == 3
            client.wait(doc["job_id"], timeout=60)
            assert client.result(doc["job_id"])["results"] == \
                [{"i": 0, "value": 0}, {"i": 1, "value": 1},
                 {"i": 2, "value": 4}]
    finally:
        handle.stop()
