"""The six workloads of the stack benchmark, one *round* at a time.

A round is one fresh interpreter doing one workload: set-up (imports, a
warm-up point, the service or the scenario sample), then *passes* — the
workload's timed operations, start to end, again and again until the
round's share of the run's seconds is used — tear-down, then the
correctness checks. Between the operations the round times the
calibration loop of ``hostspeed.py`` and scales every operation's time
by it. The driver (``run.py``) starts the rounds and reports medians
over their passes; nothing here prints or aggregates.

Why the work is fixed per pass and ``--seed`` only says where it
starts: every (end-to-end metric, workload) pair is compared across
seeds by its spread, so neither the *amount* of simulated work nor its
order may depend on the seed. (A seed-shuffled order did: what one point
leaves on the heap is collected during the next, and ``fig1a_checked``
read 8 % apart between two seeds, run after run.) The operations of a
pass are in one fixed shuffled order and the seed rotates it; as the
passes repeat, every seed runs the same cycle of operations and only
enters it somewhere else. The seed is also passed to the simulator as
``MsgRateConfig.seed`` (the lossless fabric draws nothing from it, so
the pinned digests hold for every seed) and keys the served points so
each seed, and each pass, is a different set of cache entries.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import resource
import shutil
import time
from typing import Any, Optional

from hostspeed import REFERENCE_MS, calibrate

__all__ = ["WORKLOADS", "SIZES", "CAMPAIGN_SEED", "Round", "run_round",
           "digest_of"]

#: Fig 1(a) modes (the paper's five; the two ablation modes stay out).
MODES = ["everywhere", "threads-original", "threads-tags", "threads-comms",
         "threads-endpoints"]

#: The chaos campaign's scenario set is drawn from this fixed seed; the
#: run's ``--seed`` only says where in their fixed cycle a pass starts.
CAMPAIGN_SEED = 42

#: Work per pass. ``full`` is what ``BENCHMARK.json`` gates: 0.5-1 s of
#: timed work per pass on the 2-core reference host, so a run of
#: ``run_seconds`` holds twenty or more passes and every operation's
#: median has twenty or more samples. ``quick`` is the smoke size
#: used by the benchmark's own test. ``warm_msgs_per_core`` sizes only
#: the cold fill of ``served_warm`` (a cached answer costs the same
#: however long its point took to simulate).
SIZES: dict[str, dict[str, Any]] = {
    "full": {"cores": [1, 2, 4, 8, 16, 32, 64], "msgs_per_core": 16,
             "warm_msgs_per_core": 4, "scenarios": 48, "tiny_points": 200,
             "tiny_jobs": 3, "warm_posts": 250},
    "quick": {"cores": [1, 4, 16], "msgs_per_core": 8,
              "warm_msgs_per_core": 4, "scenarios": 4, "tiny_points": 50,
              "tiny_jobs": 2, "warm_posts": 30},
}


def _cycle(items: list, seed: int) -> list:
    """``items`` in their fixed shuffled order, entered at ``seed``."""
    order = list(items)
    random.Random(0).shuffle(order)
    start = seed % len(order)
    return order[start:] + order[:start]


def digest_of(results: Any) -> str:
    """sha256 of the canonical JSON of ``results`` (floats by repr)."""
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cpu_seconds() -> float:
    """User+sys CPU of this process and every child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Max resident set (MiB) over this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


#: A round calibrates again once this much host time has passed since
#: its last calibration (about 5 ms of yardstick per 50 ms of work).
CALIBRATE_EVERY_S = 0.05


class Round:
    """Everything one round measured; serialised to JSON for the driver."""

    def __init__(self, recorder: Any = None):
        #: One entry per pass: ``op_ms`` are the host milliseconds of each
        #: timed operation in execution order (the same order in every
        #: pass of a run), ``norm_ms`` the same scaled to reference speed,
        #: ``calibrations`` the ``(operations done, milliseconds)`` marks.
        self.passes: list[dict[str, list]] = []
        #: Work units of each operation of a pass (identical every pass).
        self.units: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest: Optional[str] = None
        #: Per-layer values the workload measured itself (serve.*, probes).
        self.layers: dict[str, float] = {}
        #: Exact simulated counters harvested after each operation.
        self.counters: dict[str, float] = {
            "lock_acquires": 0, "lock_contended": 0, "match_scans": 0,
            "recvs_completed": 0, "topo_hops": 0, "retransmits": 0}
        self.recorder = recorder
        #: Every calibration of the timed phase, in milliseconds.
        self.calibrations: list[float] = []
        self._op_ms: list[float] = []
        #: ``(operations done when taken, milliseconds)`` of this pass.
        self._marks: list[tuple[int, float]] = []
        self._calibrated_at = 0.0

    def _calibrate(self) -> None:
        ms = calibrate()
        self._marks.append((len(self._op_ms), ms))
        self.calibrations.append(ms)
        self._calibrated_at = time.perf_counter()

    def begin_pass(self) -> None:
        """Start a pass with a fresh calibration."""
        self._op_ms, self.units, self._marks = [], [], []
        self._calibrate()

    def op(self, seconds: float, units: float, ok: bool = True,
           why: str = "") -> None:
        """Record one timed operation (and harvest counters if traced);
        calibrate before the next one when it is due."""
        self._op_ms.append(seconds * 1e3)
        self.units.append(units)
        self.check(ok, why)
        if self.recorder is not None:
            self.recorder.harvest(self.counters)
        if time.perf_counter() - self._calibrated_at >= CALIBRATE_EVERY_S:
            self._calibrate()

    def end_pass(self) -> None:
        """Close the pass: scale each operation by the mean of the
        calibrations taken just before and just after it."""
        if self._marks[-1][0] < len(self._op_ms):
            self._calibrate()
        norm_ms = []
        mark = 0
        for index, ms in enumerate(self._op_ms):
            while self._marks[mark + 1][0] <= index:
                mark += 1
            around = (self._marks[mark][1] + self._marks[mark + 1][1]) / 2
            norm_ms.append(ms * REFERENCE_MS / around)
        self.passes.append({"op_ms": self._op_ms, "norm_ms": norm_ms,
                            "calibrations": self._marks})

    def check(self, ok: bool, why: str) -> None:
        """Count one attempted item; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(why)


class _Workload:
    """Base: the phases of a round. Subclasses fill in the work."""

    def __init__(self, seed: int, sizes: dict[str, Any], work_dir: str,
                 deep: bool):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        #: Deep rounds also re-execute served points in-process and, when
        #: traced, run the layer probes (slow, so once per run).
        self.deep = deep
        #: Canonical-order results; their digest is pinned in golden.json.
        self.results: Any = None

    def setup(self, rnd: Round) -> None:
        """Untimed: everything a user pays before the first operation."""
        _warm_up_point()

    def timed(self, rnd: Round) -> None:
        """One pass of the measured operations, each ending in
        ``rnd.op(...)``, in the same order every time it is called."""
        raise NotImplementedError

    def finish(self, rnd: Round) -> None:
        """Stop and reap what set-up started (inside the CPU window)."""

    def verify(self, rnd: Round) -> None:
        """Workload-specific output checks, after all timing."""

    def close(self) -> None:
        """Last resort after an error: leave no process behind."""


def _warm_up_point() -> None:
    """One tiny Fig 1(a) point per mode: pulls in numpy, the whole
    simulator and each mode's lazily imported helpers, so first-use
    costs land in ``setup_s`` and not on whichever timed operation the
    seed happens to order first."""
    from repro.bench import MsgRateConfig, run_msgrate
    for mode in MODES:
        run_msgrate(MsgRateConfig(mode=mode, cores=2, msgs_per_core=2))


# -- fig1a_eager / fig1a_checked -----------------------------------------------
class _Fig1a(_Workload):
    """The Fig 1(a) grid in-process, checker off or on."""

    def __init__(self, *args: Any, checked: bool = False):
        super().__init__(*args)
        self.checked = checked
        self.grid = [(m, c) for m in MODES for c in self.sizes["cores"]]
        self.order = _cycle(self.grid, self.seed)

    def timed(self, rnd: Round) -> None:
        """Run every (mode, cores) point serially through run_msgrate."""
        from repro.bench import MsgRateConfig, run_msgrate
        from repro.check import CheckConfig, checking
        from repro.netsim import NetworkConfig

        done: dict[tuple[str, int], dict[str, Any]] = {}
        for mode, cores in self.order:
            cfg = MsgRateConfig(mode=mode, cores=cores, msg_bytes=8,
                                window=16, seed=self.seed,
                                msgs_per_core=self.sizes["msgs_per_core"])
            clean = True
            started = time.perf_counter()
            if self.checked:
                with checking(CheckConfig(emit_warnings=False)) as session:
                    result = run_msgrate(cfg, net=NetworkConfig.omnipath())
                    clean = session.report().clean
                    session.close()
            else:
                result = run_msgrate(cfg, net=NetworkConfig.omnipath())
            elapsed = time.perf_counter() - started
            rnd.op(elapsed, result.messages, clean,
                   f"checker findings on {mode} x{cores}")
            done[(mode, cores)] = {"mode": mode, "cores": cores,
                                   "rate": result.rate, "span": result.span,
                                   "messages": result.messages}
        self.results = [done[p] for p in self.grid]

    def verify(self, rnd: Round) -> None:
        """The paper's shape: endpoints track MPI everywhere, the
        original mode stays flat."""
        top = max(self.sizes["cores"])
        rate = {(r["mode"], r["cores"]): r["rate"] for r in self.results}
        rnd.check(rate["threads-endpoints", top]
                  >= 0.9 * rate["everywhere", top],
                  f"threads-endpoints < 0.9x everywhere at {top} cores")
        rnd.check(rate["threads-original", top]
                  <= 3.0 * rate["threads-original", 1],
                  f"threads-original is not flat from 1 to {top} cores")


# -- chaos_campaign ------------------------------------------------------------
class _Chaos(_Workload):
    """A fixed sample of chaos scenarios in a fixed cycle."""

    def setup(self, rnd: Round) -> None:
        """Sample the campaign and run one warm-up scenario."""
        from repro.scenarios import run_scenario, sample_scenarios
        started = time.perf_counter()
        self.specs = sample_scenarios(CAMPAIGN_SEED, self.sizes["scenarios"])
        rnd.layers["scenarios.sample_s"] = time.perf_counter() - started
        # One scenario per app: each driver module is imported on first
        # use, and that must not land on a timed operation.
        first_of_app = {spec.app: spec for spec in reversed(self.specs)}
        for spec in first_of_app.values():
            run_scenario(spec)
        self.order = _cycle(list(range(len(self.specs))), self.seed)

    def timed(self, rnd: Round) -> None:
        """Run each scenario through run_scenario (checker on, snapshot
        digest at the end); every outcome must be ``ok``."""
        from repro.scenarios import run_scenario
        outcomes: dict[int, Any] = {}
        for index in self.order:
            started = time.perf_counter()
            outcome = run_scenario(self.specs[index])
            elapsed = time.perf_counter() - started
            rnd.op(elapsed, 1, outcome["status"] == "ok",
                   f"scenario {index}: {outcome['status']} "
                   f"{outcome['rule']} {outcome['detail']}")
            outcomes[index] = outcome
        self.results = [outcomes[i] for i in range(len(self.specs))]


# -- served_* ------------------------------------------------------------------
def _point_key(point: dict) -> str:
    """Seed-free identity of a served point (digests pin across seeds)."""
    return json.dumps({k: v for k, v in point.items() if k != "seed"},
                      sort_keys=True)


class _Served(_Workload):
    """A real forked service (orchestrator + HTTP + one worker) driven by
    one closed-loop client over HTTP: the Fig 1(a) grid as five sweep
    jobs, one per mode, submitted one after the other. Every pass keys
    its points with a seed of its own, so every job finds the cache
    empty of them."""

    job_kind = "sweep"
    #: Which ``SIZES`` entry gives the jobs' messages per core.
    msgs_key = "msgs_per_core"
    #: Whether every job needs its own service to find the cache empty.
    fresh_service_per_job = False

    def job_specs(self, pass_index: int) -> list[dict]:
        """The job documents of one pass, in order. The point seed keeps
        its number of digits from pass to pass (frame sizes are an exact
        per-layer count)."""
        point_seed = self.seed * 1000 + 100 + pass_index
        return [{"params": {"mode": [mode], "cores": self.sizes["cores"],
                            "msgs_per_core": [self.sizes[self.msgs_key]],
                            "seed": [point_seed]}} for mode in self.modes]

    def setup(self, rnd: Round) -> None:
        """Warm up, fork the service, wait until its worker attached."""
        super().setup(rnd)
        self.modes = _cycle(MODES, self.seed)
        self.pass_index = 0
        self.docs: list[dict] = []
        self.submit_ms: list[float] = []
        self.status_ms: list[float] = []
        #: Sums over every service this round ran, from ``GET /metrics``.
        self.served = {"hits": 0, "misses": 0, "host_s": 0.0, "executed": 0,
                       "requeued": 0, "failed": 0}
        self.start_service(rnd)

    def start_service(self, rnd: Round) -> None:
        """Fork a service on an empty state directory."""
        from repro.serve.service import spawn_service
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.handle = spawn_service(self.work_dir, workers=1)
        self.client = self.handle.client()
        deadline = time.monotonic() + 30
        while not self.client.healthz()["workers"]:
            if time.monotonic() > deadline:
                raise RuntimeError("service worker never attached")
            time.sleep(0.005)
        self.cache_before = self.cache_counts(rnd)

    def cache_counts(self, rnd: Round) -> tuple[int, int]:
        """The service's lifetime (hits, misses) from ``GET /metrics``."""
        cache = self.client.metrics()["cache"]
        rnd.attempted += 1
        return cache["hits"], cache["misses"]

    def stop_service(self, rnd: Round) -> None:
        """Fold the service's own counters into ``served``; stop, reap."""
        doc = self.client.metrics()
        rnd.attempted += 1

        def total(name: str, field: str = "value") -> float:
            return sum(s[field] for s in doc["metrics"].get(name, []))
        served = self.served
        served["hits"] += doc["cache"]["hits"] - self.cache_before[0]
        served["misses"] += doc["cache"]["misses"] - self.cache_before[1]
        served["host_s"] += total("serve.point.host_sec", "total")
        served["executed"] += total("serve.point.host_sec", "count")
        served["requeued"] += total("serve.point.requeued")
        served["failed"] += total("serve.point.failed")
        self.handle.stop()
        rnd.check(not self.handle.alive(), "service did not stop")

    def submit_and_fetch(self, rnd: Round, spec: dict) -> tuple[dict, float]:
        """One cold job: POST, poll to ``done``, GET the result document.
        Returns the result document and the POST's own latency (ms)."""
        started = time.perf_counter()
        job = self.client.submit(self.job_kind, spec)
        submit_ms = (time.perf_counter() - started) * 1e3
        rnd.attempted += 1
        while True:
            polled = time.perf_counter()
            status = self.client.job(job["job_id"])
            self.status_ms.append((time.perf_counter() - polled) * 1e3)
            rnd.attempted += 1
            if status["status"] != "running":
                break
            time.sleep(0.01)
        if status["status"] != "done":
            raise RuntimeError(f"{job['job_id']} {status['status']}: "
                               f"{status['error']}")
        doc = self.client.result(job["job_id"])
        rnd.attempted += 1
        return doc, submit_ms

    def timed(self, rnd: Round) -> None:
        """Cold: each job is submitted against a cache that holds none of
        its points and timed from the POST to the fetched result
        document."""
        self.docs = []
        for index, spec in enumerate(self.job_specs(self.pass_index)):
            if (index or self.pass_index) and self.fresh_service_per_job:
                self.stop_service(rnd)
                self.start_service(rnd)
            started = time.perf_counter()
            doc, submit_ms = self.submit_and_fetch(rnd, spec)
            elapsed = time.perf_counter() - started
            rnd.op(elapsed, len(doc["points"]), doc["cache_hits"] == 0,
                   f"cold job had {doc['cache_hits']} cache hits")
            self.docs.append(doc)
            self.submit_ms.append(submit_ms)
        self.pass_index += 1

    def finish(self, rnd: Round) -> None:
        """Stop the service and report what it counted."""
        self.stop_service(rnd)
        served = self.served
        rnd.layers.update({
            "serve.cache.hit_share":
                served["hits"] / max(1, served["hits"] + served["misses"]),
            "serve.orchestrator.point_host_ms":
                1e3 * served["host_s"] / max(1, served["executed"]),
            "serve.orchestrator.requeued": served["requeued"],
            "serve.orchestrator.failed": served["failed"],
        })
        if self.submit_ms:
            rnd.layers["serve.http.submit_ms"] = min(self.submit_ms)
        if self.status_ms:
            rnd.layers["serve.http.status_ms"] = min(self.status_ms)

    def close(self) -> None:
        """Kill the service if an error skipped the clean stop."""
        handle = getattr(self, "handle", None)
        if handle is not None and handle.alive():
            handle.kill()

    def verify(self, rnd: Round) -> None:
        """Canonicalise the last pass's served results; on deep rounds
        re-execute every point of it in-process and demand byte-identical
        results."""
        docs = self.docs
        if not docs:
            return
        kind = docs[0]["point_kind"]
        points = [p for doc in docs for p in doc["points"]]
        results = [r for doc in docs for r in doc["results"]]
        rnd.check(len(points) == len(results) == self.expected_points(),
                  f"served {len(results)} results for {len(points)} points, "
                  f"expected {self.expected_points()}")
        by_key = sorted(zip(map(_point_key, points), results),
                        key=lambda pair: pair[0])
        self.results = [[key, result] for key, result in by_key]
        if not self.deep:
            return
        from repro.serve.points import execute_point, expand_job
        started = time.perf_counter()
        expanded = [expand_job(self.job_kind, doc["spec"]) for doc in docs]
        rnd.layers["serve.points.expand_s"] = time.perf_counter() - started
        rnd.check(expanded == [(kind, doc["points"]) for doc in docs],
                  "service expanded a job differently from expand_job")
        started = time.perf_counter()
        local = [execute_point(kind, point) for point in points]
        execute_s = time.perf_counter() - started
        rnd.check(local == results,
                  "served results differ from in-process execute_point")
        rnd.layers["serve.points.execute_s"] = execute_s
        last_ms = rnd.passes[-1]["op_ms"]
        if len(last_ms) == len(docs):  # the timed jobs were the cold ones
            rnd.layers["serve.orchestrator.overhead_ms_per_point"] = (
                (sum(last_ms) - 1e3 * execute_s) / len(points))
        if rnd.recorder is not None:
            self.probe_serve_layers(rnd, kind, points, results)

    def expected_points(self) -> int:
        """How many points the round's jobs must expand to."""
        return len(MODES) * len(self.sizes["cores"])

    def probe_serve_layers(self, rnd: Round, kind: str, points: list,
                           results: list) -> None:
        """Drive protocol and cache directly on the jobs' real frames."""
        from repro.serve.cache import PENDING, ResultCache
        from repro.serve.protocol import (FrameDecoder, encode_frame,
                                          job_frame, result_frame)
        frames = [job_frame(f"t{i}", kind, p) for i, p in enumerate(points)]
        frames += [result_frame(f"t{i}", r) for i, r in enumerate(results)]
        started = time.perf_counter()
        encoded = [encode_frame(frame) for frame in frames]
        encode_s = time.perf_counter() - started
        stream = b"".join(encoded)
        started = time.perf_counter()
        decoded = FrameDecoder().feed(stream)
        decode_s = time.perf_counter() - started
        rnd.check(decoded == frames, "frames did not round-trip")
        cache = ResultCache(os.path.join(self.work_dir, "probe-cache"))
        started = time.perf_counter()
        for point, result in zip(points, results):
            cache.save(kind, point, result)
        save_s = time.perf_counter() - started
        started = time.perf_counter()
        loaded = [cache.load(kind, point) for point in points]
        load_s = time.perf_counter() - started
        rnd.check(PENDING not in loaded and loaded == results,
                  "probe cache did not return what was saved")
        rnd.layers.update({
            "serve.protocol.encode_us": 1e6 * encode_s / len(frames),
            "serve.protocol.decode_us": 1e6 * decode_s / len(frames),
            "serve.protocol.bytes_per_point": len(stream) / len(points),
            "serve.cache.save_us": 1e6 * save_s / len(points),
            "serve.cache.load_us": 1e6 * load_s / len(points),
        })


class _ServedTiny(_Served):
    """Arithmetic points: forwarding is all of the cost. Selftest jobs
    share their points, so each job gets a fresh service (forking one
    costs ~30 ms, outside the timed operations)."""

    job_kind = "selftest"
    fresh_service_per_job = True

    def job_specs(self, pass_index: int) -> list[dict]:
        """Selftest jobs (no simulator behind the points)."""
        return [{"n": self.sizes["tiny_points"]}
                for _ in range(self.sizes["tiny_jobs"])]

    def expected_points(self) -> int:
        """``n`` points per job."""
        return self.sizes["tiny_points"] * self.sizes["tiny_jobs"]


class _ServedWarm(_Served):
    """One 35-point Fig 1(a) job resubmitted against the cache it just
    filled."""

    msgs_key = "warm_msgs_per_core"

    def job_specs(self, pass_index: int) -> list[dict]:
        """The whole grid as a single job."""
        return [{"params": {"mode": self.modes, "cores": self.sizes["cores"],
                            "msgs_per_core": [self.sizes[self.msgs_key]],
                            "seed": [self.seed]}}]

    def setup(self, rnd: Round) -> None:
        """Service up, then the cold fill (part of this workload's
        set-up: a warm cache is what its user starts from)."""
        super().setup(rnd)
        self.spec = self.job_specs(0)[0]
        self.submit_and_fetch(rnd, self.spec)
        self.status_ms.clear()
        self.cache_before = self.cache_counts(rnd)

    def timed(self, rnd: Round) -> None:
        """Closed loop: identical POST /jobs, each answered from cache."""
        total = self.expected_points()
        for _ in range(self.sizes["warm_posts"]):
            started = time.perf_counter()
            job = self.client.submit(self.job_kind, self.spec)
            elapsed = time.perf_counter() - started
            rnd.op(elapsed, total,
                   job["status"] == "done" and job["cache_hits"] == total,
                   f"warm submit: {job['status']}, "
                   f"{job['cache_hits']}/{total} cache hits")
        self.last_job = job["job_id"]

    def finish(self, rnd: Round) -> None:
        """Fetch the last warm job's results before stopping the service."""
        self.docs = [self.client.result(self.last_job)]
        rnd.attempted += 1
        super().finish(rnd)


WORKLOADS: dict[str, Any] = {
    "fig1a_eager": _Fig1a,
    "fig1a_checked": functools.partial(_Fig1a, checked=True),
    "chaos_campaign": _Chaos,
    "served_fig1a": _Served,
    "served_tiny": _ServedTiny,
    "served_warm": _ServedWarm,
}


def run_round(name: str, seed: int, size: str, traced: bool, deep: bool,
              work_dir: str, golden: dict[str, str], started: float,
              first_calibration_ms: float, passes: int) -> dict[str, Any]:
    """Run one round of workload ``name``; returns the JSON-able record.

    ``started`` is the interpreter's earliest ``perf_counter`` reading and
    ``first_calibration_ms`` a calibration taken since, before any import
    of the simulator: ``setup_s`` includes every import, excludes that
    calibration, and is scaled by it and one taken after set-up. Every
    pass must give the same results as the one before it.
    """
    from layers import SpanRecorder, probe_kernel, probe_matching
    recorder = SpanRecorder() if traced else None
    rnd = Round(recorder)
    os.makedirs(work_dir, exist_ok=True)
    workload = WORKLOADS[name](seed, SIZES[size], work_dir, deep)
    setup_s = setup_norm_s = wall_s = cpu_s = 0.0
    try:
        workload.setup(rnd)
        setup_s = (time.perf_counter() - started
                   - first_calibration_ms / 1e3)
        setup_norm_s = setup_s * REFERENCE_MS / (
            (first_calibration_ms + calibrate()) / 2)
        # Installed after set-up so a forked service runs unwrapped code.
        if recorder is not None:
            recorder.install()
        cpu_before = _cpu_seconds()
        try:
            wall_started = time.perf_counter()
            for _ in range(passes):
                rnd.begin_pass()
                workload.timed(rnd)
                rnd.end_pass()
                wall_s = time.perf_counter() - wall_started
                if workload.results is not None:
                    digest = digest_of(workload.results)
                    rnd.check(rnd.digest in (None, digest),
                              f"pass {len(rnd.passes)} changed the results")
                    rnd.digest = digest
        finally:
            if recorder is not None:
                recorder.uninstall()
            workload.finish(rnd)
        cpu_s = _cpu_seconds() - cpu_before
        workload.verify(rnd)
        if workload.results is not None:
            rnd.digest = digest_of(workload.results)
            pinned = golden.get(name)
            rnd.check(pinned is None or rnd.digest == pinned,
                      f"result digest {rnd.digest[:12]} != pinned "
                      f"{str(pinned)[:12]}")
        if recorder is not None and deep:
            rnd.layers["sim.kernel_events_per_s"] = probe_kernel()
            rnd.layers["mpi.matching.ops_per_s_d512"] = probe_matching()
    except Exception as exc:  # boundary: the round reports, never raises
        import traceback
        traceback.print_exc()
        rnd.check(False, f"{type(exc).__name__}: {exc}")
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    calibrations = rnd.calibrations or [REFERENCE_MS]
    record: dict[str, Any] = {
        "workload": name, "traced": traced, "deep": deep,
        "setup_s": setup_norm_s, "setup_raw_s": setup_s, "wall_s": wall_s,
        "cpu_s": cpu_s, "peak_rss_mb": _peak_rss_mb(),
        "passes": rnd.passes, "units": rnd.units,
        # Mean slowdown of the timed phase against the reference host.
        "slowdown": sum(calibrations) / len(calibrations) / REFERENCE_MS,
        "attempted": rnd.attempted, "failed": rnd.failed,
        "failures": rnd.failures, "digest": rnd.digest,
        "layers": rnd.layers, "counters": rnd.counters,
    }
    if recorder is not None:
        record["spans"] = {"calls": dict(recorder.calls),
                           "self_s": dict(recorder.self_s),
                           "total_s": dict(recorder.total_s),
                           "sim_events": recorder.sim_events}
    return record
