"""Host-performance microbenchmarks: the simulator as the artifact.

Unlike the ``bench_fig*`` modules, which regenerate the paper's *simulated*
results, this suite measures how fast the simulator itself runs on the
host — the "runs as fast as the hardware allows" axis of the roadmap.
(For gating a change it is superseded by ``benchmarks/stack/``, see
``docs/performance.md``; this suite stays as a CI smoke.) It writes
``BENCH_kernel.json`` (``--out``; by default under ``benchmarks/results/``,
which ``.gitignore`` keeps out of the tree) with:

- ``events_per_sec`` — raw kernel throughput (timeout churn through the
  scheduler, free-list and callback dispatch) under the calendar-queue
  engine, with ``events_per_sec_heap`` for the legacy binary-heap
  reference and ``calendar_vs_heap`` as the measured speedup;
- ``matches_per_sec`` — indexed matching-engine throughput at depth, with
  the linear reference engine's throughput and the resulting speedup;
- ``messages_per_sec`` — end-to-end simulated messages per host second
  through the full MPI + fabric stack (``run_msgrate``);
- ``checker`` — the same workload with ``repro.check`` off vs on: the
  off point must track ``messages_per_sec`` (disabled checker = one
  ``is not None`` test on the hot paths), the on point prices the
  hooks, and the simulated message rate is asserted identical both
  ways (observer-only invariant);
- ``analyzer`` — static-analyzer throughput (``repro analyze``) over
  the shipped driver corpus: files/sec and findings scanned, gated at
  the same >30% budget when present in the baseline;
- ``fig1a_sweep`` — wall-clock of the full Fig 1(a) mode×cores sweep,
  serial and across ``--jobs`` worker processes, each point annotated
  with the host CPU count (sub-unity speedups with ``jobs > cpu_count``
  are flagged ``expected_on_host`` — oversubscription, not regression);
- ``fat_tree_collectives`` — host throughput of a 16-host
  ``fat_tree(k=4)`` allreduce through the routed topology layer
  (gated at the same >30% budget when present in the baseline);
- ``memo_sweep`` — the warm-prefix memoized Fig 1(a) executor, cold
  (empty cache) then warm (populated cache): the cold points/sec is
  gated at the 30% budget, and the warm pass must re-simulate exactly
  zero warm-ups (a hard invariant, not a tolerance);
- ``serve`` — a small sweep job submitted through a real forked
  service (``repro serve``: orchestrator + HTTP + workers): served
  points/sec cold is gated at the 30% budget, and resubmitting the
  identical job must hit the warm result cache 100% (invariant).

Standalone (this is what CI's perf-smoke job runs)::

    PYTHONPATH=src python benchmarks/bench_kernel.py \
        --out "$RUNNER_TEMP/BENCH_kernel.json" \
        --check-against benchmarks/baselines/bench_kernel_baseline.json

``--check-against`` fails (exit 1) if any row of :data:`GATES` does not
hold against the committed baseline (throughputs within 30%, cache
invariants exact). ``--quick`` shrinks every workload for smoke runs.

See ``docs/performance.md`` for how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

import numpy as np

#: Committed reference numbers (see --check-against).
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "baselines", "bench_kernel_baseline.json")
RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "results", "BENCH_kernel.json")

#: Maximum tolerated events/sec regression vs the baseline (fraction).
REGRESSION_BUDGET = 0.30


# ---------------------------------------------------------------------------
# events/sec: raw kernel throughput
# ---------------------------------------------------------------------------
def bench_events(n_procs: int = 8, timeouts_per_proc: int = 50_000,
                 repeats: int = 3, engine: Optional[str] = None) -> float:
    """Time raw kernel event throughput (timeout churn).

    ``engine`` selects the event-loop implementation (``"calendar"`` —
    the default engine — or ``"heap"``, the legacy reference); ``None``
    follows ``REPRO_SIM_ENGINE``.
    """
    from repro.sim.calendar import make_simulator

    def ping(sim, n):
        for _ in range(n):
            yield sim.timeout(1e-9)

    best = 0.0
    for _ in range(repeats):
        sim = make_simulator(engine)
        for _ in range(n_procs):
            sim.spawn(ping(sim, timeouts_per_proc))
        t0 = time.perf_counter()
        sim.run()
        best = max(best, sim.steps / (time.perf_counter() - t0))
    return best


# ---------------------------------------------------------------------------
# matches/sec: matching-engine throughput at queue depth
# ---------------------------------------------------------------------------
def _matching_workload(engine_cls, depth: int, rounds: int) -> float:
    """Post ``depth`` receives, then ``rounds`` arrivals that match the
    queue *tail* (the linear engine's worst case); returns ops/sec."""
    from repro.mpi.matching import PostedRecv
    from repro.netsim.message import MessageKind, WireMessage

    engine = engine_cls()
    buf = np.zeros(1, dtype=np.uint8)

    def post(tag):
        engine.post_recv(PostedRecv(req=None, buf=buf, count=1,
                                    context_id=0, source=0, tag=tag,
                                    dst_addr=0))

    def arrive(tag):
        return engine.incoming(WireMessage(
            kind=MessageKind.EAGER, src_node=0, dst_node=0, src_rank=0,
            dst_rank=0, context_id=0, tag=tag, size=1, payload=None,
            meta={"src_addr": 0, "dst_addr": 0}))

    for tag in range(depth):
        post(tag)
    tail = depth - 1  # each round matches the newest post, then re-posts
    ops = 0
    t0 = time.perf_counter()
    for _ in range(rounds):
        entry, scanned = arrive(tail)
        assert entry is not None and scanned == depth
        post(tail)
        ops += 2
    return ops / (time.perf_counter() - t0)


def bench_matching(depth: int = 512, rounds: int = 2_000,
                   repeats: int = 3) -> dict:
    """Time the matching engines on a synthetic post/match stream."""
    from repro.mpi.matching import LinearMatchingEngine, MatchingEngine

    indexed = max(_matching_workload(MatchingEngine, depth, rounds)
                  for _ in range(repeats))
    linear = max(_matching_workload(LinearMatchingEngine, depth, rounds)
                 for _ in range(repeats))
    return {"depth": depth,
            "matches_per_sec": round(indexed),
            "linear_matches_per_sec": round(linear),
            "indexed_vs_linear": round(indexed / linear, 2)}


# ---------------------------------------------------------------------------
# messages/sec: the full stack
# ---------------------------------------------------------------------------
def bench_messages(cores: int = 8, msgs_per_core: int = 256,
                   repeats: int = 3) -> float:
    """Time end-to-end message delivery through the full stack."""
    from repro.bench import MsgRateConfig, run_msgrate
    from repro.netsim import NetworkConfig

    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        r = run_msgrate(MsgRateConfig(mode="threads-endpoints", cores=cores,
                                      msgs_per_core=msgs_per_core),
                        net=NetworkConfig.omnipath())
        best = max(best, r.messages / (time.perf_counter() - t0))
    return best


# ---------------------------------------------------------------------------
# checker overhead: host cost of repro.check, zero simulated-time cost
# ---------------------------------------------------------------------------
def bench_checker(cores: int = 8, msgs_per_core: int = 256,
                  repeats: int = 3) -> dict:
    """Host throughput of the message workload with the correctness
    checker off vs on.

    With the checker off the hot paths test a single ``is not None`` —
    the off point must track ``messages_per_sec``. The on point measures
    the real host cost of the vector-clock and semantics hooks. Either
    way the *simulated* result must be byte-identical (observer-only
    invariant); this benchmark asserts it on every repeat.
    """
    from repro.bench import MsgRateConfig, run_msgrate
    from repro.check import CheckConfig, checking
    from repro.netsim import NetworkConfig

    cfg = MsgRateConfig(mode="threads-endpoints", cores=cores,
                        msgs_per_core=msgs_per_core)
    net = NetworkConfig.omnipath()

    best_off = best_on = 0.0
    rate_off = rate_on = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        r = run_msgrate(cfg, net=net)
        best_off = max(best_off, r.messages / (time.perf_counter() - t0))
        rate_off = r.rate

        t0 = time.perf_counter()
        with checking(CheckConfig(emit_warnings=False)) as session:
            r = run_msgrate(cfg, net=net)
        best_on = max(best_on, r.messages / (time.perf_counter() - t0))
        rate_on = r.rate
        assert session.report().clean, session.report().render()
        # observer-only invariant: identical simulated message rate
        assert rate_on == rate_off, (rate_on, rate_off)

    return {"messages_per_sec_off": round(best_off),
            "messages_per_sec_on": round(best_on),
            "host_overhead": round(best_off / best_on, 2),
            "simulated_rate_identical": rate_on == rate_off}


# ---------------------------------------------------------------------------
# analyzer throughput: repro analyze over the shipped corpus
# ---------------------------------------------------------------------------
def bench_analyzer(repeats: int = 3) -> dict:
    """Host throughput of the static analyzer over the driver corpus.

    Analyzes every ``repro.apps``/``repro.bench`` source (the same set
    the CI ``analyze-corpus`` job gates) and reports files and source
    lines per host second. The corpus must stay clean — a finding here
    is a correctness regression, not a perf number.
    """
    import glob

    import repro.apps as apps_pkg
    import repro.bench as bench_pkg
    from repro.check import analyze_paths

    paths = []
    for pkg in (apps_pkg, bench_pkg):
        pkg_dir = os.path.dirname(os.path.abspath(pkg.__file__))
        paths += sorted(glob.glob(os.path.join(pkg_dir, "**", "*.py"),
                                  recursive=True))
    lines = sum(len(open(p, "rb").read().splitlines()) for p in paths)

    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = analyze_paths(paths)
        best = max(best, len(paths) / (time.perf_counter() - t0))
        assert report.clean, report.render()
    return {"files": len(paths),
            "source_lines": lines,
            "files_per_sec": round(best, 2),
            "lines_per_sec": round(lines * best / len(paths))}


# ---------------------------------------------------------------------------
# fig1a sweep wall-clock, serial and fanned out
# ---------------------------------------------------------------------------
def _fig1a_point(mode: str, cores: int, msgs_per_core: int) -> float:
    from repro.bench import MsgRateConfig, run_msgrate
    from repro.netsim import NetworkConfig

    return run_msgrate(MsgRateConfig(mode=mode, cores=cores,
                                     msgs_per_core=msgs_per_core),
                       net=NetworkConfig.omnipath()).rate


def bench_fig1a_sweep(jobs_list=(1, 2, 4), msgs_per_core: int = 64) -> dict:
    """Time the fig1a sweep at increasing --jobs fan-out."""
    from repro.bench import scaling_run

    modes = ("everywhere", "threads-original", "threads-tags",
             "threads-comms", "threads-endpoints")
    cores = (1, 2, 4, 8, 16, 32, 64)
    points = [{"mode": m, "cores": c, "msgs_per_core": msgs_per_core}
              for m in modes for c in cores]
    walls = scaling_run(_fig1a_point, points, jobs_list)
    serial = walls.get(1, walls[min(walls)])["wall_sec"]
    speedups = {j: serial / rec["wall_sec"] for j, rec in walls.items()}
    # Sub-unity speedup with more workers than CPUs is the host's fault,
    # not a scaling regression — flag it so the CI gate ignores it.
    expected = {j: speedups[j] < 1.0 and j > rec["cpu_count"]
                for j, rec in walls.items()}
    return {"points": len(points),
            "wall_sec": {str(j): round(rec["wall_sec"], 3)
                         for j, rec in walls.items()},
            "speedup_vs_serial": {str(j): round(s, 2)
                                  for j, s in speedups.items()},
            "expected_on_host": {str(j): flag
                                 for j, flag in expected.items() if flag},
            "cpu_count": {str(j): rec["cpu_count"]
                          for j, rec in walls.items()}}


# ---------------------------------------------------------------------------
# fat-tree collectives: host throughput of the routed-topology stack
# ---------------------------------------------------------------------------
def bench_fat_tree_collectives(elems: int = 1 << 13, repeats: int = 3) -> dict:
    """Host performance of a 16-host fat_tree(k=4) allreduce.

    Times how fast the host simulates ring and recursive-doubling
    allreduces through the hop-by-hop routed fabric (link FIFOs, D-mod-k
    next-hop walks). The simulated times are reported too, as a
    determinism cross-check for the topology layer; the regression gate
    tracks only the host rate.
    """
    from repro.netsim import ClusterSpec
    from repro.runtime import World

    def simulate(algorithm: str) -> float:
        world = World(cluster=ClusterSpec(nodes=16, topology="fat_tree",
                                          k=4), seed=0)

        def node(proc):
            comm = proc.comm_world
            comm.set_coll_algorithm("allreduce", algorithm)
            out = np.zeros(elems)
            yield from comm.Allreduce(
                np.full(elems, float(proc.rank)), out)

        world.run_all([p.spawn(node(p)) for p in world.procs])
        return world.sim.now

    best = 0.0
    sim_times = {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        for algorithm in ("ring", "recursive_doubling"):
            sim_times[algorithm] = simulate(algorithm)
        best = max(best, 2 / (time.perf_counter() - t0))
    return {"allreduces_per_sec": round(best, 2),
            "sim_us_ring": round(sim_times["ring"] * 1e6, 3),
            "sim_us_recursive_doubling":
                round(sim_times["recursive_doubling"] * 1e6, 3)}


def bench_memo_sweep(msgs_list=(16, 32, 64), cores: int = 4) -> dict:
    """Time the warm-prefix memoized Fig 1(a) executor, cold then warm.

    The cold pass simulates one warm-up per unique (mode, cores) prefix
    and forks per point; the warm pass replays the identical sweep
    against the populated cache and must re-simulate **zero** warm-ups
    (``warm_resimulated_warmups`` is gated at exactly 0, not a
    percentage — it is an invariant, not a throughput).
    """
    import shutil
    import tempfile

    from repro.bench.memo import MemoStats, fig1a_executor

    modes = ("everywhere", "threads-tags", "threads-endpoints")
    points = [{"mode": m, "cores": cores, "msgs_per_core": n}
              for m in modes for n in msgs_list]
    cache = tempfile.mkdtemp(prefix="bench-memo-")
    try:
        cold_stats = MemoStats()
        t0 = time.perf_counter()
        cold = fig1a_executor(cache_dir=cache).run(points, stats=cold_stats)
        cold_sec = time.perf_counter() - t0
        warm_stats = MemoStats()
        t0 = time.perf_counter()
        warm = fig1a_executor(cache_dir=cache).run(points, stats=warm_stats)
        warm_sec = time.perf_counter() - t0
        assert warm == cold, "memoized sweep results changed across runs"
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return {"points": len(points),
            "points_per_sec_cold": round(len(points) / cold_sec, 2),
            "points_per_sec_warm": round(len(points) / warm_sec, 2),
            "warm_speedup": round(cold_sec / warm_sec, 2),
            "warm_resimulated_warmups": warm_stats.warmups_simulated,
            "cold": cold_stats.as_dict(),
            "warm": warm_stats.as_dict()}


def bench_serve(msgs_list=(8, 16, 24), workers: int = 2) -> dict:
    """Host throughput of the serve pipeline (served points/sec).

    Spawns a real service (orchestrator + HTTP API + forked workers) on
    a throwaway state dir, submits a small Fig 1(a)-style sweep job and
    times submit-to-done — the full protocol round-trip per point. A
    resubmission of the identical job must then be answered entirely
    from the warm result cache (``warm_hit_rate`` is gated at exactly
    1.0, an invariant like the memo sweep's zero re-warm-ups).
    """
    import shutil
    import tempfile

    from repro.serve.service import spawn_service

    spec = {"params": {"mode": ["everywhere", "threads-tags"],
                       "cores": [1, 2],
                       "msgs_per_core": list(msgs_list),
                       "window": [4]}}
    state = tempfile.mkdtemp(prefix="bench-serve-")
    try:
        handle = spawn_service(state, workers=workers, oversubscribe=True,
                               heartbeat=0.2, heartbeat_timeout=10.0)
        try:
            client = handle.client()
            t0 = time.perf_counter()
            job = client.submit("sweep", spec)
            client.wait(job["job_id"], timeout=600)
            cold_sec = time.perf_counter() - t0
            total = job["total"]
            t0 = time.perf_counter()
            again = client.submit("sweep", spec)
            warm_sec = time.perf_counter() - t0
            assert again["status"] == "done", again
            hits = again["cache_hits"]
        finally:
            handle.stop()
    finally:
        shutil.rmtree(state, ignore_errors=True)
    return {"points": total,
            "workers": workers,
            "points_per_sec_cold": round(total / cold_sec, 2),
            "points_per_sec_warm": round(total / max(warm_sec, 1e-9), 2),
            "warm_hit_rate": round(hits / total, 2)}


def bench_campaign(n: int = 12, repeats: int = 2) -> dict:
    """Host throughput of the chaos-campaign executor (scenarios/sec).

    Runs the first ``n`` sampled scenarios of a fixed seed through
    ``run_scenario`` (analyzer + snapshot recorder + classification, no
    checkpointing). The sampled mix exercises every app driver, the
    fault injector and the background-traffic module, so this point
    tracks the end-to-end cost the campaign runner pays per scenario.
    The digest of the outcome stream doubles as a determinism check.
    """
    import hashlib

    from repro.scenarios import run_scenario, sample_scenarios

    specs = sample_scenarios(1, n)
    best = 0.0
    digest = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        outcomes = [run_scenario(spec) for spec in specs]
        best = max(best, n / (time.perf_counter() - t0))
        blob = json.dumps(outcomes, sort_keys=True).encode()
        this = hashlib.sha256(blob).hexdigest()[:16]
        assert digest is None or digest == this, \
            "campaign outcomes changed across identical repeats"
        digest = this
    statuses = sorted({o["status"] for o in outcomes})
    return {"scenarios_per_sec": round(best, 2),
            "outcome_digest": digest,
            "statuses": statuses}


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------
def run_suite(quick: bool = False, jobs_list=(1, 2, 4)) -> dict:
    """Run every micro-bench and render the results table."""
    scale = 10 if quick else 1
    events = bench_events(timeouts_per_proc=50_000 // scale,
                          repeats=2 if quick else 3, engine="calendar")
    events_heap = bench_events(timeouts_per_proc=50_000 // scale,
                               repeats=2 if quick else 3, engine="heap")
    matching = bench_matching(rounds=2_000 // scale,
                              repeats=2 if quick else 3)
    messages = bench_messages(msgs_per_core=256 // scale,
                              repeats=2 if quick else 3)
    checker = bench_checker(msgs_per_core=256 // scale,
                            repeats=2 if quick else 3)
    analyzer = bench_analyzer(repeats=2 if quick else 3)
    sweep = bench_fig1a_sweep(jobs_list=jobs_list,
                              msgs_per_core=64 // (scale if quick else 1))
    memo = bench_memo_sweep(msgs_list=(16, 32) if quick else (16, 32, 64))
    fat_tree = bench_fat_tree_collectives(elems=(1 << 13) // scale,
                                          repeats=2 if quick else 3)
    campaign = bench_campaign(n=6 if quick else 12,
                              repeats=2 if quick else 3)
    serve = bench_serve(msgs_list=(8, 16) if quick else (8, 16, 24))
    return {
        "schema": 2,
        "python": sys.version.split()[0],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "engine": "calendar",
        "events_per_sec": round(events),
        "events_per_sec_heap": round(events_heap),
        "calendar_vs_heap": round(events / events_heap, 2),
        "matching": matching,
        "messages_per_sec": round(messages),
        "checker": checker,
        "analyzer": analyzer,
        "fig1a_sweep": sweep,
        "memo_sweep": memo,
        "fat_tree_collectives": fat_tree,
        "campaign": campaign,
        "serve": serve,
    }


#: What ``--check-against`` gates, as ``(json path, kind, budget)`` rows.
#: A ``floor`` row fails when the measured value is more than ``budget``
#: (a fraction) below the baseline's; an ``equals`` row is an invariant,
#: not a throughput, and ``budget`` is the value it must have (a warm
#: cache never re-simulates; an identical served job executes nothing).
#: Rows whose top-level section the baseline lacks are skipped.
GATES: tuple[tuple[str, str, float], ...] = (
    ("events_per_sec", "floor", REGRESSION_BUDGET),
    ("fat_tree_collectives.allreduces_per_sec", "floor", REGRESSION_BUDGET),
    ("campaign.scenarios_per_sec", "floor", REGRESSION_BUDGET),
    ("analyzer.files_per_sec", "floor", REGRESSION_BUDGET),
    ("memo_sweep.points_per_sec_cold", "floor", REGRESSION_BUDGET),
    ("memo_sweep.warm_resimulated_warmups", "equals", 0),
    ("serve.points_per_sec_cold", "floor", REGRESSION_BUDGET),
    ("serve.warm_hit_rate", "equals", 1.0),
)


def _at(doc: dict, path: str):
    """``doc["a"]["b"]`` for the dotted ``path`` ``"a.b"``."""
    for key in path.split("."):
        doc = doc[key]
    return doc


def check_against(result: dict, baseline_path: str) -> bool:
    """True when every :data:`GATES` row holds against the baseline."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    ok = True
    for path, kind, budget in GATES:
        if path.split(".")[0] not in baseline:
            continue
        got = _at(result, path)
        if kind == "equals":
            passed = got == budget
            print(f"{path}: {got} (must be {budget}) -> "
                  f"{'OK' if passed else 'BROKEN'}")
        else:
            ref = _at(baseline, path)
            floor = ref * (1.0 - budget)
            passed = got >= floor
            print(f"{path}: measured {got:,} vs baseline {ref:,} "
                  f"(floor {floor:,.2f}) -> "
                  f"{'OK' if passed else 'REGRESSION'}")
        ok = ok and passed
    return ok


def main(argv: Optional[list] = None) -> int:
    """CLI entry point: run the kernel micro-bench suite."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", default=RESULTS,
                    help="where to write BENCH_kernel.json")
    ap.add_argument("--check-against", metavar="PATH", default=None,
                    help="baseline JSON; exit 1 if a gated throughput "
                         f"regressed >{REGRESSION_BUDGET:.0%} or a cache "
                         "invariant broke")
    ap.add_argument("--quick", action="store_true",
                    help="shrink workloads ~10x (CI smoke)")
    ap.add_argument("--jobs", nargs="+", type=int, default=[1, 2, 4],
                    help="worker counts to time the fig1a sweep at")
    args = ap.parse_args(argv)

    result = run_suite(quick=args.quick, jobs_list=tuple(args.jobs))
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"[written to {args.out}]")
    if args.check_against:
        return 0 if check_against(result, args.check_against) else 1
    return 0


# ---------------------------------------------------------------------------
# pytest entry point (quick variant, so `pytest benchmarks/` covers it)
# ---------------------------------------------------------------------------
def test_kernel_microbench(benchmark, tmp_path) -> None:
    """Pytest wrapper: the micro-bench suite runs and reports."""
    out = tmp_path / "BENCH_kernel.json"
    assert main(["--quick", "--jobs", "1", "2",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["events_per_sec"] > 0
    assert data["matching"]["indexed_vs_linear"] > 1.0
    assert data["messages_per_sec"] > 0
    assert data["checker"]["simulated_rate_identical"]
    assert data["checker"]["messages_per_sec_on"] > 0
    assert data["analyzer"]["files_per_sec"] > 0
    assert data["analyzer"]["files"] > 10
    assert data["fat_tree_collectives"]["allreduces_per_sec"] > 0
    assert data["campaign"]["scenarios_per_sec"] > 0
    assert data["campaign"]["outcome_digest"]
    assert data["events_per_sec_heap"] > 0
    assert data["calendar_vs_heap"] > 0
    serve = data["serve"]
    assert serve["points_per_sec_cold"] > 0
    assert serve["warm_hit_rate"] == 1.0
    memo = data["memo_sweep"]
    assert memo["warm_resimulated_warmups"] == 0
    assert memo["points_per_sec_cold"] > 0
    assert memo["cold"]["warmups_simulated"] == \
        memo["cold"]["unique_prefixes"]
    # topology layer stays deterministic: ring != RD schedules
    assert data["fat_tree_collectives"]["sim_us_ring"] \
        != data["fat_tree_collectives"]["sim_us_recursive_doubling"]
    sweep = data["fig1a_sweep"]
    for j, flag in sweep.get("expected_on_host", {}).items():
        assert flag and sweep["speedup_vs_serial"][j] < 1.0
        assert int(j) > sweep["cpu_count"][j]
    benchmark.extra_info["events_per_sec"] = data["events_per_sec"]
    benchmark.pedantic(bench_events, kwargs={"timeouts_per_proc": 5_000,
                                             "repeats": 1},
                       rounds=2, iterations=1, warmup_rounds=0)


if __name__ == "__main__":
    sys.exit(main())
