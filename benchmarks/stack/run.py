"""One host-time benchmark for the whole stack (see README.md here).

Driver contract (``BENCHMARK.json`` at the repository root)::

    python3 benchmarks/stack/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). Without ``--workload`` it runs every workload;
``--traced`` adds the per-layer pass, ``--self-check`` runs everything
twice (A/A), ``--out`` writes every raw sample, ``--quick`` shrinks the
work ~20x, ``--write-golden`` re-pins the result digests. Exit status
is non-zero iff some operation or output check failed.

This process only schedules and aggregates. A run is a few *rounds*,
each a fresh child interpreter (``workloads.py``): set-up, then its
share of ``--seconds`` worth of passes over the workload's timed
operations, then the checks. So every round yields an honest
``setup_s`` sample and equal result digests across rounds prove
determinism across processes. All timings are host-clock, taken on one
pinned CPU and scaled by a calibration loop timed between the operations
(``hostspeed.py`` says why); simulated results are only compared for
byte-identity.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before the imports a round pays for

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
CONTRACT = os.path.join(REPO, "BENCHMARK.json")
GOLDEN = os.path.join(HERE, "golden.json")
#: Scratch space for service state directories (inside the checkout).
WORK = os.path.join(HERE, ".work")

#: Rounds per run: four ``setup_s`` samples, and a traced run alternates
#: two untraced with two traced rounds.
ROUNDS = 4
ROUND_TIMEOUT_SECONDS = 90.0

#: What ``units_per_s`` and ``op_gmean_ms`` count on each workload (the
#: per-workload metric names of the issue that defined this benchmark).
#: ``BENCHMARK.json`` lists the gated ones; ``served_tiny`` runs only when
#: named with ``--workload`` (too unsteady on the reference host to gate,
#: see README.md).
UNITS = {
    "fig1a_eager": ("simulated messages", "sim_msgs_per_s",
                    "one run_msgrate point"),
    "fig1a_checked": ("simulated messages", "sim_msgs_per_s",
                      "one checked run_msgrate point"),
    "chaos_campaign": ("scenarios", "scenarios_per_s", "one scenario"),
    "served_fig1a": ("points", "cold_points_per_s",
                     "one cold job, submit to result document"),
    "served_tiny": ("points", "cold_points_per_s",
                    "one cold job, submit to result document"),
    "served_warm": ("cached points", "warm_points_per_s",
                    "one fully cached POST /jobs (warm_submit_p50_ms)"),
}

#: Seconds one pass of each workload takes at reference speed. A run
#: does ``--seconds`` worth of passes by this table, not by the clock:
#: the work of a run (its sample counts, the jobs its service has to
#: remember, its exact per-layer sums) is then the same on every host
#: and in every phase of the host's speed, and only its duration varies.
NOMINAL_PASS_S = {
    "fig1a_eager": 0.5, "fig1a_checked": 0.8, "chaos_campaign": 0.75,
    "served_fig1a": 0.6, "served_tiny": 0.6, "served_warm": 0.7,
}

#: Per-layer metrics: name -> kind. ``C`` is an exact count per pass that
#: must be identical in every traced round, ``T`` a wrapper-timed self
#: time per pass at reference speed (median over traced rounds), ``P`` a
#: probe or service-side reading on the raw host clock (median over the
#: rounds that took it), ``D`` derived in :func:`per_layer`.
LAYER_KINDS = {
    "sim.events": "C", "sim.events_per_msg": "C", "sim.run_self_s": "T",
    "sim.kernel_events_per_s": "P",
    "sim.sync.lock_acquires": "C", "sim.sync.contended_share": "C",
    "sim.sync.self_s": "T",
    "mpi.comm.calls": "C", "mpi.comm.self_s": "T",
    "mpi.library.calls": "C", "mpi.library.issue_self_s": "T",
    "mpi.library.deliver_self_s": "T",
    "mpi.matching.calls": "C", "mpi.matching.self_s": "T",
    "mpi.matching.scanned_per_match": "C",
    "mpi.matching.ops_per_s_d512": "P",
    "netsim.nic.issue_calls": "C", "netsim.nic.self_s": "T",
    "netsim.fabric.transmit_calls": "C", "netsim.fabric.self_s": "T",
    "netsim.topology.hops": "C", "netsim.topology.self_s": "T",
    "faults.retransmits": "C", "faults.self_s": "T",
    "check.hook_calls": "C", "check.self_s": "T",
    "snap.capture_calls": "C", "snap.capture_self_s": "T",
    "scenarios.sample_s": "P", "apps.driver_self_s": "T",
    "serve.points.expand_s": "P", "serve.points.execute_s": "P",
    "serve.protocol.encode_us": "P", "serve.protocol.decode_us": "P",
    "serve.protocol.bytes_per_point": "C",
    "serve.cache.save_us": "P", "serve.cache.load_us": "P",
    "serve.cache.hit_share": "C",
    "serve.orchestrator.point_host_ms": "P",
    "serve.orchestrator.overhead_ms_per_point": "P",
    "serve.orchestrator.requeued": "C", "serve.orchestrator.failed": "C",
    "serve.http.submit_ms": "P", "serve.http.status_ms": "P",
    "serve.http.warm_submit_p95_ms": "D",
    "trace.overhead_share": "D", "trace.attributed_share": "T",
    "host.cpu_s": "D",
}


def load_contract() -> dict[str, Any]:
    """``BENCHMARK.json``: workload names, metric names, units, bounds."""
    with open(CONTRACT, encoding="utf-8") as fh:
        return json.load(fh)


# -- one round, in a child interpreter ------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    """Body of ``--round``: run one round, print its record as JSON."""
    sys.path[:0] = [HERE, SRC]
    from hostspeed import calibrate
    first_calibration_ms = calibrate()
    from workloads import run_round
    with open(args.golden, encoding="utf-8") as fh:
        golden = json.load(fh).get(args.size, {})
    if args.no_golden:
        golden = {}
    work_dir = os.path.join(WORK, f"{args.round}-{os.getpid()}")
    record = run_round(args.round, args.seed, args.size, bool(args.trace),
                       bool(args.deep), work_dir, golden, _STARTED,
                       first_calibration_ms, args.passes)
    print(json.dumps(record))
    return 0


def start_round(name: str, seed: int, size: str, traced: bool, deep: bool,
                golden: str, passes: int = 2,
                no_golden: bool = False) -> dict[str, Any]:
    """Run one round in a fresh interpreter; returns its record. A child
    that dies or prints no record is itself one failed operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--round", name,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced)),
           "--deep", str(int(deep)), "--golden", golden,
           "--passes", str(passes)]
    if no_golden:
        cmd.append("--no-golden")
    why = ""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=ROUND_TIMEOUT_SECONDS, cwd=REPO)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        why = f"round exited {proc.returncode} without a record"
    except subprocess.TimeoutExpired:
        why = f"round exceeded {ROUND_TIMEOUT_SECONDS:.0f}s"
    except ValueError as exc:
        why = f"round printed no JSON record: {exc}"
    return {"workload": name, "traced": traced, "deep": deep, "broken": True,
            "setup_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
            "passes": [], "units": [], "slowdown": 1.0,
            "attempted": 1, "failed": 1,
            "failures": [why], "digest": None, "layers": {}, "counters": {}}


# -- aggregation ------------------------------------------------------------------
def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], share: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _geometric_mean(values: list[float]) -> float:
    """Geometric mean of positive values (0 when empty): every operation
    counts the same however long it is, so a cost added to the small
    points shows although the large ones dominate the throughput."""
    positive = [v for v in values if v > 0]
    return statistics.geometric_mean(positive) if positive else 0.0


def _passes(rounds: list[dict]) -> list[list[float]]:
    """Normalised operation times of every pass of ``rounds``."""
    return [p["norm_ms"] for r in rounds for p in r["passes"]]


def _op_times_ms(rounds: list[dict]) -> list[float]:
    """Each operation's time: the median of its normalised samples over
    every pass of every round (operation ``i`` is the same work in every
    pass of a run).

    Per operation, because a burst the calibration did not see spoils
    the operations it hits, not the pass. The median, because once the
    host's speed is divided out the samples scatter to both sides.
    """
    passes = _passes(rounds)
    if not passes:
        return []
    width = min(len(p) for p in passes)
    return [_median([p[i] for p in passes]) for i in range(width)]


def end_to_end(rounds: list[dict]) -> dict[str, dict[str, Any]]:
    """End-to-end metrics from a run's untraced rounds."""
    good = [r for r in rounds if not r.get("broken")]
    units = max((sum(r["units"]) for r in good), default=0.0)
    op_times = _op_times_ms(good)
    wall_s = sum(op_times) / 1e3
    per_pass = [units / (sum(p) / 1e3) for p in _passes(good) if sum(p) > 0]

    def entry(value: float, samples: list[float]) -> dict[str, Any]:
        return {"value": value, "q1": _percentile(samples, 0.25),
                "q3": _percentile(samples, 0.75), "n": len(samples)}
    setup = [r["setup_s"] for r in good]
    rss = [r["peak_rss_mb"] for r in good]
    return {
        "setup_s": entry(_median(setup), setup),
        "units_per_s": entry(units / wall_s if wall_s else 0.0, per_pass),
        "op_gmean_ms": entry(_geometric_mean(op_times), op_times),
        "peak_rss_mb": entry(_median(rss), rss),
    }


def _round_layers(record: dict) -> dict[str, float]:
    """Per-layer readings of one traced round, per pass: a count summed
    over ``n`` identical passes divides by ``n`` exactly, and a self
    time is the mean over the passes at reference speed."""
    spans = record.get("spans", {})
    passes = max(1, len(record["passes"]))
    calls = {k: v / passes for k, v in spans.get("calls", {}).items()}
    self_s = {k: v / passes / record["slowdown"]
              for k, v in spans.get("self_s", {}).items()}
    total_s = spans.get("total_s", {})
    count = {k: v / passes for k, v in record["counters"].items()}
    msgs = count.get("recvs_completed", 0)
    events = spans.get("sim_events", 0) / passes
    acquires = count.get("lock_acquires", 0)
    sim_total = total_s.get("sim", 0.0)
    out = {
        "sim.events": events,
        "sim.events_per_msg": events / msgs if msgs else 0.0,
        "sim.run_self_s": self_s.get("sim", 0.0),
        "sim.sync.lock_acquires": acquires,
        "sim.sync.contended_share":
            count.get("lock_contended", 0) / acquires if acquires else 0.0,
        "sim.sync.self_s": self_s.get("sim.sync", 0.0),
        "mpi.comm.calls": calls.get("mpi.comm", 0),
        "mpi.comm.self_s": self_s.get("mpi.comm", 0.0),
        "mpi.library.calls": (calls.get("mpi.library.issue", 0)
                              + calls.get("mpi.library.deliver", 0)),
        "mpi.library.issue_self_s": self_s.get("mpi.library.issue", 0.0),
        "mpi.library.deliver_self_s": self_s.get("mpi.library.deliver", 0.0),
        "mpi.matching.calls": calls.get("mpi.matching", 0),
        "mpi.matching.self_s": self_s.get("mpi.matching", 0.0),
        "mpi.matching.scanned_per_match":
            count.get("match_scans", 0) / msgs if msgs else 0.0,
        "netsim.nic.issue_calls": calls.get("netsim.nic", 0),
        "netsim.nic.self_s": self_s.get("netsim.nic", 0.0),
        "netsim.fabric.transmit_calls": calls.get("netsim.fabric", 0),
        "netsim.fabric.self_s": self_s.get("netsim.fabric", 0.0),
        "netsim.topology.hops": count.get("topo_hops", 0),
        "netsim.topology.self_s": self_s.get("netsim.topology", 0.0),
        "faults.retransmits": count.get("retransmits", 0),
        "faults.self_s": self_s.get("faults", 0.0),
        "check.hook_calls": calls.get("check", 0),
        "check.self_s": self_s.get("check", 0.0),
        "snap.capture_calls": calls.get("snap", 0),
        "snap.capture_self_s": self_s.get("snap", 0.0),
        "apps.driver_self_s": self_s.get("apps", 0.0),
        "trace.attributed_share":
            1.0 - spans.get("self_s", {}).get("sim", 0.0) / sim_total
            if sim_total else 0.0,
    }
    out.update({k: v for k, v in record["layers"].items()
                if k in LAYER_KINDS})
    return out


def per_layer(rounds: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced run, plus every ``C`` metric that
    differed between traced rounds (each is a correctness failure)."""
    traced = [r for r in rounds if r["traced"] and not r.get("broken")]
    plain = [r for r in rounds if not r["traced"] and not r.get("broken")]
    readings = [_round_layers(r) for r in traced]
    values: dict[str, float] = {}
    unstable: list[str] = []
    for name, kind in LAYER_KINDS.items():
        seen = [r[name] for r in readings if name in r]
        if kind == "C":
            values[name] = seen[0] if seen else 0.0
            if any(v != seen[0] for v in seen):
                unstable.append(f"{name} differs between traced rounds: "
                                f"{seen}")
        else:
            values[name] = _median(seen)
    plain_ms = sum(_op_times_ms(plain))
    traced_ms = sum(_op_times_ms(traced))
    values["trace.overhead_share"] = (traced_ms / plain_ms - 1.0
                                      if plain_ms else 0.0)
    values["host.cpu_s"] = _median(
        [r["cpu_s"] / len(r["passes"]) / r["slowdown"]
         for r in plain if r["passes"]])
    # When every timed operation was answered from the cache, the
    # operations are cached submits and their tail is worth a number.
    warm = values["serve.cache.hit_share"] == 1.0
    values["serve.http.warm_submit_p95_ms"] = _percentile(
        [ms for p in _passes(plain + traced) for ms in p], 0.95) if warm \
        else 0.0
    return values, unstable


# -- one run of one workload ------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str, golden: str,
                 contract: dict[str, Any]) -> dict[str, Any]:
    """Run the rounds of ``name``, ``seconds`` of passes between them
    (two each when ``--quick``), and aggregate them into the run's result.

    A traced run alternates untraced and traced rounds so the tracing
    overhead is a paired comparison on the same host state.
    """
    quick = size == "quick"
    count = 2 if quick and not trace else ROUNDS
    passes = 2 if quick else max(
        2, round(seconds / count / NOMINAL_PASS_S[name]))
    rounds: list[dict] = []
    began = time.perf_counter()
    for index in range(count):
        traced = trace and index % 2 == 1
        deep = index == (1 if trace else 0)
        rounds.append(start_round(name, seed, size, traced, deep, golden,
                                  passes))
    measured = sum(r["wall_s"] for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    digests = {r["digest"] for r in rounds if not r.get("broken")}
    attempted += 1
    if len(digests) != 1:
        failed += 1
        failures.append(f"result digests differ between rounds: "
                        f"{sorted(map(str, digests))}")
    result: dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(trace), "size": size,
        "rounds": rounds, "measured_s": measured,
        "host_s": time.perf_counter() - began,
        "digest": next(iter(digests)) if len(digests) == 1 else None,
    }
    if trace:
        values, unstable = per_layer(rounds)
        attempted += 1
        if unstable:
            failed += 1
            failures.extend(unstable)
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        result["metrics"] = {n: {"value": values[n], "unit": units[n]}
                             for n in units}
    else:
        e2e = end_to_end(rounds)
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        result["metrics"] = {n: {"value": e2e[n]["value"], "unit": units[n]}
                             for n in units}
        result["spread"] = {n: {k: e2e[n][k] for k in ("q1", "q3", "n")}
                            for n in units}
    result.update(attempted=attempted, failed=failed, failures=failures)
    return result


def print_run(result: dict[str, Any]) -> None:
    """Print every metric of one run by name, with its unit."""
    name = result["workload"]
    what, alias, op = UNITS[name]
    print(f"# {name}: seed={result['seed']} trace={result['trace']} "
          f"size={result['size']} rounds={len(result['rounds'])} "
          f"passes={sum(len(r['passes']) for r in result['rounds'])} "
          f"timed={result['measured_s']:.2f}s host={result['host_s']:.1f}s "
          f"slowdown={_median([r['slowdown'] for r in result['rounds']]):.2f}")
    for metric, doc in result["metrics"].items():
        line = f"metric {name} {metric} {doc['value']:.6g} {doc['unit']}"
        spread = result.get("spread", {}).get(metric)
        if spread:
            line += (f" q1={spread['q1']:.6g} q3={spread['q3']:.6g} "
                     f"n={spread['n']}")
        if metric == "units_per_s":
            line += f"  # {what} per host second ({alias})"
        elif metric == "op_gmean_ms":
            line += f"  # {op}"
        print(line)
    print(f"failed_share {name} {result['failed']}/{result['attempted']}")
    for failure in result["failures"]:
        print(f"FAILED {name}: {failure}")


def final_line(results: list[dict[str, Any]]) -> str:
    """The driver's last-line JSON object for one or more runs."""
    metrics: dict[str, Any] = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for metric, doc in result["metrics"].items():
            metrics[prefix + metric] = doc
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": failed, "metrics": metrics})


# -- sets, A/A, artefacts ------------------------------------------------------------
def host_facts() -> dict[str, Any]:
    """Interpreter, library and host identity for the result document."""
    from importlib import metadata
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass  # not Linux: the model stays unknown
    return {"python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(), "cpu_model": model}


def run_set(args: argparse.Namespace, contract: dict[str, Any],
            label: str) -> dict[str, Any]:
    """One full set: every selected workload untraced, then (``--traced``
    or ``--self-check``) traced. Records the load before it starts."""
    load = os.getloadavg()
    noisy = load[0] > (os.cpu_count() or 1)
    print(f"# set {label}: loadavg={load[0]:.2f} "
          f"noisy_host={str(noisy).lower()}")
    names = [args.workload] if args.workload else [
        w["name"] for w in contract["workloads"]]
    size = "quick" if args.quick else "full"
    runs = []
    for trace in ([False, True] if args.traced or args.self_check
                  else [bool(args.trace)]):
        for name in names:
            result = run_workload(name, args.seed, args.seconds, trace,
                                  size, args.golden, contract)
            print_run(result)
            sys.stdout.flush()
            runs.append(result)
    return {"label": label, "loadavg": list(load), "noisy_host": noisy,
            "runs": runs}


def self_check(first: dict, second: dict, contract: dict[str, Any]) -> int:
    """A/A: print both medians per (metric, workload); count pairs that
    disagree by more than the metric's bound and ``C`` metrics that are
    not bit-identical between the two traced passes."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    disagreements = 0
    print("# A/A: metric workload A B |B-A|/A bound")
    for a, b in zip(first["runs"], second["runs"]):
        for metric, doc in a["metrics"].items():
            va, vb = doc["value"], b["metrics"][metric]["value"]
            if a["trace"]:
                if LAYER_KINDS[metric] == "C" and va != vb:
                    disagreements += 1
                    print(f"aa {metric} {a['workload']} {va!r} {vb!r} "
                          f"COUNT DIFFERS")
                continue
            rel = abs(vb - va) / va if va else 0.0
            verdict = "ok" if rel <= bounds[metric] else "DISAGREE"
            disagreements += verdict != "ok"
            print(f"aa {metric} {a['workload']} {va:.6g} {vb:.6g} "
                  f"{rel:.4f} {bounds[metric]} {verdict}")
    print(f"# A/A disagreements: {disagreements}")
    return disagreements


def write_golden(args: argparse.Namespace) -> int:
    """Re-pin every workload's result digest at both sizes."""
    pinned: dict[str, dict[str, str]] = {}
    for size in ("full", "quick"):
        pinned[size] = {}
        for name in UNITS:
            record = start_round(name, args.seed, size, False, True,
                                 args.golden, no_golden=True)
            if record["failed"] or not record["digest"]:
                print(f"cannot pin {name} ({size}): {record['failures']}")
                return 1
            pinned[size][name] = record["digest"]
        if pinned[size]["fig1a_checked"] != pinned[size]["fig1a_eager"]:
            print("checker changed the simulated results (observer-only "
                  "invariant broken); not writing golden digests")
            return 1
    with open(args.golden, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.golden}")
    return 0


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    """Command line of the driver (and of its ``--round`` children)."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run only this workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--traced", action="store_true",
                    help="run the untraced and then the traced pass")
    ap.add_argument("--quick", action="store_true",
                    help="~1/20 work, two passes a round (smoke test)")
    ap.add_argument("--self-check", action="store_true",
                    help="A/A: two full sets, compared within the bounds")
    ap.add_argument("--out", help="write the result document (JSON) here")
    ap.add_argument("--golden", default=GOLDEN,
                    help="pinned result digests (default: golden.json)")
    ap.add_argument("--write-golden", action="store_true",
                    help="regenerate the pinned digests and exit")
    ap.add_argument("--round", help=argparse.SUPPRESS)
    ap.add_argument("--size", default="full", help=argparse.SUPPRESS)
    ap.add_argument("--deep", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--passes", type=int, default=2,
                    help=argparse.SUPPRESS)
    ap.add_argument("--no-golden", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    args = parse_args(argv)
    if args.round:
        return child_main(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"stack benchmark: no simulator source at {SRC}",
              file=sys.stderr)
        return 2
    contract = load_contract()
    if args.workload and args.workload not in UNITS:
        print(f"unknown workload {args.workload!r} (known: "
              f"{', '.join(UNITS)})", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    sys.path.insert(0, HERE)
    from hostspeed import pin_to_fastest_cpu
    print(f"# pinned to cpu {pin_to_fastest_cpu()}")
    if args.write_golden:
        return write_golden(args)
    sets = [run_set(args, contract, "A")]
    disagreements = 0
    if args.self_check:
        sets.append(run_set(args, contract, "B"))
        disagreements = self_check(sets[0], sets[1], contract)
    if args.out:
        from workloads import SIZES
        size = "quick" if args.quick else "full"
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "seed": args.seed,
                       "seconds": args.seconds, "size": size,
                       "sizes": SIZES[size], "host": host_facts(),
                       "sets": sets}, fh, indent=1)
    runs = [r for s in sets for r in s["runs"]]
    try:
        os.rmdir(WORK)
    except OSError:
        pass  # never created, or another run is still using it
    print(final_line(sets[0]["runs"]))
    return 1 if disagreements or any(r["failed"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
