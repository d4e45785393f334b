"""Command-line experiment runner.

Reproduce any of the paper's experiments without pytest::

    python -m repro msgrate --modes everywhere threads-original --cores 1 8
    python -m repro sweep msgrate --jobs 4 --csv fig1a.csv
    python -m repro profile msgrate --modes everywhere --cores 8
    python -m repro stencil --mechanisms original endpoints --points 9
    python -m repro faults stencil --plan drop=0.05,dup=0.02 --seed 1
    python -m repro legion --threads 8
    python -m repro circuit
    python -m repro graph --churn 0.5
    python -m repro nwchem
    python -m repro vasp --elems 32768
    python -m repro device
    python -m repro scope
    python -m repro resources --grid 4 4 4
    python -m repro check examples/quickstart.py
    python -m repro analyze examples/quickstart.py
    python -m repro analyze --corpus --crossval --sarif out.sarif
    python -m repro replay examples/quickstart.py --until 2e-5
    python -m repro replay prog.py --to-finding CHK102
    python -m repro lint
    python -m repro campaign run out/ --seed 1 -n 200
    python -m repro campaign resume out/
    python -m repro campaign report out/
    python -m repro campaign replay out/artifacts/fail-0001-*.yaml
    python -m repro serve --state-dir .repro-serve
    python -m repro submit job.yaml --result
    python -m repro jobs

Every command prints a plain-text table; add ``--seed`` where supported.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .bench.msgrate import MODES, MsgRateConfig, run_msgrate
from .bench.report import Table

__all__ = ["main", "build_parser"]


def _cmd_msgrate(args) -> int:
    table = Table("message rate (M msg/s)", ["mode", "cores", "rate"],
                  widths=[20, 6, 10])
    for mode in args.modes:
        for cores in args.cores:
            r = run_msgrate(MsgRateConfig(mode=mode, cores=cores,
                                          msgs_per_core=args.messages))
            table.add(mode, cores, f"{r.rate / 1e6:.2f}")
    print(table.render())
    return 0


def _cmd_sweep(args) -> int:
    import time

    from .bench.sweep import Sweep, SweepRow
    from .serve import run_local

    sweep = Sweep(name=f"{args.experiment} sweep",
                  params={"mode": args.modes, "cores": args.cores})
    spec = {"experiment": args.experiment,
            "params": {**sweep.params, "msgs_per_core": [args.messages],
                       "seed": [args.seed]}}
    t0 = time.perf_counter()
    doc = run_local(args.checkpoint_dir, "sweep", spec, workers=args.jobs)[0]
    wall = time.perf_counter() - t0
    rate = {(point["mode"], point["cores"]): result["rate_Mmsgs"]
            for point, result in zip(doc["points"], doc["results"])}
    rows = [SweepRow(point, {"rate_Mmsgs": rate[point["mode"],
                                                point["cores"]]})
            for point in sweep.points]
    print(sweep.pivot(rows, index="cores", column="mode",
                      value="rate_Mmsgs").render())
    print(f"[{len(rows)} points in {wall:.2f}s host wall-clock, "
          f"jobs={args.jobs}]")
    if args.csv:
        sweep.to_csv(rows, args.csv)
        print(f"[csv written to {args.csv}]")
    return 0


def _cmd_profile(args) -> int:
    from .obs import (
        MetricsRegistry,
        Tracer,
        export_chrome_trace,
        render_metrics_report,
        render_report,
    )
    combos = [(mode, cores) for mode in args.modes for cores in args.cores]
    for mode, cores in combos:
        metrics = MetricsRegistry()
        tracer = Tracer()
        r = run_msgrate(MsgRateConfig(mode=mode, cores=cores,
                                      msgs_per_core=args.messages,
                                      seed=args.seed),
                        metrics=metrics, tracer=tracer)
        print(f"== {args.experiment} mode={mode} cores={cores} "
              f"rate={r.rate / 1e6:.2f} M msg/s span={r.span * 1e6:.2f} us ==")
        if args.full:
            print(render_metrics_report(metrics))
        else:
            print(render_report(metrics))
        if args.chrome_trace:
            path = args.chrome_trace
            if len(combos) > 1:
                stem, dot, ext = path.rpartition(".")
                path = (f"{stem}.{mode}.c{cores}.{ext}" if dot
                        else f"{path}.{mode}.c{cores}")
            export_chrome_trace(tracer, path, metrics=metrics)
            print(f"chrome trace written to {path} "
                  f"({len(tracer)} records)")
        print()
    return 0


def _stencil_configs(args):
    """One StencilConfig per requested mechanism, or None (after printing
    why) when the grids do not fit the stencil's dimension."""
    from .apps.stencil import StencilConfig
    dim = 2 if args.points in (5, 9) else 3
    if len(args.procs) != dim or len(args.threads) != dim:
        print(f"error: {args.points}-pt stencils need {dim}-D --procs/"
              f"--threads (e.g. {'2 2' if dim == 2 else '2 2 2'})",
              file=sys.stderr)
        return None
    return [StencilConfig(proc_grid=tuple(args.procs),
                          thread_grid=tuple(args.threads),
                          pnx=args.patch, pny=args.patch, pnz=args.patch,
                          stencil_points=args.points, iters=args.iters,
                          mechanism=mech, seed=args.seed)
            for mech in args.mechanisms]


def _stencil_arguments(parser, mechanisms, threads, points, iters) -> None:
    """The flags :func:`_stencil_configs` reads."""
    parser.add_argument("--mechanisms", nargs="+", default=mechanisms)
    parser.add_argument("--procs", nargs="+", type=int, default=[2, 2])
    parser.add_argument("--threads", nargs="+", type=int, default=threads)
    parser.add_argument("--points", type=int, default=points,
                        choices=(5, 9, 7, 27))
    parser.add_argument("--patch", type=int, default=6)
    parser.add_argument("--iters", type=int, default=iters)
    parser.add_argument("--seed", type=int, default=0)


def _cmd_stencil(args) -> int:
    from .apps.stencil import run_stencil
    configs = _stencil_configs(args)
    if configs is None:
        return 2
    table = Table("stencil halo exchange",
                  ["mechanism", "wall(us)", "halo(us)", "resources",
                   "vcis", "correct"],
                  widths=[14, 9, 9, 10, 5, 8])
    for cfg in configs:
        r = run_stencil(cfg)
        table.add(cfg.mechanism, f"{r.wall_time * 1e6:.1f}",
                  f"{r.halo_time * 1e6:.1f}", r.resources_created,
                  r.vcis_used, r.correct)
    print(table.render())
    return 0


def _cmd_faults(args) -> int:
    from .apps.stencil import run_stencil
    from .errors import FaultPlanError, TransportError
    from .faults import parse_plan, render_reliability_report
    from .obs import MetricsRegistry, render_vci_report
    try:
        plan = parse_plan(args.plan)
    except (FaultPlanError, ValueError) as exc:
        print(f"error: bad fault plan: {exc}", file=sys.stderr)
        return 2
    configs = _stencil_configs(args)
    if configs is None:
        return 2
    print(f"fault plan: {plan.describe()} (seed={args.seed})\n")
    table = Table("stencil on a lossy fabric",
                  ["mechanism", "wall(us)", "retransmits", "faults",
                   "correct"],
                  widths=[14, 9, 11, 7, 8])
    failed = False
    for cfg in configs:
        mech = cfg.mechanism
        metrics = MetricsRegistry()
        try:
            r = run_stencil(cfg, metrics=metrics, faults=plan)
        except TransportError as exc:
            print(f"== mechanism: {mech} ==\ntransport gave up: {exc}\n",
                  file=sys.stderr)
            table.add(mech, "-", "-", "-", False)
            failed = True
            continue
        world = r.world
        world.finalize_metrics()
        retransmits = sum(p.lib.transport.retransmits for p in world.procs)
        injected = sum(v for k, v in world.injector.summary().items()
                       if k != "messages_seen")
        table.add(mech, f"{r.wall_time * 1e6:.1f}", retransmits, injected,
                  r.correct)
        failed = failed or not r.correct
        print(f"== mechanism: {mech} ==")
        print(render_reliability_report(world))
        print()
        print(render_vci_report(metrics))
        print()
    print(table.render())
    return 1 if failed else 0


#: The fixed-mechanism app subcommands, one row each: help, table title,
#: columns ``(header, width)``, flags ``(flag, default, config field)``
#: and ``cells(result)`` for the columns after the mechanism. The config
#: class, driver and mechanism list come from the scenario layer's
#: ``APP_REGISTRY`` row of the same name.
_APP_COMMANDS = {
    "legion": (
        "event-runtime polling (Fig 5)", "event-runtime polling",
        [("mechanism", 14), ("rate(M/s)", 10), ("cost/evt(ns)", 13),
         ("probes/evt", 11)],
        [("--nodes", 3, "num_nodes"), ("--threads", 8, "task_threads"),
         ("--messages", 12, "msgs_per_thread")],
        lambda r: (f"{r.polling_rate / 1e6:.2f}",
                   f"{r.polling_cost_per_event * 1e9:.0f}",
                   f"{r.probes_per_event:.1f}")),
    "circuit": (
        "Legion circuit proxy (Fig 1c)", "Legion circuit proxy",
        [("mechanism", 14), ("time/step(us)", 14)],
        [("--nodes", 3, "num_nodes"), ("--threads", 8, "task_threads"),
         ("--steps", 5, "timesteps"), ("--wires", 16, "wires_per_thread")],
        lambda r: (f"{r.time_per_step * 1e6:.1f}",)),
    "graph": (
        "dynamic graph proxy (Lesson 5)",
        "dynamic graph communication (Vite proxy)",
        [("mechanism", 14), ("exchange(us)", 13), ("messages", 9),
         ("conflicts", 10)],
        [("--nodes", 3, "num_nodes"), ("--threads", 4, "threads_per_proc"),
         ("--vertices", 120, "graph_vertices"), ("--iters", 3, "iters"),
         ("--churn", 0.3, "churn"), ("--seed", 0, "seed")],
        lambda r: (f"{r.exchange_time * 1e6:.1f}", r.remote_messages,
                   r.comm_conflicts)),
    "nwchem": (
        "RMA get-compute-update (Fig 6)", "get-compute-update over RMA",
        [("mechanism", 15), ("wall(us)", 9), ("channels", 9),
         ("imbalance", 10)],
        [("--nodes", 3, "num_nodes"), ("--threads", 8, "threads_per_proc"),
         ("--tasks", 6, "tasks_per_thread"), ("--seed", 0, "seed")],
        lambda r: (f"{r.wall_time * 1e6:.1f}", r.channels_used,
                   f"{r.channel_imbalance:.2f}")),
    "vasp": (
        "multithreaded allreduce (Fig 7)", "multithreaded allreduce",
        [("mechanism", 13), ("t/allreduce(us)", 16),
         ("result KiB/node", 16)],
        [("--nodes", 4, "num_nodes"), ("--threads", 8, "threads_per_proc"),
         ("--elems", 1 << 14, "elems"), ("--repeats", 2, "repeats")],
        lambda r: (f"{r.time_per_allreduce * 1e6:.1f}",
                   r.result_bytes_per_node // 1024)),
    "device": (
        "device-initiated comm (Lesson 20)",
        "device-initiated communication (Lesson 20)",
        [("mechanism", 19), ("time/step(us)", 14), ("kernel launches", 16)],
        [("--blocks", 8, "blocks"), ("--steps", 6, "timesteps")],
        lambda r: (f"{r.time_per_step * 1e6:.2f}", r.kernel_launches)),
}


def _cmd_app(args) -> int:
    """Run one proxy app under each of its mechanisms."""
    from .scenarios.apps import APP_REGISTRY
    _help, title, columns, flags, cells = _APP_COMMANDS[args.command]
    adapter = APP_REGISTRY[args.command]
    config_cls, driver = adapter.load()
    fields = {field: getattr(args, flag.lstrip("-"))
              for flag, _default, field in flags}
    table = Table(title, [name for name, _ in columns],
                  widths=[width for _, width in columns])
    for mech in adapter.mechanisms:
        table.add(mech, *cells(driver(config_cls(mechanism=mech, **fields))))
    print(table.render())
    return 0


def _cmd_scope(args) -> int:
    from .analysis import render_table, render_usability, stencil_usability
    from .mapping import STENCIL_2D_5PT, StencilGeometry
    print(render_table())
    print()
    geom = StencilGeometry((3, 3), tuple(args.threads), STENCIL_2D_5PT)
    print(render_usability(stencil_usability(geom)))
    return 0


def _cmd_resources(args) -> int:
    from .mapping import (
        communicator_overhead_ratio_3d27,
        communicators_required_3d27,
        min_channels_3d27,
    )
    x, y, z = args.grid
    print(f"3D 27-pt stencil, [{x},{y},{z}] threads per process:")
    print(f"  communicators required : {communicators_required_3d27(x, y, z)}")
    print(f"  channels needed        : {min_channels_3d27(x, y, z)}")
    print(f"  overhead               : "
          f"{communicator_overhead_ratio_3d27(x, y, z):.1f}x")
    return 0


def _cmd_check(args) -> int:
    """Run a program with the correctness checker on every World."""
    from .check import CheckConfig, checking
    from .check.session import run_program

    if args.list_rules:
        from .check.rules import render_catalog
        print(render_catalog(("dynamic",)))
        return 0
    if args.program is None:
        print("error: a program path is required (or --list-rules)",
              file=sys.stderr)
        return 2

    config = CheckConfig(mode=args.mode, races=not args.no_races,
                         lock_order=not args.no_lock_order,
                         semantics=not args.no_semantics,
                         leaks=not args.no_leaks,
                         emit_warnings=False)
    from .errors import CheckError
    with checking(config) as session:
        try:
            status = run_program(args.program, args.args)
        except CheckError as exc:
            print(f"stopped at first violation (raise mode): {exc}",
                  file=sys.stderr)
            status = 1
        else:
            if status:
                print(f"[program exited with status {status}]",
                      file=sys.stderr)
    report = session.report()
    if args.json:
        print(report.to_json())
    else:
        print(report.render(limit=args.limit))
    return status or (0 if report.clean else 1)


def _cmd_replay(args) -> int:
    """Replay a recorded run to a simulated time or a checker finding."""
    from .snap.replay import run_replay

    if (args.until is None) == (args.to_finding is None):
        print("error: replay needs exactly one of --until / --to-finding",
              file=sys.stderr)
        return 2
    result, status = run_replay(
        args.program, list(args.args), until=args.until,
        to_finding=args.to_finding, snapshot_path=args.snapshot)
    if result is None:
        target = (f"t={args.until}" if args.until is not None
                  else args.to_finding)
        print(f"replay target never reached: {target} (program ran to "
              "completion)", file=sys.stderr)
        return status or 1
    print(result.render())
    return status or (0 if result.verified else 1)


def _corpus_paths() -> list[str]:
    """The shipped analysis corpus: app drivers, benches and examples."""
    import glob
    import os

    pkg = os.path.dirname(os.path.abspath(__file__))
    paths = sorted(glob.glob(os.path.join(pkg, "apps", "**", "*.py"),
                             recursive=True))
    paths += sorted(glob.glob(os.path.join(pkg, "bench", "*.py")))
    if os.path.isdir("examples"):
        paths += sorted(glob.glob(os.path.join("examples", "*.py")))
    return paths


def _cmd_analyze(args) -> int:
    """Statically analyze driver programs without executing them."""
    import glob
    import os

    from .check.rules import render_catalog
    from .check.static_ import analyze_paths, to_sarif

    if args.list_rules:
        print(render_catalog(("static",)))
        return 0
    paths: list[str] = []
    for p in args.paths:
        if os.path.isdir(p):
            paths += sorted(glob.glob(os.path.join(p, "**", "*.py"),
                                      recursive=True))
        else:
            paths.append(p)
    if args.corpus:
        paths += _corpus_paths()
    if not paths:
        print("error: no programs to analyze (pass paths, or --corpus)",
              file=sys.stderr)
        return 2
    report = analyze_paths(paths)
    status = 0 if report.clean else 1
    crossval = None
    if args.crossval:
        from .check.static_.crossval import cross_validate, render_crossval
        crossval = cross_validate(fixture_dir=args.fixtures)
        if crossval["fp"] or crossval["fn"]:
            status = status or 1
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            json.dump(to_sarif(report), fh, indent=2, sort_keys=True)
        print(f"[sarif written to {args.sarif}]", file=sys.stderr)
    if args.json:
        d = report.to_dict()
        if crossval is not None:
            d["crossval"] = crossval
        print(json.dumps(d, indent=2, sort_keys=True))
    else:
        print(report.render(limit=args.limit))
        if crossval is not None:
            print()
            print(render_crossval(crossval))
    return status


def _cmd_lint(args) -> int:
    """Run the repository's own AST lint (rules L200-L205)."""
    import pathlib

    from .check.lint import render_json, render_text, run_lint

    roots = [pathlib.Path(p) for p in args.paths] if args.paths else None
    findings = run_lint(roots, select=args.select)
    print(render_json(findings) if args.json else render_text(findings))
    return 0 if not findings else 1


def _cmd_campaign_run(args) -> int:
    """Run (or resume) a chaos-fuzzing campaign."""
    from .scenarios import render_report, run_campaign

    summary = run_campaign(
        args.out, seed=args.seed, n=args.n, jobs=args.jobs,
        apps=args.apps, resume=args.resume,
        shrink=not args.no_shrink, progress=print)
    print(render_report(summary))
    if summary["failures"] and not args.no_shrink:
        return 0 if summary["all_verified"] else 1
    return 0


def _cmd_campaign_report(args) -> int:
    """Summarize a campaign directory without running anything."""
    from .scenarios import campaign_report, render_report

    summary = campaign_report(args.out)
    print(render_report(summary))
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_campaign_replay(args) -> int:
    """Replay a minimal-repro artifact and verify it byte for byte."""
    from .scenarios import verify_artifact

    verdict = verify_artifact(args.artifact)
    outcome = verdict["outcome"]
    print(f"replay: {outcome['status']}/{outcome['rule']}")
    if outcome["detail"]:
        print(f"  {outcome['detail']}")
    if outcome["digest"]:
        print(f"  digest {outcome['digest'][:16]}...")
    if verdict["ok"]:
        print("verified: replay is byte-identical and matches the artifact")
        return 0
    for problem in verdict["problems"]:
        print(f"VERIFY FAILED: {problem}", file=sys.stderr)
    return 1


def _serve_url(args) -> str:
    """Resolve the service URL: --url wins, else the discovery file."""
    from .errors import ServeError
    if getattr(args, "url", None):
        return args.url
    import os
    path = os.path.join(args.state_dir, "serve.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["url"]
    except (OSError, ValueError, KeyError) as exc:
        raise ServeError(
            f"no running service found via {path!r} "
            f"(start one with 'repro serve --state-dir "
            f"{args.state_dir}', or pass --url): {exc}") from exc


def _cmd_serve(args) -> int:
    from .serve.service import run_service
    try:
        run_service(args.state_dir, workers=args.workers,
                    oversubscribe=args.oversubscribe,
                    heartbeat=args.heartbeat,
                    heartbeat_timeout=args.heartbeat_timeout,
                    announce=print)
    except KeyboardInterrupt:
        print("interrupted; jobs are resumable from "
              f"{args.state_dir} on the next 'repro serve'")
    return 0


def _cmd_submit(args) -> int:
    from .errors import ServeError
    from .serve.client import ServeClient
    from .serve.http import parse_job_document
    try:
        if args.job == "-":
            body = sys.stdin.buffer.read()
        else:
            with open(args.job, "rb") as fh:
                body = fh.read()
        kind, spec = parse_job_document(body)
        with ServeClient(_serve_url(args)) as client:
            status = client.submit(kind, spec)
            print(f"submitted {status['job_id']} ({kind}, "
                  f"{status['total']} points, "
                  f"{status['cache_hits']} already cached)", file=sys.stderr)
            if args.wait or args.result:
                status = client.wait(status["job_id"], timeout=args.timeout)
            doc = (client.result(status["job_id"]) if args.result
                   else client.job(status["job_id"]))
        print(json.dumps(doc, indent=2, sort_keys=True))
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_jobs(args) -> int:
    from .errors import ServeError
    from .serve.client import ServeClient
    try:
        with ServeClient(_serve_url(args)) as client:
            jobs = client.jobs()
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    table = Table("jobs", ["job", "kind", "status", "done", "hits", "sec"],
                  widths=[10, 10, 8, 11, 6, 9])
    for job in jobs:
        table.add(job["job_id"], job["kind"], job["status"],
                  f"{job['done']}/{job['total']}", job["cache_hits"],
                  f"{job['elapsed_sec']:.2f}")
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argparse parser with all subcommands."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Lessons Learned on "
                    "MPI+Threads Communication' (SC 2022)")
    sub = p.add_subparsers(dest="command", required=True)

    mr = sub.add_parser("msgrate", help="Fig 1(a) message-rate sweep")
    mr.add_argument("--modes", nargs="+", default=list(MODES[:5]),
                    choices=MODES)
    mr.add_argument("--cores", nargs="+", type=int, default=[1, 4, 8])
    mr.add_argument("--messages", type=int, default=64)
    mr.set_defaults(fn=_cmd_msgrate)

    sw = sub.add_parser(
        "sweep",
        help="parameter sweep fanned across worker processes",
        description="Run every (mode, cores) point of a sweep, optionally "
                    "across --jobs worker processes. Points are "
                    "independent simulations, so the results are "
                    "bit-identical to a serial run — only host wall-clock "
                    "changes.")
    sw.add_argument("experiment", choices=("msgrate",),
                    help="experiment to sweep")
    sw.add_argument("--modes", nargs="+", default=list(MODES[:5]),
                    choices=MODES)
    sw.add_argument("--cores", nargs="+", type=int,
                    default=[1, 2, 4, 8, 16, 32, 64])
    sw.add_argument("--messages", type=int, default=64)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--jobs", "-j", type=int, default=1,
                    help="worker processes, capped at the host's CPU "
                         "count (default 1: run in this process)")
    sw.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    sw.add_argument("--checkpoint-dir", metavar="DIR",
                    help="keep every completed point in DIR (a 'repro "
                         "serve' state directory): points already there "
                         "are reused, so a killed sweep picks up where "
                         "it stopped, with byte-identical rows")
    sw.set_defaults(fn=_cmd_sweep)

    pf = sub.add_parser(
        "profile",
        help="run an experiment with the observability subsystem on",
        description="Run an experiment with metrics and tracing enabled: "
                    "prints the per-VCI table (lock wait, doorbell "
                    "serialization, hardware-context occupancy) and can "
                    "export a Perfetto-loadable Chrome trace.")
    pf.add_argument("experiment", choices=("msgrate",),
                    help="experiment to profile")
    pf.add_argument("--modes", nargs="+", default=["everywhere"],
                    choices=MODES)
    pf.add_argument("--cores", nargs="+", type=int, default=[8])
    pf.add_argument("--messages", type=int, default=64)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--full", action="store_true",
                    help="dump every metric series, not just the summary")
    pf.add_argument("--chrome-trace", metavar="PATH",
                    help="write a Chrome-trace JSON (chrome://tracing / "
                         "ui.perfetto.dev) to PATH")
    pf.set_defaults(fn=_cmd_profile)

    stn = sub.add_parser("stencil", help="halo exchange (Fig 1b, Lessons 1-3)")
    _stencil_arguments(stn, ["original", "tags", "communicators",
                             "endpoints"], threads=[3, 3], points=9, iters=4)
    stn.set_defaults(fn=_cmd_stencil)

    fl = sub.add_parser(
        "faults",
        help="run an experiment on a lossy fabric with reliable transport",
        description="Run the stencil app over a fault-injected fabric "
                    "(message drop/dup/corrupt/delay, NIC context stalls, "
                    "link flaps) with the reliable transport recovering "
                    "every fault; prints a reliability report next to the "
                    "per-VCI table. Plans: 'drop=0.05,dup=0.02' or a JSON "
                    "file; see docs/faults.md.")
    fl.add_argument("experiment", choices=("stencil",),
                    help="experiment to run under fault injection")
    fl.add_argument("--plan", default="drop=0.05,dup=0.02,corrupt=0.01",
                    help="fault plan spec or JSON file (default: "
                         "'drop=0.05,dup=0.02,corrupt=0.01')")
    # Default to a face-only stencil: partitioned supports 5/7-pt only.
    _stencil_arguments(fl, ["original", "tags", "communicators", "endpoints",
                            "partitioned"], threads=[2, 2], points=5, iters=3)
    fl.set_defaults(fn=_cmd_faults)

    for name, (help_, _title, _cols, flags, _cells) in _APP_COMMANDS.items():
        ap = sub.add_parser(name, help=help_)
        for flag, default, _field in flags:
            ap.add_argument(flag, type=type(default), default=default)
        ap.set_defaults(fn=_cmd_app)

    sc = sub.add_parser("scope", help="Table I + usability accounting")
    sc.add_argument("--threads", nargs=2, type=int, default=[3, 3])
    sc.set_defaults(fn=_cmd_scope)

    rs = sub.add_parser("resources", help="Lesson 3 closed-form counts")
    rs.add_argument("--grid", nargs=3, type=int, default=[4, 4, 4])
    rs.set_defaults(fn=_cmd_resources)

    ck = sub.add_parser(
        "check",
        help="run a program under the MPI+threads correctness checker",
        description="Execute a Python program with the dynamic checker "
                    "(races on shared MPI objects, lock-order cycles, "
                    "hint/partitioned/RMA semantics, leaks) enabled on "
                    "every World it creates; prints the merged report and "
                    "exits 1 if any violation was detected. See "
                    "docs/checking.md for the rule catalog.")
    ck.add_argument("program", nargs="?",
                    help="path to the Python program to run")
    ck.add_argument("args", nargs="*", help="arguments for the program")
    ck.add_argument("--list-rules", action="store_true",
                    help="print the dynamic rule catalog (CHK1xx) and exit")
    ck.add_argument("--mode", choices=("warn", "raise"), default="warn",
                    help="warn: record and continue; raise: stop at the "
                         "first violation (default: warn)")
    ck.add_argument("--no-races", action="store_true",
                    help="disable the happens-before race rules")
    ck.add_argument("--no-lock-order", action="store_true",
                    help="disable lock-order cycle detection")
    ck.add_argument("--no-semantics", action="store_true",
                    help="disable the MPI semantics state machines")
    ck.add_argument("--no-leaks", action="store_true",
                    help="disable the finalize leak scans")
    ck.add_argument("--json", action="store_true",
                    help="print the report as JSON")
    ck.add_argument("--limit", type=int, default=50,
                    help="max violations detailed in the text report")
    ck.set_defaults(fn=_cmd_check)

    an = sub.add_parser(
        "analyze",
        help="statically analyze a driver program (no execution)",
        description="Run the interprocedural static analyzer over driver "
                    "programs: lockset/happens-before race rules, request "
                    "lifecycle tracking, collective consistency and the "
                    "VCI-mappability advisor (rules S301-S315, the static "
                    "twins of the dynamic CHK catalog). The target is "
                    "parsed, never imported or executed. Exits 1 on "
                    "error/warning findings; advice never fails. See "
                    "docs/static-analysis.md.")
    an.add_argument("paths", nargs="*",
                    help="programs (or directories) to analyze")
    an.add_argument("--list-rules", action="store_true",
                    help="print the static rule catalog (S3xx) and exit")
    an.add_argument("--corpus", action="store_true",
                    help="also analyze the shipped corpus (app drivers, "
                         "bench drivers, examples)")
    an.add_argument("--crossval", action="store_true",
                    help="cross-validate against the dynamic checker over "
                         "the fixture corpus (runs the fixtures) and "
                         "append the precision/recall table")
    an.add_argument("--fixtures", metavar="DIR",
                    help="fixture directory for --crossval (default: "
                         "tests/fixtures/analyze found from cwd)")
    an.add_argument("--json", action="store_true",
                    help="print the report (and cross-validation) as JSON")
    an.add_argument("--sarif", metavar="PATH",
                    help="also write the findings as SARIF 2.1.0 to PATH")
    an.add_argument("--limit", type=int, default=50,
                    help="max findings detailed in the text report")
    an.set_defaults(fn=_cmd_analyze)

    rp = sub.add_parser(
        "replay",
        help="replay a recorded run to a time or a checker finding",
        description="Run a Python program under record-replay. --until T "
                    "stops at simulated time T, --to-finding CHK1xx stops "
                    "when that checker rule first fires; either way the "
                    "program is then executed a second time (its stdout "
                    "suppressed) to exactly the target step, and the "
                    "reproduction is verified by state digest (or by the "
                    "finding re-firing at the same step). Costs one extra "
                    "execution up to the target. See docs/snapshot.md.")
    rp.add_argument("program", help="path to the Python program to run")
    rp.add_argument("args", nargs="*", help="arguments for the program")
    rp.add_argument("--until", type=float, metavar="T",
                    help="replay target: simulated time in seconds")
    rp.add_argument("--to-finding", metavar="RULE",
                    help="replay target: first firing of this checker "
                         "rule (e.g. CHK102); enables the checker in "
                         "warn mode")
    rp.add_argument("--snapshot", metavar="PATH",
                    help="also write the verified state snapshot at the "
                         "target to PATH")
    rp.set_defaults(fn=_cmd_replay)

    lt = sub.add_parser(
        "lint",
        help="run the repository's AST lint (rules L200-L205)",
        description="Static checks specific to this codebase: host "
                    "nondeterminism in simulated paths, raw trace-category "
                    "strings, bare except, public docstring/annotation "
                    "coverage. Exits 1 on findings. Suppress per line with "
                    "`# lint: ignore[RULE] -- reason`.")
    lt.add_argument("paths", nargs="*",
                    help="files/directories to lint (default: src/repro)")
    lt.add_argument("--select", nargs="+", metavar="RULE",
                    help="only report these rule ids (e.g. L201 L202)")
    lt.add_argument("--json", action="store_true",
                    help="machine-readable output for CI")
    lt.set_defaults(fn=_cmd_lint)

    cp = sub.add_parser(
        "campaign",
        help="chaos-fuzzing campaigns over sampled scenarios",
        description="Sample scenarios (app x mechanism x topology x "
                    "faults x traffic), run each under the dynamic "
                    "checker with crash-safe per-scenario checkpoints, "
                    "and delta-debug every failure down to a minimal "
                    "YAML artifact whose replay is verified byte for "
                    "byte. See docs/scenarios.md.")
    cpsub = cp.add_subparsers(dest="campaign_command", required=True)

    cpr = cpsub.add_parser("run", help="run a fresh campaign")
    cpr.add_argument("out", help="campaign output directory")
    cpr.add_argument("--seed", type=int, default=0,
                     help="sampler seed (default 0)")
    cpr.add_argument("-n", type=int, default=100,
                     help="scenarios to sample (default 100)")
    cpr.add_argument("--jobs", type=int, default=1,
                     help="worker processes, capped at the host's CPU "
                          "count (default 1: run in this process)")
    cpr.add_argument("--apps", nargs="+", metavar="APP",
                     help="restrict sampling to these apps")
    cpr.add_argument("--no-shrink", action="store_true",
                     help="record failures without shrinking them")
    cpr.set_defaults(fn=_cmd_campaign_run, resume=False)

    cps = cpsub.add_parser(
        "resume", help="resume a killed or interrupted campaign")
    cps.add_argument("out", help="campaign output directory")
    cps.add_argument("--jobs", type=int, default=1)
    cps.add_argument("--no-shrink", action="store_true")
    cps.set_defaults(fn=_cmd_campaign_run, resume=True,
                     seed=0, n=0, apps=None)

    cpp = cpsub.add_parser(
        "report", help="summarize a campaign directory (even mid-flight)")
    cpp.add_argument("out", help="campaign output directory")
    cpp.add_argument("--json", action="store_true",
                     help="also print the summary as JSON")
    cpp.set_defaults(fn=_cmd_campaign_report)

    cpl = cpsub.add_parser(
        "replay", help="replay + verify a minimal-repro artifact")
    cpl.add_argument("artifact", help="artifact YAML written by a campaign")
    cpl.set_defaults(fn=_cmd_campaign_replay)

    sv = sub.add_parser(
        "serve",
        help="run the sweep/campaign service (HTTP API + worker pool)",
        description="Serve sweep, campaign and scenario jobs over HTTP "
                    "(see docs/serving.md): points are sharded across a "
                    "supervised local worker pool, deduplicated in "
                    "flight, cached persistently, and requeued when a "
                    "worker dies. Kill the service at any time — jobs "
                    "resume from --state-dir on the next start.")
    sv.add_argument("--state-dir", default=".repro-serve",
                    help="job manifests + result cache + discovery file "
                         "(default %(default)s)")
    sv.add_argument("--workers", "-j", type=int, default=None,
                    help="local worker processes (default: one per host "
                         "CPU; explicit counts are capped at the CPU "
                         "count unless --oversubscribe; 0 = external "
                         "workers only)")
    sv.add_argument("--oversubscribe", action="store_true",
                    help="allow more workers than host CPUs")
    sv.add_argument("--heartbeat", type=float, default=0.5,
                    help="worker heartbeat interval, seconds")
    sv.add_argument("--heartbeat-timeout", type=float, default=5.0,
                    help="declare a silent worker dead after this many "
                         "seconds and requeue its point")
    sv.set_defaults(fn=_cmd_serve)

    sb = sub.add_parser(
        "submit",
        help="submit a job document to a running service",
        description="POST a YAML/JSON job document ({kind: sweep|"
                    "campaign|scenarios|selftest, spec: {...}}) to the "
                    "service and (by default) wait for completion.")
    sb.add_argument("job", help="job document path, or - for stdin")
    sb.add_argument("--url", help="service URL (default: read "
                                  "--state-dir/serve.json)")
    sb.add_argument("--state-dir", default=".repro-serve")
    sb.add_argument("--no-wait", dest="wait", action="store_false",
                    help="print the job id and return immediately")
    sb.add_argument("--result", action="store_true",
                    help="wait and print the full result document")
    sb.add_argument("--timeout", type=float, default=600.0,
                    help="max seconds to wait (default %(default)s)")
    sb.set_defaults(fn=_cmd_submit)

    jb = sub.add_parser("jobs", help="list a running service's jobs")
    jb.add_argument("--url", help="service URL (default: read "
                                  "--state-dir/serve.json)")
    jb.add_argument("--state-dir", default=".repro-serve")
    jb.set_defaults(fn=_cmd_jobs)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
