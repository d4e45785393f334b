"""Command-line experiment runner.

Reproduce any of the paper's experiments without pytest::

    python -m repro msgrate --jobs 4 --csv fig1a.csv
    python -m repro msgrate --modes everywhere threads-original --cores 1 8
    python -m repro msgrate --profile --modes everywhere --cores 8
    python -m repro stencil --mechanisms original endpoints --points 9
    python -m repro stencil --plan drop=0.05,dup=0.02 --points 5 --threads 2 2
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
from typing import Any, Optional, Sequence

from .bench import MODES

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """An argparse type: a positive, finite number of seconds."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number of seconds, got {text}")
    return value


def _cmd_msgrate(args) -> int:
    """Run the Fig 1(a) grid through the one executor; print the pivot."""
    if args.profile or args.full or args.chrome_trace:
        return _profile_msgrate(args)
    import csv
    import time

    from .bench.report import Table
    from .serve import run_local
    from .serve.service import auto_jobs

    spec = {"experiment": "msgrate",
            "params": {"mode": args.modes, "cores": args.cores,
                       "msgs_per_core": [args.messages], "seed": [args.seed]}}
    t0 = time.perf_counter()
    doc = run_local(args.checkpoint_dir, "sweep", spec, workers=args.jobs)[0]
    wall = time.perf_counter() - t0
    rate = {(point["mode"], point["cores"]): result["rate_Mmsgs"]
            for point, result in zip(doc["points"], doc["results"])}
    table = Table("msgrate sweep: rate_Mmsgs", ["cores", *args.modes])
    for cores in args.cores:
        table.add(cores, *[rate[mode, cores] for mode in args.modes])
    print(table.render())
    # run_local's own sizing: the points that missed the store.
    ran = auto_jobs(args.jobs, len(doc["points"]) - doc["cache_hits"])
    print(f"[{len(doc['points'])} points in {wall:.2f}s host wall-clock, "
          f"jobs={ran}]", file=sys.stderr)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mode", "cores", "rate_Mmsgs"])
            writer.writerows([mode, cores, rate[mode, cores]]
                             for mode in args.modes for cores in args.cores)
        print(f"[csv written to {args.csv}]")
    return 0


def _profile_msgrate(args) -> int:
    """Each point in this process with metrics and a tracer: a worker
    returns neither."""
    import os

    from .bench.msgrate import MsgRateConfig, run_msgrate
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
        print(f"== msgrate mode={mode} cores={cores} "
              f"rate={r.rate / 1e6:.2f} M msg/s span={r.span * 1e6:.2f} us ==")
        if args.full:
            print(render_metrics_report(metrics))
        else:
            print(render_report(metrics))
        if args.chrome_trace:
            path = args.chrome_trace
            if len(combos) > 1:
                stem, ext = os.path.splitext(path)
                path = f"{stem}.{mode}.c{cores}{ext}"
            export_chrome_trace(tracer, path, metrics=metrics)
            print(f"chrome trace written to {path} "
                  f"({len(tracer)} records)")
        print()
    return 0


def _cmd_stencil(args) -> int:
    """The halo exchange under each mechanism; with ``--plan``, on a
    lossy fabric behind the reliable transport."""
    from .apps.stencil import StencilConfig, run_stencil
    from .bench.report import Table
    plan = None
    if args.plan is not None:
        from .faults import parse_plan
        plan = parse_plan(args.plan)
    dim = 2 if args.points in (5, 9) else 3
    if len(args.procs) != dim or len(args.threads) != dim:
        print(f"error: {args.points}-pt stencils need {dim}-D --procs/"
              f"--threads (e.g. {'2 2' if dim == 2 else '2 2 2'})",
              file=sys.stderr)
        return 2
    configs = [StencilConfig(proc_grid=tuple(args.procs),
                             thread_grid=tuple(args.threads),
                             pnx=args.patch, pny=args.patch, pnz=args.patch,
                             stencil_points=args.points, iters=args.iters,
                             mechanism=mech, seed=args.seed)
               for mech in args.mechanisms]
    if plan is not None:
        return _stencil_on_lossy_fabric(plan, args.seed, configs)
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


def _stencil_on_lossy_fabric(plan, seed: int, configs: list) -> int:
    """Per mechanism: the reliability and per-VCI reports, then a table."""
    from .apps.stencil import run_stencil
    from .bench.report import Table
    from .errors import TransportError
    from .faults import render_reliability_report
    from .obs import MetricsRegistry, render_vci_report
    print(f"fault plan: {plan.describe()} (seed={seed})\n")
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
    from .bench.report import Table
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

    config = CheckConfig(mode=args.mode, emit_warnings=False)
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
        print(report.render(limit=50))
    return status or (0 if report.clean else 1)


def _cmd_replay(args) -> int:
    """Replay a recorded run to a simulated time or a checker finding."""
    from .snap.reproduction import replay_target, run_replay

    try:
        replay_target(args.until, args.to_finding)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, status = run_replay(
        args.program, list(args.args), until=args.until,
        to_finding=args.to_finding)
    if result is None:
        target = (f"t={args.until}" if args.until is not None
                  else args.to_finding)
        print(f"replay target never reached: {target} (program ran to "
              "completion)", file=sys.stderr)
        return status or 1
    print(result.render())
    return status or (0 if result.verified else 1)


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
        from .check.static_.crossval import corpus_paths
        paths += corpus_paths()
    if not paths:
        print("error: no programs to analyze (pass paths, or --corpus)",
              file=sys.stderr)
        return 2
    report = analyze_paths(paths)
    status = 0 if report.clean else 1
    crossval = None
    if args.crossval:
        from .check.static_.crossval import cross_validate, render_crossval
        crossval = cross_validate()
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

    print(render_report(campaign_report(args.out)))
    return 0


def _cmd_campaign_replay(args) -> int:
    """Replay a minimal-repro artifact and verify it byte for byte."""
    from .snap.reproduction import verify_artifact

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


def _serve_socket(args) -> str:
    """Resolve the service's socket path: --socket wins, else the
    discovery file."""
    from .errors import ServeError
    from .serve.service import read_discovery
    if args.socket:
        return args.socket
    try:
        return read_discovery(args.state_dir)["socket"]
    except ServeError as exc:
        raise ServeError(
            f"{exc} (start one with 'repro serve --state-dir "
            f"{args.state_dir}', or pass --socket): {exc.__cause__}"
        ) from exc


def _cmd_serve(args) -> int:
    from .serve.service import run_service
    try:
        run_service(args.state_dir, workers=args.workers,
                    oversubscribe=args.oversubscribe,
                    heartbeat_timeout=args.heartbeat_timeout,
                    announce=print)
    except KeyboardInterrupt:
        print("interrupted; jobs are resumable from "
              f"{args.state_dir} on the next 'repro serve'")
    return 0


def _cmd_submit(args) -> int:
    from .serve.client import ServeClient, parse_job_document
    if args.job == "-":
        body = sys.stdin.buffer.read()
    else:
        with open(args.job, "rb") as fh:
            body = fh.read()
    kind, spec = parse_job_document(body)
    with ServeClient(_serve_socket(args)) as client:
        status = client.submit(kind, spec)
        print(f"submitted {status['job_id']} ({kind}, "
              f"{status['total']} points, "
              f"{status['cache_hits']} already cached)", file=sys.stderr)
        status = client.wait(status["job_id"], timeout=600.0)
        doc = (client.result(status["job_id"]) if args.result
               else client.job(status["job_id"]))
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_jobs(args) -> int:
    from .bench.report import Table
    from .serve.client import ServeClient
    with ServeClient(_serve_socket(args)) as client:
        jobs = client.jobs()
    table = Table("jobs", ["job", "kind", "status", "done", "hits", "sec"],
                  widths=[10, 10, 8, 11, 6, 9])
    for job in jobs:
        table.add(job["job_id"], job["kind"], job["status"],
                  f"{job['done']}/{job['total']}", job["cache_hits"],
                  f"{job['elapsed_sec']:.2f}")
    print(table.render())
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser that takes only whole option names: argparse's prefix
    matching would read a deleted flag as a longer live one
    (``--heartbeat`` as ``--heartbeat-timeout``). Its subparsers are of
    its class."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argparse parser with all subcommands."""
    p = _Parser(
        prog="repro",
        description="Reproduce experiments from 'Lessons Learned on "
                    "MPI+Threads Communication' (SC 2022)")
    sub = p.add_subparsers(dest="command", required=True)

    mr = sub.add_parser(
        "msgrate",
        help="Fig 1(a) message rate over a (mode, cores) grid",
        description="Run every (mode, cores) point through the one "
                    "executor (repro.serve.run_local), optionally across "
                    "--jobs worker processes, and print the rate pivot. "
                    "Points are independent simulations, so the results "
                    "are bit-identical at any worker count; the host "
                    "wall-clock line goes to stderr. --profile instead "
                    "runs each point in this process with metrics and a "
                    "tracer and prints its per-VCI report (lock wait, "
                    "doorbell serialization, hardware-context occupancy); "
                    "--jobs, --csv and --checkpoint-dir do not apply to it.")
    mr.add_argument("--modes", nargs="+", default=list(MODES[:5]),
                    choices=MODES)
    mr.add_argument("--cores", nargs="+", type=_positive_int,
                    default=[1, 2, 4, 8, 16, 32, 64])
    mr.add_argument("--messages", type=_positive_int, default=64)
    mr.add_argument("--seed", type=int, default=0)
    mr.add_argument("--jobs", "-j", type=_positive_int, default=1,
                    help="worker processes, capped at the CPUs this process "
                         "may use (default 1: run in this process)")
    mr.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    mr.add_argument("--checkpoint-dir", metavar="DIR",
                    help="keep every completed point in DIR (a 'repro "
                         "serve' state directory): points already there "
                         "are reused, so a killed run picks up where "
                         "it stopped, with byte-identical rows")
    mr.add_argument("--profile", action="store_true",
                    help="print each point's per-VCI report instead of "
                         "the pivot")
    mr.add_argument("--full", action="store_true",
                    help="with --profile (implied): dump every metric "
                         "series, not just the summary")
    mr.add_argument("--chrome-trace", metavar="PATH",
                    help="with --profile (implied): write a Chrome-trace "
                         "JSON (chrome://tracing / ui.perfetto.dev) to "
                         "PATH, one file per point when there are several")
    mr.set_defaults(fn=_cmd_msgrate)

    stn = sub.add_parser(
        "stencil", help="halo exchange (Fig 1b, Lessons 1-3)",
        description="Run the stencil halo exchange under each mechanism. "
                    "With --plan, run it over a fault-injected fabric "
                    "(message drop/dup/corrupt/delay, NIC context stalls, "
                    "link flaps) with the reliable transport recovering "
                    "every fault, and print a reliability report next to "
                    "the per-VCI table. Plans: 'drop=0.05,dup=0.02' or a "
                    "JSON file; see docs/faults.md.")
    stn.add_argument("--mechanisms", nargs="+",
                     default=["original", "tags", "communicators",
                              "endpoints"])
    stn.add_argument("--procs", nargs="+", type=int, default=[2, 2])
    stn.add_argument("--threads", nargs="+", type=int, default=[3, 3])
    stn.add_argument("--points", type=int, default=9, choices=(5, 9, 7, 27))
    stn.add_argument("--patch", type=int, default=6)
    stn.add_argument("--iters", type=int, default=4)
    stn.add_argument("--seed", type=int, default=0)
    stn.add_argument("--plan", metavar="PLAN",
                     help="fault plan spec or JSON file (e.g. "
                          "'drop=0.05,dup=0.02,corrupt=0.01'; the "
                          "partitioned mechanism needs --points 5 or 7)")
    stn.set_defaults(fn=_cmd_stencil)

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
    ck.add_argument("--json", action="store_true",
                    help="print the report as JSON")
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
                         "the fixture corpus (runs tests/fixtures/analyze, "
                         "found from the working directory) and append "
                         "the precision/recall table")
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
    cpr.add_argument("--jobs", type=_positive_int, default=1,
                     help="worker processes, capped at the CPUs this process "
                          "may use (default 1: run in this process)")
    cpr.add_argument("--apps", nargs="+", metavar="APP",
                     help="restrict sampling to these apps")
    cpr.add_argument("--no-shrink", action="store_true",
                     help="record failures without shrinking them")
    cpr.set_defaults(fn=_cmd_campaign_run, resume=False)

    cps = cpsub.add_parser(
        "resume", help="resume a killed or interrupted campaign")
    cps.add_argument("out", help="campaign output directory")
    cps.add_argument("--jobs", type=_positive_int, default=1)
    cps.add_argument("--no-shrink", action="store_true")
    cps.set_defaults(fn=_cmd_campaign_run, resume=True,
                     seed=0, n=0, apps=None)

    cpp = cpsub.add_parser(
        "report", help="summarize a campaign directory (even mid-flight)")
    cpp.add_argument("out", help="campaign output directory")
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
                    help="job journal + result cache + discovery file "
                         "(default %(default)s)")
    sv.add_argument("--workers", "-j", type=_positive_int, default=None,
                    help="worker processes the service forks (default: "
                         "one per host CPU; explicit counts are capped at "
                         "the CPU count unless --oversubscribe)")
    sv.add_argument("--oversubscribe", action="store_true",
                    help="allow more workers than host CPUs")
    sv.add_argument("--heartbeat-timeout", type=_positive_seconds,
                    default=5.0,
                    help="declare a busy worker silent for this many "
                         "seconds dead, requeue its point and replace it "
                         "(workers beat every tenth of it)")
    sv.set_defaults(fn=_cmd_serve)

    sb = sub.add_parser(
        "submit",
        help="submit a job document to a running service",
        description="POST a YAML/JSON job document ({kind: sweep|"
                    "campaign|scenarios|selftest, spec: {...}}) to the "
                    "service and wait up to 600 s for it to complete.")
    sb.add_argument("job", help="job document path, or - for stdin")
    sb.add_argument("--socket", help="the service's Unix socket (default: "
                                     "read --state-dir/serve.json)")
    sb.add_argument("--state-dir", default=".repro-serve")
    sb.add_argument("--result", action="store_true",
                    help="print the full result document, not the status")
    sb.set_defaults(fn=_cmd_submit)

    jb = sub.add_parser("jobs", help="list a running service's jobs")
    jb.add_argument("--socket", help="the service's Unix socket (default: "
                                     "read --state-dir/serve.json)")
    jb.add_argument("--state-dir", default=".repro-serve")
    jb.set_defaults(fn=_cmd_jobs)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; an input error is one ``error:`` line on stderr
    and exit 2 (a service error: exit 1), never a traceback."""
    from .errors import FaultPlanError, MpiUsageError, ScenarioError, ServeError
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, FaultPlanError, MpiUsageError, ScenarioError,
            ServeError) as exc:
        prefix = "bad fault plan: " if isinstance(exc, FaultPlanError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return 1 if isinstance(exc, ServeError) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
