"""Start-up cost per entry point, what each may load, and what a service
costs to start.

    PYTHONPATH=src python benchmarks/startup.py [--runs N] [--out-dir DIR]

:data:`ENTRY_POINTS` is the one table of entry points: the code a fresh
interpreter runs for each (an import, a Fig 1(a) point, a CLI command)
and the modules that code must not load. ``tests/test_startup.py`` reads
it to check each row; this script reads it to measure each row in
``--runs`` fresh interpreters (default 5). One line per row gives the
``repro`` modules it loaded, ``yes`` or ``no`` for numpy, for the
dynamic checker (``repro.check.checker``, which only a World that checks
imports) and for the simulation kernel (``repro.sim.core``, which a
service does not load), and the median milliseconds the code took
(numpy's own import included where it loads).

The ``serve`` row forks ``spawn_service(workers=1)`` from a fresh
interpreter that imported nothing else, and gives the median
milliseconds from that interpreter's start until ``GET /healthz`` shows
the worker, then the milliseconds one small sweep job takes from its
``POST`` to ``done``, the peak RSS (MiB, ``VmHWM``) after it of the
driver (the interpreter that called ``spawn_service`` and submitted),
the service and the worker, and whether each of numpy, TLS (``ssl``:
the ``_ssl`` extension) and the process-pool package (``mp``: the
``_multiprocessing`` extension) is mapped in the service or the worker.
A serve process imports asyncio without TLS and forks with ``os.fork``,
so ``ssl`` and ``mp`` read ``no``. RSS and the mapped columns need
``/proc`` (Linux); elsewhere they read ``-``.

With ``--out-dir`` both tables are also written to
``DIR/front-ends.txt``, next to a ``python -X importtime`` log per entry
point (``DIR/importtime-<entry point>.log``): a start-up regression then
shows from those files alone.

Compare two trees only in the same bytecode state (both compiled, or
neither): compiling a module's source costs more than importing it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import NamedTuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


class EntryPoint(NamedTuple):
    """What a fresh interpreter runs for one entry point, and what that
    code may load. A prefix names a module and every module below it."""

    code: str
    #: Prefixes the code must not load. It prints the same stdout with
    #: all of them unimportable (``sys.modules[p] = None``), so it needs
    #: none of them and has no fallback for their absence.
    never: tuple[str, ...] = ()
    #: Or: the only prefixes it may load beside the standard library and
    #: the ``repro`` root.
    only: tuple[str, ...] | None = None
    #: The code forks a service, which needs what ``never`` names: its
    #: stdout is not compared with those modules blocked.
    forks_service: bool = False


#: Loaded where first used: no front end imports an app, the graph
#: oracle, YAML, the lint or the static analyzer.
_LATE = ("repro.apps", "networkx", "yaml", "repro.check.lint",
         "repro.check.static_")
#: Layers a Fig 1(a) point never runs, checked or not. numpy is one: the
#: point's buffers are bytes (``repro.mpi.datatypes``).
_NOT_IN_FIG1A = ("numpy", "repro.faults", "repro.scenarios", "repro.snap",
                 "repro.mpi.coll", "repro.mpi.rma", "repro.mpi.partitioned",
                 "repro.mpi.persistent", "repro.netsim.topology.generators",
                 "repro.netsim.topology.routed", "repro.obs.chrome",
                 "repro.obs.report", "repro.bench.report",
                 "repro.netsim.traffic")
#: What only a serving process runs (the event loop and the service's
#: own layers), TLS, and the process-pool package: serve processes are
#: forked with ``os.fork``.
_SERVER_ONLY = ("asyncio", "ssl", "multiprocessing",
                "repro.serve.orchestrator", "repro.serve.http",
                "repro.serve.worker")
#: The simulator: MPI library, fabric and kernel.
_SIMULATOR = ("repro.sim", "repro.mpi", "repro.netsim")

_FIG1A = """
from repro.bench import MODES, MsgRateConfig, run_msgrate
for mode in MODES:
    print(mode, run_msgrate(MsgRateConfig(mode=mode, cores=2,
                                          msgs_per_core=2)).rate)
"""
_CLI = """
from repro.cli import main
assert main({argv!r}) == 0
"""
_MSGRATE = ["msgrate", "--modes", "everywhere", "threads-original",
            "--cores", "1", "8"]

#: entry point -> its row. The ``submit-jobs`` row is a process that
#: submits: the client every way it is imported, then ``repro submit``
#: (a YAML job parsed, POSTed and waited for) and ``repro jobs`` against
#: a forked service. ``serve-parent`` is a ``repro serve`` parent that
#: runs a sweep job on its forked worker; ``serve-worker`` is what that
#: worker runs on top of what it inherits.
ENTRY_POINTS = {
    "repro": EntryPoint("import repro", only=("repro.errors",)),
    "repro.sim.core": EntryPoint("import repro.sim.core",  # the kernel
                                 only=("repro.sim",)),
    "repro.bench": EntryPoint("import repro.bench",
                              ("numpy", *_SIMULATOR, *_LATE)),
    # The CLI lists the Fig 1(a) modes from ``repro.bench``, whose root
    # loads nothing, and imports what a command runs in its handler. Its
    # simulator and numpy fences are two rows, so a failure names which.
    "repro.cli-no-simulator": EntryPoint("import repro.cli", _SIMULATOR),
    "repro.cli": EntryPoint("import repro.cli", ("numpy", *_LATE)),
    "repro.scenarios": EntryPoint("import repro.scenarios",
                                  ("numpy", *_LATE)),
    "repro.serve.client": EntryPoint("import repro.serve.client",
                                     ("numpy", *_LATE, *_SERVER_ONLY)),
    # numpy loads where a run computes with it: a service loads it with
    # its first campaign or scenarios job, not when it is imported.
    "repro.serve.worker": EntryPoint("import repro.serve.worker",
                                     ("numpy", *_LATE)),
    "repro.serve.http": EntryPoint("import repro.serve.http",
                                   ("numpy", *_LATE)),
    # asyncio is imported where a service runs, without TLS.
    "repro.serve.service": EntryPoint("import repro.serve.service",
                                      ("numpy", *_LATE, "asyncio", "ssl")),
    # A service orchestrates points its workers simulate: its store keys
    # on the state format version (``repro.snap.version``) and its
    # registry counts requests, and neither loads the simulator.
    "repro.serve.orchestrator": EntryPoint("import repro.serve.orchestrator",
                                           ("numpy", *_SIMULATOR)),
    # Only a World that checks imports the checker, and only a layer
    # built under a metrics registry imports the metrics layer.
    "fig1a-point": EntryPoint(
        _FIG1A, (*_NOT_IN_FIG1A, "repro.check", "repro.obs")),
    "fig1a-checked": EntryPoint("""
import sys
from repro.bench import MODES, MsgRateConfig, run_msgrate
from repro.check import checking
for mode in MODES:
    with checking():
        print(mode, run_msgrate(MsgRateConfig(mode=mode, cores=2,
                                              msgs_per_core=2)).rate)
assert "repro.check.checker" in sys.modules
""", _NOT_IN_FIG1A),
    # The sweep's orchestrator keeps its service counters in a registry
    # by design, so a CLI run blocks the checker alone. Forked workers
    # inherit what is blocked.
    "msgrate": EntryPoint(_CLI.format(argv=_MSGRATE),
                          ("numpy", "repro.check")),
    "msgrate-jobs-2": EntryPoint(_CLI.format(argv=_MSGRATE + ["--jobs", "2"]),
                                 ("numpy", "repro.check")),
    "submit-jobs": EntryPoint("""
import os, tempfile
from repro import serve
from repro.serve import ServeClient
from repro.serve.service import spawn_service
from repro.cli import main
with tempfile.TemporaryDirectory() as state:
    job = os.path.join(state, "job.yaml")
    with open(job, "w") as fh:
        fh.write("kind: selftest\\nspec: {n: 2}\\n")
    handle = spawn_service(os.path.join(state, "s"), workers=1)
    try:
        for argv in (["submit", job], ["jobs"]):
            assert main([*argv, "--state-dir", handle.state_dir]) == 0
    finally:
        handle.stop()
""", ("numpy", *_SERVER_ONLY), forks_service=True),
    "serve-parent": EntryPoint("""
import os, tempfile, time
from repro.cli import main
from repro.serve.client import ServeClient
from repro.serve.service import ForkedProcess, read_discovery


def sweep(state):
    while not os.path.exists(os.path.join(state, "serve.json")):
        time.sleep(0.01)
    with ServeClient(read_discovery(state)["socket"]) as client:
        job = client.submit("sweep", {"params": {
            "mode": ["threads-comms"], "cores": [2], "msgs_per_core": [2]}})
        client.wait(job["job_id"], poll=0.01)
        client.shutdown()


with tempfile.TemporaryDirectory() as state:
    client = ForkedProcess(sweep, state)  # before the service has threads
    assert main(["serve", "--state-dir", state, "--workers", "1"]) == 0
    client.join(30)
    assert client.exitcode == 0
""", ("numpy", *_LATE, "ssl", "multiprocessing"), forks_service=True),
    "serve-worker": EntryPoint("""
import socket
from repro.serve.protocol import FrameDecoder, job_frame, write_frame
from repro.serve.worker import worker_main
ours, theirs = socket.socketpair()
write_frame(ours, job_frame("p", "msgrate", {
    "cores": 2, "mode": "threads-comms", "msgs_per_core": 2}))
ours.shutdown(socket.SHUT_WR)
worker_main(theirs)
decoder, frames = FrameDecoder(), []
while data := ours.recv(65536):
    frames += decoder.feed(data)
print([frame for frame in frames if frame["type"] != "heartbeat"])
""", ("numpy", "yaml", "repro.check", "asyncio", "ssl", "multiprocessing")),
    # The Vite proxy grows its own Barabasi-Albert graph; networkx is a
    # test oracle. A campaign is compared by its summary document.
    "campaign": EntryPoint("""
import contextlib, io, os, tempfile
from repro.cli import main
with tempfile.TemporaryDirectory() as out:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["campaign", "run", out, "--seed", "7", "-n", "12"]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        print(fh.read())
""", ("networkx",)),
    "graph": EntryPoint(_CLI.format(argv=["graph"]), ("networkx",)),
}

#: Runs the code in argv[1] with every module argv[2:] names made
#: unimportable; its last line is ``[<milliseconds>, <modules loaded>]``.
_PROBE = (
    "import json, sys, time\n"
    "sys.modules.update(dict.fromkeys(sys.argv[2:]))\n"
    "before = set(sys.modules)\n"
    "started = time.perf_counter()\n"
    "exec(sys.argv[1], {'__name__': '__main__'})\n"
    "elapsed = time.perf_counter() - started\n"
    "print(json.dumps([round(elapsed * 1e3, 1),"
    " sorted(set(sys.modules) - before)]))\n")


#: Prints ``<ready ms> <sweep ms> <driver MiB> <service MiB> <worker MiB>
#: <numpy> <ssl> <mp>`` for a service forked from this lean interpreter.
_SERVE_PROBE = """
import time
started = time.perf_counter()
import os, tempfile
from repro.serve.service import spawn_service


def proc_file(pid, name):
    try:
        with open(f"/proc/{pid}/{name}", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def peak_mib(pid):
    status = proc_file(pid, "status")
    if status is None:
        return "-"
    kib = next(line.split()[1] for line in status.splitlines()
               if line.startswith("VmHWM:"))
    return f"{int(kib) / 1024:.1f}"


with tempfile.TemporaryDirectory() as state:
    handle = spawn_service(state, workers=1)
    try:
        with handle.client() as client:
            while not client.healthz()["workers"]:
                time.sleep(0.002)
            ready = time.perf_counter()
            job = client.submit("sweep", {"params": {
                "mode": ["threads-original"], "cores": [2],
                "msgs_per_core": [4]}})
            client.wait(job["job_id"], poll=0.002)
            swept = time.perf_counter()
        pids = [handle.pid, *handle.worker_pids()]
        maps = [proc_file(pid, "maps") for pid in pids]
        pids.insert(0, os.getpid())
        mapped = ["-" if None in maps else
                  "yes" if any(f"/{ext}." in m for m in maps) else "no"
                  for ext in ("_multiarray_umath", "_ssl",
                              "_multiprocessing")]
        print(round((ready - started) * 1e3, 1),
              round((swept - ready) * 1e3, 1),
              *(peak_mib(pid) for pid in pids), *mapped)
    finally:
        handle.stop()
"""


def _run(args: list[str]) -> subprocess.CompletedProcess:
    """``python args`` on this tree's ``src``; raises with its stderr if
    it fails."""
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=600,
                          env=dict(os.environ, PYTHONPATH=SRC))
    if proc.returncode:
        raise RuntimeError(f"{args[:2]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return proc


def probe(code: str, blocked: tuple[str, ...] = ()
          ) -> tuple[str, float, list[str]]:
    """Run ``code`` in a fresh interpreter with the ``blocked`` modules
    unimportable: ``(its stdout, milliseconds, modules it loaded)``."""
    stdout, _, last = _run(["-c", _PROBE, code, *blocked]).stdout.rstrip(
        "\n").rpartition("\n")
    ms, loaded = json.loads(last)
    return stdout, ms, loaded


def measure(code: str, runs: int) -> tuple[int, str, str, str, float]:
    """``(repro modules loaded, numpy loaded, checker loaded, kernel
    loaded, median ms)`` over ``runs``, after one untimed run (the first
    interpreter after a pause reads ~60 % slower, which would charge
    whichever entry point comes first)."""
    samples = [probe(code)[1:] for _ in range(runs + 1)][1:]
    loaded = samples[0][1]
    return (sum(m.partition(".")[0] == "repro" for m in loaded),
            *("yes" if name in loaded else "no" for name in
              ("numpy", "repro.check.checker", "repro.sim.core")),
            statistics.median(ms for ms, _ in samples))


def serve_probe() -> list[str]:
    """One run of the ``serve`` row: its fields, as printed."""
    return _run(["-c", _SERVE_PROBE]).stdout.split()


def measure_service(runs: int) -> list[str]:
    """The ``serve`` row's fields: median ready and sweep ms over
    ``runs``, after one untimed run; RSS and the mapped columns from the
    last run."""
    samples = [serve_probe() for _ in range(runs + 1)][1:]
    return [f"{statistics.median(float(s[i]) for s in samples):.1f}"
            for i in (0, 1)] + samples[-1][2:]


def main(argv: list[str] | None = None) -> int:
    """Print (and with ``--out-dir`` write) the table; returns 0."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out-dir", help="write the table and the "
                                      "-X importtime logs here")
    args = ap.parse_args(argv)
    lines = [f"{'entry point':<24} {'repro modules':>13} {'numpy':>5} "
             f"{'check':>5} {'sim':>5} {'ms':>10}"]
    for name, row in ENTRY_POINTS.items():
        count, numpy, check, sim, ms = measure(row.code, args.runs)
        lines.append(f"{name:<24} {count:>13} {numpy:>5} {check:>5} "
                     f"{sim:>5} {ms:>10.1f}")
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            log = _run(["-X", "importtime", "-c", row.code]).stderr
            path = os.path.join(args.out_dir, f"importtime-{name}.log")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(log)
    ready, sweep, driver, service, worker, numpy, ssl, mp = \
        measure_service(args.runs)
    lines += ["", f"{'service':<24} {'ready ms':>9} {'sweep ms':>9} "
                  f"{'driver MiB':>10} {'service MiB':>11} "
                  f"{'worker MiB':>10} {'numpy':>5} {'ssl':>3} {'mp':>3}",
              f"{'serve':<24} {ready:>9} {sweep:>9} {driver:>10} "
              f"{service:>11} {worker:>10} {numpy:>5} {ssl:>3} {mp:>3}"]
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out_dir:
        with open(os.path.join(args.out_dir, "front-ends.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
