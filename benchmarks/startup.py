"""Start-up cost per front end: ``repro`` modules loaded, whether numpy
and the checker loaded, and import time; and what a service costs to
start.

    PYTHONPATH=src python benchmarks/startup.py [--runs N] [--out-dir DIR]

Each front end is imported in ``--runs`` fresh interpreters (default 5);
one line per front end gives the ``repro`` modules it loaded, ``yes`` or
``no`` for numpy and for the dynamic checker (``repro.check.checker``,
which only a World that checks imports), and the median milliseconds its
import took (numpy's own import included where it loads). The
``fig1a-point`` row also runs one small Fig 1(a) point of every mode, so
it counts what a run loads, not only what its import does.

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
``DIR/front-ends.txt``, next to a ``python -X importtime`` log per front
end (``DIR/importtime-<front end>.log``): a start-up regression then
shows from those files alone.

Compare two trees only in the same bytecode state (both compiled, or
neither): compiling a module's source costs more than importing it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys

#: front end -> the code a fresh interpreter runs for it.
FRONT_ENDS = {
    "repro": "import repro",
    "repro.sim.core": "import repro.sim.core",
    "repro.bench": "import repro.bench",
    "repro.cli": "import repro.cli",
    "repro.scenarios": "import repro.scenarios",
    "repro.serve.client": "import repro.serve.client",
    "repro.serve.worker": "import repro.serve.worker",
    "repro.serve.service": "import repro.serve.service",
    "fig1a-point": (
        "from repro.bench import MODES, MsgRateConfig, run_msgrate\n"
        "for mode in MODES:\n"
        "    run_msgrate(MsgRateConfig(mode=mode, cores=2, msgs_per_core=2))"),
}

#: Prints ``<repro modules> <numpy: yes|no> <check: yes|no>
#: <milliseconds>`` for the code in argv[1].
_PROBE = (
    "import sys, time\n"
    "started = time.perf_counter()\n"
    "exec(sys.argv[1])\n"
    "elapsed = time.perf_counter() - started\n"
    "count = sum(m.partition('.')[0] == 'repro' for m in sys.modules)\n"
    "numpy = 'yes' if sys.modules.get('numpy') else 'no'\n"
    "check = 'yes' if sys.modules.get('repro.check.checker') else 'no'\n"
    "print(count, numpy, check, round(elapsed * 1e3, 1))\n")


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
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=True)


def measure(code: str, runs: int) -> tuple[int, str, str, float]:
    """``(repro modules loaded, numpy loaded, checker loaded, median
    import ms)`` over
    ``runs``, after one untimed run (the first interpreter after a pause
    reads ~60 % slower, which would charge whichever front end comes
    first)."""
    samples = [_run(["-c", _PROBE, code]).stdout.split()
               for _ in range(runs + 1)][1:]
    return (int(samples[0][0]), samples[0][1], samples[0][2],
            statistics.median(float(ms) for *_, ms in samples))


def measure_service(runs: int) -> list[str]:
    """The ``serve`` row's fields: median ready and sweep ms over
    ``runs``, after one untimed run; RSS and the mapped columns from the
    last run."""
    samples = [_run(["-c", _SERVE_PROBE]).stdout.split()
               for _ in range(runs + 1)][1:]
    return [f"{statistics.median(float(s[i]) for s in samples):.1f}"
            for i in (0, 1)] + samples[-1][2:]


def main(argv: list[str] | None = None) -> int:
    """Print (and with ``--out-dir`` write) the table; returns 0."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out-dir", help="write the table and the "
                                      "-X importtime logs here")
    args = ap.parse_args(argv)
    lines = [f"{'front end':<20} {'repro modules':>13} {'numpy':>5} "
             f"{'check':>5} {'import ms':>10}"]
    for name, code in FRONT_ENDS.items():
        count, numpy, check, ms = measure(code, args.runs)
        lines.append(f"{name:<20} {count:>13} {numpy:>5} {check:>5} "
                     f"{ms:>10.1f}")
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            log = _run(["-X", "importtime", "-c", code]).stderr
            path = os.path.join(args.out_dir, f"importtime-{name}.log")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(log)
    ready, sweep, driver, service, worker, numpy, ssl, mp = \
        measure_service(args.runs)
    lines += ["", f"{'service':<20} {'ready ms':>9} {'sweep ms':>9} "
                  f"{'driver MiB':>10} {'service MiB':>11} "
                  f"{'worker MiB':>10} {'numpy':>5} {'ssl':>3} {'mp':>3}",
              f"{'serve':<20} {ready:>9} {sweep:>9} {driver:>10} "
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
