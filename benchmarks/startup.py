"""Start-up cost per front end: ``repro`` modules loaded, whether numpy
loaded, and import time.

    PYTHONPATH=src python benchmarks/startup.py [--runs N] [--out-dir DIR]

Each front end is imported in ``--runs`` fresh interpreters (default 5);
one line per front end gives the ``repro`` modules it loaded, ``yes`` or
``no`` for numpy, and the median milliseconds its import took (numpy's
own import included where it loads). The
``fig1a-point`` row also runs one small Fig 1(a) point of every mode, so
it counts what a run loads, not only what its import does. With
``--out-dir`` the table is also written to ``DIR/front-ends.txt``, next
to a ``python -X importtime`` log per front end
(``DIR/importtime-<front end>.log``): a start-up regression then shows
from those files alone.

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
    "repro.serve.worker": "import repro.serve.worker",
    "repro.serve.service": "import repro.serve.service",
    "fig1a-point": (
        "from repro.bench import MODES, MsgRateConfig, run_msgrate\n"
        "for mode in MODES:\n"
        "    run_msgrate(MsgRateConfig(mode=mode, cores=2, msgs_per_core=2))"),
}

#: Prints ``<repro modules> <numpy: yes|no> <milliseconds>`` for the code
#: in argv[1].
_PROBE = (
    "import sys, time\n"
    "started = time.perf_counter()\n"
    "exec(sys.argv[1])\n"
    "elapsed = time.perf_counter() - started\n"
    "count = sum(m.partition('.')[0] == 'repro' for m in sys.modules)\n"
    "numpy = 'yes' if sys.modules.get('numpy') else 'no'\n"
    "print(count, numpy, round(elapsed * 1e3, 1))\n")


def _run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=True)


def measure(code: str, runs: int) -> tuple[int, str, float]:
    """``(repro modules loaded, numpy loaded, median import ms)`` over
    ``runs``, after one untimed run (the first interpreter after a pause
    reads ~60 % slower, which would charge whichever front end comes
    first)."""
    samples = [_run(["-c", _PROBE, code]).stdout.split()
               for _ in range(runs + 1)][1:]
    return (int(samples[0][0]), samples[0][1],
            statistics.median(float(ms) for _, _, ms in samples))


def main(argv: list[str] | None = None) -> int:
    """Print (and with ``--out-dir`` write) the table; returns 0."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out-dir", help="write the table and the "
                                      "-X importtime logs here")
    args = ap.parse_args(argv)
    lines = [f"{'front end':<20} {'repro modules':>13} {'numpy':>5} "
             f"{'import ms':>10}"]
    for name, code in FRONT_ENDS.items():
        count, numpy, ms = measure(code, args.runs)
        lines.append(f"{name:<20} {count:>13} {numpy:>5} {ms:>10.1f}")
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            log = _run(["-X", "importtime", "-c", code]).stderr
            path = os.path.join(args.out_dir, f"importtime-{name}.log")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(log)
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out_dir:
        with open(os.path.join(args.out_dir, "front-ends.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
