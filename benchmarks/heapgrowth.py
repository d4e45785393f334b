"""Heap growth over repeated sweeps: resident memory and live Worlds after
every pass.

    PYTHONPATH=src python benchmarks/heapgrowth.py [--size full|quick]
        [--out FILE]

Runs, in this fresh interpreter, ``PASSES`` (3) passes of each of three
phases, one after the other:

- ``fig1a``: the Fig 1(a) grid of ``benchmarks/stack/workloads.py`` — its
  ``MODES`` x ``SIZES[size]["cores"]``, ``msgs_per_core`` messages per
  core, on ``NetworkConfig.omnipath()`` — checker off, each point one
  ``run_msgrate`` call, as ``fig1a_eager`` runs it;
- ``fig1a-checked``: the same grid, each point inside its own
  ``checking()`` block that closes its session, as ``fig1a_checked``;
- ``chaos``: the ``CAMPAIGN_SEED`` sample of ``SIZES[size]["scenarios"]``
  scenarios, each through ``run_scenario``, as ``chaos_campaign``.

After each pass it prints one row: the Worlds built so far, the most
still alive right after any point of the pass returned, and ``VmRSS``
and ``VmHWM`` from ``/proc/self/status`` (MiB; ``-`` off Linux). The
first row is the interpreter before any point; a phase imports what it
runs when it starts.

A World is counted by a weak reference recorded in a wrapper around
``World.__init__`` (:func:`recording_init`, which
``tests/test_world_lifetime.py`` uses too); the script never runs the
collector itself, so a World is alive exactly as long as the program's
own collections leave it. It exits 1 when any World outlived the point
that built it, else 0. With ``--out`` the table is also written to
``FILE``.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import weakref
from typing import Any, Callable

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "stack"))

from workloads import CAMPAIGN_SEED, MODES, SIZES  # noqa: E402  (not copies)

#: Passes of each phase.
PASSES = 3


def recording_init(refs: list[weakref.ref]) -> Callable[..., None]:
    """``World.__init__`` wrapped to append a weak reference to every
    World it builds to ``refs``."""
    from repro.runtime.world import World

    init = World.__init__

    def record(self: Any, *args: Any, **kwargs: Any) -> None:
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    return record


def alive(refs: list[weakref.ref]) -> int:
    """Worlds in ``refs`` not yet freed."""
    return sum(ref() is not None for ref in refs)


def memory_mib() -> tuple[str, str]:
    """``(VmRSS, VmHWM)`` of this process in MiB, ``-`` without /proc."""
    try:
        with open("/proc/self/status") as status:
            fields = dict(line.split(":", 1) for line in status)
    except OSError:
        return "-", "-"
    rss, hwm = (f"{int(fields[key].split()[0]) / 1024:.1f}"
                for key in ("VmRSS", "VmHWM"))
    return rss, hwm


def _fig1a(size: str, checked: bool) -> list[Callable[[], Any]]:
    """The grid's points, checker off or each in a closed session."""
    from repro.bench import MsgRateConfig, run_msgrate
    from repro.check import CheckConfig, checking
    from repro.netsim import NetworkConfig

    sizes = SIZES[size]

    def point(mode: str, cores: int) -> None:
        cfg = MsgRateConfig(mode=mode, cores=cores, msg_bytes=8, window=16,
                            msgs_per_core=sizes["msgs_per_core"])
        if not checked:
            run_msgrate(cfg, net=NetworkConfig.omnipath())
            return
        with checking(CheckConfig(emit_warnings=False)) as session:
            run_msgrate(cfg, net=NetworkConfig.omnipath())
            if not session.report().clean:
                raise SystemExit(f"checker findings on {cfg}")
            session.close()

    return [lambda m=mode, c=cores: point(m, c)
            for mode in MODES for cores in sizes["cores"]]


def _chaos(size: str) -> list[Callable[[], Any]]:
    """The campaign sample's scenarios, each through run_scenario."""
    from repro.scenarios import run_scenario, sample_scenarios

    def point(spec: Any) -> None:
        outcome = run_scenario(spec)
        if outcome["status"] != "ok":
            raise SystemExit(f"scenario {spec.app}: {outcome['status']}")

    return [lambda spec=spec: point(spec)
            for spec in sample_scenarios(CAMPAIGN_SEED,
                                         SIZES[size]["scenarios"])]


#: phase -> its points for a size, built (and imported) when it starts.
PHASES: dict[str, Callable[[str], list[Callable[[], Any]]]] = {
    "fig1a": lambda size: _fig1a(size, checked=False),
    "fig1a-checked": lambda size: _fig1a(size, checked=True),
    "chaos": _chaos,
}


def main(argv: list[str] | None = None) -> int:
    """Print the table; 1 if a World outlived its point, else 0."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--out", help="also write the table to this file")
    args = ap.parse_args(argv)

    from repro.runtime.world import World

    worlds: list[weakref.ref] = []
    World.__init__ = recording_init(worlds)  # type: ignore[method-assign]
    sizes = SIZES[args.size]
    lines = [f"Heap growth per pass: {args.size} size (Fig 1(a) "
             f"{len(MODES)} modes x cores {sizes['cores']}, "
             f"{sizes['msgs_per_core']} msgs/core; "
             f"{sizes['scenarios']} chaos scenarios), "
             f"{platform.python_implementation()} "
             f"{platform.python_version()}", "",
             f"{'phase':<14} {'pass':>4} {'worlds':>7} {'alive':>6} "
             f"{'VmRSS MiB':>10} {'VmHWM MiB':>10}"]

    def row(phase: str, index: str, most_alive: int) -> None:
        rss, hwm = memory_mib()
        lines.append(f"{phase:<14} {index:>4} {len(worlds):>7} "
                     f"{most_alive:>6} {rss:>10} {hwm:>10}")
        print(lines[-1], flush=True)

    print("\n".join(lines), flush=True)
    row("start", "-", alive(worlds))
    outlived = 0
    for phase, build in PHASES.items():
        points = build(args.size)
        for index in range(1, PASSES + 1):
            most_alive = 0
            for point in points:
                point()
                most_alive = max(most_alive, alive(worlds))
            outlived += most_alive > 0
            row(phase, str(index), most_alive)
    verdict = ("every World was freed by the point that built it"
               if not outlived else
               f"{outlived} pass(es) left a World alive after its point")
    lines += ["", verdict]
    print("\n" + verdict)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w") as out:
            out.write("\n".join(lines) + "\n")
    return 1 if outlived else 0


if __name__ == "__main__":
    sys.exit(main())
