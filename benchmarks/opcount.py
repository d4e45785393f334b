"""Executed Python opcodes per simulated message: a host-cost census that
is exact run to run.

    PYTHONPATH=src python benchmarks/opcount.py [--size full|quick] [--top N]

Runs the Fig 1(a) grid of ``benchmarks/stack/workloads.py`` — its
``MODES`` x ``SIZES[size]["cores"]``, ``msgs_per_core`` messages per
core, on ``NetworkConfig.omnipath()`` — once with the checker off and
once on, each point exactly as the ``fig1a_eager`` / ``fig1a_checked``
workloads time it, under ``sys.settrace`` opcode events. It prints the
opcodes executed per simulated message: in all, by ``repro`` module, and
for the checker (``repro/check``) by mode and by function.

A wall clock on a shared host moves several per cent between runs of
the same tree; a step that small (a fused hook, a cheaper join) cannot
be told from noise there, and it can here: the counts depend only on the
code. Every mode runs once untraced first, so imports stay out of the
counts, and the garbage collector is off while a point is traced, so no
finalizer runs inside one point's count at another's expense. Tracing
makes a run ~20x slower; ``--size full`` takes a few minutes.
"""

from __future__ import annotations

import argparse
import gc
import os
import platform
import sys
from collections import Counter
from typing import Any, Callable

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "stack"))

from workloads import MODES, SIZES  # noqa: E402  (the grid, not a copy)

#: Name of the checker's package in ``module_of``'s keys.
CHECK = "repro/check/"


def count_opcodes(fn: Callable[[], Any]) -> tuple[Any, Counter]:
    """``(fn(), opcodes executed per code object)`` with the collector
    off; only Python frames count, the tracer's own excluded."""
    counts: Counter = Counter()

    def on_event(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return on_event

    def on_call(frame, _event, _arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_event

    gc.disable()
    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(None)
        gc.enable()
    return result, counts


def module_of(code) -> str:
    """``repro/<path>.py`` for a frame of the package, else ``other``."""
    parts = code.co_filename.replace(os.sep, "/").split("/")
    if "repro" not in parts:
        return "other (stdlib, numpy)"
    return "/".join(parts[len(parts) - 1 - parts[::-1].index("repro"):])


def config(mode: str, cores: int, msgs: int) -> Any:
    """A grid point's config, built outside the count (the workload
    builds it outside its timed operation)."""
    from repro.bench import MsgRateConfig
    return MsgRateConfig(mode=mode, cores=cores, msg_bytes=8, window=16,
                         seed=0, msgs_per_core=msgs)


def run_point(cfg: Any, checked: bool) -> int:
    """One grid point as the stack workload times it; returns messages."""
    from repro.bench import run_msgrate
    from repro.check import CheckConfig, checking
    from repro.netsim import NetworkConfig

    if not checked:
        return run_msgrate(cfg, net=NetworkConfig.omnipath()).messages
    with checking(CheckConfig(emit_warnings=False)) as session:
        result = run_msgrate(cfg, net=NetworkConfig.omnipath())
        if not session.report().clean:
            raise SystemExit(f"checker findings on {cfg}")
        session.close()
    return result.messages


def census(size: str, checked: bool) -> dict[str, tuple[int, Counter]]:
    """mode -> (messages, opcodes per code object) over the grid."""
    sizes = SIZES[size]
    for mode in MODES:  # imports and first-use caches, untraced
        run_point(config(mode, 2, 2), checked)
    out: dict[str, tuple[int, Counter]] = {}
    for mode in MODES:
        messages, counts = 0, Counter()
        for cores in sizes["cores"]:
            cfg = config(mode, cores, sizes["msgs_per_core"])
            gc.collect()
            sent, point = count_opcodes(lambda: run_point(cfg, checked))
            messages += sent
            counts.update(point)
        out[mode] = (messages, counts)
    return out


def _by(counts: Counter, key: Callable[[Any], str]) -> Counter:
    grouped: Counter = Counter()
    for code, n in counts.items():
        grouped[key(code)] += n
    return grouped


def render(size: str, top: int, runs: dict[bool, dict]) -> str:
    """The census as plain-text tables."""
    def total(checked: bool) -> tuple[int, Counter]:
        messages, counts = 0, Counter()
        for sent, point in runs[checked].values():
            messages += sent
            counts.update(point)
        return messages, counts

    (messages, plain), (_, checked) = total(False), total(True)
    sizes = SIZES[size]
    lines = [f"Executed opcodes per simulated message: Fig 1(a) grid "
             f"({size}: {len(MODES)} modes x cores {sizes['cores']}, "
             f"{sizes['msgs_per_core']} msgs/core, {messages} messages), "
             f"{platform.python_implementation()} "
             f"{platform.python_version()}", "",
             f"{'module':<36} {'unchecked':>10} {'checked':>10}"]
    rows = [("all", sum(plain.values()), sum(checked.values()))]
    by_plain, by_checked = _by(plain, module_of), _by(checked, module_of)
    for name, n in by_checked.most_common(top):
        rows.append((name, by_plain[name], n))
    lines += [f"{name:<36} {a / messages:>10.0f} {b / messages:>10.0f}"
              for name, a, b in rows]

    lines += ["", f"{CHECK} per message, by mode (checked run)", "",
              f"{'function':<36} " + " ".join(f"{m:>17}" for m in MODES)]
    per_mode = {mode: (sent, Counter({
        f"{module_of(code)[len(CHECK):]}:{code.co_qualname}": n
        for code, n in counts.items() if module_of(code).startswith(CHECK)}))
        for mode, (sent, counts) in runs[True].items()}
    names = Counter()
    for _sent, funcs in per_mode.values():
        names.update(funcs)

    def row(label: str, pick: Callable[[Counter], int]) -> str:
        return f"{label:<36} " + " ".join(
            f"{pick(funcs) / sent:>17.0f}"
            for sent, funcs in per_mode.values())

    lines.append(row(CHECK + " (all)", lambda funcs: sum(funcs.values())))
    lines += [row(name, lambda funcs, name=name: funcs[name])
              for name, _n in names.most_common(top)]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    """Print the census; returns 0."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--top", type=int, default=12,
                    help="modules and checker functions listed")
    args = ap.parse_args(argv)
    runs = {checked: census(args.size, checked) for checked in (False, True)}
    print(render(args.size, args.top, runs), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
