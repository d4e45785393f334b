"""Shared helpers for the benchmark suite.

Each ``bench_*`` module regenerates one table or figure of the paper: it
sweeps the experiment, writes the series to ``benchmarks/results/<id>.txt``,
asserts the paper's qualitative shape, and times one representative run
through pytest-benchmark (wall-clock of the simulator itself).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence


def bench_once(benchmark, fn: Callable[[], Any]) -> None:
    """Time ``fn`` once per round with pytest-benchmark (2 rounds)."""
    benchmark.pedantic(fn, rounds=2, iterations=1, warmup_rounds=0)


def ratio(a: float, b: float) -> float:
    return a / b if b else float("inf")


def sweep_points(fn: Callable[..., Any], points: Sequence[dict]) -> list[Any]:
    """``fn(**point)`` for every point, in point order."""
    return [fn(**point) for point in points]
