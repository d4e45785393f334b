"""Cross-validation of the static analyzer against the dynamic checker.

The two engines share one rule catalog (:mod:`repro.check.rules`): every
S3xx rule with entries in :data:`~repro.check.rules.CHK_EQUIVALENT` is
the conservative static twin of those dynamic rules. This harness runs
both engines over the same corpus and scores the static side against
the dynamic ground truth:

- **fixtures** — each ``bad_*`` program in ``tests/fixtures/analyze``
  triggers one dynamic rule class; the analyzer must flag the static
  twin (*recall*). Each ``ok_*``/``advice_*`` program is dynamically
  clean; any failing static twin finding there is a false positive
  (*precision*).
- **drivers** — the shipped proxy apps run at a small configuration
  under :func:`repro.check.checking`; both engines must come back
  clean (true negatives).

A few fixtures cannot be executed (a rank-divergent collective
deadlocks; a double wait is masked at run time) — they are analyzed
but excluded from the dynamic comparison, listed as ``static_only``
rows. When a run aborts on a hard rule (CHK111 raises), the leak rules
CHK109/CHK110 that fire at the forced finalize are abort artifacts, not
program defects, and are dropped from the ground truth.

The result dict is JSON-ready; ``render_crossval`` gives the table the
CI job prints.
"""

from __future__ import annotations

import glob
import os
import warnings
from typing import Any, Callable, Optional, Sequence

from ..rules import CHK_EQUIVALENT, STATIC_FOR_DYNAMIC
from .analyzer import analyze_path, analyze_paths

__all__ = ["cross_validate", "render_crossval", "corpus_paths",
           "default_fixture_dir", "DYNAMIC_EXEMPT"]

#: Fixtures that are analyzed but never executed (and why).
DYNAMIC_EXEMPT: dict[str, str] = {
    "bad_double_wait.py": "second wait is masked at run time",
    "bad_cancel_after_complete.py": "late cancel is a silent no-op",
    "bad_rank_collective.py": "rank-divergent collective deadlocks",
}

#: Dynamic leak rules that fire spuriously when a hard rule aborts the
#: run before requests can complete.
_ABORT_ARTIFACTS = frozenset({"CHK109", "CHK110"})

#: Static rules with no dynamic twin: scored by fixture expectation
#: only, never against the dynamic checker.
_STATIC_ONLY = frozenset(s for s, chks in CHK_EQUIVALENT.items()
                         if not chks)


def corpus_paths(examples: str = "examples") -> list[str]:
    """The shipped analysis corpus: every ``repro.apps`` and
    ``repro.bench`` module, then ``examples/*.py`` (a directory relative
    to the working directory unless given)."""
    pkg = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    paths = sorted(glob.glob(os.path.join(pkg, "apps", "**", "*.py"),
                             recursive=True))
    paths += sorted(glob.glob(os.path.join(pkg, "bench", "*.py")))
    return paths + sorted(glob.glob(os.path.join(examples, "*.py")))


def default_fixture_dir(start: Optional[str] = None) -> Optional[str]:
    """Locate ``tests/fixtures/analyze`` from ``start`` (default: cwd)."""
    cur = os.path.abspath(start or os.getcwd())
    while True:
        cand = os.path.join(cur, "tests", "fixtures", "analyze")
        if os.path.isdir(cand):
            return cand
        parent = os.path.dirname(cur)
        if parent == cur:
            return None
        cur = parent


def _run_dynamic(path: str) -> tuple[dict[str, int], str]:
    """Execute one fixture under the dynamic checker; (counts, abort)."""
    from .. import CheckConfig, checking
    from ..session import run_program
    aborted = ""
    with checking(CheckConfig(emit_warnings=False)) as session:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                run_program(path, [])
            except Exception as exc:
                aborted = type(exc).__name__
        counts = dict(session.report().counts())
    if aborted:
        counts = {k: v for k, v in counts.items()
                  if k not in _ABORT_ARTIFACTS}
    return counts, aborted


def _driver_runs() -> list[tuple[str, list[str], Callable[[], object]]]:
    """Small-configuration runs of shipped drivers (name, files, run)."""
    import repro.apps.legion as legion_pkg
    import repro.apps.stencil as stencil_pkg
    import repro.apps.vasp as vasp_pkg

    def files(pkg: object) -> list[str]:
        pkg_dir = os.path.dirname(getattr(pkg, "__file__", ""))
        return sorted(glob.glob(os.path.join(pkg_dir, "*.py")))

    def run_stencil_small() -> object:
        from repro.apps.stencil import StencilConfig, run_stencil
        return run_stencil(StencilConfig(
            proc_grid=(1, 2), thread_grid=(1, 2), pnx=4, pny=4,
            stencil_points=5, iters=1, mechanism="tags"))

    def run_legion_small() -> object:
        from repro.apps.legion import LegionConfig, run_legion
        return run_legion(LegionConfig(
            num_nodes=2, task_threads=2, msgs_per_thread=2,
            mechanism="endpoints"))

    def run_vasp_small() -> object:
        from repro.apps.vasp import VaspConfig, run_vasp
        return run_vasp(VaspConfig(
            num_nodes=2, threads_per_proc=2, elems=64, repeats=1,
            mechanism="existing"))

    return [("stencil", files(stencil_pkg), run_stencil_small),
            ("legion", files(legion_pkg), run_legion_small),
            ("vasp", files(vasp_pkg), run_vasp_small)]


def cross_validate(fixture_dir: Optional[str] = None,
                   drivers: bool = True,
                   paths: Optional[Sequence[str]] = None
                   ) -> dict[str, Any]:
    """Run both engines over the corpus and score static vs dynamic.

    Returns a JSON-ready dict: per-file ``rows``, the ``static_only``
    rows, aggregate ``tp``/``fp``/``fn`` and ``precision``/``recall``.
    """
    if paths is None:
        fdir = fixture_dir or default_fixture_dir()
        if fdir is None:
            raise FileNotFoundError(
                "no tests/fixtures/analyze directory found; pass "
                "fixture_dir explicitly")
        paths = sorted(glob.glob(os.path.join(fdir, "*.py")))
    rows: list[dict[str, Any]] = []
    static_only_rows: list[dict[str, Any]] = []
    tp = fp = fn = 0

    for path in paths:
        name = os.path.basename(path)
        report = analyze_path(path)
        static_failing = sorted({f.rule_id for f in report.findings
                                 if f.severity in ("error", "warning")})
        twins = sorted(s for s in static_failing if s not in _STATIC_ONLY)
        if name in DYNAMIC_EXEMPT:
            static_only_rows.append({
                "file": name, "static": static_failing,
                "why_not_run": DYNAMIC_EXEMPT[name]})
            continue
        dynamic, aborted = _run_dynamic(path)
        expected = sorted({STATIC_FOR_DYNAMIC[chk] for chk in dynamic
                           if chk in STATIC_FOR_DYNAMIC})
        matched = sorted(set(expected) & set(twins))
        missed = sorted(set(expected) - set(twins))
        unexpected = sorted(set(twins) - set(expected))
        tp += len(matched)
        fn += len(missed)
        fp += len(unexpected)
        rows.append({
            "file": name,
            "dynamic": sorted(dynamic),
            "expected_static": expected,
            "static": static_failing,
            "matched": matched, "missed": missed,
            "unexpected": unexpected,
            "aborted": aborted,
        })

    driver_rows: list[dict[str, Any]] = []
    if drivers:
        from .. import CheckConfig, checking
        for name, files, run in _driver_runs():
            report = analyze_paths(files)
            static_failing = sorted({
                f.rule_id for f in report.findings
                if f.severity in ("error", "warning")})
            with checking(CheckConfig(emit_warnings=False)) as session:
                run()
                dynamic = dict(session.report().counts())
                session.close()
            clean = not static_failing and not dynamic
            fp += len(static_failing)
            fn += len(dynamic)
            driver_rows.append({
                "driver": name, "files": len(files),
                "dynamic": sorted(dynamic), "static": static_failing,
                "clean": clean})

    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    return {
        "schema": 1,
        "kind": "crossval",
        "rows": rows,
        "static_only": static_only_rows,
        "drivers": driver_rows,
        "tp": tp, "fp": fp, "fn": fn,
        "precision": precision, "recall": recall,
    }


def render_crossval(result: dict[str, Any]) -> str:
    """The precision/recall table as plain text."""
    lines = ["== static vs dynamic cross-validation ==",
             f"{'file':34s} {'dynamic':18s} {'expected':14s} "
             f"{'static':14s} verdict"]
    for row in result["rows"]:
        verdict = "ok"
        if row["missed"]:
            verdict = f"MISSED {','.join(row['missed'])}"
        elif row["unexpected"]:
            verdict = f"EXTRA {','.join(row['unexpected'])}"
        lines.append(
            f"{row['file']:34s} {','.join(row['dynamic']) or '-':18s} "
            f"{','.join(row['expected_static']) or '-':14s} "
            f"{','.join(row['static']) or '-':14s} {verdict}")
    for row in result["static_only"]:
        lines.append(
            f"{row['file']:34s} {'(not run)':18s} {'-':14s} "
            f"{','.join(row['static']) or '-':14s} static-only "
            f"({row['why_not_run']})")
    for row in result["drivers"]:
        lines.append(
            f"driver:{row['driver']:27s} "
            f"{','.join(row['dynamic']) or '-':18s} {'-':14s} "
            f"{','.join(row['static']) or '-':14s} "
            f"{'ok' if row['clean'] else 'NOT CLEAN'}")
    lines.append(
        f"tp={result['tp']} fp={result['fp']} fn={result['fn']}  "
        f"precision={result['precision']:.2f} "
        f"recall={result['recall']:.2f}")
    return "\n".join(lines)
