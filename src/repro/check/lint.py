"""The static side of the analyzer: an AST lint over this repository.

Run as ``python -m repro lint``. The rules (L2xx in the catalog) encode
invariants of *this* codebase that generic linters cannot know:

- the simulator must be deterministic, so host clocks, host randomness
  and counters that number objects across every World the process
  builds have no business inside simulated-path code (L201);
- trace categories are a typed namespace, not strings (L202);
- plus a few hygiene rules (bare except, public docstrings/annotations).

Suppression is per-line and must be justified::

    t0 = time.perf_counter()  # lint: ignore[L201] -- host-side profiling

A suppression without a ``-- reason`` is itself a finding (L200).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .rules import LINT_RULES, rule as _rule
from .static_.model import dotted as dotted_name

__all__ = ["Finding", "lint_file", "run_lint", "render_text", "render_json",
           "SIMULATED_PATH_PREFIXES"]

#: Ids this pass can emit (from the shared registry) plus the parse-error
#: pseudo-rule. ``--select`` arguments are validated against this set.
_EMITTABLE = {r.id for r in LINT_RULES} | {"E999"}

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore\[([A-Za-z0-9,\s]+)\]\s*(?:--\s*(\S.*))?")

#: Subtrees of ``src/repro`` whose code runs on the simulated timeline and
#: must therefore be a pure function of parameters and seed (rule L201).
#: Host-facing entry points (cli, bench harness I/O) are intentionally out.
SIMULATED_PATH_PREFIXES = (
    "sim/", "mpi/", "netsim/", "runtime/", "faults/", "mapping/",
    "apps/", "obs/", "analysis/", "check/",
)

#: Dotted call targets that read host time or host entropy.
_HOST_NONDET = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "datetime.now",
    "datetime.utcnow", "datetime.datetime.now", "datetime.datetime.utcnow",
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
    "secrets.token_hex",
}

#: ``numpy.random`` convenience functions draw from the hidden global
#: generator; seeded ``SeedSequence``/``default_rng``/``Generator`` use is
#: the sanctioned idiom and stays exempt.
_NP_RANDOM_BANNED = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "seed",
}

@dataclass(frozen=True)
class Finding:
    """One lint diagnostic at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def severity(self) -> str:
        """Severity from the shared registry (parse errors are errors)."""
        return "error" if self.rule == "E999" else _rule(self.rule).severity

    def describe(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message,
                "severity": self.severity}


class _Suppressions:
    """Per-line ``# lint: ignore[...]`` directives for one file."""

    def __init__(self, source: str):
        self.by_line: dict[int, set[str]] = {}
        self.bare: list[tuple[int, int]] = []
        for lineno, text in enumerate(source.splitlines(), 1):
            m = _SUPPRESS_RE.search(text)
            if m is None:
                continue
            rules = {r.strip().upper() for r in m.group(1).split(",")
                     if r.strip()}
            if not m.group(2):
                self.bare.append((lineno, m.start() + 1))
            else:
                self.by_line[lineno] = rules

    def active(self, lineno: int, rule: str) -> bool:
        return rule in self.by_line.get(lineno, ())


class _FileLint(ast.NodeVisitor):
    """Visitor collecting L2xx findings for one parsed module."""

    def __init__(self, rel: str, suppress: _Suppressions):
        self.rel = rel
        self.suppress = suppress
        self.findings: list[Finding] = []
        self.in_simulated_path = any(
            rel.startswith("src/repro/" + p)
            for p in SIMULATED_PATH_PREFIXES)
        self._class_depth = 0
        self._func_depth = 0
        #: Spellings of ``itertools.count`` in this module.
        self._count_names = {"itertools.count"}

    def add(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if self.suppress.active(line, rule):
            return
        self.findings.append(Finding(self.rel, line,
                                     getattr(node, "col_offset", 0) + 1,
                                     rule, message))

    # -- L201: host nondeterminism in simulated paths -----------------
    def visit_Call(self, node: ast.Call) -> None:
        """Flag host-nondeterminism calls (L201) and emit literals (L202)."""
        dotted = dotted_name(node.func)
        if self.in_simulated_path and dotted is not None:
            if dotted in _HOST_NONDET:
                self.add("L201", node,
                         f"host nondeterminism: call to {dotted}() in "
                         f"simulated-path code")
            elif dotted in self._count_names and self._func_depth == 0:
                self.add("L201", node,
                         f"process-wide counter: module-level {dotted}() "
                         f"numbers objects across every World this "
                         f"process builds (keep the counter on the "
                         f"simulator)")
            else:
                parts = dotted.split(".")
                if len(parts) >= 3 and parts[-2] == "random" \
                        and parts[-1] in _NP_RANDOM_BANNED:
                    self.add("L201", node,
                             f"global-generator randomness: {dotted}() "
                             f"(use a seeded np.random.default_rng)")
        # -- L202: raw string category at emit sites ------------------
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "emit" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value,
                                                              str):
                self.add("L202", node,
                         f"raw string category {first.value!r} passed to "
                         f".emit() (use TraceCategory members)")
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        if self.in_simulated_path:
            for alias in node.names:
                if alias.name == "random":
                    self.add("L201", node,
                             "import of stdlib `random` in simulated-path "
                             "code (use np.random.default_rng with a seed)")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "itertools":
            self._count_names.update(a.asname or a.name for a in node.names
                                     if a.name == "count")
        if self.in_simulated_path and node.module in ("random", "time"):
            names = {a.name for a in node.names}
            banned = names & {"random", "randint", "choice", "shuffle",
                              "uniform", "time", "monotonic",
                              "perf_counter"}
            if banned:
                self.add("L201", node,
                         f"from {node.module} import "
                         f"{', '.join(sorted(banned))} in simulated-path "
                         f"code")
        self.generic_visit(node)

    # -- L203: bare except --------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.add("L203", node,
                     "bare `except:` (catch specific exceptions)")
        self.generic_visit(node)

    # -- L204/L205: public docstrings and annotations -----------------
    def visit_Module(self, node: ast.Module) -> None:
        if ast.get_docstring(node) is None:
            self.add("L204", node, "public module without a docstring")
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Require docstrings on public classes (L204)."""
        public = not node.name.startswith("_") and self._func_depth == 0
        if public and ast.get_docstring(node) is None:
            self.add("L204", node,
                     f"public class {node.name!r} without a docstring")
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    def _visit_function(self, node) -> None:
        public = not node.name.startswith("_") and self._func_depth == 0
        if public and ast.get_docstring(node) is None \
                and not self._is_property(node) \
                and not self._is_trivial_override(node):
            self.add("L204", node,
                     f"public function {node.name!r} without a docstring")
        if public and not self._has_any_annotation(node):
            self.add("L205", node,
                     f"public function {node.name!r} has no type "
                     f"annotations at all")
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    @staticmethod
    def _is_property(node) -> bool:
        """Property getters/setters read as attributes; the attribute name
        plus the class docstring carry the documentation burden."""
        for dec in node.decorator_list:
            name = dec.attr if isinstance(dec, ast.Attribute) else \
                dec.id if isinstance(dec, ast.Name) else None
            if name in ("property", "cached_property", "setter"):
                return True
        return False

    @staticmethod
    def _is_trivial_override(node) -> bool:
        """Short bodies (<= 3 simple statements: accessors, forwarders,
        intentional no-op overrides) are exempt from L204 — demanding a
        docstring longer than the code it documents is noise."""
        if len(node.body) > 3:
            return False
        return all(isinstance(stmt, (ast.Pass, ast.Expr, ast.Return,
                                     ast.Raise, ast.Assign, ast.AugAssign,
                                     ast.AnnAssign, ast.If))
                   for stmt in node.body)

    def _has_any_annotation(self, node) -> bool:
        if node.returns is not None:
            return True
        args = node.args
        every = (list(args.posonlyargs) + list(args.args)
                 + list(args.kwonlyargs))
        if args.vararg is not None:
            every.append(args.vararg)
        if args.kwarg is not None:
            every.append(args.kwarg)
        named = [a for a in every if a.arg not in ("self", "cls")]
        if not named:
            return True  # nothing to annotate
        return any(a.annotation is not None for a in named)


def lint_file(path: Path, rel: str,
              select: Optional[set[str]] = None) -> list[Finding]:
    """Lint one file; ``select`` restricts to a set of rule ids."""
    source = path.read_text()
    suppress = _Suppressions(source)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(rel, exc.lineno or 1, (exc.offset or 0) + 1,
                        "E999", f"syntax error: {exc.msg}")]
    visitor = _FileLint(rel, suppress)
    visitor.visit(tree)
    findings = visitor.findings
    for lineno, col in suppress.bare:
        findings.append(Finding(
            rel, lineno, col, "L200",
            "suppression without justification; write "
            "`# lint: ignore[RULE] -- why`"))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    if select is not None:
        findings = [f for f in findings if f.rule in select]
    return findings


def run_lint(roots: Optional[Sequence[Path]] = None,
             select: Optional[Iterable[str]] = None) -> list[Finding]:
    """Lint every ``*.py`` under the given roots (default: ``src/repro``
    plus the repository's ``benchmarks/`` and ``examples/`` trees).

    Paths in findings are rendered relative to the repository root when
    the file lives under it, else left absolute.
    """
    src_dir = Path(__file__).resolve().parents[2]
    repo_root = src_dir.parent
    if roots is None:
        roots = [src_dir / "repro"]
        # Driver code rides along when the trees exist (installed
        # wheels carry only src/repro).
        roots += [d for d in (repo_root / "benchmarks",
                              repo_root / "examples") if d.is_dir()]
    selected = {r.upper() for r in select} if select is not None else None
    if selected is not None:
        unknown = selected - _EMITTABLE
        if unknown:
            raise ValueError(
                f"unknown lint rule id(s): {', '.join(sorted(unknown))} "
                f"(see `repro check --list-rules`)")
    findings: list[Finding] = []
    for root in roots:
        root = Path(root)
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            resolved = path.resolve()
            try:
                rel = str(resolved.relative_to(repo_root))
            except ValueError:
                rel = str(resolved)
            findings.extend(lint_file(path, rel.replace("\\", "/"),
                                      selected))
    return findings


def render_text(findings: list[Finding]) -> str:
    """Render findings one per line plus a trailing count."""
    if not findings:
        return "lint: clean"
    lines = [f.describe() for f in findings]
    lines.append(f"lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    return json.dumps({"schema": 1, "clean": not findings,
                       "findings": [f.to_dict() for f in findings]},
                      indent=2, sort_keys=True)
