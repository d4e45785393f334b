"""The rule catalog of the correctness analyzer.

Every diagnostic the subsystem can produce has a stable identifier so that
reports, suppressions and CI output can refer to rules precisely:

- ``CHK1xx`` — *dynamic* rules, detected by :class:`repro.check.Checker`
  while a simulated run executes (races, deadlock potential, MPI
  semantics);
- ``L2xx`` — *project lint* rules, detected by the AST lint
  (``python -m repro lint``) over the repository's own sources;
- ``S3xx`` — *static analysis* rules, detected by the interprocedural
  analyzer (``python -m repro analyze``) over driver programs without
  executing them. Most S rules are the static twin of a CHK rule (see
  :data:`CHK_EQUIVALENT`); the advisor rules (severity ``advice``) have
  no dynamic twin — they classify a program against the paper's VCI
  fast-path preconditions rather than against MPI's contract.

The catalog is data, not behaviour: detection lives in
:mod:`repro.check.checker`, :mod:`repro.check.lint` and
:mod:`repro.check.static_`. See ``docs/checking.md`` and
``docs/static-analysis.md`` for the prose version of this table.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Rule",
    "DYNAMIC_RULES",
    "LINT_RULES",
    "STATIC_RULES",
    "ALL_RULES",
    "rule",
    "rules_catalog",
    "render_catalog",
    "CHK_EQUIVALENT",
    "STATIC_FOR_DYNAMIC",
    "SEVERITIES",
]

#: Ordered severity ladder. ``error`` and ``warning`` findings make a
#: report non-clean (exit 1 from the CLI); ``advice`` findings are
#: informational — the advisor's verdicts about which VCI mechanisms a
#: program can legally use never fail a build on their own.
SEVERITIES = ("error", "warning", "advice")


@dataclass(frozen=True)
class Rule:
    """One diagnostic the analyzer can emit."""

    id: str
    name: str
    summary: str
    #: Hard rules cannot be downgraded to a warning: the library must
    #: still raise because continuing would corrupt the simulation itself
    #: (e.g. two collectives interleaving on one matching stream).
    hard: bool = False
    #: ``error`` | ``warning`` | ``advice`` (see :data:`SEVERITIES`).
    severity: str = "error"

    @property
    def kind(self) -> str:
        """Rule family: ``dynamic`` (CHK), ``lint`` (L) or ``static`` (S)."""
        if self.id.startswith("CHK"):
            return "dynamic"
        if self.id.startswith("L"):
            return "lint"
        return "static"

    @property
    def doc(self) -> str:
        """Repository-relative documentation anchor for this rule."""
        page = ("docs/static-analysis.md" if self.kind == "static"
                else "docs/checking.md")
        return f"{page}#{self.id.lower()}"


#: Dynamic (run-time) rules, detected by the vector-clock engine, the
#: lock-order graph and the MPI semantics validator.
DYNAMIC_RULES: tuple[Rule, ...] = (
    Rule("CHK101", "request-race",
         "concurrent wait/test/cancel on one request from two simulated "
         "threads with no happens-before edge between the accesses"),
    Rule("CHK102", "channel-collision",
         "two simulated threads drive the same (communicator, tag, peer) "
         "point-to-point channel without an ordering edge, so message "
         "order on the channel is undefined"),
    Rule("CHK103", "lock-order-cycle",
         "the lock acquisition-order graph contains a cycle: the locks "
         "involved can deadlock under an adversarial schedule"),
    Rule("CHK104", "hint-violation",
         "a wildcard (ANY_SOURCE/ANY_TAG) was used on a communicator that "
         "asserted mpi_assert_no_any_source/no_any_tag"),
    Rule("CHK105", "partitioned-inactive",
         "Pready/Parrived/wait on a partitioned request with no active "
         "cycle (start() not called, or the cycle already completed)"),
    Rule("CHK106", "partitioned-double-ready",
         "Pready called twice for the same partition within one cycle"),
    Rule("CHK107", "rma-epoch",
         "RMA epoch discipline broken: Unlock without a matching Lock, "
         "double Lock of one target, or an operation issued outside any "
         "epoch on a window handle that uses explicit epochs"),
    Rule("CHK108", "rma-race",
         "conflicting nonatomic RMA accesses (Put/Get) to overlapping "
         "target memory from two simulated threads with no happens-before "
         "edge"),
    Rule("CHK109", "request-leak",
         "a request was still incomplete at finalize: the operation never "
         "matched or its completion was never awaited"),
    Rule("CHK110", "window-leak",
         "an RMA window still had unacknowledged (unflushed) operations "
         "at finalize"),
    Rule("CHK111", "collective-overlap",
         "a second collective was issued on a communicator while another "
         "was in flight; MPI requires collectives on one communicator to "
         "be serial", hard=True),
)

#: Project-lint rules over the repository sources.
LINT_RULES: tuple[Rule, ...] = (
    Rule("L200", "bare-suppression",
         "a lint suppression comment without a justification; write "
         "`# lint: ignore[RULE] -- why`", severity="warning"),
    Rule("L201", "host-nondeterminism",
         "host time/randomness (time.time, random, np.random module "
         "calls, uuid4, os.urandom) or a module-level itertools.count "
         "inside simulated-path code; simulated results must be a pure "
         "function of parameters and seed, not of what else the process "
         "ran",
         severity="warning"),
    Rule("L202", "trace-literal",
         "a raw string literal passed as the category of Tracer.emit(); "
         "use the typed repro.sim.trace.TraceCategory constants",
         severity="warning"),
    Rule("L203", "bare-except",
         "a bare `except:` clause; catch specific exceptions (a bare "
         "except swallows KeyboardInterrupt and kernel errors)",
         severity="warning"),
    Rule("L204", "missing-docstring",
         "a public module, class or function in src/repro without a "
         "docstring", severity="warning"),
    Rule("L205", "missing-annotations",
         "a public function/method in src/repro whose signature carries "
         "no type annotations at all", severity="warning"),
)

#: Static-analysis rules over driver programs (``repro analyze``).
#: S301–S312 are conservative static twins of the dynamic catalog and
#: carry ``error``/``warning`` severity; S313–S315 are the VCI-mappability
#: advisor (severity ``advice``) and never fail a run.
STATIC_RULES: tuple[Rule, ...] = (
    Rule("S301", "static-request-race",
         "two concurrent thread regions may wait/test/cancel one shared "
         "request object with no join or lock ordering the accesses "
         "(static twin of CHK101)"),
    Rule("S302", "static-channel-collision",
         "two concurrent thread regions drive the same (communicator, "
         "peer, tag) channel with constant coordinates, so matching order "
         "is undefined (static twin of CHK102)"),
    Rule("S303", "static-lock-order-cycle",
         "the static lock acquisition-order graph contains a cycle "
         "(static twin of CHK103)"),
    Rule("S304", "static-hint-violation",
         "a wildcard (ANY_SOURCE/ANY_TAG) receive on a communicator "
         "constructed with mpi_assert_no_any_source/no_any_tag hints "
         "(static twin of CHK104)"),
    Rule("S305", "partitioned-lifecycle",
         "partitioned request protocol broken on some path: Pready/"
         "Parrived before start, or Pready issued twice for one constant "
         "partition in a single cycle (static twin of CHK105/CHK106)"),
    Rule("S306", "static-rma-epoch",
         "RMA epoch discipline broken on some path: double Lock of one "
         "target, Unlock without Lock, or an access outside any epoch in "
         "a function that uses explicit epochs (static twin of CHK107)"),
    Rule("S307", "static-rma-race",
         "two concurrent thread regions issue conflicting nonatomic RMA "
         "accesses to the same constant target/displacement with no "
         "ordering (static twin of CHK108)"),
    Rule("S308", "static-request-leak",
         "a request created here is neither completed (wait/test/waitall) "
         "nor escapes to the caller on some path — e.g. an early return "
         "skips the waitall (static twin of CHK109)", severity="warning"),
    Rule("S309", "static-window-leak",
         "an RMA window accumulates Put/Get/Accumulate traffic but no "
         "path flushes it (Flush/Flush_all/Unlock) before the function "
         "exits (static twin of CHK110)", severity="warning"),
    Rule("S310", "collective-consistency",
         "collective call sites diverge across rank-dependent branches, "
         "or two concurrent thread regions issue collectives on one "
         "shared communicator (static twin of CHK111)", severity="warning"),
    Rule("S311", "double-wait",
         "a request is waited again after a completing wait on every "
         "path to the second wait (no dynamic twin: the first wait "
         "usually masks this at run time)"),
    Rule("S312", "cancel-after-complete",
         "cancel() is called on a request that a completing wait already "
         "finished on every path to the cancel", severity="warning"),
    Rule("S313", "wildcard-fast-path",
         "wildcard receives (ANY_SOURCE/ANY_TAG) force serialization of "
         "matching and block the tags-with-hints fast path; confine them "
         "to a dedicated endpoint or remove them", severity="advice"),
    Rule("S314", "tag-space-overlap",
         "concurrent thread regions share constant tag space on one "
         "communicator; disjoint per-thread tag bits (Listing 2) would "
         "let the library spread them over VCIs", severity="advice"),
    Rule("S315", "missing-hints",
         "a communicator is driven from multiple thread regions without "
         "mpi_assert_no_any_source/no_any_tag (and allow_overtaking) "
         "hints; without them the library must assume wildcards and "
         "serialize (paper Lesson 5/6)", severity="advice"),
)

ALL_RULES: tuple[Rule, ...] = DYNAMIC_RULES + LINT_RULES + STATIC_RULES

_BY_ID = {r.id: r for r in ALL_RULES}

#: For each static rule, the dynamic rule ids it is the conservative
#: twin of (empty tuple: no dynamic counterpart — advisor/static-only).
CHK_EQUIVALENT: dict[str, tuple[str, ...]] = {
    "S301": ("CHK101",),
    "S302": ("CHK102",),
    "S303": ("CHK103",),
    "S304": ("CHK104",),
    "S305": ("CHK105", "CHK106"),
    "S306": ("CHK107",),
    "S307": ("CHK108",),
    "S308": ("CHK109",),
    "S309": ("CHK110",),
    "S310": ("CHK111",),
    "S311": (),
    "S312": (),
    "S313": (),
    "S314": (),
    "S315": (),
}

#: Reverse map: dynamic rule id -> static rule id expected to flag the
#: same defect class ahead of time. Used by the cross-validation harness.
STATIC_FOR_DYNAMIC: dict[str, str] = {
    chk: sid for sid, chks in CHK_EQUIVALENT.items() for chk in chks
}


def rule(rule_id: str) -> Rule:
    """Look up a rule by id (raises ``KeyError`` for unknown ids)."""
    return _BY_ID[rule_id]


def rules_catalog(kinds: tuple[str, ...] = ("dynamic", "lint", "static"),
                  ) -> tuple[Rule, ...]:
    """The full registry, optionally filtered by rule family."""
    return tuple(r for r in ALL_RULES if r.kind in kinds)


def render_catalog(kinds: tuple[str, ...] = ("dynamic", "lint", "static"),
                   ) -> str:
    """Human rendering of the registry for ``--list-rules``."""
    lines = []
    for r in rules_catalog(kinds):
        twin = CHK_EQUIVALENT.get(r.id) or ()
        twin_note = f" [twin of {', '.join(twin)}]" if twin else ""
        lines.append(f"{r.id:8s} {r.name:26s} {r.severity:8s} "
                     f"{r.doc}{twin_note}")
        lines.append(f"         {r.summary}")
    lines.append(f"{len(rules_catalog(kinds))} rule(s)")
    return "\n".join(lines)
