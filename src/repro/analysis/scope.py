"""Table I: summary of design choices to expose logically parallel
communication, derived from (and cross-checked against) the codebase.

The matrix mirrors the paper's Table I:

| Operation      | Existing MPI mechanisms   | Endpoints | Partitioned      |
|----------------|---------------------------|-----------|------------------|
| Point-to-point | Communicators or tags     | Endpoints | Partitioned APIs |
| RMA            | Window(s)                 | Endpoints | TBD              |
| Collective     | Comms + user intranode    | Endpoints | TBD              |

plus the *pattern* dimension the lessons add: wildcard polling and dynamic
neighbourhoods are out of scope for partitioned communication (Lesson 15).
Each capability entry names the module that implements (or rejects) it, so
the table is checkable by the test suite rather than being prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Capability", "scope_matrix", "render_table", "MECHANISM_NAMES",
           "OPERATIONS", "PATTERNS"]

MECHANISM_NAMES = ("existing", "endpoints", "partitioned")
OPERATIONS = ("point-to-point", "rma", "collective")
PATTERNS = ("regular-static", "irregular-dynamic", "wildcard-polling")


@dataclass(frozen=True)
class Capability:
    """One cell of the scope matrix."""

    supported: bool
    #: "standard" (MPI 4.0), "proposal" (endpoints), "tbd" (not defined),
    #: or "unsupported".
    status: str
    #: How the mechanism expresses it, in the paper's words.
    how: str
    #: Module implementing (or rejecting) it in this reproduction.
    module: str
    #: User must hand-roll part of the operation (Lesson 18).
    user_side_work: bool = False


def scope_matrix() -> dict[tuple[str, str], Capability]:
    """The full (operation/pattern, mechanism) capability matrix."""
    m: dict[tuple[str, str], Capability] = {}

    # --- point-to-point ---------------------------------------------------
    m[("point-to-point", "existing")] = Capability(
        True, "standard", "communicators or tags (+ MPI 4.0 Info hints)",
        "repro.mapping.communicators / repro.mapping.tags")
    m[("point-to-point", "endpoints")] = Capability(
        True, "proposal", "endpoints (rank-addressed)",
        "repro.mpi.endpoints")
    m[("point-to-point", "partitioned")] = Capability(
        True, "standard", "partitioned point-to-point APIs",
        "repro.mpi.partitioned")

    # --- RMA ---------------------------------------------------------------
    m[("rma", "existing")] = Capability(
        True, "standard",
        "window(s); atomics limited by ordering semantics (Lesson 16)",
        "repro.mpi.rma.window")
    m[("rma", "endpoints")] = Capability(
        True, "proposal", "multiple endpoints within a single window",
        "repro.mpi.rma.window (EndpointVciMap path)")
    m[("rma", "partitioned")] = Capability(
        False, "tbd", "partitioned RMA APIs (TBD in MPI 4.0)",
        "not implemented: no standardized semantics exist")

    # --- collectives --------------------------------------------------------
    m[("collective", "existing")] = Capability(
        True, "standard",
        "communicator per thread + user-driven intranode portion",
        "repro.mpi.coll.hierarchical", user_side_work=True)
    m[("collective", "endpoints")] = Capability(
        True, "proposal",
        "all endpoints join one collective; library does intranode part",
        "repro.mpi.coll.endpoint_coll")
    m[("collective", "partitioned")] = Capability(
        False, "tbd",
        "partitioned collective APIs (TBD; prospective model only)",
        "repro.apps.vasp.allreduce ('partitioned' mode, prospective)")

    # --- communication patterns (the lessons' scope dimension) -----------
    m[("regular-static", "existing")] = Capability(
        True, "standard", "mirrored communicator maps / tag encodings",
        "repro.mapping.communicators")
    m[("regular-static", "endpoints")] = Capability(
        True, "proposal", "direct endpoint addressing",
        "repro.apps.channels")
    m[("regular-static", "partitioned")] = Capability(
        True, "standard", "partition per face thread (Listing 4)",
        "repro.mapping.partitioned")

    m[("irregular-dynamic", "existing")] = Capability(
        True, "standard",
        "possible but static maps conflict under churn (Lesson 5)",
        "repro.apps.graph.vite", user_side_work=True)
    m[("irregular-dynamic", "endpoints")] = Capability(
        True, "proposal", "address new remote endpoints at any time",
        "repro.apps.graph.vite")
    m[("irregular-dynamic", "partitioned")] = Capability(
        False, "unsupported",
        "persistent by definition; destinations must be known a priori "
        "(Lesson 15)", "repro.mpi.partitioned (precv_init rejects)")

    m[("wildcard-polling", "existing")] = Capability(
        True, "standard",
        "wildcards per communicator; polling must iterate over comms "
        "(Fig 5)", "repro.apps.legion.runtime")
    m[("wildcard-polling", "endpoints")] = Capability(
        True, "proposal", "one wildcard receive on a dedicated endpoint",
        "repro.apps.legion.runtime")
    m[("wildcard-polling", "partitioned")] = Capability(
        False, "unsupported",
        "partitioned receives cannot use wildcards (Lesson 15)",
        "repro.mpi.partitioned (precv_init rejects)")
    return m


def render_table(rows: Optional[tuple[str, ...]] = None) -> str:
    """ASCII rendering of (a slice of) the scope matrix."""
    matrix = scope_matrix()
    rows = rows or (OPERATIONS + PATTERNS)
    headers = ["operation/pattern"] + [m for m in MECHANISM_NAMES]
    lines = []
    widths = [22, 34, 30, 34]
    fmt = "| " + " | ".join(f"{{:<{w}}}" for w in widths) + " |"
    lines.append(fmt.format(*headers))
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in rows:
        cells = [row]
        for mech in MECHANISM_NAMES:
            cap = matrix[(row, mech)]
            mark = "yes" if cap.supported else \
                ("TBD" if cap.status == "tbd" else "NO")
            extra = " (+user work)" if cap.user_side_work else ""
            cells.append(f"{mark}: {cap.how}{extra}"[: widths[len(cells)]])
        lines.append(fmt.format(*cells))
    return "\n".join(lines)
