"""Usability metrics: how much code/knowledge each mechanism demands.

The paper's qualitative axis made countable. For a given stencil geometry
we count, per mechanism:

- setup API calls (communicator dups, info sets, endpoint creation,
  partitioned inits),
- per-iteration communication calls per thread,
- implementation-specific hints required (portability hazard, Lesson 8),
- new concepts the user must learn,
- whether the mapping logic needs mirroring math (Lesson 1's complexity).

Numbers are derived from the mapping helpers, not hand-entered, wherever
possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mapping.communicators import (
    MirroredCommMap,
    StencilGeometry,
    analyze_map,
)
from ..mapping.partitioned import PartitionPlan

__all__ = ["UsabilityReport", "stencil_usability", "render_usability"]


@dataclass(frozen=True)
class UsabilityReport:
    """Programming-effort scorecard for one communication mechanism."""

    mechanism: str
    #: One-time setup API calls per process.
    setup_calls: int
    #: Info hint keys the user must set.
    hint_keys: int
    #: Of those, implementation-specific (non-standard) keys (Lesson 8).
    implementation_specific_hints: int
    #: Communication calls per thread per halo exchange (excl. waits).
    calls_per_exchange: int
    #: Synchronization steps per iteration beyond the exchange itself
    #: (partitioned's single+barrier, Lesson 14).
    extra_sync_steps: int
    #: Does the user write mirroring/matching math (Lesson 1)?
    needs_mirroring_logic: bool
    #: New concept count the user must learn for this mechanism.
    new_concepts: int


def stencil_usability(geom: StencilGeometry) -> dict[str, UsabilityReport]:
    """Usability accounting for a halo exchange on ``geom``; a stencil
    with diagonals has no ``partitioned`` row (Lesson 15)."""
    dim = geom.dim
    faces_only = all(sum(abs(c) for c in d) == 1 for d in geom.stencil)
    # worst case, an interior process's corner thread: every direction
    # leaves the process (one patch per thread)
    per_thread_msgs = 2 * dim if faces_only else len(geom.stencil)

    mirrored = analyze_map(MirroredCommMap(geom))
    reports = {}

    reports["original"] = UsabilityReport(
        mechanism="original", setup_calls=0, hint_keys=0,
        implementation_specific_hints=0,
        calls_per_exchange=2 * per_thread_msgs, extra_sync_steps=0,
        needs_mirroring_logic=False, new_concepts=0)

    # Communicators: one Dup per map label + the mirroring assignment.
    reports["communicators"] = UsabilityReport(
        mechanism="communicators",
        setup_calls=mirrored.num_communicators,
        hint_keys=0, implementation_specific_hints=0,
        calls_per_exchange=2 * per_thread_msgs, extra_sync_steps=0,
        needs_mirroring_logic=True,
        new_concepts=1)  # "communicator as parallelism" (Lesson 2)

    # Tags with hints: one Dup + the Listing 2 hint bundle.
    reports["tags"] = UsabilityReport(
        mechanism="tags", setup_calls=1, hint_keys=6,
        implementation_specific_hints=4,   # the mpich_* keys of Listing 2
        calls_per_exchange=2 * per_thread_msgs, extra_sync_steps=0,
        needs_mirroring_logic=False,
        new_concepts=1)  # tag-bit layout contract with the library

    # Endpoints: a single creation call; rank-like addressing.
    reports["endpoints"] = UsabilityReport(
        mechanism="endpoints", setup_calls=1, hint_keys=0,
        implementation_specific_hints=0,
        calls_per_exchange=2 * per_thread_msgs, extra_sync_steps=0,
        needs_mirroring_logic=False,
        new_concepts=1)  # the endpoint itself (Lesson 17's risk)

    if faces_only:
        interior = tuple(n // 2 for n in geom.proc_grid)
        ops = PartitionPlan(geom).total_operations(interior)
        reports["partitioned"] = UsabilityReport(
            mechanism="partitioned",
            setup_calls=ops + 1,           # inits + Startall
            hint_keys=0, implementation_specific_hints=0,
            # pready per face + parrived polling per face
            calls_per_exchange=2 * dim,
            extra_sync_steps=2,            # single{waitall+startall}+barrier
            needs_mirroring_logic=False,
            new_concepts=4)  # init/start/pready/parrived lifecycle
    return reports


def render_usability(reports: dict[str, UsabilityReport]) -> str:
    """Render the usability scorecards as one comparison table."""
    headers = ["mechanism", "setup", "hints", "impl-hints", "calls/exch",
               "extra-sync", "mirroring", "concepts"]
    lines = ["  ".join(f"{h:>11}" for h in headers)]
    for name in ("original", "communicators", "tags", "endpoints",
                 "partitioned"):
        r = reports.get(name)
        if r is None:
            continue
        lines.append("  ".join([
            f"{r.mechanism:>11}", f"{r.setup_calls:>11}",
            f"{r.hint_keys:>11}", f"{r.implementation_specific_hints:>11}",
            f"{r.calls_per_exchange:>11}", f"{r.extra_sync_steps:>11}",
            f"{str(r.needs_mirroring_logic):>11}", f"{r.new_concepts:>11}",
        ]))
    return "\n".join(lines)
