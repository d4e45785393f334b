"""Plain-text reliability report for fault-injected runs.

Companion to :mod:`repro.obs.report`: where that module answers "where did
the time go", this one answers "what went wrong on the wire and how was it
recovered". Rendered by ``repro stencil --plan`` next to the per-VCI
table.
"""

from __future__ import annotations

from typing import Any

from ..obs.report import _table

__all__ = ["render_reliability_report"]


def render_reliability_report(world: Any) -> str:
    """Fault + recovery summary of a finished fault-injected World.

    Sections: the plan in force, the injector's fault tally, and one row
    per rank of reliable-transport activity. Works on any World; a world
    without fault injection renders an explanatory stub.
    """
    injector = getattr(world, "injector", None)
    if injector is None:
        return ("== reliability ==\n(fault injection disabled — pass "
                "faults=FaultPlan(...) to World or --plan to the CLI)")
    parts = [f"== fault plan ==\n{injector.plan.describe()} "
             f"(seed={injector.seed})"]

    s = injector.summary()
    parts.append(_table(
        "injected faults",
        ["messages", "drops", "dups", "corruptions", "delays",
         "link-drops", "degraded", "ctx-failovers"],
        [[str(s["messages_seen"]), str(s["drops"]), str(s["dups"]),
          str(s["corruptions"]), str(s["delays"]), str(s["link_drops"]),
          str(s["degraded"]), str(s["failovers"])]]))

    rows: list[list[str]] = []
    totals = {"data_sent": 0, "retransmits": 0, "dup_suppressed": 0,
              "corrupt_dropped": 0, "ooo_buffered": 0, "acks_sent": 0}
    for proc in world.procs:
        transport = proc.lib.transport
        if transport is None:
            continue
        t = transport.summary()
        for key in totals:
            totals[key] += t[key]
        rows.append([
            str(proc.rank), str(t["data_sent"]), str(t["retransmits"]),
            str(t["dup_suppressed"]), str(t["corrupt_dropped"]),
            str(t["ooo_buffered"]), str(t["acks_sent"]),
            str(transport.unacked),
        ])
    if rows:
        rows.append([
            "all", str(totals["data_sent"]), str(totals["retransmits"]),
            str(totals["dup_suppressed"]), str(totals["corrupt_dropped"]),
            str(totals["ooo_buffered"]), str(totals["acks_sent"]),
            str(sum(p.lib.transport.unacked for p in world.procs
                    if p.lib.transport is not None)),
        ])
        parts.append(_table(
            "reliable transport",
            ["rank", "data", "retransmits", "dup-suppr", "corrupt-drop",
             "ooo-buf", "acks", "unacked"],
            rows))
    return "\n\n".join(parts)
