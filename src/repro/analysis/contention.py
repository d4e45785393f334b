"""Contention and resource introspection for a finished simulation.

The paper's performance arguments are about *where threads wait*: VCI
locks, shared NIC contexts, matching queues. This module extracts those
counters from a :class:`~repro.runtime.world.World` after a run and folds
them into a structured report the benches and tests can assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.world import World

__all__ = ["VciReport", "NodeReport", "ContentionReport", "collect"]


@dataclass(frozen=True)
class VciReport:
    """One VCI's traffic and contention."""

    proc_rank: int
    index: int
    sends: int
    recvs: int
    lock_acquisitions: int
    lock_contended: int
    lock_wait_time: float
    match_scans: int
    max_posted_depth: int
    max_unexpected_depth: int
    hw_context: int
    hw_context_shared: bool


@dataclass(frozen=True)
class NodeReport:
    """One node's NIC usage."""

    node_id: int
    contexts_used: int
    oversubscription: float
    load_imbalance: float
    total_messages: int


@dataclass
class ContentionReport:
    """Whole-world summary."""

    vcis: list[VciReport] = field(default_factory=list)
    nodes: list[NodeReport] = field(default_factory=list)

    # -- aggregates ------------------------------------------------------
    @property
    def total_lock_wait(self) -> float:
        return sum(v.lock_wait_time for v in self.vcis)

    @property
    def total_contended_acquisitions(self) -> int:
        return sum(v.lock_contended for v in self.vcis)

    @property
    def total_match_scans(self) -> int:
        return sum(v.match_scans for v in self.vcis)

    @property
    def busiest_vci(self) -> VciReport:
        if not self.vcis:
            raise ValueError("no VCIs in report")
        return max(self.vcis, key=lambda v: v.sends + v.recvs)

    @property
    def active_vcis(self) -> int:
        return sum(1 for v in self.vcis if v.sends + v.recvs > 0)

    def channel_spread(self) -> float:
        """Fraction of traffic on the busiest channel (1.0 = fully
        serialized, 1/n = perfectly spread over n active channels)."""
        total = sum(v.sends + v.recvs for v in self.vcis)
        if total == 0:
            return 0.0
        b = self.busiest_vci
        return (b.sends + b.recvs) / total

    def render(self) -> str:
        """Format the per-VCI contention table as aligned text."""
        lines = [f"{'rank':>4} {'vci':>4} {'sends':>7} {'recvs':>7} "
                 f"{'lockwait(us)':>13} {'contended':>10} {'scans':>7} "
                 f"{'ctx':>4} {'shared':>7}"]
        for v in sorted(self.vcis, key=lambda v: (v.proc_rank, v.index)):
            if v.sends + v.recvs == 0:
                continue
            lines.append(
                f"{v.proc_rank:>4} {v.index:>4} {v.sends:>7} {v.recvs:>7} "
                f"{v.lock_wait_time * 1e6:>13.2f} {v.lock_contended:>10} "
                f"{v.match_scans:>7} {v.hw_context:>4} "
                f"{str(v.hw_context_shared):>7}")
        for n in self.nodes:
            lines.append(
                f"node {n.node_id}: contexts={n.contexts_used} "
                f"oversub={n.oversubscription:.2f} "
                f"imbalance={n.load_imbalance:.2f} msgs={n.total_messages}")
        return "\n".join(lines)


def collect(world: "World") -> ContentionReport:
    """Harvest contention counters from every process and node."""
    report = ContentionReport()
    for proc in world.procs:
        for vci in proc.lib.vci_pool.active_vcis:
            report.vcis.append(VciReport(
                proc_rank=proc.rank,
                index=vci.index,
                sends=vci.sends,
                recvs=vci.recvs,
                lock_acquisitions=vci.lock.stats.acquisitions,
                lock_contended=vci.lock.stats.contended_acquisitions,
                lock_wait_time=vci.lock.stats.total_wait_time,
                match_scans=vci.engine.total_scans,
                max_posted_depth=vci.engine.max_posted_depth,
                max_unexpected_depth=vci.engine.max_unexpected_depth,
                hw_context=vci.hw_context.index,
                hw_context_shared=vci.hw_context.is_shared,
            ))
    for node in world.nodes:
        used = [c for c in node.nic.built_contexts() if c.sharers > 0]
        report.nodes.append(NodeReport(
            node_id=node.node_id,
            contexts_used=len(used),
            oversubscription=node.nic.oversubscription,
            load_imbalance=node.nic.load_imbalance(),
            total_messages=node.nic.total_messages(),
        ))
    return report
