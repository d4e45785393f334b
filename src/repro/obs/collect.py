"""Harvest structural statistics from a finished (or running) World.

The hot layers record *per-event* metrics live (issue-path stage timings,
lock waits, match scan lengths). Everything that is cheaper to read off
the simulation structures at the end — VCI send/recv totals, matching
queue high-water marks, NIC context occupancy, fabric link saturation —
is collected here into gauges, so the hot paths stay lean.

``collect_world`` is idempotent (gauges are set, not incremented);
:meth:`repro.runtime.world.World.finalize_metrics` calls it once per
report. The world is duck-typed to keep :mod:`repro.obs` independent of
the runtime layer.
"""

from __future__ import annotations

from typing import Any

from .metrics import MetricsRegistry

__all__ = ["collect_world"]


def collect_world(world: Any, metrics: MetricsRegistry) -> None:
    """Snapshot per-VCI, per-context, and per-link stats into gauges."""
    elapsed = world.sim.now
    metrics.set_gauge("sim.elapsed", elapsed)

    for proc in world.procs:
        lib = proc.lib
        rank = proc.rank
        metrics.set_gauge("mpi.sends_posted", lib.sends_posted, rank=rank)
        metrics.set_gauge("mpi.recvs_posted", lib.recvs_posted, rank=rank)
        metrics.set_gauge("mpi.recvs_completed", lib.recvs_completed,
                          rank=rank)
        metrics.set_gauge("mpi.bytes_sent", lib.bytes_sent, rank=rank)

        for vci in lib.vci_pool.active_vcis:
            labels = {"rank": rank, "vci": vci.index}
            metrics.set_gauge("vci.sends", vci.sends, **labels)
            metrics.set_gauge("vci.recvs", vci.recvs, **labels)
            metrics.set_gauge("vci.hw_ctx", vci.hw_context.index, **labels)
            metrics.set_gauge("vci.node", proc.node.node_id, **labels)

            lock = vci.lock.stats
            metrics.set_gauge("vci.lock.acquisitions", lock.acquisitions,
                              **labels)
            metrics.set_gauge("vci.lock.contention_ratio",
                              lock.contention_ratio, **labels)
            metrics.set_gauge("vci.lock.total_wait", lock.total_wait_time,
                              **labels)
            metrics.set_gauge("vci.lock.total_hold", lock.total_hold_time,
                              **labels)
            metrics.set_gauge("vci.lock.max_queue", lock.max_queue_length,
                              **labels)

            engine = vci.engine
            metrics.set_gauge("match.total_scans", engine.total_scans,
                              **labels)
            metrics.set_gauge("match.max_posted_depth",
                              engine.max_posted_depth, **labels)
            metrics.set_gauge("match.max_unexpected_depth",
                              engine.max_unexpected_depth, **labels)
            metrics.set_gauge("match.server_busy",
                              vci.match_server.stats.busy_time, **labels)

    for node in world.nodes:
        nic = node.nic
        metrics.set_gauge("nic.oversubscription", nic.oversubscription,
                          node=node.node_id)
        metrics.set_gauge("nic.load_imbalance", nic.load_imbalance(),
                          node=node.node_id)
        for ctx in nic.built_contexts():
            if ctx.sharers == 0 and ctx.messages_issued == 0:
                continue
            labels = {"node": node.node_id, "ctx": ctx.index}
            busy = ctx.injector.stats.busy_time
            metrics.set_gauge("hwctx.messages", ctx.messages_issued, **labels)
            metrics.set_gauge("hwctx.bytes", ctx.bytes_issued, **labels)
            metrics.set_gauge("hwctx.sharers", ctx.sharers, **labels)
            metrics.set_gauge("hwctx.busy", busy, **labels)
            metrics.set_gauge(
                "hwctx.occupancy",
                busy / elapsed if elapsed > 0.0 else 0.0, **labels)
            doorbell = ctx.doorbell_lock.stats
            metrics.set_gauge("hwctx.doorbell.total_wait",
                              doorbell.total_wait_time, **labels)
            metrics.set_gauge("hwctx.doorbell.contention_ratio",
                              doorbell.contention_ratio, **labels)
            if ctx.failovers_in or ctx.stall_waits:
                metrics.set_gauge("hwctx.failovers_in", ctx.failovers_in,
                                  **labels)
                metrics.set_gauge("hwctx.stall_waits", ctx.stall_waits,
                                  **labels)

    fabric = world.fabric
    metrics.set_gauge("fabric.messages_delivered", fabric.messages_delivered)
    metrics.set_gauge("fabric.bytes_delivered", fabric.bytes_delivered)
    for node_id, server in sorted(fabric._egress.items()):
        metrics.set_gauge("fabric.egress.busy", server.stats.busy_time,
                          node=node_id)
        metrics.set_gauge(
            "fabric.egress.saturation",
            server.stats.busy_time / elapsed if elapsed > 0.0 else 0.0,
            node=node_id)
    for node_id, server in sorted(fabric._ingress.items()):
        metrics.set_gauge("fabric.ingress.busy", server.stats.busy_time,
                          node=node_id)
        metrics.set_gauge(
            "fabric.ingress.saturation",
            server.stats.busy_time / elapsed if elapsed > 0.0 else 0.0,
            node=node_id)

    # -- interconnect topology (present only on RoutedFabric worlds) ------
    topology = getattr(fabric, "topology", None)
    if topology is not None:
        for link in topology.links():
            if link.messages == 0:
                continue
            stats = link.server.stats
            metrics.set_gauge("topo.link.messages", link.messages,
                              link=link.name)
            metrics.set_gauge("topo.link.bytes", link.bytes, link=link.name)
            metrics.set_gauge("topo.link.busy", stats.busy_time,
                              link=link.name)
            metrics.set_gauge(
                "topo.link.utilization",
                stats.busy_time / elapsed if elapsed > 0.0 else 0.0,
                link=link.name)
            metrics.set_gauge("topo.link.total_queue_delay",
                              stats.total_queue_delay, link=link.name)

    # -- fault injection + reliable transport (present only on worlds
    # built with faults=/transport=) --------------------------------------
    injector = getattr(world, "injector", None)
    if injector is not None:
        for key, value in injector.summary().items():
            metrics.set_gauge(f"fault.total.{key}", value)
    for proc in world.procs:
        transport = getattr(proc.lib, "transport", None)
        if transport is None:
            continue
        for key, value in transport.summary().items():
            metrics.set_gauge(f"transport.total.{key}", value,
                              rank=proc.rank)
        metrics.set_gauge("transport.unacked", transport.unacked,
                          rank=proc.rank)
