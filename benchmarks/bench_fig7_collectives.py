"""Fig 7 / Lessons 18-19: multithreaded collectives (the VASP pattern).

Compares the funneled baseline against the user-driven "existing
mechanisms" approach, one-step endpoints, and the prospective partitioned
collective — over message sizes — and reports the Lesson 19 buffer
duplication.

Also sweeps allreduce algorithm × interconnect topology
(``test_fig7_topology_crossover``): on the flat single-hop fabric the
ring is the large-message winner, but on a ``fat_tree(k=4)`` the same
communicator's ring schedule serializes every step through shared
D-mod-k up/down planes — per-link FIFO queueing the flat fabric cannot
express — and recursive doubling wins instead. One global size
threshold cannot pick the right algorithm on both fabrics; selection
must be per-communicator (``set_coll_algorithm``). See
docs/topology.md and the Fig 7 note in EXPERIMENTS.md.
"""

import numpy as np
from _common import bench_once, ratio

from repro.apps.vasp import VaspConfig, run_vasp
from repro.bench import Table, write_results
from repro.netsim import ClusterSpec
from repro.runtime import World

MECHS = ("funneled", "existing", "endpoints", "partitioned")
SIZES = (1 << 12, 1 << 15, 1 << 18)          # 32 KiB .. 2 MiB of float64


def _run(mech, elems):
    return run_vasp(VaspConfig(num_nodes=4, threads_per_proc=8,
                               elems=elems, repeats=2, mechanism=mech))


def test_fig7_collectives(benchmark) -> None:
    """Regenerate Fig 7: multithreaded allreduce by mechanism."""
    rows = {(m, s): _run(m, s) for m in MECHS for s in SIZES}

    table = Table("Fig 7: multithreaded allreduce time (us) vs size",
                  ["KiB"] + list(MECHS) + ["funneled/existing"],
                  widths=[8] + [12] * len(MECHS) + [18])
    for s in SIZES:
        table.add(s * 8 // 1024,
                  *[f"{rows[(m, s)].time_per_allreduce * 1e6:.1f}"
                    for m in MECHS],
                  f"{ratio(rows[('funneled', s)].time_per_allreduce, rows[('existing', s)].time_per_allreduce):.2f}x")
    dup = Table("Lesson 19: result-buffer bytes per node",
                ["mechanism", "KiB/node"], widths=[14, 10])
    for m in MECHS:
        dup.add(m, rows[(m, SIZES[1])].result_bytes_per_node // 1024)
    text = table.render() + "\n\n" + dup.render()
    path = write_results("fig7_collectives", text)
    print(text)
    print(f"[written to {path}]")

    assert all(r.correct for r in rows.values())
    for s in SIZES:
        # The VASP result: parallel segmented allreduce beats funneled,
        # with the advantage growing with size (paper: >2x).
        assert rows[("funneled", s)].time_per_allreduce \
            > rows[("existing", s)].time_per_allreduce
        # Endpoints and the prospective partitioned collective stay close
        # to the hand-rolled approach while being one-step for the user.
        assert rows[("endpoints", s)].time_per_allreduce \
            < rows[("funneled", s)].time_per_allreduce
        assert rows[("partitioned", s)].time_per_allreduce \
            <= rows[("existing", s)].time_per_allreduce * 1.05
    gaps = [ratio(rows[("funneled", s)].time_per_allreduce,
                  rows[("existing", s)].time_per_allreduce) for s in SIZES]
    # The advantage is strongest at small/medium sizes (rate-bound regime)
    # and narrows once the node link bandwidth dominates.
    assert max(gaps) > 1.5
    assert min(gaps) > 1.3
    big_gap = gaps[-1]
    # Lesson 19: endpoints duplicate the result buffer T times.
    assert rows[("endpoints", SIZES[1])].result_bytes_per_node \
        == 8 * rows[("existing", SIZES[1])].result_bytes_per_node

    benchmark.extra_info["funneled_over_existing_2MiB"] = round(big_gap, 2)
    bench_once(benchmark, lambda: _run("existing", SIZES[0]))


# ---------------------------------------------------------------------------
# allreduce algorithm × topology: the congestion-induced ranking change
# ---------------------------------------------------------------------------
EAGER = 16 * 1024                     # FabricParams.eager_threshold
TOPO_SIZES = (96 * 1024, 192 * 1024)  # bytes; rendezvous-regime payloads
#: Allreduce members: two edge-switch pairs across pods 0 and 1 of
#: fat_tree(k=4). Ring neighbors 0-1 and 4-5 stay edge-local, but every
#: ring step is gated by a 6-hop cross-pod chunk on the a0/core0 planes.
MEMBERS = (0, 1, 4, 5)
#: Background senders -> targets, chosen so the D-mod-k paths 2->4 and
#: 6->0 overlap the ring's cross-pod planes link-for-link. On the
#: ``direct`` fabric the same flows only share the targets' NIC ingress.
CONGEST = {2: 4, 6: 0}


def run_topology_allreduce(topology: str, algorithm: str, nbytes: int,
                           background: bool):
    """One allreduce among MEMBERS, optionally under background load.

    Returns ``(wall_seconds, correct, link_queue_delay_seconds)`` where
    the queue delay sums every topology link's FIFO wait (0.0 on the
    single-hop ``direct`` fabric, which has no links to queue on).
    """
    params = {"k": 4} if topology == "fat_tree" else {}
    world = World(cluster=ClusterSpec(nodes=16, topology=topology,
                                      **params), seed=0)
    n_bg, gap = 80, 0.3 * EAGER / world.cfg.fabric.bandwidth
    elems = nbytes // 8
    walls, outs = {}, {}

    def member(proc):
        comm = proc.comm_world
        sub = yield from comm.Split(0, MEMBERS.index(proc.rank))
        sub.set_coll_algorithm("allreduce", algorithm)
        out = np.zeros(elems)
        t0 = proc.sim.now
        yield from sub.Allreduce(np.full(elems, float(proc.rank + 1)), out)
        walls[proc.rank] = proc.sim.now - t0
        outs[proc.rank] = out
        if background and proc.rank in CONGEST.values():
            buf = np.zeros(EAGER // 8)
            for _ in range(n_bg):
                yield from comm.Recv(buf, source=-1, tag=99)

    def congestor(proc):
        comm = proc.comm_world
        yield from comm.Split(1, proc.rank)
        payload = np.zeros(EAGER // 8)
        for _ in range(n_bg):
            yield from comm.Send(payload, dest=CONGEST[proc.rank], tag=99)
            yield proc.compute(gap)

    def idle(proc):
        yield from proc.comm_world.Split(1, proc.rank)

    def role(rank):
        if rank in MEMBERS:
            return member
        if background and rank in CONGEST:
            return congestor
        return idle

    world.run_all([world.procs[r].spawn(role(r)(world.procs[r]))
                   for r in range(16)], max_steps=None)
    expected = sum(r + 1 for r in MEMBERS)
    correct = all(np.allclose(outs[r], expected) for r in MEMBERS)
    queue_delay = 0.0
    if world.topology is not None:
        queue_delay = sum(link.server.stats.total_queue_delay
                          for link in world.topology.links())
    return max(walls.values()), correct, queue_delay


def test_fig7_topology_crossover(benchmark) -> None:
    """Large-message allreduce ranking flips between direct and fat-tree.

    Acceptance demonstration: at rendezvous-regime sizes the flat fabric
    picks the ring, but on fat_tree(k=4) the ring's synchronized steps
    queue on shared D-mod-k planes (nonzero per-link FIFO delay) and
    recursive doubling wins — background traffic on those planes deepens
    the queueing without changing the verdict.
    """
    rows = {}
    for nbytes in TOPO_SIZES:
        for topo in ("direct", "fat_tree"):
            for algo in ("recursive_doubling", "ring"):
                for background in (False, True):
                    rows[(nbytes, topo, algo, background)] = \
                        run_topology_allreduce(topo, algo, nbytes,
                                               background)

    table = Table("Fig 7 addendum: allreduce time (us) by algorithm x "
                  "topology (4 ranks, quiet / congested)",
                  ["KiB", "fabric", "recursive_doubling", "ring",
                   "winner", "ring queue delay (us)"],
                  widths=[6, 10, 20, 18, 8, 22])
    for nbytes in TOPO_SIZES:
        for topo in ("direct", "fat_tree"):
            cells = {}
            for algo in ("recursive_doubling", "ring"):
                quiet = rows[(nbytes, topo, algo, False)][0]
                busy = rows[(nbytes, topo, algo, True)][0]
                cells[algo] = f"{quiet * 1e6:.1f} / {busy * 1e6:.1f}"
            t_rd = rows[(nbytes, topo, "recursive_doubling", True)][0]
            t_ring = rows[(nbytes, topo, "ring", True)][0]
            q_quiet = rows[(nbytes, topo, "ring", False)][2]
            q_busy = rows[(nbytes, topo, "ring", True)][2]
            table.add(nbytes // 1024, topo, cells["recursive_doubling"],
                      cells["ring"],
                      "RD" if t_rd < t_ring else "ring",
                      f"{q_quiet * 1e6:.1f} / {q_busy * 1e6:.1f}")
    text = table.render()
    path = write_results("fig7_topology_crossover", text)
    print(text)
    print(f"[written to {path}]")

    assert all(r[1] for r in rows.values()), "allreduce result corrupted"
    for nbytes in TOPO_SIZES:
        for background in (False, True):
            t_rd_d = rows[(nbytes, "direct", "recursive_doubling",
                           background)][0]
            t_ring_d = rows[(nbytes, "direct", "ring", background)][0]
            t_rd_f = rows[(nbytes, "fat_tree", "recursive_doubling",
                           background)][0]
            t_ring_f = rows[(nbytes, "fat_tree", "ring", background)][0]
            # the ranking change: ring wins flat, RD wins the fat tree
            assert t_ring_d < t_rd_d, (nbytes, background)
            assert t_rd_f < t_ring_f, (nbytes, background)
        # the flip is congestion: the fat-tree ring run queues on links
        # (the direct fabric has no links, so its queue delay is 0.0)
        assert rows[(nbytes, "direct", "ring", False)][2] == 0.0
        q_quiet = rows[(nbytes, "fat_tree", "ring", False)][2]
        q_busy = rows[(nbytes, "fat_tree", "ring", True)][2]
        assert q_quiet > 0.0
        assert q_busy > q_quiet  # background load deepens the queueing

    flip = rows[(TOPO_SIZES[0], "fat_tree", "ring", True)][0] \
        / rows[(TOPO_SIZES[0], "fat_tree", "recursive_doubling", True)][0]
    benchmark.extra_info["fat_tree_ring_over_rd_96KiB"] = round(flip, 2)
    bench_once(benchmark, lambda: run_topology_allreduce(
        "fat_tree", "ring", TOPO_SIZES[0], False))
