"""Unit + property tests for repro.netsim.topology: ClusterSpec, the
generators, routing, the RoutedFabric, per-communicator collective
algorithm selection, and byte-identity of the ``direct`` topology with
the legacy single-hop fabric."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InvalidHintError, MpiUsageError, TopologyError
from repro.netsim import (
    ClusterSpec,
    NetworkConfig,
    Topology,
    dragonfly,
    fat_tree,
    host_vertex,
    torus,
)
from repro.obs import MetricsRegistry, Tracer
from repro.runtime import World
from repro.snap import capture_state, reproduce, state_digest
from tests.oracles import (
    dragonfly_table,
    fat_tree_table,
    table_route,
    torus_table,
)

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def crisscross_world(make_world, nmsg=6, elems=512):
    """A fig1a-style workload: threads exchange tagged messages across
    two nodes, exercising eager + rendezvous and both fabric directions."""
    w = make_world()

    def node(proc):
        peer = 1 - proc.rank

        def thread(tid):
            out = np.full(elems, float(proc.rank * 10 + tid))
            buf = np.zeros(elems)
            for i in range(nmsg):
                rreq = yield from proc.comm_world.Irecv(buf, peer, tag=tid)
                sreq = yield from proc.comm_world.Isend(out, peer, tag=tid)
                yield from rreq.wait()
                yield from sreq.wait()

        yield proc.sim.all_of([proc.spawn(thread(t)) for t in range(3)])

    w.run_all([p.spawn(node(p)) for p in w.procs])
    return w


# ----------------------------------------------------- golden identity

def test_direct_topology_byte_identical_to_legacy_fabric():
    """Acceptance: equal state digests on the fig1a-style workload,
    built from bare dimension keywords and from a ``direct`` spec."""
    def legacy():
        return World(num_nodes=2, procs_per_node=1, threads_per_proc=3,
                     seed=3)

    def direct():
        return World(cluster=ClusterSpec(nodes=2, threads_per_proc=3,
                                         topology="direct",
                                         network=NetworkConfig()),
                     seed=3)

    d_legacy = state_digest(capture_state(crisscross_world(legacy)))
    d_direct = state_digest(capture_state(crisscross_world(direct)))
    assert d_legacy == d_direct


def test_routed_topology_changes_timing_not_results():
    def fat():
        return World(cluster=ClusterSpec(nodes=2, topology="fat_tree", k=4,
                                         threads_per_proc=3), seed=3)

    def direct():
        return World(cluster=ClusterSpec(nodes=2, threads_per_proc=3),
                     seed=3)

    w_fat, w_direct = crisscross_world(fat), crisscross_world(direct)
    # multi-hop store-and-forward is strictly slower than single-hop
    assert w_fat.sim.now > w_direct.sim.now
    assert state_digest(capture_state(w_fat)) \
        != state_digest(capture_state(w_direct))


# -------------------------------------------------------- ClusterSpec

def test_cluster_and_explicit_dims_are_mutually_exclusive():
    with pytest.raises(MpiUsageError, match="ClusterSpec"):
        World(cluster=ClusterSpec(nodes=2), num_nodes=2)


def test_clusterspec_validates_eagerly():
    with pytest.raises(TopologyError, match="unknown topology 'hypercube'; "
                       "choose from direct, dragonfly, fat_tree, torus$"):
        ClusterSpec(nodes=2, topology="hypercube")
    with pytest.raises(TopologyError, match="even"):
        ClusterSpec(nodes=2, topology="fat_tree", k=3)
    with pytest.raises(TopologyError):
        ClusterSpec(nodes=64, topology="fat_tree", k=4)  # 16 hosts < 64
    with pytest.raises(TopologyError, match="positive"):
        ClusterSpec(nodes=0)
    with pytest.raises(TopologyError, match="parameters"):
        ClusterSpec(nodes=2, topology="direct", bogus=1)


# ----------------------------------------------------------- routing

def _route_properties(topo):
    """Every host pair routes: contiguous path, correct endpoints, and
    loop-freedom (route() raises TopologyError on a next-hop cycle)."""
    for src in range(topo.num_hosts):
        for dst in range(topo.num_hosts):
            if src == dst:
                continue
            path = topo.route(src, dst)
            assert path, (src, dst)
            assert path[0].src == host_vertex(src)
            assert path[-1].dst == host_vertex(dst)
            for a, b in zip(path, path[1:]):
                assert a.dst == b.src
            vertices = [path[0].src] + [link.dst for link in path]
            assert len(set(vertices)) == len(vertices), "routing loop"


@SETTINGS
@given(k=st.sampled_from([2, 4, 6]))
def test_fat_tree_routes_every_pair(k):
    topo = fat_tree(k)
    assert topo.num_hosts == k ** 3 // 4
    _route_properties(topo)


@SETTINGS
@given(a=st.integers(1, 3), p=st.integers(1, 2), h=st.integers(1, 2))
def test_dragonfly_routes_every_pair(a, p, h):
    topo = dragonfly(a, p, h)
    assert topo.num_hosts == a * p * (a * h + 1)
    _route_properties(topo)


@SETTINGS
@given(dims=st.lists(st.integers(2, 4), min_size=1, max_size=3))
def test_torus_routes_every_pair(dims):
    topo = torus(tuple(dims))
    assert topo.num_hosts == int(np.prod(dims))
    _route_properties(topo)


@pytest.mark.parametrize("generator, table, args", [
    *[(fat_tree, fat_tree_table, (k,)) for k in (2, 4, 6)],
    *[(dragonfly, dragonfly_table, aph)
      for aph in ((4, 2, 2), (2, 1, 1), (3, 2, 1))],
    *[(torus, torus_table, (dims,))
      for dims in ((2, 2), (3, 3), (4, 2, 3), (5,))],
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_rule_routes_every_pair_as_the_table_did(generator, table, args):
    """The next-hop rule a generator registers walks, for every host
    pair, the links the up-front table walked, in the same order."""
    topo, oracle = generator(*args), table(*args)
    for src in range(topo.num_hosts):
        for dst in range(topo.num_hosts):
            assert [link.name for link in topo.route(src, dst)] == \
                table_route(oracle, src, dst), (src, dst)
    topo.validate()


def test_bad_rules_are_typed():
    looping = Topology("t", num_hosts=2)
    for switch in ("s0", "s1"):
        looping.add_switch(switch)
    looping.add_duplex("h0", "s0")
    looping.add_duplex("s0", "s1")
    # h0 -> s0 -> s1 -> s0: host 1 is never reached.
    looping.set_routing_rule(lambda vertex, dst: looping.link(
        vertex, {"h0": "s0", "s0": "s1", "s1": "s0"}[vertex]))
    with pytest.raises(TopologyError, match="routing loop"):
        looping.route(0, 1)
    lying = Topology("t", num_hosts=2)
    lying.add_switch("sw")
    up, down = lying.add_duplex("h0", "sw")
    lying.set_routing_rule(lambda vertex, dst: up)
    with pytest.raises(TopologyError, match="must leave that vertex"):
        lying.route(0, 1)


def test_one_generator_call_per_world(monkeypatch):
    """``ClusterSpec`` builds a graph to validate its parameters and
    ``World`` takes that one; only a second taker pays for another."""
    import repro.netsim.topology.generators as generators
    built = []

    def counting(*args, **kwargs):
        built.append(fat_tree(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(generators, "fat_tree", counting)
    spec = ClusterSpec(nodes=2, topology="fat_tree", k=4)
    world = World(cluster=spec, seed=1)
    assert len(built) == 1 and world.topology is built[0]
    again = spec.build_topology()
    assert len(built) == 2 and again is built[1] and again is not built[0]
    World(cluster=ClusterSpec(nodes=2), seed=1)  # direct: no graph at all
    assert len(built) == 2


@pytest.mark.parametrize("topology,params,n", [
    ("fat_tree", {"k": 4}, 16),
    ("dragonfly", {"a": 2, "p": 2, "h": 1}, 12),
    ("torus", {"dims": (3, 3)}, 9),
], ids=["fat_tree", "dragonfly", "torus"])
def test_per_link_byte_conservation(topology, params, n):
    """After an all-pairs exchange, every switch forwards exactly the
    bytes it receives (messages originate/terminate only at hosts)."""
    w = World(cluster=ClusterSpec(nodes=n, topology=topology, **params),
              seed=1)

    def node(proc):
        def thread(dst):
            buf = np.zeros(64 + dst)
            rreq = yield from proc.comm_world.Irecv(buf, dst, tag=proc.rank)
            sreq = yield from proc.comm_world.Isend(
                np.full(64 + proc.rank, 1.0), dst, tag=dst)
            yield from rreq.wait()
            yield from sreq.wait()

        others = [d for d in range(n) if d != proc.rank]
        yield proc.sim.all_of([proc.spawn(thread(d)) for d in others])

    w.run_all([p.spawn(node(p)) for p in w.procs])

    hosts = {host_vertex(h) for h in range(n)}
    inflow: dict[str, int] = {}
    outflow: dict[str, int] = {}
    for link in w.topology.links():
        outflow[link.src] = outflow.get(link.src, 0) + link.bytes
        inflow[link.dst] = inflow.get(link.dst, 0) + link.bytes
    switches = set(inflow) | set(outflow)
    for sw in switches - hosts:
        assert inflow.get(sw, 0) == outflow.get(sw, 0), sw
    # something actually flowed
    assert sum(l.bytes for l in w.topology.links()) > 0


def test_route_errors_are_typed():
    topo = Topology("t", num_hosts=2)
    topo.add_switch("sw")
    with pytest.raises(TopologyError, match="out of range"):
        topo.route(0, 5)
    with pytest.raises(TopologyError, match="no next hop"):
        topo.route(0, 1)


# ---------------------------------------- per-comm algorithm selection

def run_allreduce(world, algorithm, elems=256):
    """Allreduce over all ranks on a Dup'd comm; returns (ok, wall)."""
    outs = {}

    def node(proc):
        comm = yield from proc.comm_world.Dup()
        comm.set_coll_algorithm("allreduce", algorithm)
        data = np.full(elems, float(proc.rank + 1))
        out = np.zeros(elems)
        yield from comm.Allreduce(data, out)
        outs[proc.rank] = out
        comm.Free()

    world.run_all([p.spawn(node(p)) for p in world.procs])
    n = world.num_procs
    expected = np.full(elems, n * (n + 1) / 2)
    return all(np.allclose(o, expected) for o in outs.values()), \
        world.sim.now


def test_set_coll_algorithm_changes_schedule():
    mk = lambda: World(cluster=ClusterSpec(nodes=4), seed=5)
    ok_ring, t_ring = run_allreduce(mk(), "ring", elems=8192)
    ok_rd, t_rd = run_allreduce(mk(), "recursive_doubling", elems=8192)
    assert ok_ring and ok_rd
    assert t_ring != t_rd  # genuinely different algorithms ran


def test_coll_algorithm_accessors_and_validation():
    w = World(cluster=ClusterSpec(nodes=2))
    comm = w.procs[0].comm_world
    assert comm._coll_algorithms == {}
    comm.set_coll_algorithm("allreduce", "ring")
    assert comm._coll_algorithms == {"allreduce": "ring"}
    comm.set_coll_algorithm("allreduce", "auto")
    assert comm._coll_algorithms == {}
    for algorithm in ("recursive_doubling", "ring"):
        comm.set_coll_algorithm(" AllReduce ", f" {algorithm.upper()} ")
        assert comm._coll_algorithms == {"allreduce": algorithm}
    comm.set_coll_algorithm(" AllReduce ", " AUTO ")
    assert comm._coll_algorithms == {}
    with pytest.raises(InvalidHintError,
                       match="unknown allreduce algorithm 'quantum'"):
        comm.set_coll_algorithm("allreduce", "quantum")
    with pytest.raises(InvalidHintError,
                       match="unknown collective operation 'allshuffle'"):
        comm.set_coll_algorithm("allshuffle", "ring")


def test_split_inherits_selection():
    w = World(cluster=ClusterSpec(nodes=2))
    seen = {}

    def node(proc):
        proc.comm_world.set_coll_algorithm("allreduce", "ring")
        sub = yield from proc.comm_world.Split(0, proc.rank)
        seen[proc.rank] = sub._coll_algorithms.get("allreduce")
        sub.Free()

    w.run_all([p.spawn(node(p)) for p in w.procs])
    assert set(seen.values()) == {"ring"}


# ------------------------------------------------- snapshot roundtrip

def fat_tree_world(seed=0):
    w = World(cluster=ClusterSpec(nodes=16, topology="fat_tree", k=4),
              seed=seed)

    def node(proc):
        peer = (proc.rank + 8) % 16
        out = np.full(1024, float(proc.rank))
        buf = np.zeros(1024)
        rreq = yield from proc.comm_world.Irecv(buf, peer, tag=0)
        sreq = yield from proc.comm_world.Isend(out, peer, tag=0)
        yield from rreq.wait()
        yield from sreq.wait()

    for p in w.procs:
        p.spawn(node(p))
    return w


def test_fat_tree_snapshot_roundtrip():
    """Digest and verified reproduction stay exact with a topology."""
    w = fat_tree_world()
    w.sim.run_steps(100)
    state = capture_state(w)
    assert state["topology"] is not None
    assert state["topology"]["name"] == "fat_tree(k=4)"
    assert any(l["bytes"] > 0 for l in state["topology"]["links"].values())

    built = []

    def upto_100():
        built.append(fat_tree_world())
        built[-1].sim.run_steps(100)

    record, _ = reproduce({}, upto_100)
    assert record.verified and record.step == 100
    assert record.digest == state_digest(state)
    assert state_digest(capture_state(built[-1])) == record.digest


def test_topology_state_distinguishes_link_traffic():
    w1, w2 = fat_tree_world(), fat_tree_world()
    w1.sim.run_steps(60)
    w2.sim.run_steps(61)
    assert state_digest(capture_state(w1)) \
        != state_digest(capture_state(w2))


# ----------------------------------------------------- observability

def test_link_metrics_and_traces_flow():
    metrics, tracer = MetricsRegistry(), Tracer()
    w = World(cluster=ClusterSpec(nodes=16, topology="fat_tree", k=4),
              seed=0, metrics=metrics, tracer=tracer)

    def node(proc):
        if proc.rank == 0:
            yield from proc.comm_world.Send(np.zeros(4096), dest=15, tag=0)
        elif proc.rank == 15:
            yield from proc.comm_world.Recv(np.zeros(4096), source=0, tag=0)

    w.run_all([p.spawn(node(p)) for p in w.procs])
    w.finalize_metrics()
    sample = metrics.snapshot()
    assert sample.get("topo.link.bytes"), "per-link gauges missing"
    assert sample.get("topo.link.queue_delay"), "queue-delay histogram missing"
    hops = [r for r in tracer.records
            if r.category.name == "topo.link.hop"]
    # 0 -> 15 crosses pods: host->edge->agg->core->agg->edge->host
    assert len(hops) >= 6
