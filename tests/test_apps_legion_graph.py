"""Tests for the Legion event-runtime / circuit and graph proxies."""

import hashlib
import json

import pytest

from repro.apps.graph import GraphConfig, partition_graph, run_graph
from repro.apps.graph.vite import barabasi_albert
from repro.apps.legion import (
    CircuitConfig,
    LegionConfig,
    run_circuit,
    run_legion,
)
from repro.errors import MpiUsageError
from repro.scenarios import get_app, sample_scenarios

from tests.oracles import networkx_adjacency


# ---------------------------------------------------------------- legion

@pytest.mark.parametrize("mechanism", ["original", "communicators",
                                       "endpoints"])
def test_legion_all_events_processed(mechanism):
    cfg = LegionConfig(num_nodes=3, task_threads=4, msgs_per_thread=6,
                       mechanism=mechanism)
    r = run_legion(cfg)
    assert r.correct
    assert r.polling_rate > 0


def test_legion_partitioned_rejected():
    """Lesson 15: wildcard polling cannot be expressed with partitions."""
    with pytest.raises(MpiUsageError, match="Lesson 15"):
        LegionConfig(mechanism="partitioned")


def test_legion_needs_two_nodes():
    with pytest.raises(MpiUsageError):
        LegionConfig(num_nodes=1)


def test_fig5_polling_cost_grows_with_communicators():
    """Fig 5 / Lesson 5: the polling thread pays more per event when it
    must iterate over the task threads' communicators (paper: 1.63x)."""
    base = dict(num_nodes=3, task_threads=8, msgs_per_thread=10)
    r_comm = run_legion(LegionConfig(mechanism="communicators", **base))
    r_ep = run_legion(LegionConfig(mechanism="endpoints", **base))
    ratio = r_comm.polling_cost_per_event / r_ep.polling_cost_per_event
    assert 1.2 < ratio < 2.5
    assert r_comm.probes_per_event > 1.5 * r_ep.probes_per_event


def test_fig5_ratio_grows_with_thread_count():
    """More task threads -> more communicators to iterate -> worse."""
    def ratio(nthreads):
        # Scale the per-thread think time with the thread count so the
        # aggregate event rate at the polling thread stays constant.
        base = dict(num_nodes=3, task_threads=nthreads, msgs_per_thread=10,
                    task_work=1.25e-6 * nthreads * 2)
        r_comm = run_legion(LegionConfig(mechanism="communicators", **base))
        r_ep = run_legion(LegionConfig(mechanism="endpoints", **base))
        return r_comm.polling_cost_per_event / r_ep.polling_cost_per_event

    assert ratio(12) > ratio(3)


# ---------------------------------------------------------------- circuit

@pytest.mark.parametrize("mechanism", ["original", "communicators",
                                       "endpoints"])
def test_circuit_correct(mechanism):
    cfg = CircuitConfig(num_nodes=3, task_threads=4, timesteps=3,
                        wires_per_thread=4, mechanism=mechanism)
    assert run_circuit(cfg).correct


def test_fig1c_original_slower():
    base = dict(num_nodes=3, task_threads=8, timesteps=4,
                wires_per_thread=16, compute_per_step=1e-6)
    t_orig = run_circuit(CircuitConfig(mechanism="original", **base))
    t_ep = run_circuit(CircuitConfig(mechanism="endpoints", **base))
    assert t_orig.time_per_step > 1.1 * t_ep.time_per_step


def test_circuit_deterministic():
    cfg = CircuitConfig(num_nodes=2, task_threads=3, timesteps=2,
                        mechanism="endpoints")
    assert run_circuit(cfg).wall_time == run_circuit(cfg).wall_time


# ---------------------------------------------------------------- graph

def test_partition_graph_covers_all_vertices():
    cfg = GraphConfig(graph_vertices=64, num_nodes=2, threads_per_proc=2)
    g, owners = partition_graph(cfg)
    assert set(owners) == set(g)
    assert all(0 <= p < 2 and 0 <= t < 2 for p, t in owners.values())


#: ``(graph_vertices, graph_degree, seed)`` -> sha-256 of the adjacency:
#: ``m = 1``, ``m = n - 1``, the ``GraphConfig`` default, two larger ones
#: and the four graph specs of ``sample_scenarios(42, 48)``. Recorded
#: with networkx 3.6.1 installed and equal to it then; they hold the
#: graph still on a host without the library.
ADJACENCY_PINS = {
    (2, 1, 0):
        "317b4e8bfe83d91c76223998ebed71384a18a4f224de84b84775a988c9b34cb2",
    (9, 1, 3):
        "7f039263c707b2ecc1bdeee4a02acd326fd6fd8149c0a85d67e8fd619c835cd5",
    (9, 8, 1):
        "befbe52e1d0d4aadc1f3a9458990c85c75bdd7ebc2632cdc212ddba124c17e19",
    (256, 4, 0):
        "476f2de22488ecc2747f9628333b89121f6c041ddd8154c17f74402ffc0d5566",
    (1000, 2, 7):
        "a80609dfe32ec22ca0971248f68f547675aac89dd9ff733e23fad8a1b4d591c3",
    (120, 7, 11):
        "99881d5ef58c6ab83661991cd0c8507022ca7c99dd740744b682bf145216e82a",
    (64, 4, 828942037):
        "9d477ee9eac115e08f356ef5166aeb0971db7ed8f3062627480f533a17fde099",
    (48, 4, 832458582):
        "b97934f63e93387a84051afcc5c1429bd25764f55294c7871dd5add8b4ebc450",
    (24, 4, 26854761):
        "15a2b74bf34a51e39dba5050d7dd2167990fa52a18d12f963879423007848d02",
    (64, 4, 721116661):
        "686cbad568f769a6372ed51cc1595393b656d1231ae19e059321c1826ad10f75",
}


def test_adjacency_pins_cover_the_sampled_graph_scenarios():
    default = GraphConfig()
    sampled = [get_app("graph").build(spec)
               for spec in sample_scenarios(42, 48) if spec.app == "graph"]
    assert len(sampled) == 4
    for cfg in [default, *sampled]:
        assert (cfg.graph_vertices, cfg.graph_degree,
                cfg.seed) in ADJACENCY_PINS


@pytest.mark.parametrize("triple", ADJACENCY_PINS, ids=str)
def test_graph_is_pinned_without_networkx(triple):
    n, m, _ = triple
    adjacency = barabasi_albert(*triple)
    assert list(adjacency) == list(range(n))
    assert sum(map(len, adjacency.values())) == 2 * m * (n - m)
    # undirected and simple: a thread's send table is its receive table
    assert all(adjacency[u].count(v) == 1
               for v, neighbours in adjacency.items() for u in neighbours)
    text = json.dumps(list(adjacency.items()), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == ADJACENCY_PINS[triple]


@pytest.mark.parametrize("triple", ADJACENCY_PINS, ids=str)
def test_graph_is_the_one_networkx_grows(triple):
    """Vertex order and every vertex's neighbour order, not just the edge
    set: both enter the partner tables and through them the digests."""
    pytest.importorskip("networkx")
    ours, theirs = barabasi_albert(*triple), networkx_adjacency(*triple)
    assert list(ours) == list(theirs)
    assert ours == theirs


@pytest.mark.parametrize("mechanism", ["original", "tags", "communicators",
                                       "endpoints"])
def test_graph_all_updates_delivered(mechanism):
    cfg = GraphConfig(num_nodes=3, threads_per_proc=3, graph_vertices=90,
                      iters=3, mechanism=mechanism)
    r = run_graph(cfg)
    assert r.correct
    assert r.remote_messages > 0


def test_graph_churn_validation():
    with pytest.raises(MpiUsageError):
        GraphConfig(churn=1.5)


def test_lesson5_churn_causes_communicator_conflicts():
    """Dynamic neighbourhoods make distinct local threads share static
    communicators (Lesson 5); endpoints never conflict."""
    base = dict(num_nodes=3, threads_per_proc=4, graph_vertices=120,
                iters=4, churn=0.5)
    r_comm = run_graph(GraphConfig(mechanism="communicators", **base))
    r_ep = run_graph(GraphConfig(mechanism="endpoints", **base))
    assert r_comm.comm_conflicts > 0
    assert r_ep.comm_conflicts == 0


def test_graph_zero_churn_static_pattern():
    cfg = GraphConfig(num_nodes=2, threads_per_proc=2, graph_vertices=40,
                      iters=2, churn=0.0, mechanism="tags")
    assert run_graph(cfg).correct
