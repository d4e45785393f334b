"""Background-traffic injectors (repro.netsim.traffic)."""

import math

import numpy as np
import pytest

from repro.errors import ScenarioError, TrafficConfigError
from repro.faults import FaultPlan
from repro.netsim.traffic import TRAFFIC_KINDS, TrafficShape, install_traffic
from repro.runtime import World
from repro.scenarios import ScenarioSpec
from repro.snap import capture_state, state_digest


def _run_traffic(shape, seed=0, nodes=3, faults=None):
    world = World(num_nodes=nodes, procs_per_node=1, faults=faults)
    tasks = install_traffic(world, shape, seed)
    world.run_all(tasks, max_steps=None)
    world.run()  # drain in-flight deliveries past the last send
    return world


class TestTrafficShape:
    def test_roundtrip(self):
        shape = TrafficShape(kind="bursty", flows=3, msgs_per_flow=5,
                             size=128, vcis=2)
        assert TrafficShape.from_dict(shape.to_dict()) == shape

    def test_unknown_key_rejected(self):
        with pytest.raises(TrafficConfigError):
            TrafficShape.from_dict({"kind": "mice", "wat": 1})

    @pytest.mark.parametrize("kwargs", [
        {"kind": "avalanche"},
        {"flows": -1},
        {"msgs_per_flow": 0},
        {"size": 0},
        {"rate": float("nan")},
        {"alpha": 0.0},
        {"vcis": 0},
        {"start": math.inf},
        {"burst_on": math.inf},
        {"burst_off": math.inf},
    ])
    def test_eager_validation(self, kwargs):
        with pytest.raises(TrafficConfigError):
            TrafficShape(**kwargs)

    @pytest.mark.parametrize("field", ["start", "burst_on", "burst_off"])
    def test_scenario_document_with_an_infinite_time_is_rejected(self, field):
        """``.inf`` in a scenario document fails when the spec is built;
        it used to reach the run as a NaN delay and end in a crash."""
        spec = ScenarioSpec(app="stencil", mechanism="tags",
                            traffic=TrafficShape(kind="bursty", flows=2))
        document = spec.to_yaml().replace(f"{field}: ", f"{field}: .inf #")
        with pytest.raises(ScenarioError, match=field.split("_")[0]):
            ScenarioSpec.from_yaml(document)


class TestInjection:
    @pytest.mark.parametrize("kind", TRAFFIC_KINDS)
    def test_all_messages_delivered(self, kind):
        shape = TrafficShape(kind=kind, flows=3, msgs_per_flow=6, size=64)
        world = _run_traffic(shape, seed=2)
        session = world.traffic
        assert session.sent == 3 * 6
        assert session.delivered == 3 * 6
        assert session.bytes_sent > 0

    def test_deterministic_per_seed(self):
        shape = TrafficShape(kind="requests", flows=4, msgs_per_flow=8)
        digests = []
        for _ in range(2):
            world = _run_traffic(shape, seed=7)
            digests.append(state_digest(capture_state(world)))
        assert digests[0] == digests[1]

    def test_different_seed_differs(self):
        shape = TrafficShape(kind="mice", flows=4, msgs_per_flow=8)
        w1 = _run_traffic(shape, seed=1)
        w2 = _run_traffic(shape, seed=2)
        assert (state_digest(capture_state(w1))
                != state_digest(capture_state(w2)))

    def test_no_traffic_leaves_state_tree_unchanged(self):
        world = World(num_nodes=2, procs_per_node=1)
        assert world.traffic is None
        world.run()
        assert "traffic" not in capture_state(world)

    def test_single_proc_world_gets_no_flows(self):
        world = World(num_nodes=1, procs_per_node=1)
        assert install_traffic(world, TrafficShape(), 0) == []

    def test_single_node_world_gets_no_flows(self):
        """Two ranks sharing a node only have shared memory between them:
        nothing a "network load" flow could load."""
        world = World(num_nodes=1, procs_per_node=2)
        assert install_traffic(world, TrafficShape(), 0) == []
        assert world.traffic is None

    @pytest.mark.parametrize("seed", range(4))
    def test_every_flow_crosses_nodes(self, seed):
        """Regression: destinations were drawn from the other *ranks*, so
        with several processes per node a flow could stay inside one node
        and never touch the fabric."""
        world = World(num_nodes=3, procs_per_node=2)
        shape = TrafficShape(kind="mice", flows=24, msgs_per_flow=1)
        install_traffic(world, shape, seed)
        node_of = [proc.node.node_id for proc in world.procs]
        table = world.traffic.flow_table
        assert len(table) == 24
        assert all(node_of[src] != node_of[dst] for src, dst, _ in table)
        # ... and no rank became unreachable.
        assert {dst for _, dst, _ in table} == set(range(6))

    def test_none_shape_is_noop(self):
        world = World(num_nodes=2, procs_per_node=1)
        assert install_traffic(world, None, 0) == []
        assert world.traffic is None

    def test_lossy_fabric_recovers_all(self):
        shape = TrafficShape(kind="mice", flows=3, msgs_per_flow=5)
        world = _run_traffic(shape, seed=4,
                             faults=FaultPlan(drop=0.2, dup=0.05))
        assert world.traffic.delivered == 3 * 5

    def test_flow_table_in_snapshot_state(self):
        shape = TrafficShape(kind="elephants", flows=2, msgs_per_flow=3)
        world = _run_traffic(shape, seed=5)
        state = capture_state(world)
        assert state["traffic"]["seed"] == 5
        assert len(state["traffic"]["flow_table"]) == 2
        assert state["traffic"]["delivered"] == 6
