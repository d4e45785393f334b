"""The composed state encoder against the one-line reference.

``canonical_json`` composes the top of a state tree by hand so that the
hardware contexts no run touched cost a cached string each instead of a
built object and an encoder walk. The contract is that nobody can tell:
for every tree, live or loaded, the text is what ``json.dumps`` emits and
the digest is its SHA-256. The reference below is that one line, applied
to a tree captured *after* every NIC pool was built out slot by slot, so
it shares nothing with the production path — not the pristine records,
not the text cache, not the composition.
"""

import copy
import hashlib
import json

import numpy as np
import pytest

from repro.bench import MsgRateConfig, run_msgrate
from repro.check import CheckConfig, checking
from repro.check import checker as check_checker
from repro.check.session import Session
from repro.faults import CtxStall, FaultPlan
from repro.netsim import NetworkConfig
from repro.netsim.config import NicParams
from repro.netsim.nic import HardwareContext, Nic
from repro.runtime import World
from repro.scenarios import sample_scenarios
from repro.scenarios.apps import get_app
from repro.scenarios.executor import run_scenario
from repro.sim import Simulator
from repro.snap import (
    canonical_json,
    capture_state,
    diff_states,
    prune_state,
    reproduce,
    state_digest,
)
from repro.snap import state as snap_state
from tests.helpers import (
    build_out_pools,
    checked_msgrate_world,
    flat_world,
    lockstep,
    run_ranks,
)
from tests.oracles import ShadowedTaskClock

FIG1A_MODES = ("everywhere", "threads-original", "threads-tags",
               "threads-comms", "threads-endpoints")


def reference_json(tree) -> str:
    return json.dumps(tree, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def reference_digest(tree) -> str:
    return hashlib.sha256(reference_json(tree).encode("utf-8")).hexdigest()


def shared_records(tree) -> int:
    """How many context records of ``tree`` are shared pristine ones."""
    return sum(rec is snap_state._PRISTINE.get(i, (None,))[0]
               for nic in tree["nics"].values()
               for i, rec in enumerate(nic["contexts"]))


def assert_same_encoding(world) -> dict:
    """Production text/digest of ``world`` now == reference text/digest of
    the same world with its pools built out. Returns the production tree
    (captured first, so it still shares records)."""
    tree = capture_state(world)
    text, digest = canonical_json(tree), state_digest(tree)
    shared = shared_records(tree)
    build_out_pools(world)
    full = capture_state(world)
    assert shared_records(full) == 0
    assert text == reference_json(full)
    assert digest == reference_digest(full)
    # The reference encoder does not care who owns a record either.
    assert reference_json(tree) == text
    assert shared_records(tree) == shared
    return tree


# ------------------------------------------------ (a) end-of-run worlds

def test_all_sampled_scenarios_encode_as_the_reference_does():
    shared = 0
    for spec in sample_scenarios(42, 48):
        with checking(CheckConfig(mode="warn", emit_warnings=False)) as ses:
            get_app(spec.app).run(spec)
        tree = assert_same_encoding(ses.worlds[-1])
        shared += shared_records(tree)
        # ... and it is the digest the executor reports for the scenario.
        assert run_scenario(spec)["digest"] == reference_digest(tree)
    assert shared > 48  # the composed path was exercised, not bypassed


# --------------------------------------------- (b) mid-run, Fig 1(a)

class BoundaryTexts(Session):
    """Stops the world every ``interval`` steps and encodes it there:
    production on the untouched world, or the reference on a world built
    out at its first stop."""

    def __init__(self, interval: int, reference: bool):
        super().__init__()
        self.stop_step = self.interval = interval
        self.on_stop = self.encode
        self.reference = reference
        self.texts: list[str] = []
        self.digests: list[str] = []
        self.shared = 0

    def encode(self, world) -> None:
        self.stop_step += self.interval
        if self.reference:
            build_out_pools(world)
            tree = capture_state(world)
            self.texts.append(reference_json(tree))
            self.digests.append(reference_digest(tree))
        else:
            tree = capture_state(world)
            self.texts.append(canonical_json(tree))
            self.digests.append(state_digest(tree))
        self.shared += shared_records(tree)


@pytest.mark.parametrize("mode", FIG1A_MODES)
def test_midrun_boundaries_encode_as_the_reference_does(mode):
    runs = []
    for reference in (False, True):
        with BoundaryTexts(61, reference) as session:
            run_msgrate(MsgRateConfig(mode=mode, cores=4, msg_bytes=8,
                                      window=8, msgs_per_core=16),
                        net=NetworkConfig.omnipath())
        runs.append(session)
    production, reference = runs
    assert len(production.texts) >= 5
    assert production.texts == reference.texts
    assert production.digests == reference.digests
    assert production.shared > 0 and reference.shared == 0


# ------------------------------------- (c) jitter, (d) non-prefix slots

def _exchange(world, n=6):
    def rank0(proc):
        for tag in range(n):
            yield from proc.comm_world.Send(np.arange(4.0), dest=1, tag=tag)

    def rank1(proc):
        buf = np.zeros(4)
        for tag in range(n):
            yield from proc.comm_world.Recv(buf, source=0, tag=tag)

    run_ranks(world, rank0, rank1)


def test_jittered_world_encodes_as_the_reference_does():
    net = NetworkConfig(nic=NicParams(issue_jitter=70e-9), name="jitter")
    world = flat_world(2, network=net)
    _exchange(world)
    ctx = world.nodes[0].nic.built_contexts()[0]
    assert ctx._jitter_state != ctx.index * 0x9E3779B9 + 1  # it drew
    assert_same_encoding(world)


def test_failover_onto_a_non_prefix_slot_encodes_as_the_reference_does():
    plan = FaultPlan(stalls=(
        CtxStall(node=0, ctx=0, start=0.0, duration=1.0),
        CtxStall(node=0, ctx=1, start=0.0, duration=1.0)))
    world = World(num_nodes=2, procs_per_node=1, faults=plan, seed=0)
    _exchange(world)
    slots = world.nodes[0].nic.slots()
    assert [i for i, c in enumerate(slots) if c is not None] == [0, 2]
    tree = assert_same_encoding(world)
    assert tree["nics"]["0"]["contexts"][2]["failovers_in"] > 0


# ------------------------------------------- (e) trees without identity

def test_round_tripped_and_loaded_trees_encode_identically():
    with Session() as session:
        run_msgrate(MsgRateConfig(mode="threads-endpoints", cores=4,
                                  msg_bytes=8, window=8, msgs_per_core=8),
                    net=NetworkConfig.omnipath())
    (world,) = session.worlds
    state = capture_state(world)
    digest = state_digest(state)
    assert shared_records(state) > 0
    text = canonical_json(state)
    assert text == reference_json(state)

    pruned = prune_state(state, ("engine.internals",))
    for tree in (json.loads(text), copy.deepcopy(state)):
        assert shared_records(tree) == 0
        assert canonical_json(tree) == text
        assert state_digest(tree) == digest == reference_digest(tree)
    assert canonical_json(pruned) == reference_json(pruned)
    # Not every dict with a "nics" key is a state tree.
    for odd in ({"nics": None}, {"nics": {}}, {"nics": {"0": []}},
                {"nics": {0: {}}}, {"nics": {"0": {}}},
                {"nics": {"0": {3: 0, 1: 0.0}}}, [{"nics": {}}],
                {"nics": {"0": {"contexts": 3}}, "é": float("inf")}):
        assert canonical_json(odd) == reference_json(odd)


# ------------------------------------------------- the shared records

@pytest.mark.parametrize("net", [NetworkConfig(), NetworkConfig.omnipath(),
                                 NetworkConfig.abundant(),
                                 NetworkConfig.scarce()],
                         ids=lambda net: net.name)
def test_pristine_records_are_what_a_fresh_context_captures(net):
    sim = Simulator()
    pool = net.nic.num_hardware_contexts
    contexts = snap_state._nic_state(Nic(sim, net.nic))["contexts"]
    assert len(contexts) == pool
    for index in range(pool):
        record, text = snap_state._PRISTINE[index]
        assert contexts[index] is record
        fresh = snap_state._context_state(
            HardwareContext(sim, index, net.nic))
        # Compare as text: 0 == 0.0, but they are different states.
        assert text == reference_json(record) == reference_json(fresh)


def test_comparison_tools_never_write_to_a_shared_record():
    def build(seed):
        def make():
            world = flat_world(2, network=NetworkConfig.scarce(4),
                               seed=seed)
            world.procs[0].spawn(_sender(world.procs[0]))
            world.procs[1].spawn(_receiver(world.procs[1]))
            return world
        return make

    def _sender(proc):
        yield from proc.comm_world.Send(np.arange(4.0), dest=1, tag=0)

    def _receiver(proc):
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)

    tree_a, tree_b = capture_state(build(0)()), capture_state(build(1)())
    before = {i: (copy.deepcopy(rec), text)
              for i, (rec, text) in snap_state._PRISTINE.items()}
    assert shared_records(tree_a) > 0
    assert diff_states(tree_a, tree_b)  # the seeds differ
    pruned = prune_state(tree_a, ("injector",))
    assert "injector" not in pruned["nics"]["0"]["contexts"][2]
    div = lockstep(build(0), build(0))
    assert div is None, div
    assert lockstep(build(0), build(1), ignore=("contexts",))[0] == 0
    seeds = iter([0, 1])
    record, _ = reproduce({}, lambda: build(next(seeds))().run())
    assert not record.verified and record.paths
    after = snap_state._PRISTINE
    assert {i: reference_json(v) for i, v in before.items()} \
        == {i: reference_json(after[i]) for i in before}
    assert "injector" in tree_a["nics"]["0"]["contexts"][2]


def test_text_cache_is_bounded_by_the_largest_pool(monkeypatch):
    monkeypatch.setattr(snap_state, "_PRISTINE", {})
    for contexts in (4, 40, 16, 40, 4):
        world = flat_world(3, network=NetworkConfig.scarce(contexts))
        for _ in range(3):
            state_digest(capture_state(world))
    # Slot 0 is COMM_WORLD's on every node, so it is never pristine here.
    assert sorted(snap_state._PRISTINE) == list(range(1, 40))


# ------------------------------- what the checker's clocks put in the tree

def fallbacks(tree, path="") -> list[str]:
    """Paths of every ``{"__obj__": ...}`` in ``tree``: a value
    ``describe_value`` did not know and reduced to its type name — two
    different states with one description."""
    if isinstance(tree, dict):
        found = [path] if "__obj__" in tree else []
        for key, value in tree.items():
            found += fallbacks(value, f"{path}/{key}")
        return found
    if isinstance(tree, list):
        return [hit for i, value in enumerate(tree)
                for hit in fallbacks(value, f"{path}/{i}")]
    return []


def test_no_sampled_world_describes_a_value_by_its_type_alone():
    for spec in sample_scenarios(42, 48):
        with checking(CheckConfig(mode="warn", emit_warnings=False)) as ses:
            get_app(spec.app).run(spec)
        assert fallbacks(capture_state(ses.worlds[-1])) == []


@pytest.mark.parametrize("mode", FIG1A_MODES)
def test_no_checked_fig1a_world_describes_a_value_by_its_type_alone(mode):
    world = checked_msgrate_world(mode)
    assert fallbacks(capture_state(world)) == []


def test_a_clock_parked_in_the_transport_is_described_as_its_mapping(
        monkeypatch):
    """The sender's clock rides in ``meta["_hb"]``, and an unacknowledged
    message sits in ``ReliableTransport._inflight`` at capture time: the
    tree holds the ``{pid: counter}`` mapping the dict-copying reference
    clock published — zero-valued components included — not a record."""
    monkeypatch.setattr(check_checker, "TaskClock", ShadowedTaskClock)
    monkeypatch.setattr(ShadowedTaskClock, "published", {}, raising=False)
    world = World(num_nodes=2, procs_per_node=1, seed=3,
                  faults=FaultPlan(drop=0.3),
                  check=CheckConfig(emit_warnings=False))

    def rank0(proc):
        def sender(tag):
            for _ in range(4):
                yield from proc.comm_world.Send(np.arange(4.0), dest=1,
                                                tag=tag)

        # Spawned before this task ever ticks: each child's clock starts
        # as {spawner: 0, child: 0}, and the zero rides in every message.
        yield proc.sim.all_of([proc.spawn(sender(tag)) for tag in (1, 2)])

    def rank1(proc):
        buf = np.zeros(4)
        for _ in range(4):
            for tag in (1, 2):
                yield from proc.comm_world.Recv(buf, source=0, tag=tag)

    world.procs[0].spawn(rank0(world.procs[0]))
    world.procs[1].spawn(rank1(world.procs[1]))
    transport = world.procs[0].lib.transport
    compared = 0
    while world.sim.run_steps(1):
        parked = [(snap_state.canon_key(flow), seq, rec.msg.meta["_hb"])
                  for flow, pending in transport._inflight.items()
                  for seq, rec in pending.items() if "_hb" in rec.msg.meta]
        if not parked:
            continue
        tree = capture_state(world)
        assert fallbacks(tree) == []
        inflight = tree["procs"]["0"]["transport"]["inflight"]
        for flow, seq, clock in parked:
            (described,) = [msg for s, _r, _a, msg in inflight[flow]
                            if s == seq]
            reference = ShadowedTaskClock.published[clock[:2]]
            assert 0 in reference.values()
            assert described["meta"]["_hb"] == {
                snap_state.canon_key(pid): c for pid, c in reference.items()}
            compared += 1
    assert compared > 8 and transport.retransmits > 0
