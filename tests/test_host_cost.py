"""Counts, not clocks: what the host-cost work of the issue path may not move.

Making a simulated message cheaper on the host is only a gain if the
simulation did the same work: the same kernel events, the same NIC
contexts handed out in the same order, the same state tree, the same
errors. Nothing here reads a host clock (that is ``benchmarks/stack/``'s
job); every expectation is an exact count, digest or message pinned at
the commit before NIC contexts became first-use objects.
"""

import numpy as np
import pytest

from repro.bench import MODES, MsgRateConfig, run_msgrate
from repro.check import CheckConfig, Checker, checking
from repro.check.hb import TaskClock
from repro.check.session import Session
from repro.errors import (
    HintViolationError,
    MpiUsageError,
    TagOverflowError,
)
from repro.faults import CtxStall, FaultPlan
from repro.mpi import ANY_SOURCE, ANY_TAG, Info
from repro.mpi.library import MpiLibrary
from repro.mpi.partitioned import precv_init, psend_init
from repro.mpi.request import Request
from repro.mpi.vci import TAG_UB
from repro.netsim import ClusterSpec, NetworkConfig
from repro.runtime import World
from repro.snap import capture_state, reproduce, state_digest
from tests.helpers import (
    build_out_pools,
    flat_world,
    hw_context,
    run_ranks,
    run_same,
)

FIG1A_MODES = ("everywhere", "threads-original", "threads-tags",
               "threads-comms", "threads-endpoints")


def msgrate_world(mode: str, cores: int, msgs_per_core: int = 16) -> World:
    """Run one Fig 1(a) point and hand back its finished world."""
    with Session() as session:
        run_msgrate(MsgRateConfig(mode=mode, cores=cores, msg_bytes=8,
                                  window=16, msgs_per_core=msgs_per_core),
                    net=NetworkConfig.omnipath())
    (world,) = session.worlds
    return world


# ---------------------------------------------- (a) events per message

#: mode -> (kernel steps, receives completed) of the 8-core point.
FIG1A_STEPS = {
    "everywhere": (929, 128),
    "threads-original": (1189, 128),
    "threads-tags": (936, 128),
    "threads-comms": (1005, 128),
    "threads-endpoints": (936, 128),
}


@pytest.mark.parametrize("mode", FIG1A_MODES)
def test_fig1a_point_costs_the_pinned_number_of_events(mode):
    world = msgrate_world(mode, cores=8)
    recvs = sum(p.lib.recvs_completed for p in world.procs)
    assert (world.sim.steps, recvs) == FIG1A_STEPS[mode]


#: (mode, cores) -> (kernel steps, repr(span), state digest) of all seven
#: modes, recorded on the commit before ``bench/msgrate.py`` moved onto
#: ``run_app`` + ``open_channels`` (PR 18): the shape of ``everywhere``
#: (one inline stream per single-thread process), the thread spawn at one
#: core and the names of the duplicated communicators all enter these.
FIG1A_POINTS = {
    ('everywhere', 1): (
        117, '4.0211599999999995e-06',
        '98af16401a81e2172e67bce2ea216b72d836d24f88bc8294e6c9d60989e50b43'),
    ('everywhere', 3): (
        349, '4.031159999999999e-06',
        'ef2e05fd1873b755883f0d0674f08066fbf5bdd6d3f031ce3f159ccfc3fc61ea'),
    ('everywhere', 8): (
        929, '4.056159999999999e-06',
        'e229af89adc51858cbab8a26cd45eda20c817e2c2a81d518b027fea9c85148f8'),
    ('threads-original', 1): (
        123, '4.0211599999999995e-06',
        '1d915500361ef1be883f9f72d6ef29ba3c465a94177e3dd07a8a2a52e831d47e'),
    ('threads-original', 3): (
        449, '9.924520000000001e-06',
        '3f014af58b7b94e8007c65edd9b2c635b2ffb7a0048e83fc516cad3eab3ab76c'),
    ('threads-original', 8): (
        1189, '2.4682920000000002e-05',
        '7f7f71488b7c66ee72f2bfb22e7df506fa95fd562272d24faefa0f98c543b3dd'),
    ('threads-tags', 1): (
        124, '4.0211599999999995e-06',
        'f25350e4ab1b6fbd6a51dc4734b80a48fb55a8ed4b2b96a4533ee762d401d2e9'),
    ('threads-tags', 3): (
        356, '4.031159999999999e-06',
        '4f0073dc864f7ff3ad3c847d47816d83dd6db0cbefcd3059b7f98a185d7d0e3c'),
    ('threads-tags', 8): (
        936, '4.056159999999999e-06',
        '9876fbde343f9414784170e5a147bba74d7b8a39efe522acaba856144bec5bc8'),
    ('threads-comms', 1): (
        124, '4.0211599999999995e-06',
        'f25350e4ab1b6fbd6a51dc4734b80a48fb55a8ed4b2b96a4533ee762d401d2e9'),
    ('threads-comms', 3): (
        420, '6.972839999999999e-06',
        '64a15ed14a31b57578a4848aa56aacfa4c687a4deb8b86a285b9200bbd868c5e'),
    ('threads-comms', 8): (
        1005, '6.972839999999999e-06',
        '5e996b30857a9963bdd624c7f7a59e18db63fe5bd09bb1ea004de6c01e71f3da'),
    ('threads-endpoints', 1): (
        124, '4.0211599999999995e-06',
        '42d99d391c2762659cc971819493fe9fb4fd7aa1396de1ea82aab83e8e4cb8a2'),
    ('threads-endpoints', 3): (
        356, '4.031159999999999e-06',
        'a1bd3b4ae76bb27fc5dc48f911aea8a48b8ed9a77fefb9f1b0c72e2c6484551a'),
    ('threads-endpoints', 8): (
        936, '4.056159999999999e-06',
        '61076b45a6678ea8a27c148b5cbc63c687864d0d9d64691fa48f24fb3fd7ac3a'),
    ('threads-overtaking', 1): (
        124, '4.0211599999999995e-06',
        'f25350e4ab1b6fbd6a51dc4734b80a48fb55a8ed4b2b96a4533ee762d401d2e9'),
    ('threads-overtaking', 3): (
        434, '6.972839999999999e-06',
        '1455b9e2f2e093106c20914cdf495fd6790b40aa4b6dea604cd213e984aa7681'),
    ('threads-overtaking', 8): (
        1171, '1.4574999999999982e-05',
        '9852db5685823d45b35493c301779d33ffba8522d0c97d722f4860ed78f9fd81'),
    ('threads-tags-hash', 1): (
        124, '4.0211599999999995e-06',
        'f25350e4ab1b6fbd6a51dc4734b80a48fb55a8ed4b2b96a4533ee762d401d2e9'),
    ('threads-tags-hash', 3): (
        418, '6.972839999999999e-06',
        '9f4496a97589bb3bb14c03f4bb8a5580c7b256ab3b7b6c92b00a4fa6d3f7f0b8'),
    ('threads-tags-hash', 8): (
        1060, '6.97784e-06',
        '6c9352bcc71767f7cc16264ed45180972fa83f2473e7d4d2ce6607f119f661f8'),
}


@pytest.mark.parametrize("mode,cores", sorted(FIG1A_POINTS))
def test_fig1a_point_is_byte_identical(mode, cores):
    with Session() as session:
        result = run_msgrate(MsgRateConfig(mode=mode, cores=cores,
                                           msg_bytes=8, window=16,
                                           msgs_per_core=16),
                             net=NetworkConfig.omnipath())
    (world,) = session.worlds
    assert (world.sim.steps, repr(result.span),
            state_digest(capture_state(world))) == FIG1A_POINTS[mode, cores]


def test_fig1a_pins_cover_every_mode():
    assert {mode for mode, _ in FIG1A_POINTS} == set(MODES)
    assert {cores for _, cores in FIG1A_POINTS} == {1, 3, 8}


# -------------------------------------------- (b) contexts on first use

def test_fresh_world_builds_no_hardware_contexts():
    world = World(cluster=ClusterSpec(nodes=2,
                                      network=NetworkConfig.omnipath()))
    pool = world.cfg.nic.num_hardware_contexts
    for node in world.nodes:
        # COMM_WORLD commits one VCI, hence one context, per process.
        assert len(node.nic.built_contexts()) == node.nic.num_allocated == 1
        # Looking at the pool builds nothing; asking for a slot does.
        assert node.nic.slots().count(None) == pool - 1
        assert hw_context(node.nic, pool - 1).index == pool - 1
        assert len(node.nic.built_contexts()) == 2


def test_run_builds_exactly_the_allocated_contexts():
    world = msgrate_world("threads-endpoints", cores=4)
    pool = world.cfg.nic.num_hardware_contexts
    for node in world.nodes:
        nic = node.nic
        built = nic.built_contexts()
        assert 0 < nic.num_allocated < pool
        assert [c.index for c in built] == list(range(nic.num_allocated))
        assert all(c.sharers == 1 for c in built)
        assert nic.slots() == tuple(built) + (None,) * (pool - len(built))


# ------------------------------------------------- (c) the state digest

#: ``state_digest`` of the finished threads-endpoints x4 world, from the
#: commit that still built every context in ``Nic.__init__``.
ENDPOINTS_X4_DIGEST = \
    "e674e6f277bf21e77ba366d99b68d10c50508a5556ac8b5bd42ca085e24dd7c6"


def test_state_digest_ignores_when_contexts_are_built():
    world = msgrate_world("threads-endpoints", cores=4)
    pool = world.cfg.nic.num_hardware_contexts
    built = [len(node.nic.built_contexts()) for node in world.nodes]
    assert max(built) < pool
    # Capturing and digesting observe: no slot is built on their account.
    assert state_digest(capture_state(world)) == ENDPOINTS_X4_DIGEST
    assert [len(n.nic.built_contexts()) for n in world.nodes] == built
    # ... and a pool that was built out describes the same state.
    build_out_pools(world)
    assert all(len(n.nic.built_contexts()) == pool for n in world.nodes)
    assert state_digest(capture_state(world)) == ENDPOINTS_X4_DIGEST


# ----------------------------------------------------- (d) failover order

def test_failover_picks_the_same_target_when_its_slot_was_never_built():
    """Context 0 is stalled, context 1 too: the lowest-index healthy
    context is slot 2, which nothing allocated — it must be consulted by
    index, chosen, and only then built."""
    plan = FaultPlan(stalls=(
        CtxStall(node=0, ctx=0, start=0.0, duration=1.0),
        CtxStall(node=0, ctx=1, start=0.0, duration=1.0)))
    world = World(num_nodes=2, procs_per_node=1, faults=plan, seed=0)
    nic0 = world.nodes[0].nic
    assert [c.index for c in nic0.built_contexts()] == [0]

    def rank0(proc):
        yield from proc.comm_world.Send(np.arange(4.0), dest=1, tag=0)

    def rank1(proc):
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)
        assert np.array_equal(buf, np.arange(4.0))

    run_ranks(world, rank0, rank1)
    assert [c.index for c in nic0.built_contexts()] == [0, 2]
    target = hw_context(nic0, 2)
    assert target.failovers_in == world.injector.failovers > 0
    assert target.messages_issued == target.failovers_in
    assert target.sharers == 0
    assert target.fault_injector is world.injector  # attached after build
    assert hw_context(nic0, 0).messages_issued == 0


def test_failover_prefers_an_allocated_context_over_a_lower_unbuilt_one():
    plan = FaultPlan(stalls=(CtxStall(node=0, ctx=0, start=0.0,
                                      duration=1.0),))
    world = World(num_nodes=2, procs_per_node=2, faults=plan, seed=0)
    nic0 = world.nodes[0].nic  # rank 0 on context 0, rank 1 on context 1
    assert nic0.failover_target(hw_context(nic0, 0)).index == 1
    assert nic0.failover_target(hw_context(nic0, 1)).index == 2


# ------------------------------------------------ (e) the inline checks

def _raises(world, fn):
    """Run ``fn(proc)`` on rank 0 and return the exception it raises."""
    caught = []

    def rank0(proc):
        try:
            yield from fn(proc)
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            caught.append(exc)

    def idle(proc):
        return
        yield

    run_ranks(world, rank0, idle)
    (exc,) = caught
    return exc


def test_isend_rejections_are_the_full_checks_errors():
    buf = np.zeros(1)
    cases = [
        (dict(dest=2, tag=0), MpiUsageError,
         "rank 2 out of range for communicator of size 2"),
        (dict(dest=ANY_SOURCE, tag=0), MpiUsageError,
         "ANY_SOURCE is invalid for sends"),
        (dict(dest=1, tag=-5), MpiUsageError, "negative tag: -5"),
        (dict(dest=1, tag=ANY_TAG), MpiUsageError,
         "ANY_TAG is invalid for sends"),
    ]
    for kwargs, exc_type, text in cases:
        exc = _raises(flat_world(2), lambda proc, kw=kwargs:
                      proc.comm_world.Isend(buf, **kw))
        assert type(exc) is exc_type and str(exc) == text
    exc = _raises(flat_world(2), lambda proc:
                  proc.comm_world.Isend(buf, dest=1, tag=TAG_UB + 1))
    assert type(exc) is TagOverflowError
    assert str(exc).startswith(f"tag {TAG_UB + 1} exceeds TAG_UB={TAG_UB}")
    # The largest legal tag and rank still go through.
    world = flat_world(2)

    def rank0(proc):
        yield from proc.comm_world.Send(buf, dest=1, tag=TAG_UB)

    def rank1(proc):
        status = yield from proc.comm_world.Recv(np.zeros(1), source=0,
                                                 tag=TAG_UB)
        return status.tag

    assert run_ranks(world, rank0, rank1)[1] == TAG_UB


def test_irecv_out_of_range_and_freed():
    buf = np.zeros(1)
    exc = _raises(flat_world(2), lambda proc:
                  proc.comm_world.Irecv(buf, source=2, tag=0))
    assert str(exc) == "rank 2 out of range for communicator of size 2"
    exc = _raises(flat_world(2), lambda proc:
                  proc.comm_world.Irecv(buf, source=0, tag=TAG_UB + 1))
    assert type(exc) is TagOverflowError

    def freed(proc):
        proc.comm_world.Free()
        # A freed handle wins over the bad rank, as in the full checks.
        yield from proc.comm_world.Irecv(buf, source=7, tag=0)

    exc = _raises(flat_world(2), freed)
    assert str(exc) == "operation on freed communicator 'COMM_WORLD'"


NO_WILDCARDS = {"mpi_assert_no_any_source": "true",
                "mpi_assert_no_any_tag": "true"}


@pytest.mark.parametrize("kwargs, text", [
    (dict(source=ANY_SOURCE, tag=3),
     "ANY_SOURCE used on a communicator asserting "
     "mpi_assert_no_any_source"),
    (dict(source=1, tag=ANY_TAG),
     "ANY_TAG used on a communicator asserting mpi_assert_no_any_tag"),
])
def test_wildcards_under_no_wildcard_hints_raise_without_a_checker(
        kwargs, text):
    def worker(proc):
        comm = yield from proc.comm_world.Dup(Info(NO_WILDCARDS))
        if proc.rank == 0:
            with pytest.raises(HintViolationError) as info:
                yield from comm.Irecv(np.zeros(1), **kwargs)
            assert str(info.value) == text

    run_same(flat_world(2), worker)


def test_wildcards_under_no_wildcard_hints_report_chk104_with_a_checker():
    world = flat_world(2, check=CheckConfig(emit_warnings=False))

    def rank0(proc):
        comm = yield from proc.comm_world.Dup(Info(NO_WILDCARDS))
        buf = np.zeros(2)
        status = yield from comm.Recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
        return status.source, status.tag, buf[0]

    def rank1(proc):
        comm = yield from proc.comm_world.Dup(Info(NO_WILDCARDS))
        yield from comm.Send(np.full(2, 3.0), dest=0, tag=9)

    assert run_ranks(world, rank0, rank1)[0] == (1, 9, 3.0)
    report = world.check_report()
    assert report.counts() == {"CHK104": 2}
    assert sorted(v.message for v in report.violations) == [
        "ANY_SOURCE used on communicator 'COMM_WORLD.dup0' asserting "
        "mpi_assert_no_any_source",
        "ANY_TAG used on communicator 'COMM_WORLD.dup0' asserting "
        "mpi_assert_no_any_tag",
    ]


# ------------------------------------------- (f) checker calls per point

#: The hooks through which the kernel, the sync primitives and the MPI
#: layer feed the checker (``benchmarks/stack/layers.py::_CHECK_HOOKS``
#: wraps the same 22 names for ``check.hook_calls``).
CHECK_HOOKS = (
    "on_spawn", "on_resume", "lock_acquired", "lock_released",
    "gate_opened", "gate_passed", "barrier_arrive", "barrier_release",
    "barrier_depart", "mailbox_put", "mailbox_got", "meet_arrive",
    "meet_depart", "on_channel_send", "on_channel_recv", "on_request_new",
    "on_msg_join", "on_request_complete", "on_request_access",
    "on_request_join", "on_rma_sync", "on_rma_op",
)

#: 128 messages: one send and one receive request each (``new``,
#: ``complete``, ``access``, ``join`` x256), three lock round trips per
#: message, one channel access per side, one sender clock per receive.
_PER_MESSAGE = {
    "lock_acquired": 384, "lock_released": 384, "on_channel_send": 128,
    "on_channel_recv": 128, "on_request_new": 256, "on_msg_join": 128,
    "on_request_complete": 256, "on_request_access": 256,
    "on_request_join": 256,
}

#: mode -> calls per hook of the checked 8-core point (hooks never called
#: omitted). ``on_resume`` is called only for a trigger that can carry a
#: clock — the two rank mains joining their threads — where it used to be
#: called on every resume (672-931 times a point: 2992-3253 hook calls in
#: all, now 2192-2244); ``on_spawn`` counts tasks, the ``meet``/``gate``
#: rows the communicator or endpoint set-up of the mode.
FIG1A_HOOK_CALLS = {
    "everywhere": {**_PER_MESSAGE, "on_spawn": 16},
    "threads-original": {**_PER_MESSAGE, "on_spawn": 18, "on_resume": 2},
    "threads-tags": {**_PER_MESSAGE, "on_spawn": 18, "on_resume": 2,
                     "meet_arrive": 2, "meet_depart": 2,
                     "gate_opened": 1, "gate_passed": 1},
    "threads-comms": {**_PER_MESSAGE, "on_spawn": 18, "on_resume": 2,
                      "meet_arrive": 16, "meet_depart": 16,
                      "gate_opened": 8, "gate_passed": 8},
    "threads-endpoints": {**_PER_MESSAGE, "on_spawn": 18, "on_resume": 2,
                          "meet_arrive": 2, "meet_depart": 2,
                          "gate_opened": 1, "gate_passed": 1},
}


@pytest.mark.parametrize("mode", FIG1A_MODES)
def test_checked_fig1a_point_makes_the_pinned_hook_calls(mode, monkeypatch):
    """A call added to the checked hot path shows up here, not in a
    benchmark three PRs later. Counted from outside: there is no counter
    in ``src/``."""
    calls: dict[str, int] = {}

    def counted(name, hook):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return hook(*args, **kwargs)
        return wrapper

    for name in CHECK_HOOKS:
        monkeypatch.setattr(Checker, name,
                            counted(name, Checker.__dict__[name]))
    with checking(CheckConfig(emit_warnings=False)) as session:
        run_msgrate(MsgRateConfig(mode=mode, cores=8, msg_bytes=8,
                                  window=16, msgs_per_core=16),
                    net=NetworkConfig.omnipath())
        assert session.report().clean
        session.close()
    assert calls == FIG1A_HOOK_CALLS[mode]


# ------------------------------- (g) a lock hand-off copies, it does not walk

def test_a_lock_hand_off_copies_the_releasers_clock_and_walks_nothing(
        monkeypatch):
    """``threads-original``: one VCI lock handed round 16 threads a rank,
    three windows of 16 messages each. A thread taking the lock from
    another one used to walk the releaser's whole clock in Python, ~16
    components a time; now it adopts a copy of that dict unless it wrote
    to its own since it last published (it heard from a stranger).
    Counted on a clock subclass: the components ``_raise_to`` iterates."""
    handoffs = []   # per teaching lock join: components walked in Python
    in_handoff = []

    class CountingClock(TaskClock):
        __slots__ = ()

        def _raise_to(self, theirs):
            if in_handoff and theirs is not self._merged:
                handoffs[-1] += len(theirs)
            super()._raise_to(theirs)

    lock_acquired = Checker.__dict__["lock_acquired"]

    def counted(self, lock):
        clock, st = lock._hb, self.sim._active_process._hb
        if clock is None or clock[0] == st.pid \
                or st.foreign.get(clock[0], 0) >= clock[1]:
            return lock_acquired(self, lock)    # teaches nothing: O(1)
        handoffs.append(0)
        in_handoff.append(True)
        try:
            return lock_acquired(self, lock)
        finally:
            in_handoff.pop()

    monkeypatch.setattr("repro.check.checker.TaskClock", CountingClock)
    monkeypatch.setattr(Checker, "lock_acquired", counted)
    with checking(CheckConfig(emit_warnings=False)) as session:
        run_msgrate(MsgRateConfig(mode="threads-original", cores=16,
                                  msg_bytes=8, window=16, msgs_per_core=48),
                    net=NetworkConfig.omnipath())
        assert session.report().clean
        session.close()
    # 2 x 16 threads, 48 lock round trips each, most of them hand-offs.
    assert len(handoffs) > 1000
    # A thread's first acquisition walks (it has published nothing yet, or
    # the releaser has not heard of it) and so does one that follows a
    # write: at most two a thread, whatever the number of round trips ...
    walked = [n for n in handoffs if n]
    assert 0 < len(walked) <= 2 * 2 * 16
    # ... which comes to under one comparison a hand-off where it was ~16.
    assert sum(walked) < len(handoffs)


# ------------------------------------------ request ids are per simulator

def _exchange_world() -> World:
    """Two ranks trading four messages; tasks spawned, nothing run."""
    world = World(num_nodes=2, procs_per_node=1, seed=1)

    def rank0(proc):
        for i in range(4):
            yield from proc.comm_world.Send(np.full(2, float(i)), dest=1,
                                            tag=i)

    def rank1(proc):
        for i in range(4):
            yield from proc.comm_world.Recv(np.zeros(2), source=0, tag=i)

    world.procs[0].spawn(rank0(world.procs[0]))
    world.procs[1].spawn(rank1(world.procs[1]))
    return world


def test_request_ids_start_at_zero_in_every_world():
    first, second = _exchange_world(), _exchange_world()
    assert first.sim._next_rid == second.sim._next_rid == 0
    first.run()
    assert first.sim._next_rid == 8  # four sends, four receives
    # The second world numbers its requests as if it were alone.
    assert Request(second.sim).rid == 0
    assert Request(second.sim).rid == 1
    assert Request(first.sim).rid == 8


def test_restored_snapshot_continues_the_request_numbering():
    world = _exchange_world()
    world.sim.run_steps(25)
    assert 0 < world.sim._next_rid < 8
    issued_at_step = world.sim._next_rid
    world.run()
    built = []

    def upto_25():
        built.append(_exchange_world())
        built[-1].sim.run_steps(25)

    record, _ = reproduce({}, upto_25)
    assert record.verified and record.step == 25
    restored = built[-1]
    assert restored.sim._next_rid == issued_at_step
    restored.run()
    assert restored.sim._next_rid == world.sim._next_rid == 8
    assert state_digest(capture_state(restored)) \
        == state_digest(capture_state(world))


# ------------------------- a deferred partition costs one scalar issue

def test_partitions_readied_before_the_handshake_issue_one_by_one(
        monkeypatch):
    """The flush after PART_INIT_ACK is the only place a partitioned send
    could batch; at the burst sizes the traffic has (docs/performance.md,
    PR 19) a batch costs more than the loop, so there is none."""
    calls: dict[tuple[str, int], int] = {}

    def counted(name):
        method = MpiLibrary.__dict__[name]

        def wrapper(lib, *args, **kwargs):
            calls[name, lib.rank] = calls.get((name, lib.rank), 0) + 1
            return method(lib, *args, **kwargs)
        return wrapper

    for name in ("issue_async", "issue_async_batch"):
        monkeypatch.setattr(MpiLibrary, name, counted(name))
    world = flat_world(2)
    deferred = []

    def sender(proc):
        req = psend_init(proc.comm_world, np.arange(16.0), 8, 2, dest=1,
                         tag=0)
        yield from req.start()
        for i in range(8):
            yield from req.pready(i)
        deferred.extend(req._deferred)
        yield from req.wait()

    def receiver(proc):
        buf = np.zeros(16)
        req = precv_init(proc.comm_world, buf, 8, 2, source=0, tag=0)
        yield from req.start()
        yield from req.wait()
        assert np.array_equal(buf, np.arange(16.0))

    run_ranks(world, sender, receiver)
    assert deferred == list(range(8))  # none left before the handshake
    assert calls == {("issue_async", 0): 8,   # the eight partitions
                     ("issue_async", 1): 1}   # the receiver's ACK
