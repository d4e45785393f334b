"""Host objects a message builds only when it uses them.

A request's completion event is built when something needs it (a waiter,
or a completion that schedules it), a lock's waiter queue at its first
contention, and ``waitall`` waits on a plain request without a
generator of its own. None of that may move the kernel: the same steps,
the same sequence numbers, the same pending entries, and the same names
for what a blocked task waits on. Each check here holds a run to an
"eager" one, whose requests build their event when they are created,
as they all once did.

A message also builds nothing that no capture reads: a posted receive is
its own record in the matching engine, a fabric schedules every arrival
with one callback bound once, and the match completion carries its
arguments without closure cells, under the name captures always gave it,
as does a shared-memory delivery.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.check.session import Session
from repro.mpi.matching import MatchingEngine, PostedRecv
from repro.mpi.request import Request, waitall
from repro.netsim import ClusterSpec
from repro.netsim.fabric import Fabric
from repro.netsim.topology.routed import RoutedFabric
from repro.runtime.world import World
from repro.sim.core import SimulationError, Simulator
from repro.sim.sync import Lock
from repro.snap import capture_state
from repro.snap.state import _lock_state
from tests.helpers import flat_world, lockstep, run_ranks
from tests.test_matching_indexed import mk_msg

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "opcount", ROOT / "benchmarks" / "opcount.py")
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)


@pytest.fixture
def eager_events(monkeypatch):
    """``mark(world)``: from now on, every request of ``world`` builds
    its ``_done`` event when it is created."""
    init = Request.__init__
    eager = set()

    def eager_init(self, sim, kind="generic"):
        init(self, sim, kind)
        if sim in eager:
            self._event()

    monkeypatch.setattr(Request, "__init__", eager_init)
    return lambda world: eager.add(world.sim) or world


def _spawn(world, *fns):
    for i, fn in enumerate(fns):
        world.procs[i].spawn(fn(world.procs[i]))
    return world


# -------------------------------------------------- (a) no wait generator
def _window(proc):
    """16 plain requests to the peer, then one waitall."""
    comm, peer = proc.comm_world, 1 - proc.rank
    reqs = []
    for tag in range(16):
        if proc.rank == 0:
            reqs.append((yield from comm.Isend(np.ones(1), peer, tag)))
        else:
            reqs.append((yield from comm.Irecv(np.zeros(1), peer, tag)))
    statuses = yield from waitall(reqs)
    return [status.tag for status in statuses]


def test_waitall_over_plain_requests_starts_no_wait_generator():
    results: list = []

    def window():
        world = flat_world(2)
        results.append(run_ranks(world, _window, _window))

    _kinds, starts, messages = opcount.count_events(window)
    assert results == [[list(range(16)), list(range(16))]]
    assert messages == 16
    assert starts["repro/mpi/request.py:Request.wait"] == 0
    # The counter sees generators start on this interpreter.
    assert starts["repro/mpi/request.py:waitall"] == 2
    assert starts["repro/mpi/comm.py:Communicator.Isend"] == 16


# ---------------------------------------- (b) an inline receive, no event
@pytest.mark.parametrize("posted_first", [False, True],
                         ids=["unexpected", "posted"])
def test_an_eager_receive_completed_before_any_wait_builds_no_event(
        posted_first):
    """Whether the message was waiting when the receive was posted, or
    arrived at a posted receive nobody waits on yet, the receive
    completes inline with no event; its wait returns without yielding."""
    seen = {}

    def sender(proc):
        req = yield from proc.comm_world.Isend(np.arange(3.0), 1, tag=5)
        yield from req.wait()

    def receiver(proc):
        buf = np.zeros(3)
        if not posted_first:
            yield 1e-3  # the message is unexpected by then
        req = yield from proc.comm_world.Irecv(buf, 0, tag=5)
        if posted_first:
            yield 1e-3  # it arrives and matches meanwhile
        seen["done"], seen["event"] = req.done, req._done
        wait = req.wait()
        with pytest.raises(StopIteration) as stop:
            next(wait)
        seen["status"] = stop.value.value
        seen["buf"] = buf.tolist()

    run_ranks(flat_world(2), sender, receiver)
    assert seen["done"] is True and seen["event"] is None
    status = seen["status"]
    assert (status.source, status.tag, status.count) == (0, 5, 3)
    assert seen["buf"] == [0.0, 1.0, 2.0]


# ------------------------------- (c) completions schedule as they did
def _rendezvous(proc):
    """A receive completed by ``complete`` (rendezvous data) while its
    owner sleeps."""
    comm = proc.comm_world
    if proc.rank == 0:
        req = yield from comm.Isend(np.arange(4096.0), 1, tag=1)
        yield from req.wait()
    else:
        req = yield from comm.Irecv(np.zeros(4096), 0, tag=1)
        yield 1e-3
        assert req.done


def _cancelled(proc):
    """A receive cancelled with nobody waiting on it."""
    if proc.rank == 1:
        req = yield from proc.comm_world.Irecv(np.zeros(1), 0, tag=2)
        yield 1e-6
        assert req.cancel()
        yield 1e-6
        assert req.status.cancelled


def _truncated(proc):
    """A receive completed with an error while its owner sleeps."""
    comm = proc.comm_world
    if proc.rank == 0:
        req = yield from comm.Isend(np.arange(8.0), 1, tag=3)
        yield from req.wait()
    else:
        req = yield from comm.Irecv(np.zeros(2), 0, tag=3)
        yield 1e-3
        assert req.status.error is not None


@pytest.mark.parametrize("program", [_rendezvous, _cancelled, _truncated],
                         ids=["complete", "cancel", "complete_with_error"])
def test_a_completion_nobody_waits_for_schedules_as_before(program,
                                                           eager_events):
    """Step for step, the same state digest (kernel steps, sequence,
    pending entries, tasks) as an eager run."""
    def build(eager):
        world = flat_world(2)
        if eager:
            eager_events(world)
        return _spawn(world, program, program)

    assert lockstep(lambda: build(False), lambda: build(True)) is None
    world = build(False)
    world.run()
    eager = build(True)
    eager.run()
    assert (world.sim.steps, world.sim._seq) == \
        (eager.sim.steps, eager.sim._seq) != (0, 0)


def test_a_complete_call_schedules_its_event_like_a_prebuilt_one():
    """``complete``, ``cancel``'s completion and ``complete_with_error``
    on a bare request: one urgent entry and one step each, as when the
    event was built with the request."""
    def trace(build_first, complete):
        sim = Simulator()
        req = Request(sim)
        if build_first:
            req._event()
        complete(req)
        pending = [(when, prio, seq, type(ev).__name__, ev._triggered)
                   for when, prio, seq, ev in sim.pending_entries()]
        sim.run()
        return sim.steps, sim._seq, pending

    for complete in (lambda r: r.complete(1, 2, 3),
                     lambda r: r.complete_with_error(ValueError("x"))):
        assert trace(False, complete) == trace(True, complete) \
            == (1, 1, [(0.0, 0, 1, "Event", True)])


# ------------------------------------------- (d) lock queues on demand
def test_an_uncontended_lock_has_no_waiter_queue():
    sim = Simulator()
    lock = Lock(sim, "vci")

    def holder():
        yield from lock.acquire()
        yield 1e-6
        lock.release()

    sim.spawn(holder())
    sim.run()
    assert lock._waiters is None and lock.queue_length == 0
    # The state tree says what a lock with an empty queue always said.
    assert _lock_state(lock) == {
        "locked": False, "waiters": 0, "acquisitions": 1, "contended": 0,
        "total_wait_time": 0.0, "total_hold_time": 1e-6,
        "max_queue_length": 0}


def test_a_contended_lock_builds_its_queue_and_reports_it():
    sim = Simulator()
    lock = Lock(sim, "vci")
    lengths = []
    lock.observer = lambda what, _t, n: lengths.append((what, n))

    def holder(hold):
        yield from lock.acquire()
        yield hold
        lock.release()

    for hold in (2e-6, 1e-6, 1e-6):
        sim.spawn(holder(hold))
    sim.run(until=1e-6)
    assert lock.queue_length == 2 == _lock_state(lock)["waiters"]
    sim.run()
    assert lock.queue_length == 0 and lock._waiters is not None
    assert [n for what, n in lengths if what == "hold"] == [2, 1, 0]
    assert lock.stats.max_queue_length == 2


# ------------------------------------ (e) a waiting task's target, named
def _stuck(proc):
    """rank 1 waits in ``waitall`` on a receive nothing matches."""
    if proc.rank == 1:
        req = yield from proc.comm_world.Irecv(np.zeros(1), 0, tag=9)
        yield from waitall([req])


def _deadlock_lines(world):
    task = world.procs[1].spawn(_stuck(world.procs[1]))
    with pytest.raises(SimulationError) as err:
        world.run_all([task])
    return [line for line in str(err.value).splitlines()
            if "waiting on" in line or "blocked" in line]


def test_a_deadlock_report_names_a_waitall_target_as_before(eager_events):
    lines = _deadlock_lines(flat_world(2))
    assert lines == _deadlock_lines(eager_events(flat_world(2)))
    assert any(line.endswith(": waiting on Event") for line in lines), lines


def test_a_stopped_capture_names_a_waitall_target_as_before(eager_events):
    def tasks(eager):
        """The tasks of a capture at every step."""
        session = Session()
        captured = []
        session.stop_step = 1

        def on_stop(world):
            captured.append(capture_state(world)["kernel"]["tasks"])
            session.stop_step += 1

        session.on_stop = on_stop
        with session:
            world = flat_world(2)
            if eager:
                eager_events(world)
            _spawn(world, _stuck, _stuck)
            world.run()
            session.close()
        return captured

    lazy = tasks(False)
    assert lazy == tasks(True)
    assert Counter(t["waiting_on"] for t in lazy[-1].values()) \
        == Counter({"Event": 1})


# ------------------------------ (f) nothing per message that no one reads
def test_posted_receives_are_their_own_records():
    """After N posts the engine keeps no index by request: its buckets
    hold the posted receives themselves, and each request names its own
    while it waits, so a cancel finds it in O(1)."""
    sim = Simulator()
    engine = MatchingEngine()
    entries = [PostedRecv(Request(sim, "recv"), bytearray(1), 1, 0, 0,
                          tag % 3, 0) for tag in range(12)]
    for entry in entries:
        assert engine.post_recv(entry) == (None, 0)
    for name in type(engine).__slots__:
        value = getattr(engine, name)
        if isinstance(value, dict):
            assert not any(isinstance(key, Request) for key in value), name
    held = [rec for bucket in engine._po_buckets.values() for rec in bucket]
    assert sorted(map(id, held)) == sorted(map(id, entries))
    assert all(type(rec) is PostedRecv and rec.alive for rec in held)
    assert all(entry.req._posted is entry for entry in entries)
    # A cancelled and a matched receive are no longer their request's.
    assert engine.cancel_posted(entries[0].req)
    assert not engine.cancel_posted(entries[0].req)
    matched, _scanned = engine.incoming(mk_msg(0, 0, 1, 0))
    assert matched is entries[1]
    for entry in entries[:2]:
        assert entry.req._posted is None and not entry.alive
    assert engine.live_posted() == entries[2:]
    # A receive with no request (the stack benchmark's matching probe
    # posts these) queues and matches as well.
    bare = PostedRecv(None, bytearray(1), 1, 0, 0, 7, 0)
    assert engine.post_recv(bare) == (None, 0)
    assert engine.incoming(mk_msg(0, 0, 7, 0))[0] is bare


def _ring(proc):
    """Four messages to the next rank, four from the previous."""
    comm, n = proc.comm_world, proc.comm_world.size
    reqs = []
    for tag in range(4):
        reqs.append((yield from comm.Irecv(np.zeros(1), (proc.rank - 1) % n,
                                           tag)))
        reqs.append((yield from comm.Isend(np.ones(1), (proc.rank + 1) % n,
                                           tag)))
    yield from waitall(reqs)


@pytest.mark.parametrize("cluster", [
    ClusterSpec(nodes=4), ClusterSpec(nodes=4, topology="fat_tree", k=4)],
    ids=["direct", "fat_tree"])
def test_every_arrival_carries_one_callback_object(cluster):
    world = World(cluster=cluster)
    fabric = world.fabric
    assert type(fabric) is (Fabric if cluster.topology == "direct"
                            else RoutedFabric)
    for proc in world.procs:
        proc.spawn(_ring(proc))
    arrivals = {}  # event -> its callback, while the event is pending
    while world.sim.run_steps(1):
        for _when, _prio, _seq, event in world.sim.pending_entries():
            callback = event.callbacks[0] if event.callbacks else None
            if getattr(callback, "__func__", None) is Fabric._on_arrival:
                arrivals[event] = callback
    assert len(arrivals) == 16 == fabric.messages_delivered
    assert len({id(cb) for cb in arrivals.values()}) == 1
    assert next(iter(arrivals.values())) is fabric._arrival_cb


def test_a_shared_memory_delivery_carries_no_closure():
    """An intra-node message is scheduled with a lambda of ``_transmit``
    that takes the world as a default and its message as the event's
    value: no closure cells, under the name captures record."""
    world = World(num_nodes=1, procs_per_node=2)
    for proc in world.procs:
        proc.spawn(_ring(proc))
    seen = []
    while world.sim.run_steps(1):
        seen += [callback for *_, event in world.sim.pending_entries()
                 for callback in event.callbacks
                 if getattr(callback, "__qualname__", None)
                 == "MpiLibrary._transmit.<locals>.<lambda>"]
    assert seen and all(callback.__closure__ is None for callback in seen)


def test_a_capture_names_a_pending_match_completion_as_before():
    """The match completion is still a lambda of ``_on_pt2pt_arrival``,
    with no value on its event: a capture names and describes it as the
    pinned digests recorded it."""
    world = flat_world(2)
    for proc in world.procs:
        proc.spawn(_ring(proc))
    seen = []
    while world.sim.run_steps(1):
        seen += [entry[3] for entry in capture_state(world)["kernel"]["heap"]
                 if entry[3].get("callbacks") == [
                     "MpiLibrary._on_pt2pt_arrival.<locals>.<lambda>"]]
    assert seen and all(desc == {"kind": "Event", "triggered": True,
                                 "callbacks": desc["callbacks"]}
                        for desc in seen)
