"""Property battery: the copy-on-write, adopting clock is the textbook clock.

``repro.check.hb.TaskClock`` publishes references instead of copies,
skips every join it can prove teaches nothing and, where its publisher
provably holds all it published, adopts a copy of the publisher's dict
instead of walking it; ``NaiveTaskClock`` (``tests/oracles.py``, the
checker's clock up to PR 16) copies the whole dict at every release
point and walks it at every acquire point. The contract is that nobody
can tell: for any program of spawns, publications, joins, merges into a
shared clock (barrier, meeting), process joins, accesses and ``saw()``
queries, after *every* step

- each task's full ``{pid: counter}`` mapping — zero-valued components
  inherited from a never-ticked spawner included, because published
  mappings enter state digests through ``meta["_hb"]`` —
- every mapping published so far (a later write to a shared dict would
  change an old publication: the copy-on-write half of the contract), and
- every ``saw()`` verdict

are the reference's. Two program shapes are generated: any mix of the
nine steps, and lock chains — a few tasks handing one slot round, with
message-style publications and joins in between — where most joins are
adoptions. Each entry of :data:`MUTANTS`, a one-line change to the source
of ``hb.py``, must fail the battery.
"""

import inspect
import types

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.check import hb
from tests.oracles import NaiveTaskClock

MAX_TASKS = 8
SLOTS = 4       # lock / gate / mailbox / request-edge stand-ins
SHARED = 2      # barrier / meeting stand-ins
CELLS = 3       # channel / request / RMA-range stand-ins

index = st.integers(0, MAX_TASKS - 1)
slot = st.integers(0, SLOTS - 1)
cell = st.integers(0, CELLS - 1)
spawn = st.tuples(st.just("spawn"), st.one_of(st.none(), index))
touches = st.one_of(st.tuples(st.just("access"), index, cell),
                    st.tuples(st.just("saw"), index, cell))
programs = st.lists(st.one_of(
    spawn,
    st.tuples(st.just("publish"), index, slot),
    st.tuples(st.just("join"), index, slot),
    st.tuples(st.just("merge"), index, st.integers(0, SHARED - 1)),
    st.tuples(st.just("join_merged"), index, st.integers(0, SHARED - 1)),
    st.tuples(st.just("reset"), st.integers(0, SHARED - 1)),
    st.tuples(st.just("join_task"), index, index),
    touches,
), max_size=60)


@st.composite
def lock_chains(draw):
    """3-8 tasks (some spawned by a never-ticked one: zeros in play)
    handing slot 0 round — join, then publish — with messages over the
    other slots and accesses in between."""
    tasks = draw(st.integers(3, MAX_TASKS))
    task = st.integers(0, tasks - 1)
    program = [draw(spawn) for _ in range(tasks - 1)]
    message_slot = st.integers(1, SLOTS - 1)
    handoff = st.tuples(st.just("handoff"), task)
    for block in draw(st.lists(st.one_of(
            handoff, handoff, handoff,
            st.tuples(st.just("publish"), task, message_slot),
            st.tuples(st.just("join"), task, message_slot),
            touches), min_size=40, max_size=80)):
        if block[0] == "handoff":
            program += [("join", block[1], 0), ("publish", block[1], 0)]
        else:
            program.append(block)
    return program


class Pair:
    """The same program state under both implementations; ``clocks`` is
    ``repro.check.hb`` or a mutant of it."""

    def __init__(self, clocks):
        self.clocks = clocks
        self.fast = []
        self.naive: list[NaiveTaskClock] = []
        self.slots = [None] * SLOTS          # (publication, dict)
        self.shared = [({}, {}) for _ in range(SHARED)]
        self.cells = [None] * CELLS          # (access, access)
        self.published = []                  # every (publication, dict)
        self.adoptions = self.walks = 0
        pair = self

        class Clock(clocks.TaskClock):
            __slots__ = ()

            def _raise_to(self, theirs):
                pair.walks += 1
                super()._raise_to(theirs)

        self.clock_type = Clock
        self.spawn(None)

    def spawn(self, parent):
        if len(self.fast) == MAX_TASKS:
            return
        pid = len(self.fast)
        if parent is not None:
            parent %= pid
        self.fast.append(self.clock_type(
            pid, f"t{pid}", None if parent is None else self.fast[parent]))
        self.naive.append(NaiveTaskClock(
            pid, f"t{pid}", None if parent is None else self.naive[parent]))

    def run(self, step):
        op, *args = step
        if op == "spawn":
            self.spawn(*args)
            return
        if op == "reset":
            self.shared[args[0]] = ({}, {})
            return
        t = args[0] % len(self.fast)
        fast, naive = self.fast[t], self.naive[t]
        if op == "publish":
            record = (fast.snapshot(), naive.snapshot())
            self.slots[args[1]] = record
            self.published.append(record)
        elif op == "join":
            if self.slots[args[1]] is None:
                fast.join(None)
                naive.join(None)
            else:
                # An adoption is a join that teaches without a walk.
                opid, oepoch = self.slots[args[1]][0][:2]
                known, walks = fast.mapping().get(opid, 0), self.walks
                fast.join(self.slots[args[1]][0])
                naive.join(self.slots[args[1]][1])
                self.adoptions += known < oepoch and walks == self.walks
        elif op == "merge":
            record = (fast.snapshot(), naive.snapshot())
            self.published.append(record)
            merged_fast, merged_naive = self.shared[args[1]]
            self.clocks.merge_published(merged_fast, record[0])
            for pid, c in record[1].items():   # the checker's old loop
                if merged_naive.get(pid, 0) < c:
                    merged_naive[pid] = c
        elif op == "join_merged":
            fast.join_merged(self.shared[args[1]][0])
            naive.join(self.shared[args[1]][1])
        elif op == "join_task":
            other = args[1] % len(self.fast)
            fast.join_task(self.fast[other])
            naive.join(self.naive[other].clock)
        elif op == "access":
            self.cells[args[1]] = (fast.access(), naive.access())
        elif op == "saw" and self.cells[args[1]] is not None:
            assert fast.saw(self.cells[args[1]][0]) \
                == naive.saw(self.cells[args[1]][1])

    def check(self):
        for fast, naive in zip(self.fast, self.naive):
            assert fast.mapping() == naive.clock
            assert fast.pid not in fast.foreign
            assert 0 not in fast.foreign.values()
        for clock, mapping in self.published:
            assert self.clocks.published_mapping(clock) == mapping
        for merged_fast, merged_naive in self.shared:
            assert merged_fast == merged_naive
        for accesses in self.cells:
            if accesses is not None:
                assert accesses[0] == accesses[1]


def execute(clocks, program) -> Pair:
    pair = Pair(clocks)
    for step in program:
        pair.run(step)
        pair.check()
    return pair


@settings(max_examples=300, deadline=None)
@given(programs)
def test_every_step_leaves_both_clocks_standing_for_the_same_mappings(
        program):
    execute(hb, program)


def test_lock_chains_are_merged_by_adoption_and_nobody_can_tell():
    adoptions = []

    @settings(max_examples=300, deadline=None)
    @given(lock_chains())
    def run(program):
        adoptions.append(execute(hb, program).adoptions)

    run()
    # The strategy reaches what it was written for.
    assert sum(adoptions) >= 1000


# -- mutants -------------------------------------------------------------------
#: name -> (fragment of ``hb.py``, its replacement). The first four are
#: the shortcuts of the copy-on-write clock, the last four those of
#: adoption.
MUTANTS = {
    "no own-pid pop": (
        "            foreign.pop(self.pid, None)\n",
        "            pass\n"),
    "no copy-on-write": (
        "            self.foreign = foreign = dict(foreign)\n"
        "            self._base_epoch = 0\n",
        "            self._base_epoch = 0\n"),
    "off-by-one dominance": (
        "self.foreign.get(opid, 0) >= oepoch:",
        "self.foreign.get(opid, 0) >= oepoch - 1:"),
    "skipped walk": (
        "        if theirs is not self._merged:\n",
        "        if theirs is not self._merged and self._merged is None:\n"),
    "adopt over what was written since the base publication": (
        "            self.foreign = foreign = dict(foreign)\n"
        "            self._base_epoch = 0\n",
        "            self.foreign = foreign = dict(foreign)\n"),
    "adoption keeps the own pid": (
        "            del foreign[pid]\n",
        "            pass\n"),
    "adopt against a stale base epoch": (
        "            del foreign[pid]\n"
        "            self._base_epoch = 0\n",
        "            del foreign[pid]\n"),
    "zero component dropped by an adoption": (
        "            del foreign[pid]\n",
        "            del foreign[pid]\n"
        "            self.zeros = _\n"),
}


def mutant(name: str) -> types.ModuleType:
    """``repro.check.hb`` with one fragment of its source replaced."""
    fragment, replacement = MUTANTS[name]
    source = inspect.getsource(hb)
    assert source.count(fragment) == 1, f"{name}: fragment is gone from hb.py"
    module = types.ModuleType(f"{hb.__name__}_mutant")
    exec(compile(source.replace(fragment, replacement),
                 f"<hb.py, mutant {name!r}>", "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_fails_the_battery(name):
    clocks = mutant(name)

    # The same examples on every host (a mutant that survives one run in
    # ten is a flaky test), and no shrinking: any failure will do.
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate])
    @given(st.one_of(programs, lock_chains()))
    def battery(program):
        execute(clocks, program)

    with pytest.raises((AssertionError, KeyError)):
        battery()


# -- the corners, by hand ------------------------------------------------------
def test_zero_components_of_a_never_ticked_spawner_are_kept():
    """The digest-relevant corner: ``{spawner: 0}`` rides along."""
    root = hb.TaskClock(0, "root")
    child = hb.TaskClock(1, "child", root)
    grandchild = hb.TaskClock(2, "grandchild", child)
    assert child.mapping() == {0: 0, 1: 0}
    assert grandchild.mapping() == {0: 0, 1: 0, 2: 0}
    # Beside the dict, not in it — and in every publication.
    assert grandchild.foreign == {} and grandchild.zeros == (0, 1)
    published = grandchild.snapshot()
    assert published == (2, 1, {}, (0, 1))
    assert hb.published_mapping(published) == {0: 0, 1: 0, 2: 1}
    assert hb.PublishedClock(published).mapping() == {0: 0, 1: 0, 2: 1}
    # ... but a join never hands a zero on, exactly as the dict loop.
    other = hb.TaskClock(3, "other")
    other.join(grandchild.snapshot())
    assert other.mapping() == {2: 2, 3: 0}
    # A zero the task has since learned more about is no zero any more.
    root.access()
    child.join(root.snapshot())
    assert child.zeros == (0,) and child.mapping() == {0: 2, 1: 0}


def test_the_cheap_joins_are_the_ones_that_teach_nothing():
    a, b = hb.TaskClock(0, "a"), hb.TaskClock(1, "b")
    first = a.snapshot()
    b.join(first)
    learned = b.foreign
    assert learned == {0: 1}
    # Own publication, a dominated epoch, None: the dict is not touched,
    # not even copied, although b has published (frozen) it meanwhile.
    for_lock = b.snapshot()
    for clock in (for_lock, first, None):
        b.join(clock)
        assert b.foreign is learned
    # A later epoch over the very dict already merged: one component.
    second = a.snapshot()
    assert second[2] is first[2]
    b.join(second)
    assert b.mapping() == {0: 2, 1: 1}
    # ... written to a copy: what b published is still what it was.
    assert b.foreign is not learned
    assert hb.published_mapping(for_lock) == {0: 1, 1: 1}


def test_a_lock_handed_round_a_ring_is_adopted_not_walked():
    root = hb.TaskClock(0, "root")
    a, b, c, sender = (hb.TaskClock(pid, name, root)
                       for pid, name in enumerate("abcs", start=1))
    lock = a.snapshot()                 # a: base epoch 1
    for task in (b, c):
        task.join(lock)
        lock = task.snapshot()
    # c's clock holds a at its base epoch, so it holds all a published
    # then, and a wrote nothing since: a's new dict is a copy of c's,
    # less a, in c's key order (a walk would have kept a's).
    assert a._base_epoch == 1
    a.join(lock)
    assert a._base_epoch == 0
    assert list(a.foreign) == [2, 3] and a.foreign is not lock[2]
    assert a.mapping() == {0: 0, 1: 1, 2: 1, 3: 1}
    # The next publication is the new base, kept by one that follows no
    # write ...
    assert a.snapshot()[1] == a._base_epoch == 2
    lock = a.snapshot()
    assert lock[1] == 3 and a._base_epoch == 2
    # ... and a write ends it: hearing from a stranger is a walk (the
    # sender never heard of a), and so is the hand-off after it.
    for task in (b, c):
        task.join(lock)
        lock = task.snapshot()
    a.join(sender.snapshot())
    assert a._base_epoch == 0
    a.join(lock)
    assert list(a.foreign) == [2, 3, 4]
    assert a.mapping() == {0: 0, 1: 3, 2: 2, 3: 2, 4: 1}
    assert a.snapshot()[1] == a._base_epoch == 4
