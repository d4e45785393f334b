"""Property battery: the copy-on-write clock is the textbook clock.

``repro.check.hb.TaskClock`` publishes references instead of copies and
skips every join it can prove teaches nothing; ``NaiveTaskClock``
(``tests/oracles.py``, the checker's clock up to PR 16) copies the whole
dict at every release point and walks it at every acquire point. The
contract is that nobody can tell: for any program of spawns,
publications, joins, merges into a shared clock (barrier, meeting),
process joins, accesses and ``saw()`` queries, after *every* step

- each task's full ``{pid: counter}`` mapping — zero-valued components
  inherited from a never-ticked spawner included, because published
  mappings enter state digests through ``meta["_hb"]`` —
- every mapping published so far (a later write to a shared dict would
  change an old publication: the copy-on-write half of the contract), and
- every ``saw()`` verdict

are the reference's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.hb import TaskClock, merge_published
from tests.oracles import NaiveTaskClock, vars_of

MAX_TASKS = 6
SLOTS = 4       # lock / gate / mailbox / request-edge stand-ins
SHARED = 2      # barrier / meeting stand-ins
CELLS = 3       # channel / request / RMA-range stand-ins

index = st.integers(0, MAX_TASKS - 1)
steps = st.one_of(
    st.tuples(st.just("spawn"), st.one_of(st.none(), index)),
    st.tuples(st.just("publish"), index, st.integers(0, SLOTS - 1)),
    st.tuples(st.just("join"), index, st.integers(0, SLOTS - 1)),
    st.tuples(st.just("merge"), index, st.integers(0, SHARED - 1)),
    st.tuples(st.just("join_merged"), index, st.integers(0, SHARED - 1)),
    st.tuples(st.just("reset"), st.integers(0, SHARED - 1)),
    st.tuples(st.just("join_task"), index, index),
    st.tuples(st.just("access"), index, st.integers(0, CELLS - 1)),
    st.tuples(st.just("saw"), index, st.integers(0, CELLS - 1)),
)


class Pair:
    """The same program state under both implementations."""

    def __init__(self):
        self.fast: list[TaskClock] = []
        self.naive: list[NaiveTaskClock] = []
        self.slots = [None] * SLOTS          # (PublishedClock, dict)
        self.shared = [({}, {}) for _ in range(SHARED)]
        self.cells = [None] * CELLS          # (Access, Access)
        self.published = []                  # every (PublishedClock, dict)
        self.spawn(None)

    def spawn(self, parent):
        if len(self.fast) == MAX_TASKS:
            return
        pid = len(self.fast)
        if parent is not None:
            parent %= pid
        self.fast.append(TaskClock(
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
                fast.join(self.slots[args[1]][0])
                naive.join(self.slots[args[1]][1])
        elif op == "merge":
            record = (fast.snapshot(), naive.snapshot())
            self.published.append(record)
            merged_fast, merged_naive = self.shared[args[1]]
            merge_published(merged_fast, record[0])
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
        for clock, mapping in self.published:
            assert clock.mapping() == mapping
        for merged_fast, merged_naive in self.shared:
            assert merged_fast == merged_naive
        for cell in self.cells:
            if cell is not None:
                assert vars_of(cell[0]) == vars_of(cell[1])


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, max_size=60))
def test_every_step_leaves_both_clocks_standing_for_the_same_mappings(
        program):
    pair = Pair()
    for step in program:
        pair.run(step)
        pair.check()


def test_zero_components_of_a_never_ticked_spawner_are_kept():
    """The digest-relevant corner: ``{spawner: 0}`` rides along."""
    root = TaskClock(0, "root")
    child = TaskClock(1, "child", root)
    grandchild = TaskClock(2, "grandchild", child)
    assert child.mapping() == {0: 0, 1: 0}
    assert grandchild.mapping() == {0: 0, 1: 0, 2: 0}
    assert grandchild.snapshot().mapping() == {0: 0, 1: 0, 2: 1}
    # ... but a join never hands a zero on, exactly as the dict loop.
    other = TaskClock(3, "other")
    other.join(grandchild.snapshot())
    assert other.mapping() == {2: 2, 3: 0}


def test_the_cheap_joins_are_the_ones_that_teach_nothing():
    a, b = TaskClock(0, "a"), TaskClock(1, "b")
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
    assert second.foreign is first.foreign
    b.join(second)
    assert b.mapping() == {0: 2, 1: 1}
    # ... written to a copy: what b published is still what it was.
    assert b.foreign is not learned
    assert for_lock.mapping() == {0: 1, 1: 1}
