"""Tests for the tracer and deterministic random streams."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.sim import Category, RandomStreams, Simulator, Tracer

START = Category("test.start")
STOP = Category("test.stop")
X = Category("test.x")
Y = Category("test.y")
PHASE_BEGIN = Category("test.phase.begin", "app", "begin", "test.phase.end")
PHASE_END = Category("test.phase.end", "app", "end", "test.phase.begin")


# ---------------------------------------------------------------- tracer

def test_tracer_records_with_timestamps():
    sim = Simulator()
    tr = Tracer(sim)

    def task():
        tr.emit(START, "a")
        yield sim.timeout(1.0)
        tr.emit(STOP, "b")

    sim.spawn(task())
    sim.run()
    assert len(tr) == 2
    assert tr.records[0].time == 0.0 and tr.records[0].payload == "a"
    assert tr.records[1].time == 1.0 and tr.records[1].category is STOP


def test_tracer_select_and_count():
    sim = Simulator()
    tr = Tracer(sim)
    tr.emit(X, 1)
    tr.emit(Y, 2)
    tr.emit(X, 3)
    assert tr.count(X) == 2
    assert [r.payload for r in tr.select(Y)] == [2]


def test_tracer_spans_pair_fifo():
    sim = Simulator()
    tr = Tracer(sim)

    def task():
        tr.emit(PHASE_BEGIN)
        yield sim.timeout(2.0)
        tr.emit(PHASE_END)
        yield sim.timeout(1.0)
        tr.emit(PHASE_BEGIN)
        yield sim.timeout(3.0)
        tr.emit(PHASE_END)

    sim.spawn(task())
    sim.run()
    spans = tr.pair_spans(PHASE_BEGIN, PHASE_END).spans
    assert spans == [(0.0, 2.0), (3.0, 6.0)]


def test_tracer_clear():
    sim = Simulator()
    tr = Tracer(sim)
    tr.emit(X)
    assert len(tr) == 1
    tr.clear()
    assert len(tr) == 0


def test_tracer_iterable():
    sim = Simulator()
    tr = Tracer(sim)
    tr.emit(X)
    tr.emit(Y)
    assert [r.category for r in tr] == [X, Y]


# ---------------------------------------------------------------- streams

def test_streams_deterministic_per_name():
    a = RandomStreams(seed=7)
    b = RandomStreams(seed=7)
    assert np.allclose(a.stream("x").random(5), b.stream("x").random(5))


def test_streams_independent_across_names():
    s = RandomStreams(seed=7)
    x = s.stream("x").random(5)
    y = s.stream("y").random(5)
    assert not np.allclose(x, y)


def test_streams_insensitive_to_creation_order():
    a = RandomStreams(seed=3)
    _ = a.stream("first").random(2)
    va = a.stream("second").random(3)
    b = RandomStreams(seed=3)
    vb = b.stream("second").random(3)
    assert np.allclose(va, vb)


def test_streams_cached_instance():
    s = RandomStreams()
    assert s.stream("x") is s["x"]


def test_different_seeds_differ():
    assert not np.allclose(RandomStreams(1)["x"].random(4),
                           RandomStreams(2)["x"].random(4))


def test_streams_do_not_depend_on_the_hash_seed():
    """``(seed, name)`` draws the same in every interpreter, whatever its
    ``PYTHONHASHSEED``."""
    code = ("from repro.sim import RandomStreams\n"
            "print(RandomStreams(7).stream('jitter').random(2).tolist())")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    draws = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.join(root, "src"))
        draws.add(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=env, timeout=120).stdout)
    assert len(draws) == 1


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RandomStreams(-1)
