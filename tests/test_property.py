"""Property-based tests (hypothesis) for core invariants."""

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mapping import (
    STENCIL_2D_5PT,
    STENCIL_2D_9PT,
    STENCIL_3D_7PT,
    STENCIL_3D_27PT,
    MirroredCommMap,
    NaiveCommMap,
    StencilGeometry,
    TagSchema,
    analyze_map,
    min_channels_2d9,
)
from repro.mpi.matching import ANY_SOURCE, ANY_TAG, MatchingEngine, PostedRecv
from repro.mpi.request import Request
from repro.mpi.vci import TAG_BITS, mix_hash
from repro.netsim.message import MessageKind, WireMessage
from repro.sim import FIFOServer, Simulator

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------------ sim

@SETTINGS
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                max_size=40))
def test_event_processing_is_time_ordered(delays):
    sim = Simulator()
    seen = []

    def task(d):
        yield sim.timeout(d)
        seen.append(sim.now)

    for d in delays:
        sim.spawn(task(d))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


@SETTINGS
@given(st.lists(st.floats(min_value=1e-9, max_value=1e-3), min_size=1,
                max_size=30))
def test_fifo_server_rate_limited_and_monotonic(services):
    sim = Simulator()
    srv = FIFOServer(sim)
    times = [srv.occupy(s) for s in services]
    # completions strictly increase and respect cumulative service time
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[-1] >= sum(services) * 0.999999


# ------------------------------------------------------------ matching

def _msg(src, tag, ctx=0, dst_addr=0, val=None):
    return WireMessage(kind=MessageKind.EAGER, src_node=0, dst_node=1,
                       src_rank=src, dst_rank=0, context_id=ctx, tag=tag,
                       size=0, payload=val,
                       meta={"src_addr": src, "dst_addr": dst_addr})


@SETTINGS
@given(st.lists(
    st.tuples(st.booleans(),                      # recv (True) or msg
              st.integers(min_value=0, max_value=3),   # source
              st.integers(min_value=0, max_value=3)),  # tag
    min_size=1, max_size=60),
    st.data())
def test_matching_every_message_matched_at_most_once(ops, data):
    """Random interleavings of posts and arrivals: each message is matched
    by at most one receive, each receive by at most one message, and
    matched pairs satisfy the predicate."""
    sim = Simulator()
    eng = MatchingEngine()
    matches = []
    posted, arrived = [], []
    for i, (is_recv, src, tag) in enumerate(ops):
        if is_recv:
            use_any_src = data.draw(st.booleans(), label=f"anysrc{i}")
            use_any_tag = data.draw(st.booleans(), label=f"anytag{i}")
            entry = PostedRecv(req=Request(sim, "r"), buf=np.zeros(1),
                               count=1, context_id=0,
                               source=ANY_SOURCE if use_any_src else src,
                               tag=ANY_TAG if use_any_tag else tag,
                               dst_addr=0)
            posted.append(entry)
            msg, _ = eng.post_recv(entry)
            if msg is not None:
                matches.append((entry, msg))
        else:
            msg = _msg(src, tag, val=i)
            arrived.append(msg)
            entry, _ = eng.incoming(msg)
            if entry is not None:
                matches.append((entry, msg))

    seen_entries = [id(e) for e, _ in matches]
    seen_msgs = [id(m) for _, m in matches]
    assert len(set(seen_entries)) == len(seen_entries)
    assert len(set(seen_msgs)) == len(seen_msgs)
    for entry, msg in matches:
        assert entry.matches(msg)
    # conservation: everything is matched or parked in a queue
    assert len(matches) + eng.posted_depth == len(posted)
    assert len(matches) + eng.unexpected_depth == len(arrived)


@SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=2,
                max_size=30))
def test_matching_nonovertaking_same_stream(tags_zero_one):
    """Messages with identical (src, tag) must match receives in arrival
    order (MPI's non-overtaking guarantee)."""
    sim = Simulator()
    eng = MatchingEngine()
    # all messages same src/tag; mark payload with sequence number
    for i in range(len(tags_zero_one)):
        eng.incoming(_msg(src=0, tag=5, val=i))
    got = []
    for _ in range(len(tags_zero_one)):
        entry = PostedRecv(req=Request(sim, "r"), buf=np.zeros(1), count=1,
                           context_id=0, source=0, tag=5, dst_addr=0)
        msg, _ = eng.post_recv(entry)
        assert msg is not None
        got.append(msg.payload)
    assert got == sorted(got)


# ------------------------------------------------------------ tag schema

@SETTINGS
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=7),
       st.data())
def test_tag_schema_roundtrip_random(bits, app_bits, data):
    if 2 * bits + app_bits > TAG_BITS:
        return
    schema = TagSchema(num_tid_bits=bits, num_app_bits=app_bits)
    src = data.draw(st.integers(0, schema.max_threads - 1))
    dst = data.draw(st.integers(0, schema.max_threads - 1))
    app = data.draw(st.integers(0, schema.max_app_tag))
    tag = schema.encode(src, dst, app)
    assert 0 <= tag <= (1 << TAG_BITS) - 1
    assert schema.decode(tag) == (src, dst, app)


@SETTINGS
@given(st.integers(min_value=0, max_value=2 ** 40))
def test_mix_hash_stable_and_nonnegative(x):
    assert mix_hash(x) == mix_hash(x)
    assert mix_hash(x) >= 0


# ------------------------------------------------------------ geometry

@SETTINGS
@given(st.sampled_from([STENCIL_2D_5PT, STENCIL_2D_9PT, STENCIL_3D_7PT,
                        STENCIL_3D_27PT]), st.data())
def test_one_neighbour_walk_gives_both_exchange_directions(stencil, data):
    """Across all processes every incoming exchange is someone's outgoing
    one, and a thread's outgoing exchanges are the off-process part of
    its neighbour walk, which visits every in-domain neighbour in the
    stencil's own order."""
    dim = len(next(iter(stencil)))
    side = st.integers(min_value=1, max_value=3 if dim == 2 else 2)
    geom = StencilGeometry(tuple(data.draw(side) for _ in range(dim)),
                           tuple(data.draw(side) for _ in range(dim)),
                           stencil)
    order = list(stencil)
    outgoing, incoming = Counter(), Counter()
    for p in geom.procs():
        for t in geom.threads():
            g = geom.global_of(p, t)
            walk = list(geom.neighbors(p, t))
            beside = [(d, tuple(a + b for a, b in zip(g, d))) for d in order]
            assert [(d, g2) for d, g2, _remote in walk] == \
                [(d, g2) for d, g2 in beside if geom.in_domain(g2)]
            assert all(remote == (geom.proc_of(g2) != p)
                       for _d, g2, remote in walk)
            sends = list(geom.exchanges_from(p, t))
            assert [ex.direction for ex in sends] == \
                [d for d, _g2, remote in walk if remote]
            assert all(ex.src == g for ex in sends)
            recvs = list(geom.exchanges_into(p, t))
            assert all(ex.dst == g and geom.proc_of(ex.src) != p
                       for ex in recvs)
            outgoing.update(sends)
            incoming.update(recvs)
    assert incoming == outgoing


# ------------------------------------------------------------ comm maps

grid_dims = st.integers(min_value=1, max_value=4)


@SETTINGS
@given(grid_dims, grid_dims, grid_dims, grid_dims)
def test_mirrored_map_always_full_parallelism(px, py, tx, ty):
    geom = StencilGeometry((px, py), (tx, ty), STENCIL_2D_9PT)
    r = analyze_map(MirroredCommMap(geom))
    assert r.max_conflicting_labels == 0
    assert r.min_parallel_efficiency == 1.0


@SETTINGS
@given(grid_dims, grid_dims, grid_dims, grid_dims)
def test_map_labels_symmetric_for_pairs(px, py, tx, ty):
    """Both directions of an exchange pair share the mirrored label
    (Listing 1 uses one communicator for a direction's send and recv)."""
    geom = StencilGeometry((px, py), (tx, ty), STENCIL_2D_5PT)
    cmap = MirroredCommMap(geom)
    from repro.mapping.communicators import Exchange
    for p in geom.procs():
        for t in geom.threads():
            for ex in geom.exchanges_from(p, t):
                assert cmap.label(ex) == cmap.label(Exchange(ex.dst, ex.src))


@SETTINGS
@given(st.integers(min_value=3, max_value=5),
       st.integers(min_value=3, max_value=5),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5))
def test_communicating_threads_match_formula(px, py, tx, ty):
    """The interior process's communicating-thread count equals the
    closed-form boundary count (the Lesson 3 'channels needed')."""
    geom = StencilGeometry((px, py), (tx, ty), STENCIL_2D_9PT)
    center = (px // 2, py // 2)
    # only interior processes see the full boundary
    if not (0 < center[0] < px - 1 and 0 < center[1] < py - 1):
        return
    assert len(geom.communicating_threads(center)) == min_channels_2d9(tx, ty)


@SETTINGS
@given(grid_dims, grid_dims,
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=2, max_value=4))
def test_naive_map_never_beats_mirrored_on_conflicts(px, py, tx, ty):
    geom = StencilGeometry((px, py), (tx, ty), STENCIL_2D_9PT)
    naive = analyze_map(NaiveCommMap(geom))
    mirrored = analyze_map(MirroredCommMap(geom))
    assert naive.min_parallel_efficiency <= mirrored.min_parallel_efficiency
    assert naive.max_threads_per_label >= mirrored.max_threads_per_label
