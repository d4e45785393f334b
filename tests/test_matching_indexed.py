"""Equivalence of the indexed matching engine and the linear reference.

The indexed :class:`~repro.mpi.matching.MatchingEngine` must be
*observationally identical* to ``tests/oracles.py``'s
:class:`LinearMatchingEngine`: same match
results, same ``scanned`` counts (they feed the cost model, so simulated
timings depend on them), same depths and ``total_scans``. These tests
drive both engines through identical operation interleavings — randomized
(Hypothesis) and adversarial (cancel storms that force compaction) — and
regenerate one committed results file with the linear engine to prove
byte-identity end to end.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.matching import (ANY_SOURCE, ANY_TAG, MatchingEngine,
                                PostedRecv)
from repro.mpi.request import Request
from repro.netsim.message import MessageKind, WireMessage
from repro.sim import Simulator
from repro.netsim import ClusterSpec
from tests.oracles import LinearMatchingEngine

BUF = np.zeros(1, dtype=np.uint8)


def mk_msg(ctx, src, tag, dst):
    return WireMessage(kind=MessageKind.EAGER, src_node=0, dst_node=0,
                       src_rank=src, dst_rank=dst, context_id=ctx,
                       tag=tag, size=1, payload=None,
                       meta={"src_addr": src, "dst_addr": dst})


def mk_entry(sim, req, ctx, src, tag, dst):
    return PostedRecv(req=req, buf=BUF, count=1, context_id=ctx,
                      source=src, tag=tag, dst_addr=dst)


class EnginePair:
    """Drives the indexed engine and the linear reference through the
    same operation stream, asserting identical observables at each step."""

    def __init__(self):
        self.sim = Simulator()
        self.a = MatchingEngine()       # indexed, under test
        self.b = LinearMatchingEngine()  # reference
        self.posted = []  # Requests ever posted (cancel targets)

    def post(self, ctx, src, tag, dst):
        req = Request(self.sim, "recv")
        ea = mk_entry(self.sim, req, ctx, src, tag, dst)
        eb = mk_entry(self.sim, req, ctx, src, tag, dst)
        ra, sa = self.a.post_recv(ea)
        rb, sb = self.b.post_recv(eb)
        assert sa == sb
        assert ra is rb  # matched message objects are shared, or both None
        if ra is None:
            assert ea.seq == eb.seq
            self.posted.append(req)

    def incoming(self, ctx, src, tag, dst):
        msg = mk_msg(ctx, src, tag, dst)
        ra, sa = self.a.incoming(msg)
        rb, sb = self.b.incoming(msg)
        assert sa == sb
        assert (ra is None) == (rb is None)
        if ra is not None:  # distinct PostedRecv objects, same receive
            assert ra.req is rb.req
            assert ra.seq == rb.seq

    def probe(self, ctx, src, tag, dst):
        ra, sa = self.a.probe(ctx, src, tag, dst)
        rb, sb = self.b.probe(ctx, src, tag, dst)
        assert sa == sb and ra is rb

    def claim(self, ctx, src, tag, dst):
        ra, sa = self.a.claim_unexpected(ctx, src, tag, dst)
        rb, sb = self.b.claim_unexpected(ctx, src, tag, dst)
        assert sa == sb and ra is rb

    def lookup_ux(self, ctx, src, tag, dst):
        """Look up a receive's pattern; returns both engines' hints. A
        hit names the message the linear scan finds; a miss names the
        unexpected stream's next sequence number."""
        ha, sa = self.a.lookup_unexpected(ctx, src, tag, dst)
        hb, sb = self.b.lookup_unexpected(ctx, src, tag, dst)
        assert sa == sb
        if hb is None:
            assert ha == self.a.internals()["ux_seq"]
        else:
            assert ha.msg is hb and ha.alive
        return ha, hb

    def lookup_po(self, ctx, src, tag, dst):
        """Look up an arrival; returns the message and both hints. A hit
        names the receive the linear scan finds (same request, same
        place in the posted stream); a miss names the posted stream's
        next sequence number."""
        msg = mk_msg(ctx, src, tag, dst)
        ha, sa = self.a.lookup_posted(msg)
        hb, sb = self.b.lookup_posted(msg)
        assert sa == sb
        if hb is None:
            assert ha == self.a.internals()["po_seq"]
        else:
            assert ha.req is hb.req and ha.seq == hb.seq and ha.alive
        return msg, ha, hb

    def post_hinted(self, pattern, ha, hb):
        """Post a receive looked up earlier, each engine with its hint."""
        req = Request(self.sim, "recv")
        ea = mk_entry(self.sim, req, *pattern)
        eb = mk_entry(self.sim, req, *pattern)
        ra, sa = self.a.post_recv(ea, ha)
        rb, sb = self.b.post_recv(eb, hb)
        assert sa == sb and ra is rb
        if ra is None:
            assert ea.seq == eb.seq
            self.posted.append(req)

    def match_hinted(self, msg, ha, hb):
        """Match an arrival looked up earlier, each engine with its hint."""
        ra, sa = self.a.incoming(msg, ha)
        rb, sb = self.b.incoming(msg, hb)
        assert sa == sb
        assert (ra is None) == (rb is None)
        if ra is not None:
            assert ra.req is rb.req and ra.seq == rb.seq

    def cancel(self, i):
        if not self.posted:
            return
        req = self.posted[i % len(self.posted)]
        assert self.a.cancel_posted(req) == self.b.cancel_posted(req)

    def check_invariants(self):
        a, b = self.a, self.b
        assert a.total_scans == b.total_scans
        assert a.posted_depth == b.posted_depth
        assert a.unexpected_depth == b.unexpected_depth
        assert a.max_posted_depth == b.max_posted_depth
        assert a.max_unexpected_depth == b.max_unexpected_depth


# Small domains force bucket collisions, FIFO ties and wildcard overlap.
SRC = st.sampled_from([ANY_SOURCE, 0, 1, 2])
TAG = st.sampled_from([ANY_TAG, 0, 1, 2])
CSRC = st.sampled_from([0, 1, 2])   # messages carry concrete values
CTAG = st.sampled_from([0, 1, 2])
CTX = st.sampled_from([0, 1])
DST = st.sampled_from([0, 1])

OP = st.one_of(
    st.tuples(st.just("post"), CTX, SRC, TAG, DST),
    st.tuples(st.just("incoming"), CTX, CSRC, CTAG, DST),
    st.tuples(st.just("probe"), CTX, SRC, TAG, DST),
    st.tuples(st.just("claim"), CTX, SRC, TAG, DST),
    st.tuples(st.just("lookup_ux"), CTX, SRC, TAG, DST),
    st.tuples(st.just("lookup_po"), CTX, CSRC, CTAG, DST),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 20),
              st.just(0), st.just(0), st.just(0)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(OP, max_size=120))
def test_indexed_equals_linear_under_random_interleavings(ops):
    pair = EnginePair()
    step = {"post": pair.post, "incoming": pair.incoming,
            "probe": pair.probe, "claim": pair.claim,
            "lookup_ux": pair.lookup_ux, "lookup_po": pair.lookup_po}
    for kind, *params in ops:
        if kind == "cancel":
            pair.cancel(params[0])
        else:
            step[kind](*params)
        pair.check_invariants()


HINTED_OP = st.one_of(
    st.tuples(st.just("lookup_recv"), CTX, SRC, TAG, DST),
    st.tuples(st.just("post_recv"), st.integers(0, 1 << 20)),
    st.tuples(st.just("arrive"), CTX, CSRC, CTAG, DST),
    st.tuples(st.just("match"), st.integers(0, 1 << 20)),
    st.tuples(st.just("post"), CTX, SRC, TAG, DST),
    st.tuples(st.just("incoming"), CTX, CSRC, CTAG, DST),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 20)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(HINTED_OP, max_size=120))
def test_hinted_lookups_equal_linear_rescans(ops):
    """A receive looked up when posted and posted later, and an arrival
    looked up when it lands and matched later (the library's two
    service-time gaps), each with the indexed engine's hint, against the
    linear engine rescanning every time: every match and every
    ``scanned`` agree, however posts, arrivals and cancels interleave in
    the gaps and whichever pending operation completes first."""
    pair = EnginePair()
    recvs, arrivals = [], []
    for kind, *params in ops:
        if kind == "lookup_recv":
            recvs.append((tuple(params), *pair.lookup_ux(*params)))
        elif kind == "post_recv" and recvs:
            pair.post_hinted(*recvs.pop(params[0] % len(recvs)))
        elif kind == "arrive":
            arrivals.append(pair.lookup_po(*params))
        elif kind == "match" and arrivals:
            pair.match_hinted(*arrivals.pop(params[0] % len(arrivals)))
        elif kind == "post":
            pair.post(*params)
        elif kind == "incoming":
            pair.incoming(*params)
        elif kind == "cancel":
            pair.cancel(params[0])
        pair.check_invariants()
    for pending in recvs:
        pair.post_hinted(*pending)
    for pending in arrivals:
        pair.match_hinted(*pending)
    pair.check_invariants()


def test_long_seeded_interleaving():
    """A deep deterministic run (beyond Hypothesis example sizes) that
    cycles the queues enough to hit tombstone compaction repeatedly."""
    rng = np.random.default_rng(1234)
    pair = EnginePair()
    for _ in range(4000):
        op = rng.integers(0, 7)
        ctx = int(rng.integers(0, 2))
        dst = int(rng.integers(0, 2))
        src = int(rng.integers(-1, 3))
        tag = int(rng.integers(-1, 3))
        if op <= 1:
            pair.post(ctx, src, tag, dst)
        elif op <= 3:
            pair.incoming(ctx, max(src, 0), max(tag, 0), dst)
        elif op == 4:
            pair.claim(ctx, src, tag, dst)
        elif op == 5:
            pair.probe(ctx, src, tag, dst)
        else:
            pair.cancel(int(rng.integers(0, 1 << 20)))
    pair.check_invariants()


def test_cancel_under_load_forces_compaction():
    """Cancel storms on a deep queue: dead records must be compacted away
    and survivors must still match with the linear engine's scan counts."""
    pair = EnginePair()
    for i in range(400):
        pair.post(0, i % 3, i % 2, 0)
    # Cancel 300 scattered receives -> dead (300) > live (100) + 64.
    for i in range(400):
        if i % 4 != 3:
            assert pair.a.cancel_posted(pair.posted[i])
            assert pair.b.cancel_posted(pair.posted[i])
    assert pair.a._po_dead < 64 + pair.a.posted_depth  # compaction ran
    pair.check_invariants()
    # Survivors still match FIFO with identical analytic scan counts.
    for i in range(100):
        pair.incoming(0, i % 3, i % 2, 0)
        pair.check_invariants()
    # Double-cancel and cancel-after-match report False on both engines.
    for req in pair.posted:
        assert pair.a.cancel_posted(req) == pair.b.cancel_posted(req)
    pair.check_invariants()


def test_wildcard_fifo_ties_across_buckets():
    """Wildcard and concrete receives interleaved: the earliest-seq winner
    must be chosen across *different* buckets."""
    pair = EnginePair()
    pair.post(0, ANY_SOURCE, ANY_TAG, 0)
    pair.post(0, 1, ANY_TAG, 0)
    pair.post(0, ANY_SOURCE, 1, 0)
    pair.post(0, 1, 1, 0)
    for _ in range(4):
        pair.incoming(0, 1, 1, 0)
        pair.check_invariants()
    assert pair.a.posted_depth == 0


def test_unexpected_wildcard_index_built_lazily():
    eng = MatchingEngine()
    for tag in range(8):
        eng.incoming(mk_msg(0, 0, tag, 0))
    assert not eng._ux_wild
    msg, scanned = eng.probe(0, ANY_SOURCE, ANY_TAG, 0)
    assert eng._ux_wild
    assert msg is not None and scanned == 1
    # Wildcard index stays consistent with later arrivals and claims.
    eng.incoming(mk_msg(0, 2, 99, 0))
    got, scanned = eng.claim_unexpected(0, 2, ANY_TAG, 0)
    assert got is not None and got.tag == 99 and scanned == 9


def test_golden_results_file_identical_with_linear_engine(monkeypatch):
    """Regenerate the committed Fig 1(a) table with the reference linear
    engine substituted into the VCI layer: every simulated rate — hence
    the rendered results file — must be byte-identical to what the
    indexed engine produced (``benchmarks/results/fig1a_message_rate.txt``
    is committed from the indexed run)."""
    import pathlib

    import repro.mpi.vci as vci
    from repro.bench import MsgRateConfig, Table, run_msgrate

    monkeypatch.setattr(vci, "MatchingEngine", LinearMatchingEngine)

    from repro.netsim import NetworkConfig

    cores_list = (1, 2, 4, 8, 16, 32, 64)
    modes = ("everywhere", "threads-original", "threads-tags",
             "threads-comms", "threads-endpoints")
    table = Table("Fig 1(a): aggregate message rate (M msg/s) vs cores",
                  ["cores"] + list(modes),
                  widths=[6] + [19] * len(modes))
    rates = {}
    for mode in modes:
        for cores in cores_list:
            r = run_msgrate(MsgRateConfig(mode=mode, cores=cores,
                                          msgs_per_core=64),
                            net=NetworkConfig.omnipath())
            rates[(mode, cores)] = r.rate
    for cores in cores_list:
        table.add(cores, *[f"{rates[(m, cores)] / 1e6:.2f}" for m in modes])

    golden = pathlib.Path(__file__).resolve().parent.parent \
        / "benchmarks" / "results" / "fig1a_message_rate.txt"
    # write_results() terminates the file with a newline.
    assert table.render() + "\n" == golden.read_text()


def test_total_scans_identical_between_engines(monkeypatch):
    """The aggregate O(n) matching-work metric must not depend on the
    engine implementation (it is *modelled* cost, not host cost), and
    neither may the simulated completion time."""
    import repro.mpi.vci as vci
    from repro.netsim import NetworkConfig
    from repro.runtime import World

    from tests.helpers import run_ranks

    def traffic(engine_cls):
        monkeypatch.setattr(vci, "MatchingEngine", engine_cls)
        world = World(cluster=ClusterSpec(nodes=2, network=NetworkConfig()),
                      max_vcis_per_proc=1, seed=7)

        def sender(proc):
            for k in range(24):
                yield from proc.comm_world.Send(
                    np.full(4, float(k)), dest=1, tag=k % 5)
            for k in range(3):
                yield from proc.comm_world.Send(
                    np.full(4, 0.0), dest=1, tag=100 + k)

        def receiver(proc):
            yield proc.compute(200e-6)  # pile up unexpected messages
            buf = np.zeros(4)
            # Drain deepest tags first so concrete receives scan far into
            # the unexpected queue; alternate ANY_SOURCE for wildcard paths.
            for tag in (4, 3, 2, 1, 0):
                for j in range(4 if tag == 4 else 5):
                    src = ANY_SOURCE if j % 2 else 0
                    yield from proc.comm_world.Recv(buf, source=src, tag=tag)
            for _ in range(3):  # pure-wildcard tail
                yield from proc.comm_world.Recv(buf, source=ANY_SOURCE,
                                                tag=ANY_TAG)

        run_ranks(world, sender, receiver)
        scans = sum(v.engine.total_scans
                    for p in world.procs
                    for v in p.lib.vci_pool.active_vcis)
        return scans, world.sim.now

    scans_a, now_a = traffic(MatchingEngine)
    scans_b, now_b = traffic(LinearMatchingEngine)
    assert scans_a == scans_b > 0
    assert repr(now_a) == repr(now_b)
