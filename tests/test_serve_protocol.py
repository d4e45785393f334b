"""Worker protocol, HTTP framing and orchestrator scheduling semantics.

Framing first (tier 1, pure unit): length-prefixed JSON frames must
round-trip under any chunking, and truncated, corrupt or oversized
frames must raise :class:`ProtocolError` — a damaged stream drops the
peer, it never silently drops a job. Then the HTTP edge (tier 1, an
in-process :class:`HttpApi` on a loop in a thread): requests on one
connection are answered in order, a framing error is answered 400 and
closes, the client re-dials only a connection the server closed while
idle, and no byte sequence in any chunking gets anything but well-formed
responses or a clean close. Then a warm resubmission (tier 1, no
sockets): a known document in any spelling is one job, counted as a
store lookup counts it, and a repeated head is parsed once. Then the
orchestrator contract (tier 2, real sockets on one event loop): a
worker that stops heartbeating or drops its connection has its
in-flight point requeued and finished by another worker (and only such
a worker: slow-but-beating and idle ones stay); a point that *raises*
fails the job immediately; duplicate in-flight points are deduped to
one execution.
"""

import asyncio
import contextlib
import errno
import gc
import io
import json
import math
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque

import pytest

import repro.serve.cache as cache_mod
import repro.serve.http as http_mod
import repro.serve.orchestrator as orch_mod
from repro.errors import ProtocolError, ServeError
from repro.serve.cache import PENDING
from repro.serve.client import ServeClient, parse_job_document
from repro.serve.http import HttpApi
from repro.serve.orchestrator import Orchestrator, job_text
from repro.serve.points import JOB_KINDS, execute_point, expand_job
from repro.serve.protocol import (
    CANONICAL_JSON,
    MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    error_frame,
    heartbeat_frame,
    job_frame,
    result_frame,
    write_frame,
)
from repro.serve.service import run_local, spawn_service
from repro.serve.worker import _frames, spawn_worker, worker_main

FRAMES = [
    job_frame("k" * 24, "selftest", {"i": 3}),
    result_frame("k" * 24, {"i": 3, "value": 9}),
    error_frame("k" * 24, "ValueError: boom"),
    heartbeat_frame(),
    {"type": "custom", "payload": {"nested": [1, 2.5, "x", None, True]}},
]


# -- framing (tier 1) ------------------------------------------------------
def test_roundtrip_single_feed():
    decoder = FrameDecoder()
    blob = b"".join(encode_frame(f) for f in FRAMES)
    assert decoder.feed(blob) == FRAMES
    assert decoder.pending_bytes == 0
    decoder.close()  # clean boundary: no error


def test_roundtrip_byte_by_byte():
    decoder = FrameDecoder()
    out = []
    for frame in FRAMES:
        for i in range(0, len(blob := encode_frame(frame))):
            out.extend(decoder.feed(blob[i:i + 1]))
    assert out == FRAMES


def test_encoding_is_canonical():
    # Key order must not matter: the wire bytes are sort_keys JSON.
    assert encode_frame({"type": "x", "a": 1, "b": 2}) == \
        encode_frame({"b": 2, "a": 1, "type": "x"})


def test_truncated_frame_raises_on_close():
    decoder = FrameDecoder()
    blob = encode_frame(FRAMES[0])
    decoder.feed(blob[:len(blob) - 3])
    assert decoder.pending_bytes == len(blob) - 3
    with pytest.raises(ProtocolError, match="truncated"):
        decoder.close()


def test_corrupt_payload_raises():
    bad = b'{"type": "x", not json'
    blob = len(bad).to_bytes(4, "big") + bad
    with pytest.raises(ProtocolError, match="corrupt frame payload"):
        FrameDecoder().feed(blob)


def test_payload_without_type_field_raises():
    for payload in (b"[1,2,3]", b'"hi"', b'{"no_type": 1}'):
        blob = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(ProtocolError, match="'type' field"):
            FrameDecoder().feed(blob)


def test_oversize_length_prefix_raises():
    blob = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
    with pytest.raises(ProtocolError, match="exceeds"):
        FrameDecoder().feed(blob)


def test_oversize_frame_refused_at_encode(monkeypatch):
    monkeypatch.setattr("repro.serve.protocol.MAX_FRAME_BYTES", 64)
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame({"type": "big", "blob": "x" * 200})


def _prefixed(payload):
    return len(payload).to_bytes(4, "big") + payload


#: A frame nested deeper than the JSON parser's stack, far under the
#: frame bound.
_DEEP_FRAME = _prefixed(b"[" * 200_000)

#: Stream fragments the decoder fuzzer splices between (and cuts
#: through): whole frames, the deep frame, a bad payload, and length
#: prefixes at and past the bound.
_FRAME_FRAGMENTS = [
    *map(encode_frame, FRAMES), _DEEP_FRAME, _prefixed(b"{}"),
    _prefixed(b"\xff"), MAX_FRAME_BYTES.to_bytes(4, "big"),
    (MAX_FRAME_BYTES + 1).to_bytes(4, "big"), b"\xff\xff\xff\xff",
]


def _cut(stream, cuts):
    """``stream`` as the chunks that cutting it at ``cuts`` leaves."""
    cuts = sorted(cuts)
    return [stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)])]


def test_no_byte_sequence_breaks_the_frame_decoder():
    """Arbitrary bytes in arbitrary chunks: ``feed`` returns only objects
    with a string ``type`` or raises :class:`ProtocolError` (never
    another error: a nesting too deep to parse is a corrupt frame), and
    after a clean feed ``close()`` raises exactly when bytes are
    pending."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    streams = st.lists(st.one_of(st.sampled_from(_FRAME_FRAGMENTS),
                                 st.binary(max_size=40)),
                       max_size=8).map(b"".join)

    @hypothesis.given(streams, st.lists(st.integers(0, 250_000), max_size=6))
    @hypothesis.example(_DEEP_FRAME, [])
    @hypothesis.example(_DEEP_FRAME, [3, 1000])
    def prop(stream, cuts):
        decoder = FrameDecoder()
        try:
            for chunk in _cut(stream, cuts):
                for frame in decoder.feed(chunk):
                    assert isinstance(frame, dict)
                    assert isinstance(frame["type"], str)
        except ProtocolError:
            return
        if decoder.pending_bytes:
            with pytest.raises(ProtocolError, match="truncated"):
                decoder.close()
        else:
            decoder.close()

    prop()


def test_valid_frames_roundtrip_under_any_cut():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text()),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=8), inner, max_size=4)),
        max_leaves=16)
    frames = st.one_of(
        st.sampled_from(FRAMES),
        st.builds(lambda kind, body: {**body, "type": kind}, st.text(),
                  st.dictionaries(st.text(max_size=8), values, max_size=4)))

    @hypothesis.given(st.lists(frames, max_size=6),
                      st.lists(st.integers(0, 2_000), max_size=8))
    def prop(sent, cuts):
        decoder = FrameDecoder()
        received = []
        for chunk in _cut(b"".join(map(encode_frame, sent)), cuts):
            received.extend(decoder.feed(chunk))
        assert received == sent
        decoder.close()

    prop()


def test_blocking_read_frame_roundtrip_and_clean_eof():
    # The worker's read loop: the same FrameDecoder the orchestrator
    # uses, fed from a blocking socket. EOF at a frame boundary ends it.
    a, b = socket.socketpair()
    with a, b:
        writer = threading.Thread(target=lambda: (
            [write_frame(a, f) for f in FRAMES], a.close()))
        writer.start()
        assert list(_frames(b)) == FRAMES
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_blocking_read_frame_mid_frame_eof_raises():
    a, b = socket.socketpair()
    with b:
        blob = encode_frame(FRAMES[1])
        a.sendall(encode_frame(FRAMES[0]) + blob[:len(blob) - 1])
        a.close()
        frames = _frames(b)
        assert next(frames) == FRAMES[0]
        with pytest.raises(ProtocolError, match="truncated"):
            next(frames)


def test_frame_constructors_vocabulary():
    assert heartbeat_frame() == {"type": "heartbeat"}
    assert job_frame("t", "selftest", {"i": 0})["type"] == "job"
    assert result_frame("t", {})["ok"] is True
    assert error_frame("t", "boom")["ok"] is False
    assert error_frame("t", "boom")["type"] == "result"


# -- job documents and the journal (tier 1, no sockets) --------------------
@pytest.mark.parametrize("kind, spec, blame", [
    ("selftest", {"n": None}, "bad selftest job document"),
    ("campaign", {"n": 2, "seed": "x"}, "bad campaign job document"),
    ("selftest", {"n": 2, "ms": "slow"}, "bad selftest job document"),
    ("campaign", {"n": 2, "apps": 5}, "bad campaign job document"),
    ("campaign", {"n": 2, "sampler_version": 0}, "sampled by sampler v0"),
    ("scenarios", {"specs": [{"app": "nope"}]}, "bad scenarios job"),
    ("sweep", {"params": {"bogus": [1]}}, "'mode' and 'cores'"),
    ("sweep", {"params": {"mode": ["everywhere"], "cores": [1],
                          "bogus": [1]}}, "bad sweep job.*bogus"),
    ("sweep", {"params": {"mode": ["everywere"], "cores": [1]}},
     "bad sweep job.*unknown mode"),
    ("sweep", {"params": {"mode": ["everywhere"], "cores": [0]}},
     "bad sweep job.*cores must be >= 1"),
    ("sweep", {"params": {"mode": ["everywhere"], "cores": ["two"]}},
     "bad sweep job document"),
    # Points the simulator cannot run: each hung or raised on a worker.
    ("sweep", {"params": {"mode": ["everywhere"], "cores": [2],
                          "window": [0]}},
     "bad sweep job.*window must be >= 1"),
    ("sweep", {"params": {"mode": ["everywhere"], "cores": [1.5]}},
     "bad sweep job.*cores must be an integer"),
    ("sweep", {"params": {"mode": ["everywhere"], "cores": [True]}},
     "bad sweep job.*cores must be an integer"),
    ("sweep", {"params": {"mode": ["everywhere"], "cores": [1],
                          "msgs_per_core": [0]}},
     "bad sweep job.*msgs_per_core must be >= 1"),
    ("sweep", {"params": {"mode": ["everywhere"], "cores": [1],
                          "msgs_per_core": [-3]}},
     "bad sweep job.*msgs_per_core must be >= 1"),
    ("sweep", {"params": {"mode": ["everywhere"], "cores": [1],
                          "msg_bytes": [-1]}},
     "bad sweep job.*msg_bytes must be >= 0"),
    ("selftest", {"n": float("inf")}, "bad selftest job document"),
    ("campaign", {"n": float("inf")}, "bad campaign job document"),
    ("selftest", {"n": 1, "ms": float("inf")}, "ms must be a finite number"),
    ("selftest", {"n": 1, "ms": float("nan")}, "ms must be a finite number"),
    ("selftest", {"n": 1, "ms": -1}, "ms must be a finite number >= 0"),
])
def test_bad_job_documents_are_serve_errors(kind, spec, blame):
    """Wrong types and impossible points fail at submit, as ServeError
    (HTTP 400) — never as a TypeError, never later on a worker."""
    with pytest.raises(ServeError, match=blame):
        expand_job(kind, spec)


def _journal(state):
    with open(os.path.join(state, "jobs.log"), "rb") as fh:
        return fh.read()


def _write_journal(state, data):
    with open(os.path.join(state, "jobs.log"), "wb") as fh:
        fh.write(data)


def _line(job_id, kind, spec):
    """A journal line as every build writes it."""
    return (_canonical_json({"job_id": job_id, "kind": kind, "spec": spec})
            + "\n").encode()


def test_bad_manifests_fail_their_job_not_the_orchestrator(tmp_path):
    """Every journal line that is no job, or whose document no longer
    expands, is one failed job naming its line; the good jobs around it
    resume, and the next id is one past the largest good one."""
    state = str(tmp_path / "s")
    first = Orchestrator(state)
    good = first.submit("selftest", {"n": 2})
    first.close()
    _write_journal(state, _journal(state) + b"".join([
        b'{"job_id": "job-00002", "ki\n',                    # cut JSON
        b'[]\n', b'\xff\xfe\n', b'\n',                       # foreign
        b'{"job_id":"job-x","kind":"selftest","spec":{}}\n',  # bad id
        _line("job-00003", "selftest", {"n": 1})[:-2] + b',"x":1}\n',  # key
        _line("job-00001", "selftest", {"n": 1}),            # id taken
        _line("job-00004", "selftest", {"n": 0}),            # can't expand
        _line("job-00005", "selftest", {"n": 1}),
    ]))
    orch = Orchestrator(state)
    orch.resume_jobs()
    failed = {f"line-{n}": n for n in range(2, 9)} | {"job-00004": 9}
    assert orch.job_ids() == [good, *failed, "job-00005"]
    assert orch.metrics.value("serve.job.corrupt") == len(failed)
    for job_id, number in failed.items():
        status = orch.job_status(job_id)
        assert status["status"] == "failed"
        assert f"jobs.log:{number}: " in status["error"]
    assert "corrupt job line" not in orch.job_status("job-00004")["error"]
    orch.drain_inline()
    assert orch.job_result(good)["results"] == [{"i": 0, "value": 0},
                                                {"i": 1, "value": 1}]
    assert orch.job_status("job-00005")["status"] == "done"
    assert orch.submit("selftest", {"n": 1}) == "job-00006"
    orch.close()


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
def test_the_heartbeat_timeout_is_positive_and_finite(tmp_path, timeout,
                                                      capsys):
    """A timeout of 0 or less times every busy worker out at once (and
    spins the watchdog), nan never times one out, and inf leaves no beat
    a worker can wait for: the orchestrator refuses each, and ``repro
    serve`` exits 2 on it."""
    from repro.cli import build_parser
    with pytest.raises(ValueError, match="positive, finite"):
        Orchestrator(str(tmp_path / "s"), heartbeat_timeout=float(timeout))
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["serve", "--heartbeat-timeout", timeout])
    assert exc.value.code == 2
    assert "positive, finite" in capsys.readouterr().err


# -- completion bookkeeping (tier 1, no sockets) ---------------------------
def test_completion_counters_agree_with_a_recount(tmp_path, monkeypatch):
    """``Job.remaining`` and the running-jobs count are maintained, not
    recomputed: hold them against a recount after every completion of a
    job with duplicate points, cache hits, a failed point and a requeue
    (and of a second job waiting on one of the same points)."""
    monkeypatch.setitem(JOB_KINDS, "mixed", lambda spec: ("selftest", [
        {"i": 0}, {"i": 2}, {"i": 2}, {"i": 3}, {"i": 1},
        {"i": 4, "fail": True}, {"i": 5}]))
    orch = Orchestrator(str(tmp_path / "s"))
    orch.submit("selftest", {"n": 2})
    orch.drain_inline()  # i=0 and i=1 are cache hits from here on
    checks = []

    def recount():
        for job in orch.jobs.values():
            pending = sum(r is PENDING for r in job.results)
            assert job.remaining == pending
            assert orch.job_status(job.job_id)["done"] == \
                job.done_count == job.total - pending
        running = sum(j.status == "running" for j in orch.jobs.values())
        assert orch.active == bool(running) and orch._running == running
        checks.append(running)

    def checked_execute(kind, point):
        recount()
        return execute_point(kind, point)

    monkeypatch.setattr("repro.serve.orchestrator.execute_point",
                        checked_execute)
    mixed = orch.submit("mixed", {})
    other = orch.submit("selftest", {"n": 4})  # shares i=2 and i=3
    recount()
    assert orch.job_status(mixed)["done"] == orch.jobs[mixed].cache_hits == 2
    task = orch.tasks[orch._queue.popleft()]  # a worker claims a point...
    orch._requeue(task, "test")                  # ...and is lost
    recount()
    orch.drain_inline()
    recount()
    assert orch.job_status(mixed)["status"] == "failed"
    assert orch.job_status(mixed)["done"] == 6  # all but the failed point
    assert orch.job_status(other)["status"] == "done"
    assert not orch.active and len(checks) >= 7 and checks[-1] == 0


def test_second_submit_touches_no_point_file(tmp_path, monkeypatch):
    """A point the store has proved costs a lookup: a resubmitted job
    opens and stats no point file and serialises no key record (its
    document's expansion kept them); a restarted orchestrator reads each
    file once, however many of its jobs ask."""
    state, total = str(tmp_path / "s"), 6
    orch = Orchestrator(state)
    first = orch.submit("selftest", {"n": total})
    orch.drain_inline()
    touched, canonicalised = [], []

    def spy(real):
        def call(path, *args, **kwargs):
            if "point-" in os.fspath(path):
                touched.append(path)
            return real(path, *args, **kwargs)
        return call

    def counted(record, real=cache_mod._canonical):
        canonicalised.append(record)
        return real(record)

    monkeypatch.setattr(cache_mod, "open", spy(open), raising=False)
    monkeypatch.setattr(os, "stat", spy(os.stat))
    monkeypatch.setattr(cache_mod, "_canonical", counted)
    hits = orch.cache_counts()["hits"]
    again = orch.submit("selftest", {"n": total})
    assert touched == [] and len(canonicalised) == 0
    status = orch.job_status(again)
    assert status["status"] == "done" and status["cache_hits"] == total
    assert orch.cache_counts()["hits"] == hits + total
    assert orch.metrics.value("serve.cache.hit") == total
    assert orch.job_result(again)["results"] == \
        orch.job_result(first)["results"]

    orch.close()  # the state directory takes one orchestrator at a time
    restarted = Orchestrator(state)
    restarted.resume_jobs()  # two journal lines, the same six points
    assert len(touched) == total
    assert restarted.cache_counts()["hits"] == 2 * total
    assert not restarted.active


# -- known job documents (tier 1, no sockets) ------------------------------
def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that every call is recorded; returns the
    record (one argument tuple per call)."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _canonical_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)


@pytest.mark.parametrize("again", [{"n": 6, "ms": 0}, {"ms": 0, "n": 6}],
                         ids=["same-key-order", "other-key-order"])
def test_a_known_document_is_not_expanded_again(tmp_path, monkeypatch, again):
    """A resubmitted document, its keys in any order, is one table
    lookup: nothing expands, no key record is serialised, one journal
    line is appended (the bytes every build wrote as a manifest, and a
    newline), and the result document is the first job's but for its id
    and hit count."""
    state = str(tmp_path / "s")
    orch = Orchestrator(state)
    first = orch.submit("selftest", {"n": 6, "ms": 0})
    orch.drain_inline()
    expanded = _count_calls(monkeypatch, orch_mod, "expand_job")
    canonicalised = _count_calls(monkeypatch, cache_mod, "_canonical")
    before = _journal(state)
    second = orch.submit("selftest", again)
    assert expanded == [] and canonicalised == []
    assert _journal(state) == before + _line(second, "selftest", again)
    assert sorted(os.listdir(state)) == ["cache", "jobs.log"]
    docs = [orch.job_result(job_id) for job_id in (first, second)]
    assert [doc.pop("cache_hits") for doc in docs] == [0, 6]
    assert [doc.pop("job_id") for doc in docs] == [first, second]
    assert _canonical_json(docs[1]) == _canonical_json(docs[0])


def test_resume_expands_each_document_once(tmp_path, monkeypatch):
    """Manifests of one document expand once on resume and share one
    point list; each point file is still read once."""
    state = str(tmp_path / "s")
    orch = Orchestrator(state)
    ids = [orch.submit("selftest", {"n": 4}) for _ in range(3)]
    ids.append(orch.submit("selftest", {"n": 6}))
    orch.drain_inline()
    expanded = _count_calls(monkeypatch, orch_mod, "expand_job")
    opened = []

    def spy(path, *args, real=open, **kwargs):
        if "point-" in os.fspath(path):
            opened.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(cache_mod, "open", spy, raising=False)
    orch.close()  # the state directory takes one orchestrator at a time
    restarted = Orchestrator(state)
    restarted.resume_jobs()
    assert len(expanded) == len(restarted.expansions) == 2
    assert len(opened) == len(set(opened)) == 6
    jobs = [restarted.jobs[job_id] for job_id in ids]
    assert jobs[0].points is jobs[1].points is jobs[2].points
    assert all(job.status == "done" and job.cache_hits == job.total
               for job in jobs)
    assert [restarted.job_result(job_id)["results"] for job_id in ids] == \
        [orch.job_result(job_id)["results"] for job_id in ids]


def test_a_document_that_fails_to_expand_is_never_remembered(tmp_path,
                                                             monkeypatch):
    """A bad document raises on every submit (the HTTP layer's 400),
    expanding afresh each time; it never enters the table and appends no
    journal line, nor does one JSON cannot hold."""
    state = str(tmp_path / "s")
    orch = Orchestrator(state)
    expanded = _count_calls(monkeypatch, orch_mod, "expand_job")
    for attempt in (1, 2):
        with pytest.raises(ServeError, match="n >= 1"):
            orch.submit("selftest", {"n": 0})
        assert len(expanded) == attempt
    with pytest.raises(ServeError, match="not JSON"):
        orch.submit("selftest", {"n": 1, 2: "keys of two types"})
    assert orch.expansions == {} and _journal(state) == b""
    assert orch.submit("selftest", {"n": 1}) == "job-00001"


def test_a_tuple_expands_alike_live_and_resumed(tmp_path):
    """A live job expands its document as JSON reads it back, as a resume
    always did: a Python caller's tuple is a list both times."""
    state = str(tmp_path / "s")
    spec = {"params": {"mode": ("everywhere", "threads-original"),
                       "cores": (1,), "msgs_per_core": 4}}
    live = Orchestrator(state)
    job_id = live.submit("sweep", spec)
    live.close()  # the state directory takes one orchestrator at a time
    resumed = Orchestrator(state)
    resumed.resume_jobs()
    assert resumed.jobs[job_id].points == live.jobs[job_id].points == [
        {"cores": 1, "mode": mode, "msgs_per_core": 4}
        for mode in ("everywhere", "threads-original")]
    assert resumed.jobs[job_id].spec == live.jobs[job_id].spec == \
        json.loads(json.dumps(spec))


def test_job_ids_past_99999_neither_collide_nor_misorder(tmp_path):
    """A journal that counted past five digits: the next id is one past
    the largest, no line is rewritten, and every listing is in journal
    order."""
    state = str(tmp_path / "s")
    os.mkdir(state)
    order = ["job-00001", "job-99999", "job-100000"]
    held = b"".join(_line(job_id, "selftest", {"n": n})
                    for job_id, n in zip(order, (1, 2, 3)))
    _write_journal(state, held)
    assert [doc["job_id"] for doc in run_local(state)] == order
    orch = Orchestrator(state)
    orch.resume_jobs()
    assert orch.submit("selftest", {"n": 4}) == "job-100001"
    orch.close()
    assert _journal(state) == held + _line("job-100001", "selftest", {"n": 4})
    assert orch.jobs["job-100000"].total == 3
    assert [status["job_id"] for status in orch.list_jobs()] == \
        order + ["job-100001"]


def _submit_all(state, docs):
    """Submit every ``(kind, spec)`` of ``docs`` on a fresh orchestrator
    and close it; returns the ids."""
    orch = Orchestrator(state)
    ids = [orch.submit(kind, spec) for kind, spec in docs]
    orch.close()
    return ids


def _resumed(state):
    """A restarted orchestrator on ``state``, its journal resumed (and
    closed: it is only read)."""
    orch = Orchestrator(state)
    orch.resume_jobs()
    orch.close()
    return orch


def test_a_cut_journal_resumes_exactly_its_whole_lines(tmp_path):
    """Any sequence of submits, repeated documents included, with the
    journal cut at any byte: a restart resumes the jobs of the whole
    lines, with their ids and in order, cuts the torn rest off and
    numbers the next job one past the largest. An interior line
    overwritten with garbage is then exactly one failed job, naming it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    docs = st.lists(st.sampled_from([("selftest", {"n": 1}),
                                     ("selftest", {"n": 2, "ms": 0}),
                                     ("selftest", {"n": 3, "fail_at": 1})]),
                    min_size=1, max_size=6)
    garbage = st.binary(max_size=24).filter(lambda raw: b"\n" not in raw)

    @hypothesis.given(docs, st.data())
    def prop(submitted, data):
        state = tempfile.mkdtemp(dir=tmp_path)
        ids = _submit_all(state, submitted)
        journal = _journal(state)
        cut = data.draw(st.integers(0, len(journal)), label="cut")
        _write_journal(state, journal[:cut])
        whole = journal[:cut].count(b"\n")
        orch = _resumed(state)
        assert orch.job_ids() == ids[:whole]
        assert [orch.jobs[job_id].spec for job_id in ids[:whole]] == \
            [json.loads(json.dumps(spec)) for _kind, spec in submitted[:whole]]
        assert _journal(state) == journal[:journal[:cut].rfind(b"\n") + 1]
        assert orch.metrics.value("serve.job.corrupt") == 0

        ids = ids[:whole] + _submit_all(state, [("selftest", {"n": 1})])
        assert ids[-1] == f"job-{whole + 1:05d}"
        lines = _journal(state).split(b"\n")[:-1]
        number = data.draw(st.integers(1, len(lines)), label="line")
        if number == len(lines):
            return  # the last line is the one an append may tear
        lines[number - 1] = data.draw(garbage, label="garbage")
        _write_journal(state, b"\n".join(lines) + b"\n")
        orch = _resumed(state)
        failed = [job_id for job_id in orch.job_ids()
                  if "corrupt job line" in (orch.jobs[job_id].error or "")]
        assert failed == [f"line-{number}"]
        assert f"jobs.log:{number}: " in orch.jobs[failed[0]].error
        kept = ids[:number - 1] + failed + ids[number:]
        assert orch.job_ids() == kept
        assert orch.metrics.value("serve.job.corrupt") == 1

    prop()


def test_a_failed_append_leaves_no_fragment_and_consumes_no_id(
        tmp_path, monkeypatch):
    """A journal write that fails, or writes only part of the line, is
    cut back off: the submit raises, and the next one gets the id."""
    state = str(tmp_path / "s")
    orch = Orchestrator(state)
    assert orch.submit("selftest", {"n": 1}) == "job-00001"
    before = _journal(state)
    real = os.write

    def short(fd, data):
        return real(fd, data[:len(data) // 2])

    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    for broken, blame in ((short, "short write"), (full, "No space")):
        monkeypatch.setattr(os, "write", broken)
        with pytest.raises(OSError, match=blame):
            orch.submit("selftest", {"n": 2})
        monkeypatch.setattr(os, "write", real)
        assert _journal(state) == before and orch.job_ids() == ["job-00001"]
    assert orch.submit("selftest", {"n": 2}) == "job-00002"
    orch.close()
    assert _resumed(state).job_ids() == ["job-00001", "job-00002"]


def test_edge_encoders_write_the_bytes_json_dumps_writes():
    """The one encoder built for the serve layer (HTTP bodies, frames,
    job documents, cache key records) writes what ``json.dumps`` with
    the same arguments writes, for any JSON document (and, through
    ``default=str``, a set)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    docs = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                  st.text(), st.frozensets(st.integers(), max_size=3)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=8), inner, max_size=4)),
        max_leaves=16)

    @hypothesis.given(docs)
    def prop(doc):
        expected = _canonical_json(doc)
        assert CANONICAL_JSON.encode(doc) == expected
        assert encode_frame({"type": "t", "doc": doc})[4:].decode() == \
            _canonical_json({"type": "t", "doc": doc})
        assert job_text("sweep", doc) == _canonical_json(
            {"kind": "sweep", "spec": doc})

    prop()


class _Opaque:
    """A value JSON cannot hold: ``default=str`` writes its ``str``."""

    def __init__(self, label):
        self.label = label

    def __str__(self):
        return f"<opaque {self.label}>"


#: The encoders the serve layer builds once, each with the ``JSONEncoder``
#: that is its oracle: the same arguments, an encoder built per call.
_ORACLES = [
    (CANONICAL_JSON, dict(sort_keys=True, separators=(",", ":"))),
    (cache_mod._PLAIN, dict(sort_keys=False, separators=(",", ":"))),
]


def _encoded(encode, doc):
    """``(text, None)``, or ``(None, exception type)`` if ``encode`` raised."""
    try:
        return encode(doc), None
    except (TypeError, ValueError) as exc:
        return None, type(exc)


def _oracle(arguments):
    """The ``encode`` of a ``JSONEncoder`` built for this call."""
    return json.JSONEncoder(default=str, **arguments).encode


def test_the_built_encoders_write_what_json_encoder_writes():
    """Over nested dicts keyed by strings, numbers, booleans or None,
    tuples, NaN and infinities, non-ASCII text and values only
    ``default=str`` can write, each encoder built once writes the bytes
    (or raises the error) of a ``JSONEncoder`` built for the call."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
        st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
        st.text(), st.text(st.characters(min_codepoint=0x80)),
        st.builds(_Opaque, st.text(max_size=4)),
        st.frozensets(st.integers(), max_size=3),
        st.complex_numbers(allow_nan=False, max_magnitude=1e6))
    # Keys of one dict share a type (strings; numbers and booleans, which
    # sort together; None), or mix strings and numbers, which raises.
    keys = [st.text(max_size=8),
            st.one_of(st.integers(), st.floats(), st.booleans()),
            st.none(), st.one_of(st.text(max_size=2), st.integers(0, 9))]
    docs = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        *[st.dictionaries(key, inner, max_size=4) for key in keys]),
        max_leaves=16)

    @hypothesis.given(docs)
    @hypothesis.settings(max_examples=300, deadline=None)
    def prop(doc):
        for encoder, arguments in _ORACLES:
            assert _encoded(encoder.encode, doc) == \
                _encoded(_oracle(arguments), doc)

    prop()


def test_a_failed_encode_leaves_the_next_one_whole():
    """A cycle (``ValueError``) or keys that do not sort (``TypeError``)
    leave the encoder's cycle markers behind; the next encode of the same
    objects, mended, still succeeds and still matches its oracle."""
    leaf = [1, "é"]
    cyclic = {"a": leaf, "b": {"nested": leaf}}
    leaf.append(cyclic)
    unsortable = {"k": {"x": 1}, "z": {1: "a", "b": 2}}
    for encoder, arguments in _ORACLES:
        with pytest.raises(ValueError, match="Circular reference"):
            encoder.encode(cyclic)
        leaf.pop()
        assert encoder.encode(cyclic) == _oracle(arguments)(cyclic)
        leaf.append(cyclic)
        if arguments["sort_keys"]:
            with pytest.raises(TypeError):
                encoder.encode(unsortable)
        del unsortable["z"][1]
        assert encoder.encode(unsortable) == _oracle(arguments)(unsortable)
        unsortable["z"][1] = "a"


# -- HTTP edge (tier 1, in-process server) ---------------------------------
@contextlib.contextmanager
def _serving(tmp_path):
    """An :class:`HttpApi` (over an orchestrator without workers) on an
    event loop in a thread. Yields ``(api, call)``; ``call(coro)`` runs a
    coroutine on that loop. Exits asserting that the loop logged no
    unhandled exception."""
    loop = asyncio.new_event_loop()
    unhandled = []
    loop.set_exception_handler(lambda _loop, ctx: unhandled.append(ctx))
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def call(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(10)

    async def boot():
        api = HttpApi(Orchestrator(str(tmp_path / "state")))
        await api.start()
        return api

    api = call(boot())
    try:
        yield api, call
    finally:
        call(api.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()
        gc.collect()  # "exception was never retrieved" fires on collection
    assert not thread.is_alive() and unhandled == []


def _dial(path, timeout=10):
    """A raw connection to the Unix socket ``path``, with a Python
    socket timeout of ``timeout`` seconds."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.settimeout(timeout)
        s.connect(path)
    except BaseException:
        s.close()
        raise
    return s


def _response(stream):
    """The next response on ``stream`` (a binary file on a socket) as
    ``(status, headers, doc)``, or None at EOF. Asserts it is well-formed:
    HTTP/1.1 status line, ``Content-Length``, a JSON body of that length."""
    line = stream.readline()
    if not line:
        return None
    version, status, _reason = line.decode("ascii").split(" ", 2)
    assert version == "HTTP/1.1" and line.endswith(b"\r\n")
    headers = {}
    while (header := stream.readline()) != b"\r\n":
        assert header.endswith(b"\r\n"), "EOF inside the headers"
        name, _, value = header.decode("ascii").partition(":")
        headers[name.lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    assert len(body) == int(headers["content-length"])
    return int(status), headers, json.loads(body)


def _raw(api, payload, chunks=None):
    """Send ``payload`` (optionally cut at ``chunks``) on one raw socket,
    half-close, and return every response up to the server's EOF. The
    server may close first (after a 400): what it wrote before is still
    read in full, the rest of the send is dropped."""
    with _dial(api.path) as s:
        cuts = sorted(chunks or [])
        try:
            for a, b in zip([0] + cuts, cuts + [len(payload)]):
                if payload[a:b]:
                    s.sendall(payload[a:b])
            s.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # EPIPE / ENOTCONN: the server hung up on a bad request
        with s.makefile("rb") as stream:
            return list(iter(lambda: _response(stream), None))


def _get(path, extra=""):
    return f"GET {path} HTTP/1.1\r\nHost: t\r\n{extra}\r\n".encode()


_JOB_BODY = json.dumps({"kind": "selftest", "spec": {"n": 1}}).encode()


def _post_job(n):
    body = json.dumps({"kind": "selftest", "spec": {"n": n}}).encode()
    return (f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode() + body)


def test_keep_alive_requests_are_answered_in_order(tmp_path):
    with _serving(tmp_path) as (api, _call):
        with _dial(api.path) as s:
            stream = s.makefile("rb")
            for n in (1, 2, 3):  # one at a time...
                s.sendall(_post_job(n))
                status, headers, doc = _response(stream)
                assert (status, doc["total"]) == (201, n)
                assert headers["connection"] == "keep-alive"
            # ...then a pipelined pair in one segment, answered in order.
            s.sendall(_get("/jobs/job-00002") + _get("/jobs/job-00003"))
            assert [_response(stream)[2]["job_id"] for _ in range(2)] == \
                ["job-00002", "job-00003"]
            s.sendall(_get("/nope") + _get("/healthz"))
            assert [_response(stream)[0] for _ in range(2)] == [404, 200]
            s.shutdown(socket.SHUT_WR)
            assert stream.read() == b""  # clean close, nothing trailing
        assert api.orchestrator.metrics.value("serve.http.connections") == 1
        assert api.orchestrator.metrics.value("serve.http.requests") == 7


@pytest.mark.parametrize("request_bytes", [
    _get("/healthz", "Connection: close\r\n"),
    _get("/healthz", "connection:  CLOSE\r\n"),
    b"GET /healthz HTTP/1.0\r\n\r\n",
    b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
])
def test_close_is_honoured_after_one_response(tmp_path, request_bytes):
    with _serving(tmp_path) as (api, _call):
        # The second request is never answered: the connection is gone.
        responses = _raw(api, request_bytes + _get("/healthz"))
        assert [(status, headers["connection"])
                for status, headers, _doc in responses] == [(200, "close")]


@pytest.mark.parametrize("bad, after, blame", [
    (_get("/healthz", f"Content-Length: {8 * 1024 * 1024 + 1}\r\n"),
     _get("/healthz"), "Content-Length"),
    (_get("/healthz", "Content-Length: -1\r\n"), _get("/healthz"),
     "Content-Length"),
    (_get("/healthz", "Content-Length: ten\r\n"), _get("/healthz"),
     "Content-Length"),
    (_get("/healthz", "Content-Length: 1e3\r\n"), b"", "Content-Length"),
    (b"GET /healthz\r\n\r\n", _get("/healthz"), "malformed request line"),
    (b"GET  /healthz HTTP/1.1\r\n\r\n", b"", "malformed request line"),
    (b"GET /healthz HTTP/2\r\n\r\n", _get("/healthz"),
     "malformed request line"),
    (b"\r\n\r\n", _get("/healthz"), "malformed request line"),
    # EOF inside a body, EOF inside the headers, headers without an end.
    (b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort", b"",
     "bad request"),
    (b"GET /healthz HTTP/1.1\r\nHost: t\r\n", b"", "bad request"),
    (b"x" * 70000, _get("/healthz"), "bad request"),
    # A chunked body is not read as the next request's line, and two
    # lengths that disagree name no body: one 400 each, then EOF.
    (b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
     + b"%x\r\n%s\r\n0\r\n\r\n" % (len(_JOB_BODY), _JOB_BODY),
     _get("/healthz"), "Transfer-Encoding"),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: %d\r\n"
     b"\r\n%s" % (len(_JOB_BODY), _JOB_BODY), _get("/healthz"),
     "Content-Length"),
])
def test_framing_errors_are_answered_400_then_eof(tmp_path, bad, after, blame):
    with _serving(tmp_path) as (api, _call):
        # A good request first (the connection was alive and reused); the
        # good one ``after`` is never answered: nothing that follows a
        # framing error can be trusted to start at a request line.
        responses = _raw(api, _get("/healthz") + bad + after)
        assert [status for status, _headers, _doc in responses] == [200, 400]
        _status, headers, doc = responses[-1]
        assert headers["connection"] == "close" and blame in doc["error"]


def test_identical_content_length_headers_frame_one_body(tmp_path):
    """Two ``Content-Length`` fields with one value name one body: the
    request is answered and the connection kept."""
    twice = (b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n"
             b"content-length:%d \r\n\r\n%s" % (len(_JOB_BODY),
                                                len(_JOB_BODY), _JOB_BODY))
    with _serving(tmp_path) as (api, _call):
        responses = _raw(api, twice + _get("/healthz"))
        assert [(status, headers["connection"])
                for status, headers, _doc in responses] == [
            (201, "keep-alive"), (200, "keep-alive")]


def test_a_client_still_sending_after_a_framing_400_reads_eof(tmp_path):
    """The server drops what follows a framing error instead of closing on
    it: closing on unread bytes resets the connection, and the client's
    next read raises ``ECONNRESET`` instead of returning EOF."""
    with _serving(tmp_path) as (api, _call):
        for _ in range(10):  # a server that resets loses most rounds
            with _dial(api.path) as s, s.makefile("rb") as stream:
                s.sendall(b"\r\n\r\n")
                status, headers, _doc = _response(stream)
                assert (status, headers["connection"]) == (400, "close")
                s.sendall(_get("/healthz") * 4)
                time.sleep(0.05)  # for a reset to come back, were there one
                assert stream.read() == b""


@pytest.mark.parametrize("closing", [
    _get("/healthz", "Connection: close\r\n"),
    b"GET /healthz HTTP/1.0\r\n\r\n",
])
def test_a_client_still_sending_after_a_close_reads_eof(tmp_path, closing):
    """A close the client asked for is as clean as a framing 400's: the
    server sends its EOF, then drops what still comes. A server that
    closed outright would answer the late request with a reset, and the
    client's shutdown or read would raise."""
    with _serving(tmp_path) as (api, _call):
        for _ in range(5):
            with _dial(api.path) as s, s.makefile("rb") as stream:
                s.sendall(closing)
                status, headers, _doc = _response(stream)
                assert (status, headers["connection"]) == (200, "close")
                assert stream.read() == b""  # the server's EOF
                s.sendall(_get("/healthz"))
                time.sleep(0.05)  # for a reset to come back, were there one
                s.shutdown(socket.SHUT_WR)
                assert stream.read() == b""


def test_bad_documents_are_400_and_keep_the_connection(tmp_path):
    """A well-framed request with a bad body is the application's 400,
    not the framing's: the connection stays. A bad document is a 400
    each time it comes (it is not remembered)."""
    body = b'{"kind": "nope"}'
    bad = (f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
           .encode() + body)
    with _serving(tmp_path) as (api, _call):
        responses = _raw(api, bad + bad + _get("/jobs/job-00001")
                         + _post_job(1))
        assert [(status, headers["connection"])
                for status, headers, _doc in responses] == [
            (400, "keep-alive"), (400, "keep-alive"), (404, "keep-alive"),
            (201, "keep-alive")]
        assert api.orchestrator.expansions.keys() == {
            job_text("selftest", {"n": 1})}


def _post_body(body):
    return (f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode() + body)


@pytest.mark.parametrize("body, blame", [
    (b'{"kind": "selftest", "spec": {"n": Infinity}}',
     "bad selftest job document"),
    (b'{"kind": "campaign", "spec": {"n": Infinity}}',
     "bad campaign job document"),
    (b'{"kind": "selftest", "spec": {"n": 1, "ms": Infinity}}',
     "ms must be a finite number"),
    (b'{"kind": "sweep", "spec": {"params": {"mode": ["everywhere"], '
     b'"cores": [2], "window": [0]}}}', "window must be >= 1"),
])
def test_a_document_json_reads_but_no_job_takes_is_a_400(tmp_path, body,
                                                         blame):
    """``json`` reads ``Infinity``, and ``int()`` of it overflows: the
    submit is a 400 like any bad document, and the connection answers
    the next request."""
    with _serving(tmp_path) as (api, _call):
        responses = _raw(api, _post_body(body) + _get("/healthz"))
        assert [(status, headers["connection"])
                for status, headers, _doc in responses] == [
            (400, "keep-alive"), (200, "keep-alive")]
        assert blame in responses[0][2]["error"]
        assert api.orchestrator.job_ids() == []


@pytest.mark.parametrize("body", [
    b'{"kind": "selftest", "spec": {"x": ' + b"[" * 5000 + b"]" * 5000
    + b"}}",
    b"kind: selftest\nspec:\n  x: " + b"[" * 5000 + b"]" * 5000 + b"\n",
], ids=["json", "yaml"])
def test_a_document_nested_past_the_parsers_is_a_400(tmp_path, body):
    """A body nested 5 000 deep makes the JSON parser (and, for a body
    that is not JSON, the YAML one) recurse past the interpreter's
    limit: that is the submitter's bad document, a 400 on a kept
    connection, not an internal error."""
    with _serving(tmp_path) as (api, _call):
        responses = _raw(api, _post_body(body) + _get("/healthz"))
        assert [(status, headers["connection"])
                for status, headers, _doc in responses] == [
            (400, "keep-alive"), (200, "keep-alive")]
        assert "nests too deeply" in responses[0][2]["error"]
        assert api.orchestrator.metrics.value(
            "serve.http.internal_errors") == 0
        assert api.orchestrator.job_ids() == []


def test_a_failed_journal_append_is_a_500_and_keeps_the_connection(
        tmp_path, monkeypatch):
    """A submit whose journal line cannot be written (the disk is full)
    is the service's 500, carrying the error; the journal holds no
    fragment, and the next submit gets the id the failed one would have
    had."""
    real = os.write
    with _serving(tmp_path) as (api, _call):
        orch = api.orchestrator

        def full(fd, data):
            if fd == orch._journal_fd:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(fd, data)

        monkeypatch.setattr(os, "write", full)
        responses = _raw(api, _post_job(1) + _get("/healthz"))
        monkeypatch.setattr(os, "write", real)
        assert [(status, headers["connection"])
                for status, headers, _doc in responses] == [
            (500, "keep-alive"), (200, "keep-alive")]
        assert "No space left on device" in responses[0][2]["error"]
        assert "os.write" in responses[0][2]["traceback"]
        assert orch.metrics.value("serve.http.internal_errors") == 1
        assert _journal(orch.state_dir) == b"" and orch.job_ids() == []
        (status, _headers, doc), = _raw(api, _post_job(1))
        assert (status, doc["job_id"]) == (201, "job-00001")


def test_connection_reuse_is_visible_in_the_metrics(tmp_path):
    with _serving(tmp_path) as (api, _call):
        value = api.orchestrator.metrics.value
        with ServeClient(api.path) as client:
            for _ in range(50):
                client.healthz()
            assert value("serve.http.connections") == 1
            assert value("serve.http.requests") == 50
            served = client.metrics()["metrics"]  # what GET /metrics shows
            assert served["serve.http.connections"][0]["value"] == 1
            assert served["serve.http.requests"][0]["value"] == 50
        for _ in range(50):
            with ServeClient(api.path) as client:
                client.healthz()
        assert value("serve.http.connections") == 51
        assert value("serve.http.requests") == 101


def test_client_redials_a_connection_closed_while_idle(tmp_path):
    with _serving(tmp_path) as (api, call):
        async def close_idle_connections():
            for writer in list(api._conns.values()):
                writer.close()
            await asyncio.sleep(0.05)  # let the FINs out

        orch = api.orchestrator
        with ServeClient(api.path) as client:
            assert client.healthz()["jobs"] == 0
            call(close_idle_connections())
            status = client.submit("selftest", {"n": 3})  # re-dialled...
            assert status["job_id"] == "job-00001"
            assert sorted(orch.jobs) == ["job-00001"]     # ...and sent once
            assert client.jobs()[0]["total"] == 3         # reused again
            assert orch.metrics.value("serve.http.connections") == 2
            assert orch.metrics.value("serve.http.requests") == 3


@contextlib.contextmanager
def _scripted_server(script):
    """A one-thread server on a Unix socket: per accepted connection,
    ``script`` gives a list of responses (bytes; a tuple of bytes = sent
    in pieces, a pause between each; ``None`` = read the request, then
    hang up without a byte). Yields ``(path, received)``; ``received``
    collects every request head seen."""
    received = []
    scratch = tempfile.TemporaryDirectory()
    path = os.path.join(scratch.name, "scripted.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen()

    def serve():
        for answers in script:
            conn, _peer = listener.accept()
            with conn, conn.makefile("rb") as stream:
                for answer in answers:
                    head = b""
                    while not head.endswith(b"\r\n\r\n"):
                        head += stream.readline()
                    received.append(head.split(b"\r\n")[0])
                    if answer is None:
                        break
                    for piece in answer if isinstance(answer, tuple) \
                            else (answer,):
                        conn.sendall(piece)
                        time.sleep(0.02)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield path, received
    finally:
        listener.close()
        thread.join(10)
        scratch.cleanup()


_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"


def test_client_retry_rule_is_once_and_only_on_a_reused_connection():
    # Fresh connection, no response byte: the server may have acted on
    # the request, so it is not sent again.
    with _scripted_server([[None]]) as (path, received):
        with pytest.raises(ServeError, match="closed before a response"):
            ServeClient(path, timeout=5).request("GET", "/fresh")
    assert received == [b"GET /fresh HTTP/1.1"]
    # Reused connection, no response byte: re-dialled exactly once; the
    # fresh connection's failure is final.
    with _scripted_server([[_OK, None], [None]]) as (path, received):
        with ServeClient(path, timeout=5) as client:
            assert client.request("GET", "/first") == (200, {})
            with pytest.raises(ServeError, match="closed before a response"):
                client.request("GET", "/second")
    assert received == [b"GET /first HTTP/1.1"] + [b"GET /second HTTP/1.1"] * 2
    # Reused connection dying after the first response byte: not re-sent.
    with _scripted_server([[_OK, b"HTTP/1.1 200 OK\r\nContent-Le"]]
                          ) as (path, received):
        with ServeClient(path, timeout=5) as client:
            assert client.request("GET", "/first") == (200, {})
            with pytest.raises(ServeError, match="unreachable"):
                client.request("POST", "/jobs", {"kind": "selftest"})
    assert received == [b"GET /first HTTP/1.1", b"POST /jobs HTTP/1.1"]


def test_client_reads_a_response_however_it_arrives():
    """A response cut inside its status line, a header, its blank line
    and its body reads as one; a body past one 64 KiB read is read whole;
    ``Connection: close`` drops the connection, and the next request
    dials a new one."""
    big = json.dumps({"x": "y" * 200_000}).encode()
    cut = (b"HTTP/1.1 2", b"01 Created\r\nContent-Le", b"ngth: 12\r\n",
           b"Connection: keep-alive\r\n\r", b"\n{\"a\":", b"[1, 2]}")
    script = [[cut,
               b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(big)
               + big,
               b"HTTP/1.1 404 Not Found\r\nConnection: close\r\n"
               b"Content-Length: 2\r\n\r\n{}"],
              [_OK]]
    with _scripted_server(script) as (path, received):
        with ServeClient(path, timeout=5) as client:
            assert client.request("GET", "/cut") == (201, {"a": [1, 2]})
            assert client.request("GET", "/big") == (
                200, {"x": "y" * 200_000})
            assert client.request("GET", "/closing") == (404, {})
            assert client._sock is None
            assert client.request("GET", "/again") == (200, {})
    assert received == [b"GET /cut HTTP/1.1", b"GET /big HTTP/1.1",
                        b"GET /closing HTTP/1.1", b"GET /again HTTP/1.1"]


def test_client_reads_header_fields_in_any_case_and_spacing():
    """Field names in any case, with or without whitespace after the
    colon, frame a body; ``Connection: close`` in any case drops the
    connection, ``Connection: keep-alive`` keeps it."""
    heads = [b"HTTP/1.1 200 OK\r\ncontent-length:2\r\n",
             b"HTTP/1.1 200 OK\r\nCONTENT-LENGTH: \t2\t \r\n"
             b"CoNnEcTiOn: Keep-Alive\r\n",
             b"HTTP/1.1 200 OK\r\nConnection:  Close \r\n"
             b"Content-length: 2\r\n",
             b"HTTP/1.1 200 OK\r\ncONTENT-lENGTH: 2\r\n"
             b"connection:CLOSE\r\n"]
    closes = [False, False, True, True]
    with _scripted_server([[heads[0] + b"\r\n{}", heads[1] + b"\r\n{}",
                            heads[2] + b"\r\n{}"],
                           [heads[3] + b"\r\n{}"]]) as (path, _received):
        with ServeClient(path, timeout=5) as client:
            for close in closes:
                assert client.request("GET", "/x") == (200, {})
                assert (client._sock is None) is close


@pytest.mark.parametrize("field", [
    b"", b"Content-Length: \r\n", b"Content-Length: two\r\n",
    b"Content-Length: 2x\r\n", b"Content-Length: -2\r\n",
    b"Content-Length: 2.0\r\n", b"Content-Size: 2\r\n",
    b"X-Content-Length: 2\r\n"],
    ids=["missing", "empty", "word", "suffix", "negative", "float",
         "other-name", "longer-name"])
def test_client_refuses_a_response_without_a_byte_count(field):
    """A response head without a numeric ``Content-Length`` frames no
    body: the request raises ``ServeError`` and drops the connection."""
    with _scripted_server([[b"HTTP/1.1 200 OK\r\n" + field + b"\r\n{}"]]
                          ) as (path, _received):
        with ServeClient(path, timeout=5) as client:
            with pytest.raises(ServeError, match="Content-Length"):
                client.request("GET", "/x")
            assert client._sock is None


def test_client_returns_every_status_and_raises_on_errors():
    """The status comes from the status line: a 2xx is the document, a
    4xx or 5xx is returned by ``request`` and raised, with the
    document's ``error``, by the convenience methods; an empty body is
    ``None``."""
    answers = [(201, "Created", {"job_id": "job-00001"}),
               (204, "No Content", None),
               (404, "Not Found", {"error": "no such job"}),
               (409, "Conflict", {"error": "job still running"}),
               (500, "Internal Server Error", {"error": "boom"}),
               (503, "Service Unavailable", {})]

    def response(status, phrase, doc):
        body = b"" if doc is None else json.dumps(doc).encode()
        return (b"HTTP/1.1 %d %s\r\nContent-Length: %d\r\n\r\n"
                % (status, phrase.encode(), len(body)) + body)

    script = [[response(*answer) for answer in answers] * 2]
    with _scripted_server(script) as (path, _received):
        with ServeClient(path, timeout=5) as client:
            assert [client.request("GET", "/x") for _ in answers] == [
                (status, doc) for status, _phrase, doc in answers]
            assert client.job("job-00001") == {"job_id": "job-00001"}
            assert client.job("job-00001") is None
            for error in ("no such job", "job still running", "boom",
                          "HTTP 503"):
                with pytest.raises(ServeError, match=error):
                    client.job("job-00001")


def test_client_reads_a_response_split_at_any_byte():
    """A response sent in two pieces, split at every byte offset, reads
    as the same document on one kept-alive connection."""
    body = '{"é":[1,2.5]}'.encode()
    whole = (b"HTTP/1.1 201 Created\r\nContent-Length: %d\r\n"
             b"Connection: keep-alive\r\n\r\n" % len(body)) + body
    splits = range(1, len(whole))
    with _scripted_server([[(whole[:at], whole[at:]) for at in splits]]
                          ) as (path, _received):
        with ServeClient(path, timeout=5) as client:
            for _at in splits:
                assert client.request("GET", "/x") == (201, {"é": [1, 2.5]})
                assert client._sock is not None


def test_client_timeouts_are_the_kernel_s():
    """The client's socket blocks, and its timeout is the kernel's
    ``SO_RCVTIMEO``/``SO_SNDTIMEO``: a Python socket timeout would
    ``poll`` before every ``send`` and ``recv``."""
    timeval = struct.Struct("@ll")
    with _scripted_server([[_OK]]) as (path, _received):
        with ServeClient(path, timeout=2.5) as client:
            assert client.request("GET", "/x") == (200, {})
            sock = client._sock
            assert sock.gettimeout() is None
            for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
                assert timeval.unpack(sock.getsockopt(
                    socket.SOL_SOCKET, option, timeval.size)) == (2, 500_000)


def test_client_of_a_silent_peer_raises_once_its_timeout_runs_out(tmp_path):
    """A peer that accepts and never answers: the request raises
    ``ServeError`` when the client's timeout runs out, and the
    connection is dropped."""
    path = str(tmp_path / "silent.sock")
    accepted = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
        listener.bind(path)
        listener.listen()
        thread = threading.Thread(
            target=lambda: accepted.append(listener.accept()[0]))
        thread.start()
        try:
            with ServeClient(path, timeout=0.5) as client:
                started = time.monotonic()
                with pytest.raises(ServeError, match="did not answer"):
                    client.healthz()
                assert 0.4 < time.monotonic() - started < 1.2
                assert client._sock is None
        finally:
            thread.join(10)
            for conn in accepted:
                conn.close()


def test_client_of_a_missing_or_stale_socket_raises_at_once(tmp_path):
    """No socket file, or one whose service is gone (nothing listens on
    it): the request raises ``ServeError`` ("unreachable") at once,
    whatever the timeout, and never hangs."""
    stale = str(tmp_path / "stale.sock")
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as dead:
        dead.bind(stale)  # the file outlives the socket
    for path in (str(tmp_path / "missing.sock"), stale):
        started = time.monotonic()
        with ServeClient(path, timeout=30) as client:
            with pytest.raises(ServeError, match="unreachable"):
                client.healthz()
        assert time.monotonic() - started < 1
    assert os.path.exists(stale)


def test_client_of_a_killed_service_raises_and_does_not_hang(tmp_path):
    handle = spawn_service(str(tmp_path / "state"), workers=1)
    try:
        with handle.client() as client:
            assert client.healthz()["ok"]
            handle.kill()
            started = time.monotonic()
            for _attempt in range(2):  # reused connection, then a fresh one
                with pytest.raises(ServeError, match="unreachable"):
                    client.healthz()
            assert time.monotonic() - started < 5
    finally:
        handle.kill()


def test_stop_closes_idle_keep_alive_connections(tmp_path):
    """Three clients parked on kept-alive connections: the in-process
    stop returns with every handler finished and nothing logged (the
    ``_serving`` exit asserts it — on Python 3.11 a handler cancelled in
    its read leaks a ``CancelledError`` callback trace), and a real
    service's ``stop()`` exits promptly (on Python >= 3.12
    ``Server.wait_closed()`` waits for open connections)."""
    with _serving(tmp_path) as (api, _call):
        clients = [ServeClient(api.path) for _ in range(3)]
        assert all(client.healthz()["ok"] for client in clients)
        assert len(api._conns) == 3
    assert api._conns == {}
    for client in clients:  # the server's EOF, seen at the next request
        with pytest.raises(ServeError, match="unreachable"):
            client.healthz()
    handle = spawn_service(str(tmp_path / "real"), workers=1)
    try:
        clients = [handle.client() for _ in range(3)]
        assert all(client.healthz()["ok"] for client in clients)
        started = time.monotonic()
        handle.stop()
        assert time.monotonic() - started < 2.0 and not handle.alive()
    finally:
        handle.kill()
        for client in clients:
            client.close()


# -- a service from a fresh interpreter ----------------------------------------
@contextlib.contextmanager
def _fresh_service(tmp_path, workers):
    """``python -m repro serve`` in a fresh interpreter, as a user starts
    one: nothing this test process imported is in it. Yields ``(pid,
    socket path)`` once it is serving; shuts it down (or kills it) on
    exit."""
    state = str(tmp_path / "fresh")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir", state,
         "-j", str(workers)], env=env, stdout=subprocess.DEVNULL)
    try:
        discovery = os.path.join(state, "serve.json")
        deadline = time.monotonic() + 30
        while not os.path.exists(discovery):
            assert proc.poll() is None and time.monotonic() < deadline, \
                "the service did not start"
            time.sleep(0.01)
        with open(discovery, encoding="utf-8") as fh:
            path = json.load(fh)["socket"]
        yield proc.pid, path
        with ServeClient(path) as client:
            client.shutdown()
        proc.wait(10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(10)


def _minor_faults(pid):
    """``minflt`` of ``pid``: field 10 of ``/proc/<pid>/stat``, the 8th
    after the parenthesised command name."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        return int(fh.read().rpartition(")")[2].split()[7])


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="minor fault counts come from /proc")
def test_a_warm_post_maps_no_memory(tmp_path):
    """Each read of a served connection is capped at 64 KiB
    (``protocol.bound_reads``). asyncio's default 256 KiB read buffer is
    above glibc's mmap threshold in a lean service, so every request
    would map, fault in and unmap it: ~2.2 minor faults per POST, against
    ~0.2 with the cap. The service must be a fresh interpreter: one
    forked from this process's heap has freed large blocks before, which
    raises glibc's threshold and hides the cost."""
    spec = {"n": 35}
    with _fresh_service(tmp_path, workers=1) as (pid, path), \
            ServeClient(path) as client:
        client.wait(client.submit("selftest", spec)["job_id"], poll=0.01)
        for _ in range(20):
            client.submit("selftest", spec)
        before = _minor_faults(pid)
        for _ in range(500):
            assert client.submit("selftest", spec)["status"] == "done"
        per_post = (_minor_faults(pid) - before) / 500
    assert per_post <= 0.5


class _SinkTransport:
    """A transport that drops what an HTTP connection writes."""

    def write(self, data):
        pass


def test_a_warm_submit_keeps_one_small_record(tmp_path):
    """A service keeps every job it accepts, so a warm ``POST /jobs``
    must cost one small record: a slotted :class:`Job` whose results are
    the one list every all-hit job of its document shares (~260 B with
    its id, against ~740 B with a ``__dict__`` and a list of its own)."""
    import tracemalloc
    spec = {"n": 35}
    body = json.dumps({"kind": "selftest", "spec": spec}).encode()
    post = (f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode() + body)
    orch = Orchestrator(str(tmp_path / "s"))
    try:
        orch.submit("selftest", spec)
        orch.drain_inline()  # the cold fill
        connection = http_mod._Connection(HttpApi(orch))
        connection.connection_made(_SinkTransport())
        for _ in range(3):  # first warm POSTs: first uses
            connection.data_received(post)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(1000):
                connection.data_received(post)
            gc.collect()
            per_submit = (tracemalloc.get_traced_memory()[0] - before) / 1000
        finally:
            tracemalloc.stop()
        warm = [orch.jobs[job_id] for job_id in orch.job_ids()[1:]]
        assert len(warm) == 1003
        assert all(job.status == "done" and job.cache_hits == 35
                   for job in warm)
        assert len({id(job.results) for job in warm}) == 1
        assert orch.job_result(warm[-1].job_id) == dict(
            orch.job_result(orch.job_ids()[0]), job_id=warm[-1].job_id,
            cache_hits=35)
    finally:
        orch.close()
    assert per_submit <= 320


def test_a_first_job_of_a_kind_resets_no_pipelining_client(tmp_path):
    """A service loads a job kind with its first job, in that request's
    handler: the first campaign POST imports the sampler and the apps on
    the event loop (~0.1 s). Clients pipelining GETs on other connections
    meanwhile fall behind; each asks to close early in its stream and
    keeps sending. Each still reads every response it is owed and a
    clean EOF, never a reset: the server half-closes and drains before
    it closes."""
    chunks = [_get("/healthz") * 4 for _ in range(40)]
    chunks[5] = _get("/healthz") * 3 + _get("/jobs", "Connection: close\r\n")
    body = json.dumps({"kind": "campaign",
                       "spec": {"seed": 7, "n": 12}}).encode()
    post = (f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode() + body)
    errors = []

    def pipeline(s):
        try:
            for chunk in chunks:
                s.sendall(chunk)
                time.sleep(0.01)
            s.shutdown(socket.SHUT_WR)
        except OSError as exc:
            errors.append(exc)

    with _fresh_service(tmp_path, workers=1) as (_pid, path):
        clients = [_dial(path) for _ in range(3)]
        with _dial(path) as submitter:
            submitter.sendall(post)
            senders = [threading.Thread(target=pipeline, args=(s,))
                       for s in clients]
            for sender in senders:
                sender.start()
            got = []
            for s in clients:
                with s.makefile("rb") as stream:
                    got.append(list(iter(lambda: _response(stream), None)))
            for sender in senders:
                sender.join(10)
            for s in clients:
                s.close()
            with submitter.makefile("rb") as stream:
                status, _headers, doc = _response(stream)
    assert (status, doc["total"]) == (201, 12)
    assert errors == []
    for responses in got:
        assert [status for status, _h, _d in responses] == [200] * 24
        assert responses[-1][1]["connection"] == "close"


#: Request fragments the fuzzer splices between (and cuts through).
_FRAGMENTS = [
    _get("/healthz"), _get("/jobs"), _get("/jobs/job-00001/result"),
    _get("/metrics", "Connection: close\r\n"), _post_job(1),
    b"POST /jobs HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
    b"DELETE /jobs/job-00001 HTTP/1.1\r\n\r\n", b"GET / HTTP/1.0\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
    b"POST /jobs HTTP/1.1\r\nContent-Length: 30\r\n\r\n", b"\r\n\r\n", b"\r\n",
    b"GET", b" ", b":", b"\x00\xff\xfe", b"Content-Length: 3\r\n", b"HTTP/1.1",
]


def test_no_byte_sequence_breaks_the_http_edge(tmp_path):
    """Arbitrary bytes in arbitrary chunking get well-formed 2xx/4xx
    responses (``_response`` asserts the form) then a clean close, within
    the socket deadline, and the server logs no unhandled exception."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    payloads = st.lists(st.one_of(st.sampled_from(_FRAGMENTS),
                                  st.binary(max_size=40)),
                        max_size=8).map(b"".join)

    with _serving(tmp_path) as (api, _call):
        @hypothesis.given(payloads, st.lists(st.integers(0, 400), max_size=6))
        def prop(payload, cuts):
            responses = _raw(api, payload, cuts)
            assert all(200 <= status < 500 for status, _h, _d in responses)
            closed = [headers["connection"] == "close"
                      for _status, headers, _doc in responses]
            assert not any(closed[:-1])  # nothing is answered after a close
            assert api.shutdown_requested.is_set() is False

        prop()
    assert api._conns == {}


class _MemoryTransport:
    """What a connection protocol needs of a transport, in memory:
    written bytes are kept, a close is the protocol's connection lost."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.written = bytearray()
        self.eof = self.closed = False
        protocol.connection_made(self)

    def write(self, data):
        assert not (self.eof or self.closed), "write after EOF or close"
        self.written += data

    def write_eof(self):
        self.eof = True

    def close(self):
        if not self.closed:
            self.closed = True
            self.protocol.connection_lost(None)

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


def _responses(data):
    """Every response in ``data`` (bytes a server wrote), parsed."""
    stream = io.BytesIO(bytes(data))
    return list(iter(lambda: _response(stream), None))


#: A pipelined conversation: GETs, POSTs with bodies (a good job, a bad
#: document), an unknown route, then a request asking to close and one
#: after it that must never be answered.
_CONVERSATION = b"".join([
    _get("/healthz"), _post_job(2), _get("/jobs/job-00001"), _get("/jobs"),
    _post_body(b'{"kind": "nope"}'), _get("/metrics"), _post_job(3),
    _get("/nope"), _get("/jobs/job-00002/result"),
    _get("/healthz", "Connection: close\r\n"), _get("/healthz"),
])


def _converse(state_dir, cuts):
    """``_CONVERSATION`` cut at ``cuts``, fed to one connection of a fresh
    service; returns ``(status, connection header, doc)`` per response,
    job ids and ``elapsed_sec`` blanked."""
    def blank(doc):
        if isinstance(doc, dict):
            return {key: "-" if key in ("job_id", "elapsed_sec")
                    else blank(value) for key, value in doc.items()}
        if isinstance(doc, list):
            return [blank(item) for item in doc]
        return doc

    async def converse():
        orch = Orchestrator(state_dir)
        try:
            connection = http_mod._Connection(HttpApi(orch))
            transport = _MemoryTransport(connection)
            bounds = sorted(set(cuts) | {0, len(_CONVERSATION)})
            for start, stop in zip(bounds, bounds[1:]):
                connection.data_received(_CONVERSATION[start:stop])
            assert transport.eof and not transport.closed  # dropping input
            connection.eof_received()  # the client's EOF ends the drop
            transport.close()
            return transport.written
        finally:
            orch.close()

    written = asyncio.run(converse())
    return [(status, headers["connection"], blank(doc))
            for status, headers, doc in _responses(written)]


def test_any_cut_of_a_pipelined_stream_gets_the_same_answers(tmp_path):
    """Requests are parsed as their bytes arrive: a pipelined stream cut
    anywhere — inside a request line, a header, the blank line or a
    body — is answered exactly as the stream in one piece."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dirs = iter(range(10**6))
    whole = _converse(str(tmp_path / "whole"), [])
    assert [status for status, _c, _d in whole] == [
        200, 201, 200, 200, 400, 200, 201, 404, 409, 200]
    assert [close for _s, close, _d in whole] == ["keep-alive"] * 9 + ["close"]

    @hypothesis.given(st.lists(st.integers(0, len(_CONVERSATION)),
                               max_size=12))
    def prop(cuts):
        assert _converse(str(tmp_path / str(next(dirs))), cuts) == whole

    prop()


def test_a_client_that_never_reads_keeps_the_write_buffer_bounded(tmp_path):
    """A client pipelines ``GET /healthz`` and reads nothing: once the
    kernel's buffers are full the server stops reading, so the responses
    it holds stay near the transport's high-water mark (64 KiB) instead
    of growing with every request sent."""
    request = _get("/healthz")
    with _serving(tmp_path) as (api, call):
        with _dial(api.path, timeout=1.0) as s:
            sent = 0
            try:
                while sent < 200_000:  # stops long before: the send stalls
                    s.sendall(request * 500)
                    sent += 500
            except socket.timeout:
                pass

            async def buffered():
                return [transport.get_write_buffer_size()
                        for transport in api._conns.values()]

            (held,) = call(buffered())
            assert sent >= 2000 and 0 < held <= 2 * 64 * 1024


# -- warm resubmission (tier 1, no sockets) --------------------------------
def test_a_canonical_job_text_reads_back_to_itself():
    """A POST body that is a known document's canonical text is that
    document, unparsed; this holds because the text is a fixpoint of
    parsing and re-canonicalising, for any document a JSON body holds
    and for one whose keys are numbers (a YAML body's ``10:``)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    leaves = st.one_of(
        st.none(), st.booleans(), st.floats(), st.just(-0.0),
        st.integers(), st.integers(-2**200, 2**200), st.text())
    values = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats()), inner,
                        max_size=4)),
        max_leaves=16)

    @hypothesis.given(st.text(min_size=1), st.dictionaries(
        st.text(max_size=8), values, max_size=5))
    def prop(kind, spec):
        text = job_text(kind, spec)
        assert job_text(*parse_job_document(text.encode())) == text

    prop()


def _ask(connection, transport, data):
    """Feed ``data`` to ``connection``; the responses it wrote for it."""
    start = len(transport.written)
    connection.data_received(data)
    return _responses(transport.written[start:])


@contextlib.contextmanager
def _edge(tmp_path, spec):
    """One connection of an in-process service whose store holds every
    point of the selftest job ``spec``, asked once (the cold fill)."""
    orch = Orchestrator(str(tmp_path / "s"))
    try:
        orch.submit("selftest", spec)
        orch.drain_inline()
        connection = http_mod._Connection(HttpApi(orch))
        yield orch, connection, _MemoryTransport(connection)
    finally:
        orch.close()


def _without(doc, *keys):
    return _canonical_json({k: v for k, v in doc.items() if k not in keys})


def test_every_spelling_of_a_known_document_is_one_job(tmp_path):
    """A known document POSTed as its canonical text (taken unparsed),
    as pretty JSON, as YAML or with its keys in another order is the
    same job: each appends the same journal line but for its id, is
    answered the same status and has the same result document."""
    import yaml
    spec = {"n": 5, "ms": 0}
    doc = {"kind": "selftest", "spec": spec}
    bodies = [
        job_text("selftest", spec).encode(),
        json.dumps(doc, indent=2).encode(),
        yaml.safe_dump(doc).encode(),
        json.dumps({"spec": {"n": 5, "ms": 0}, "kind": "selftest"}).encode(),
    ]
    state = str(tmp_path / "s")
    with _edge(tmp_path, spec) as (orch, connection, transport):
        for body in bodies:
            before = _journal(state)
            [(status, _headers, answer)] = _ask(connection, transport,
                                                _post_body(body))
            job_id = answer["job_id"]
            assert status == 201
            assert _journal(state) == before + _line(job_id, "selftest",
                                                     spec)
            assert _without(answer, "job_id", "elapsed_sec") == \
                _canonical_json({"kind": "selftest", "status": "done",
                                 "error": None, "total": 5, "done": 5,
                                 "cache_hits": 5})
            assert _without(orch.job_result(job_id), "job_id") == \
                _without(orch.job_result("job-00002"), "job_id")
        assert len(orch.expansions) == 1


def test_a_document_with_keys_that_are_no_strings_is_one_text_resumed(
        tmp_path, monkeypatch):
    """A YAML key that is no string (``10:``) is sorted before it becomes
    a string; the document's text is the one JSON reads back, sorted as
    strings. POSTed as YAML, then, on the orchestrator reopened on its
    state, as the document bytes of its journal line, it is one
    expansion: the second body is not parsed and its job is done."""
    body = b"kind: selftest\nspec: {n: 2, extra: {10: a, 9: b}}\n"
    text = '{"kind":"selftest","spec":{"extra":{"10":"a","9":"b"},"n":2}}'
    state = str(tmp_path / "s")
    with _edge(tmp_path, {"n": 2}) as (orch, connection, transport):
        [(status, _h, answer)] = _ask(connection, transport,
                                      _post_body(body))
        assert status == 201 and text in orch.expansions
    prefix = b'{"job_id":"%s",' % answer["job_id"].encode()
    line = _journal(state).splitlines()[-1]
    assert line == prefix + text[1:].encode()
    journalled = b"{" + line[len(prefix):]
    parsed = _count_calls(monkeypatch, http_mod, "parse_job_document")
    expanded = _count_calls(monkeypatch, orch_mod, "expand_job")
    reopened = Orchestrator(state)
    try:
        reopened.resume_jobs()
        connection = http_mod._Connection(HttpApi(reopened))
        transport = _MemoryTransport(connection)
        [(status, _h, answer)] = _ask(connection, transport,
                                      _post_body(journalled))
        assert (status, answer["status"]) == (201, "done")
        assert parsed == []
        assert [args[1] for args in expanded] == [{"n": 2}, {
            "n": 2, "extra": {"10": "a", "9": "b"}}]
        assert list(reopened.expansions) == [
            job_text("selftest", {"n": 2}), text]
    finally:
        reopened.close()


def test_warm_posts_count_as_store_lookups_count(tmp_path):
    """N warm POSTs of a 35-point document raise the ``cache`` document's
    hits by 35 N, its misses by nothing, ``serve.cache.hit`` by 35 N and
    ``serve.job.submitted`` by N, and load no point from the store."""
    posts = 7
    spec = {"n": 35}
    post = _post_body(job_text("selftest", spec).encode())
    with _edge(tmp_path, spec) as (orch, connection, transport):
        _ask(connection, transport, post)  # the first warm POST
        metrics = orch.metrics
        before = (orch.cache_counts()["hits"], orch.cache_counts()["misses"],
                  metrics.value("serve.cache.hit"),
                  metrics.value("serve.job.submitted"),
                  metrics.value("serve.cache.miss"))
        loaded = []
        orch.cache.load_blobs = loaded.append
        answers = _ask(connection, transport, post * posts)
        assert [(status, doc["cache_hits"]) for status, _h, doc
                in answers] == [(201, 35)] * posts
        assert (orch.cache_counts()["hits"], orch.cache_counts()["misses"],
                metrics.value("serve.cache.hit"),
                metrics.value("serve.job.submitted"),
                metrics.value("serve.cache.miss")) == (
            before[0] + 35 * posts, before[1], before[2] + 35 * posts,
            before[3] + posts, before[4])
        assert loaded == []


def test_a_repeated_head_is_parsed_once(tmp_path, monkeypatch):
    """One connection sends POST, POST, GET, GET, POST, then an empty
    head: every request is answered right, a head equal to the one
    before it is not parsed again, and the empty head is a 400."""
    parsed = _count_calls(monkeypatch, http_mod, "_parse_head")
    post = _post_body(job_text("selftest", {"n": 3}).encode())

    async def converse():  # a close arms a timer on the running loop
        with _edge(tmp_path, {"n": 3}) as (orch, connection, transport):
            answers = [_ask(connection, transport, request)
                       for request in (post, post, _get("/jobs/job-00002"),
                                       _get("/jobs/job-00002"), post,
                                       b"\r\n\r\n")]
            transport.close()
            return answers, orch.job_ids()

    answers, job_ids = asyncio.run(converse())
    assert [(status, headers["connection"], doc.get("job_id"))
            for ((status, headers, doc),) in answers] == [
        (201, "keep-alive", "job-00002"), (201, "keep-alive", "job-00003"),
        (200, "keep-alive", "job-00002"), (200, "keep-alive", "job-00002"),
        (201, "keep-alive", "job-00004"), (400, "close", None)]
    assert "malformed request line" in answers[-1][0][2]["error"]
    assert len(parsed) == 4  # POST, GET, POST and the empty head
    assert job_ids == [f"job-0000{n}" for n in (1, 2, 3, 4)]


# -- orchestrator scheduling (tier 2) --------------------------------------
class _TestWorker:
    """A scriptable in-loop worker on a socketpair: claim frames, answer
    (or don't)."""

    def __init__(self, orch: Orchestrator):
        self.orch = orch
        self.decoder = FrameDecoder()
        self.frames = deque()
        self.jobs_seen = []

    async def connect(self, name="tw"):
        ours, theirs = socket.socketpair()
        await self.orch.attach(ours, name, 999)
        self.reader, self.writer = await asyncio.open_connection(sock=theirs)
        return self

    async def send(self, frame):
        self.writer.write(encode_frame(frame))
        await self.writer.drain()

    async def next_frame(self, timeout=5.0):
        while not self.frames:
            data = await asyncio.wait_for(self.reader.read(65536), timeout)
            if not data:
                return None
            self.frames.extend(self.decoder.feed(data))
        return self.frames.popleft()

    async def work_one(self):
        """Claim one job frame and answer it correctly."""
        frame = await self.next_frame()
        assert frame["type"] == "job"
        self.jobs_seen.append(frame)
        result = execute_point(frame["kind"], frame["point"])
        await self.send(result_frame(frame["id"], result))
        return frame

    def close(self):
        self.writer.close()


async def _wait_status(orch, job_id, timeout=10.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while True:
        status = orch.job_status(job_id)
        if status["status"] != "running":
            return status
        assert asyncio.get_event_loop().time() < deadline, status
        await asyncio.sleep(0.02)


def _save_fails_once(monkeypatch):
    """Make the store's next result file write raise ENOSPC, and only
    that one."""
    calls = []

    def failing_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            calls.append(path)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cache_mod, "open", failing_open, raising=False)


def test_a_failed_result_save_still_finishes_the_job(tmp_path, monkeypatch):
    """A point whose result cannot be stored is still done: the worker
    that computed it stays attached, every waiter is filled from memory,
    and the failure is counted. The store remembers the result, so a
    later job asking for it is a hit in the job and the counters alike."""
    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"))
        await orch.start()
        worker = await _TestWorker(orch).connect(name="w")
        _save_fails_once(monkeypatch)
        job_id = orch.submit("selftest", {"n": 3})
        for _ in range(3):
            await worker.work_one()
        status = await _wait_status(orch, job_id)
        assert status["status"] == "done"
        assert orch.job_result(job_id)["results"] == [
            {"i": i, "value": i * i} for i in range(3)]
        assert "w" in orch.workers
        assert orch.metrics.value("serve.cache.save_failed") == 1
        assert len(os.listdir(tmp_path / "s" / "cache")) == 2
        # A second job wanting the unsaved point is answered from memory.
        again = orch.submit("selftest", {"n": 3})
        assert orch.job_status(again)["status"] == "done"
        assert orch.job_status(again)["cache_hits"] == 3
        assert orch.metrics.value("serve.cache.hit") == 3
        assert orch.tasks == {}
        worker.close()
        await orch.stop()

    asyncio.run(scenario())


def test_a_failed_result_save_does_not_stop_an_inline_drain(tmp_path,
                                                            monkeypatch):
    orch = Orchestrator(str(tmp_path / "s"))
    _save_fails_once(monkeypatch)
    job_id = orch.submit("selftest", {"n": 3})
    orch.drain_inline()
    assert orch.job_status(job_id)["status"] == "done"
    assert orch.metrics.value("serve.cache.save_failed") == 1
    orch.close()


def test_the_task_table_holds_only_unfinished_points(tmp_path):
    """A point is in ``tasks`` from the first job that misses it until it
    is done or failed: once every job has ended and the queue has run
    the table is empty, whether its points were done or failed (a
    failed job's other points run and are stored, as a service's
    workers run them), and a later job asking for a point that failed
    runs it again."""
    orch = Orchestrator(str(tmp_path / "s"))
    good = orch.submit("selftest", {"n": 2})
    bad = orch.submit("selftest", {"n": 3, "fail_at": 0})
    assert len(orch.tasks) == 4  # bad's point 1 is good's
    orch.drain_inline()
    assert orch.job_status(good)["status"] == "done"
    assert orch.job_status(bad)["status"] == "failed"
    assert orch.tasks == {} and orch.queue_depth == 0 and not orch.active
    assert orch.metrics.value("serve.point.done") == 3
    stored = orch.submit("selftest", {"n": 3})
    assert orch.job_status(stored)["cache_hits"] == 3
    again = orch.submit("selftest", {"n": 1, "fail_at": 0})
    assert len(orch.tasks) == 1 and orch.queue_depth == 1
    orch.drain_inline()
    assert orch.job_status(again)["status"] == "failed"
    assert orch.metrics.value("serve.point.failed") == 2
    assert orch.tasks == {}
    orch.close()


@pytest.mark.tier2
def test_heartbeat_timeout_requeues_job(tmp_path):
    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"), heartbeat_timeout=0.3)
        await orch.start()
        silent = await _TestWorker(orch).connect(name="silent")
        job_id = orch.submit("selftest", {"n": 1})
        claimed = await silent.next_frame()
        assert claimed["type"] == "job"  # silent worker holds the point...
        good = await _TestWorker(orch).connect(name="good")
        await good.work_one()            # ...requeued after the timeout
        status = await _wait_status(orch, job_id)
        assert status["status"] == "done"
        assert orch.metrics.value("serve.point.requeued") == 1
        assert orch.job_result(job_id)["results"] == [{"i": 0, "value": 0}]
        assert "silent" not in orch.workers  # declared dead and dropped
        silent.close()
        good.close()
        await orch.stop()

    asyncio.run(scenario())


@pytest.mark.tier2
def test_worker_death_mid_job_requeues(tmp_path):
    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"), heartbeat_timeout=5.0)
        await orch.start()
        doomed = await _TestWorker(orch).connect(name="doomed")
        job_id = orch.submit("selftest", {"n": 1})
        await doomed.next_frame()  # claim...
        doomed.close()             # ...and die (socket EOF, no result)
        good = await _TestWorker(orch).connect(name="good")
        await good.work_one()
        status = await _wait_status(orch, job_id)
        assert status["status"] == "done"
        assert orch.metrics.value("serve.point.requeued") == 1
        good.close()
        await orch.stop()

    asyncio.run(scenario())


@pytest.mark.tier2
def test_requeue_gives_up_after_max_attempts(tmp_path):
    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"), heartbeat_timeout=5.0)
        await orch.start()
        job_id = orch.submit("selftest", {"n": 1})
        for _attempt in range(orch_mod.MAX_ATTEMPTS):
            w = await _TestWorker(orch).connect(name="flaky")
            await w.next_frame()
            w.close()
        status = await _wait_status(orch, job_id)
        assert status["status"] == "failed"
        assert (f"gave up after {orch_mod.MAX_ATTEMPTS} attempts"
                in status["error"])
        await orch.stop()

    asyncio.run(scenario())


@pytest.mark.tier2
def test_point_exception_fails_job_immediately(tmp_path):
    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"))
        await orch.start()
        job_id = orch.submit("selftest", {"n": 2, "fail_at": 1})
        w = await _TestWorker(orch).connect()
        frame = await w.next_frame()
        await w.send(error_frame(frame["id"], "ValueError: asked to fail"))
        status = await _wait_status(orch, job_id)
        assert status["status"] == "failed"
        assert "asked to fail" in status["error"]
        assert orch.metrics.value("serve.point.requeued") == 0  # no retry
        w.close()
        await orch.stop()

    asyncio.run(scenario())


@pytest.mark.tier2
def test_inflight_dedupe_one_execution_many_waiters(tmp_path):
    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"))
        await orch.start()
        job_a = orch.submit("selftest", {"n": 2})
        job_b = orch.submit("selftest", {"n": 2})  # identical points
        w = await _TestWorker(orch).connect()
        await w.work_one()
        await w.work_one()
        for job_id in (job_a, job_b):
            status = await _wait_status(orch, job_id)
            assert status["status"] == "done"
        # Two points existed; two (not four) executions happened.
        assert len(w.jobs_seen) == 2
        assert orch.metrics.value("serve.point.done") == 2
        assert orch.job_result(job_a)["results"] == \
            orch.job_result(job_b)["results"]
        w.close()
        await orch.stop()

    asyncio.run(scenario())


# -- heartbeats: one heart per worker, one watchdog per orchestrator -------
def test_worker_keeps_one_heart_for_its_lifetime():
    """A worker driven through 50 points by a fake orchestrator socket
    runs the same two threads throughout (its main loop and its one
    heart), still heartbeats during a point that outlasts three
    intervals, says nothing while idle, and takes the heart with it."""
    interval = 0.05
    before = threading.active_count()
    conn, theirs = socket.socketpair()
    worker = threading.Thread(target=worker_main, daemon=True,
                              args=(theirs, interval))
    worker.start()
    with conn:
        frames = _frames(conn)
        counts = set()
        for i in range(50):
            write_frame(conn, job_frame(f"t{i}", "selftest", {"i": i}))
            assert next(frames) == result_frame(f"t{i}",
                                                {"i": i, "value": i * i})
            counts.add(threading.active_count())
        assert counts == {before + 2}
        write_frame(conn, job_frame("slow", "selftest",
                                    {"i": 7, "ms": 3.5 * interval * 1e3}))
        seen = []
        while not seen or seen[-1]["type"] != "result":
            seen.append(next(frames))
        assert seen[:-1] == [heartbeat_frame()] * (len(seen) - 1)
        assert len(seen) - 1 >= 2 and seen[-1]["result"]["value"] == 49
        conn.settimeout(3 * interval)  # idle: the heart wakes and is silent
        with pytest.raises(TimeoutError):
            next(frames)
        conn.settimeout(None)
        conn.shutdown(socket.SHUT_WR)  # EOF: the worker leaves
        worker.join(5)
    deadline = time.monotonic() + 5
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not worker.is_alive() and threading.active_count() == before


def _spy_requeues(orch):
    """Every requeue ``orch`` makes from now on, as (host time, reason)."""
    seen, requeue = [], orch._requeue

    def spy(task, reason):
        seen.append((time.monotonic(), reason))
        requeue(task, reason)

    orch._requeue = spy
    return seen


def _assert_requeued_on_time(requeues, silent_since, timeout):
    (when, reason), = requeues
    assert reason == f"no heartbeat for {timeout}s"
    # Not before the timeout (less the beat the worker may just have
    # sent), and at most a watchdog period plus scheduling slack after.
    assert 0.75 * timeout <= when - silent_since <= 1.25 * timeout + 0.2


@pytest.mark.tier2
def test_busy_worker_that_never_answers_is_requeued_on_time(tmp_path):
    timeout = 0.4

    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"), heartbeat_timeout=timeout)
        requeues = _spy_requeues(orch)
        await orch.start()
        silent = await _TestWorker(orch).connect(name="silent")
        job_id = orch.submit("selftest", {"n": 1})
        assert (await silent.next_frame())["type"] == "job"
        claimed = time.monotonic()
        good = await _TestWorker(orch).connect(name="good")
        await good.work_one()
        assert (await _wait_status(orch, job_id))["status"] == "done"
        _assert_requeued_on_time(requeues, claimed, timeout)
        assert await silent.next_frame() is None  # aborted, not lingering
        silent.close()
        good.close()
        await orch.stop()

    asyncio.run(scenario())


@pytest.mark.tier2
def test_sigstopped_worker_is_requeued_on_time(tmp_path):
    timeout, beat = 0.4, 0.05

    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"), heartbeat_timeout=timeout)
        requeues = _spy_requeues(orch)
        await orch.start()
        proc, sock = spawn_worker(beat)
        await orch.attach(sock, "wedged", proc.pid)
        try:
            job_id = orch.submit("selftest", {"n": 1, "ms": 20000})
            while not orch.workers.get("wedged", {}).get("busy"):
                await asyncio.sleep(0.01)
            await asyncio.sleep(4 * beat)  # heartbeating, so left alone...
            assert requeues == []
            os.kill(proc.pid, signal.SIGSTOP)  # ...until it goes silent
            stopped = time.monotonic()
            good = await _TestWorker(orch).connect(name="good")
            frame = await good.next_frame()
            await good.send(result_frame(frame["id"], {"i": 0, "value": 0}))
            assert (await _wait_status(orch, job_id))["status"] == "done"
            _assert_requeued_on_time(requeues, stopped - beat, timeout)
            assert "wedged" not in orch.workers
            good.close()
        finally:
            proc.kill()
            proc.join(10)
        await orch.stop()

    asyncio.run(scenario())


@pytest.mark.tier2
def test_slow_but_heartbeating_worker_is_left_alone(tmp_path):
    timeout = 0.3

    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"), heartbeat_timeout=timeout)
        requeues = _spy_requeues(orch)
        await orch.start()
        proc, sock = spawn_worker(0.05)
        await orch.attach(sock, "slow", proc.pid)
        try:
            job_id = orch.submit("selftest",
                                 {"n": 1, "ms": 3 * timeout * 1e3})
            status = await _wait_status(orch, job_id)
            assert status["status"] == "done"
            assert status["elapsed_sec"] >= 3 * timeout
            assert requeues == [] and "slow" in orch.workers
            assert orch.job_trace(job_id)["traceEvents"][0]["tid"] == "slow"
        finally:
            await orch.stop()
            proc.join(10)
        assert proc.exitcode == 0  # left on the EOF of its connection

    asyncio.run(scenario())


@pytest.mark.tier2
def test_idle_silent_worker_stays_attached(tmp_path):
    timeout = 0.2

    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"), heartbeat_timeout=timeout)
        await orch.start()
        idle = await _TestWorker(orch).connect(name="idle")
        await asyncio.sleep(3 * timeout)  # never a byte
        assert "idle" in orch.workers
        for n in (1, 2):
            job_id = orch.submit("selftest", {"n": n})  # one new point
            await idle.work_one()
            assert (await _wait_status(orch, job_id))["status"] == "done"
            await asyncio.sleep(3 * timeout)  # idle again between two jobs
        assert "idle" in orch.workers
        assert orch.metrics.value("serve.worker.lost") == 0
        assert orch.metrics.value("serve.point.requeued") == 0
        idle.close()
        await orch.stop()

    asyncio.run(scenario())
