"""Worker protocol and orchestrator scheduling semantics.

Framing first (tier 1, pure unit): length-prefixed JSON frames must
round-trip under any chunking, and truncated, corrupt or oversized
frames must raise :class:`ProtocolError` — a damaged stream drops the
peer, it never silently drops a job. Then the orchestrator contract
(tier 2, real sockets on one event loop): a worker that stops
heartbeating or drops its connection has its in-flight point requeued
and finished by another worker; a point that *raises* fails the job
immediately; duplicate in-flight points are deduped to one execution.
"""

import asyncio
import socket
import threading
from collections import deque

import pytest

from repro.errors import ProtocolError, ServeError
from repro.serve.orchestrator import Orchestrator
from repro.serve.points import execute_point, expand_job
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    error_frame,
    heartbeat_frame,
    hello_frame,
    job_frame,
    result_frame,
    write_frame,
)
from repro.serve.worker import _frames

FRAMES = [
    hello_frame("w0", 4242),
    job_frame("k" * 24, "selftest", {"i": 3}),
    result_frame("k" * 24, {"i": 3, "value": 9}),
    error_frame("k" * 24, "ValueError: boom"),
    heartbeat_frame("w0", busy="k" * 24),
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
    assert hello_frame("w", 1)["protocol"] == PROTOCOL_VERSION
    assert job_frame("t", "selftest", {"i": 0})["type"] == "job"
    assert result_frame("t", {})["ok"] is True
    assert error_frame("t", "boom")["ok"] is False
    assert error_frame("t", "boom")["type"] == "result"


# -- job documents and manifests (tier 1, no sockets) ----------------------
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
])
def test_bad_job_documents_are_serve_errors(kind, spec, blame):
    """Wrong types and impossible points fail at submit, as ServeError
    (HTTP 400) — never as a TypeError, never later on a worker."""
    with pytest.raises(ServeError, match=blame):
        expand_job(kind, spec)


def test_bad_manifests_fail_their_job_not_the_orchestrator(tmp_path):
    state = tmp_path / "s"
    good = Orchestrator(str(state)).submit("selftest", {"n": 2})
    jobs = state / "jobs"
    (jobs / "job-00002.json").write_text('{"job_id": "job-00002", "ki')
    (jobs / "job-00003.json").write_text('{"job_id": "job-00009", '
                                         '"kind": "selftest", "spec": {}}')
    (jobs / "job-final.json").write_text("[]")
    orch = Orchestrator(str(state))  # a stray name does not stop start-up
    orch.resume_jobs()
    assert orch.metrics.value("serve.job.corrupt") == 3
    for job_id in ("job-00002", "job-00003", "job-final"):
        status = orch.job_status(job_id)
        assert status["status"] == "failed"
        assert "corrupt manifest" in status["error"]
        assert f"{job_id}.json" in status["error"]
    orch.drain_inline()
    assert orch.job_result(good)["results"] == [{"i": 0, "value": 0},
                                                {"i": 1, "value": 1}]
    assert orch.submit("selftest", {"n": 1}) == "job-00004"


# -- orchestrator scheduling (tier 2) --------------------------------------
class _TestWorker:
    """A scriptable in-loop worker: claim frames, answer (or don't)."""

    def __init__(self, port: int):
        self.port = port
        self.decoder = FrameDecoder()
        self.frames = deque()
        self.jobs_seen = []

    async def connect(self, name="tw", protocol=PROTOCOL_VERSION):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)
        await self.send({"type": "hello", "worker": name, "pid": 999,
                         "protocol": protocol})
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


@pytest.mark.tier2
def test_heartbeat_timeout_requeues_job(tmp_path):
    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"), heartbeat_timeout=0.3)
        port = await orch.start()
        silent = await _TestWorker(port).connect(name="silent")
        job_id = orch.submit("selftest", {"n": 1})
        claimed = await silent.next_frame()
        assert claimed["type"] == "job"  # silent worker holds the point...
        good = await _TestWorker(port).connect(name="good")
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
        port = await orch.start()
        doomed = await _TestWorker(port).connect(name="doomed")
        job_id = orch.submit("selftest", {"n": 1})
        await doomed.next_frame()  # claim...
        doomed.close()             # ...and die (socket EOF, no result)
        good = await _TestWorker(port).connect(name="good")
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
        orch = Orchestrator(str(tmp_path / "s"), heartbeat_timeout=5.0,
                            max_attempts=2)
        port = await orch.start()
        job_id = orch.submit("selftest", {"n": 1})
        for _attempt in range(2):
            w = await _TestWorker(port).connect(name="flaky")
            await w.next_frame()
            w.close()
        status = await _wait_status(orch, job_id)
        assert status["status"] == "failed"
        assert "gave up after 2 attempts" in status["error"]
        await orch.stop()

    asyncio.run(scenario())


@pytest.mark.tier2
def test_point_exception_fails_job_immediately(tmp_path):
    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"))
        port = await orch.start()
        job_id = orch.submit("selftest", {"n": 2, "fail_at": 1})
        w = await _TestWorker(port).connect()
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
        port = await orch.start()
        job_a = orch.submit("selftest", {"n": 2})
        job_b = orch.submit("selftest", {"n": 2})  # identical points
        w = await _TestWorker(port).connect()
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


@pytest.mark.tier2
def test_wrong_protocol_version_rejected(tmp_path):
    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"))
        port = await orch.start()
        w = await _TestWorker(port).connect(name="old", protocol=0)
        # The orchestrator hangs up instead of dispatching to it.
        assert await w.next_frame() is None
        assert "old" not in orch.workers
        await orch.stop()

    asyncio.run(scenario())
