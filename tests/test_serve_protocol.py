"""Worker protocol, HTTP framing and orchestrator scheduling semantics.

Framing first (tier 1, pure unit): length-prefixed JSON frames must
round-trip under any chunking, and truncated, corrupt or oversized
frames must raise :class:`ProtocolError` — a damaged stream drops the
peer, it never silently drops a job. Then the HTTP edge (tier 1, an
in-process :class:`HttpApi` on a loop in a thread): requests on one
connection are answered in order, a framing error is answered 400 and
closes, the client re-dials only a connection the server closed while
idle, and no byte sequence in any chunking gets anything but well-formed
responses or a clean close. Then the orchestrator contract (tier 2,
real sockets on one event loop): a worker that stops heartbeating or
drops its connection has its in-flight point requeued and finished by
another worker (and only such a worker: slow-but-beating and idle ones
stay); a point that *raises* fails the job immediately; duplicate
in-flight points are deduped to one execution.
"""

import asyncio
import contextlib
import gc
import json
import os
import signal
import socket
import threading
import time
from collections import deque

import pytest

from repro.errors import ProtocolError, ServeError
from repro.serve.cache import PENDING
from repro.serve.client import ServeClient
from repro.serve.http import HttpApi
from repro.serve.orchestrator import Orchestrator
from repro.serve.points import JOB_KINDS, execute_point, expand_job
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
    shutdown_frame,
    write_frame,
)
from repro.serve.service import spawn_service
from repro.serve.worker import _frames, spawn_worker, worker_main

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
    task = orch.tasks[orch._queue.get_nowait()]  # a worker claims a point...
    task.status = "running"
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
    opens and stats no point file and serialises each point's key record
    exactly once; a restarted orchestrator reads each file once, however
    many of its jobs ask."""
    import repro.serve.cache as cache_mod
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
    hits = orch.cache.hits
    again = orch.submit("selftest", {"n": total})
    assert touched == [] and len(canonicalised) == total
    status = orch.job_status(again)
    assert status["status"] == "done" and status["cache_hits"] == total
    assert orch.cache.hits == hits + total
    assert orch.metrics.value("serve.cache.hit") == total
    assert orch.job_result(again)["results"] == \
        orch.job_result(first)["results"]

    restarted = Orchestrator(state)
    restarted.resume_jobs()  # two manifests, the same six points
    assert len(touched) == total
    assert restarted.cache.hits == 2 * total and not restarted.active


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


def _url(api):
    return f"http://127.0.0.1:{api.port}"


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
    with socket.create_connection(("127.0.0.1", api.port), timeout=10) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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


def _post_job(n):
    body = json.dumps({"kind": "selftest", "spec": {"n": n}}).encode()
    return (f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode() + body)


def test_keep_alive_requests_are_answered_in_order(tmp_path):
    with _serving(tmp_path) as (api, _call):
        with socket.create_connection(("127.0.0.1", api.port),
                                      timeout=10) as s:
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


def test_a_client_still_sending_after_a_framing_400_reads_eof(tmp_path):
    """The server drops what follows a framing error instead of closing on
    it: closing on unread bytes resets the connection, and the client's
    next read raises ``ECONNRESET`` instead of returning EOF."""
    with _serving(tmp_path) as (api, _call):
        for _ in range(10):  # a server that resets loses most rounds
            with socket.create_connection(("127.0.0.1", api.port),
                                          timeout=10) as s, \
                    s.makefile("rb") as stream:
                s.sendall(b"\r\n\r\n")
                status, headers, _doc = _response(stream)
                assert (status, headers["connection"]) == (400, "close")
                s.sendall(_get("/healthz") * 4)
                time.sleep(0.05)  # for a reset to come back, were there one
                assert stream.read() == b""


def test_bad_documents_are_400_and_keep_the_connection(tmp_path):
    """A well-framed request with a bad body is the application's 400,
    not the framing's: the connection stays."""
    body = b'{"kind": "nope"}'
    bad = (f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
           .encode() + body)
    with _serving(tmp_path) as (api, _call):
        responses = _raw(api, bad + _get("/jobs/job-00001") + _post_job(1))
        assert [(status, headers["connection"])
                for status, headers, _doc in responses] == [
            (400, "keep-alive"), (404, "keep-alive"), (201, "keep-alive")]


def test_connection_reuse_is_visible_in_the_metrics(tmp_path):
    with _serving(tmp_path) as (api, _call):
        value = api.orchestrator.metrics.value
        with ServeClient(_url(api)) as client:
            for _ in range(50):
                client.healthz()
            assert value("serve.http.connections") == 1
            assert value("serve.http.requests") == 50
            served = client.metrics()["metrics"]  # what GET /metrics shows
            assert served["serve.http.connections"][0]["value"] == 1
            assert served["serve.http.requests"][0]["value"] == 50
        for _ in range(50):
            with ServeClient(_url(api)) as client:
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
        with ServeClient(_url(api)) as client:
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
    """A one-thread TCP server: per accepted connection, ``script`` gives
    a list of responses (bytes; ``None`` = read the request, then hang up
    without a byte). Yields ``(url, received)``; ``received`` collects
    every request head seen."""
    received = []
    listener = socket.create_server(("127.0.0.1", 0))

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
                    conn.sendall(answer)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", received
    finally:
        listener.close()
        thread.join(10)


_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"


def test_client_retry_rule_is_once_and_only_on_a_reused_connection():
    # Fresh connection, no response byte: the server may have acted on
    # the request, so it is not sent again.
    with _scripted_server([[None]]) as (url, received):
        with pytest.raises(ServeError, match="closed before a response"):
            ServeClient(url, timeout=5).request("GET", "/fresh")
    assert received == [b"GET /fresh HTTP/1.1"]
    # Reused connection, no response byte: re-dialled exactly once; the
    # fresh connection's failure is final.
    with _scripted_server([[_OK, None], [None]]) as (url, received):
        with ServeClient(url, timeout=5) as client:
            assert client.request("GET", "/first") == (200, {})
            with pytest.raises(ServeError, match="closed before a response"):
                client.request("GET", "/second")
    assert received == [b"GET /first HTTP/1.1"] + [b"GET /second HTTP/1.1"] * 2
    # Reused connection dying after the first response byte: not re-sent.
    with _scripted_server([[_OK, b"HTTP/1.1 200 OK\r\nContent-Le"]]
                          ) as (url, received):
        with ServeClient(url, timeout=5) as client:
            assert client.request("GET", "/first") == (200, {})
            with pytest.raises(ServeError, match="unreachable"):
                client.request("POST", "/jobs", {"kind": "selftest"})
    assert received == [b"GET /first HTTP/1.1", b"POST /jobs HTTP/1.1"]


def test_client_of_a_killed_service_raises_and_does_not_hang(tmp_path):
    handle = spawn_service(str(tmp_path / "state"), workers=0)
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
        clients = [ServeClient(_url(api)) for _ in range(3)]
        assert all(client.healthz()["ok"] for client in clients)
        assert len(api._conns) == 3
    assert api._conns == {}
    for client in clients:  # the server's EOF, seen at the next request
        with pytest.raises(ServeError, match="unreachable"):
            client.healthz()
    handle = spawn_service(str(tmp_path / "real"), workers=0)
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


# -- heartbeats: one heart per worker, one watchdog per orchestrator -------
def test_worker_keeps_one_heart_for_its_lifetime():
    """A worker driven through 50 points by a fake orchestrator socket
    runs the same two threads throughout (its main loop and its one
    heart), still heartbeats during a point that outlasts three
    intervals, says nothing while idle, and takes the heart with it."""
    interval = 0.05
    before = threading.active_count()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        worker = threading.Thread(
            target=worker_main, daemon=True,
            args=("127.0.0.1", listener.getsockname()[1], "w", interval))
        worker.start()
        conn, _peer = listener.accept()
    with conn:
        frames = _frames(conn)
        assert next(frames)["type"] == "hello"
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
        assert [f["type"] for f in seen[:-1]] == ["heartbeat"] * (len(seen) - 1)
        assert len(seen) - 1 >= 2 and seen[-1]["result"]["value"] == 49
        conn.settimeout(3 * interval)  # idle: the heart wakes and is silent
        with pytest.raises(TimeoutError):
            next(frames)
        conn.settimeout(None)
        write_frame(conn, shutdown_frame())
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
        port = await orch.start()
        silent = await _TestWorker(port).connect(name="silent")
        job_id = orch.submit("selftest", {"n": 1})
        assert (await silent.next_frame())["type"] == "job"
        claimed = time.monotonic()
        good = await _TestWorker(port).connect(name="good")
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
        port = await orch.start()
        proc = spawn_worker("127.0.0.1", port, "wedged", beat)
        try:
            job_id = orch.submit("selftest", {"n": 1, "ms": 20000})
            while not orch.workers.get("wedged", {}).get("busy"):
                await asyncio.sleep(0.01)
            await asyncio.sleep(4 * beat)  # heartbeating, so left alone...
            assert requeues == []
            os.kill(proc.pid, signal.SIGSTOP)  # ...until it goes silent
            stopped = time.monotonic()
            good = await _TestWorker(port).connect(name="good")
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
        port = await orch.start()
        proc = spawn_worker("127.0.0.1", port, "slow", 0.05)
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
        assert proc.exitcode == 0  # left on the shutdown frame

    asyncio.run(scenario())


@pytest.mark.tier2
def test_idle_silent_worker_stays_attached(tmp_path):
    timeout = 0.2

    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"), heartbeat_timeout=timeout)
        port = await orch.start()
        idle = await _TestWorker(port).connect(name="idle")
        await asyncio.sleep(3 * timeout)  # never a byte after hello
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


@pytest.mark.tier2
def test_connection_that_never_says_hello_is_dropped(tmp_path):
    timeout = 0.1

    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"), heartbeat_timeout=timeout)
        port = await orch.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        connected = time.monotonic()
        try:
            assert await asyncio.wait_for(reader.read(1), 5) == b""
        except ConnectionResetError:
            pass  # the watchdog aborts: a reset is as good as an EOF
        assert 4 * timeout <= time.monotonic() - connected \
            <= 1.25 * 4 * timeout + 0.2
        await asyncio.sleep(0.05)  # the handler's turn
        assert orch._due == {} and orch.workers == {}
        writer.close()
        await orch.stop()

    asyncio.run(scenario())
