"""Serve processes: the fork handle, reaping, and asyncio without TLS.

:class:`repro.serve.service.ForkedProcess` is ``os.fork`` plus
``waitpid`` with the exit codes a forked standard-library process
reports. Every child a serve path gives up on is terminated, killed if
it outlives the grace period, and reaped: a process left running would
outlive the run that started it. A service's workers are forked children
on socketpairs: it listens on its owner-only Unix socket only, binds no
port, and its workers exit when it is killed.
:func:`repro.serve.service.import_asyncio` imports the event loop as an
interpreter without ``ssl`` would, and leaves ``ssl`` importable
afterwards.
"""

import asyncio
import contextlib
import json
import os
import shutil
import signal
import socket
import stat
import subprocess
import sys
import tempfile
import time

import pytest

import repro.serve.service as service_mod
import repro.serve.worker as worker_mod
from repro.cli import main
from repro.errors import ServeError
from repro.serve.orchestrator import Orchestrator
from repro.serve.service import ForkedProcess, read_discovery, spawn_service

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")


def _gone(pid):
    """Whether ``pid`` is reaped: a zombie still takes signal 0."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _sleeper():
    """A forked child that sleeps until it is killed."""
    return ForkedProcess(time.sleep, 60)


# -- the handle --------------------------------------------------------------
def test_a_returning_child_exits_0():
    proc = ForkedProcess(lambda: None)
    proc.join()
    assert proc.exitcode == 0 and not proc.is_alive() and _gone(proc.pid)


def _exit_3():
    raise SystemExit(3)


def test_system_exit_gives_its_code():
    proc = ForkedProcess(_exit_3)
    proc.join()
    assert proc.exitcode == 3


def _boom():
    raise ValueError("boom")


def test_an_uncaught_exception_exits_1_with_its_traceback(capfd):
    proc = ForkedProcess(_boom)
    proc.join()
    assert proc.exitcode == 1
    err = capfd.readouterr().err
    assert "Traceback" in err and "ValueError: boom" in err


def test_a_killed_child_reads_minus_the_signal():
    proc = _sleeper()
    proc.kill()
    proc.join()
    assert proc.exitcode == -signal.SIGKILL


def test_join_with_a_timeout_returns_while_the_child_runs():
    proc = _sleeper()
    try:
        started = time.monotonic()
        proc.join(0.1)
        assert 0.1 <= time.monotonic() - started < 5
        assert proc.is_alive() and proc.exitcode is None
    finally:
        proc.kill()
        proc.join()


def _stdin_is_closed():
    if sys.stdin.name != os.devnull or sys.stdin.read() != "":
        raise SystemExit(2)


def test_the_child_reads_no_stdin():
    proc = ForkedProcess(_stdin_is_closed)
    proc.join()
    assert proc.exitcode == 0


# -- nothing is left running ---------------------------------------------------
def _stubborn(pid_file, code=None):
    """A service that writes its pid and never serves: ignores SIGTERM
    and sleeps, or exits with ``code``."""
    def run_service(state_dir, **_kwargs):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        with open(pid_file, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
        if code is not None:
            raise SystemExit(code)
        time.sleep(60)
    return run_service


def test_spawn_service_kills_and_reaps_a_child_that_never_serves(
        tmp_path, monkeypatch):
    pid_file = tmp_path / "pid"
    monkeypatch.setattr(service_mod, "run_service", _stubborn(pid_file))
    monkeypatch.setattr(service_mod, "_GRACE", 0.2)
    started = time.monotonic()
    with pytest.raises(ServeError, match="did not become ready"):
        spawn_service(str(tmp_path / "s"), timeout=0.5)
    assert time.monotonic() - started < 5
    assert _gone(int(pid_file.read_text()))


def test_spawn_service_reaps_a_child_that_died(tmp_path, monkeypatch):
    pid_file = tmp_path / "pid"
    monkeypatch.setattr(service_mod, "run_service",
                        _stubborn(pid_file, code=3))
    with pytest.raises(ServeError, match=r"died during startup "
                                         r"\(exitcode 3\)"):
        spawn_service(str(tmp_path / "s"))
    assert _gone(int(pid_file.read_text()))


def test_the_worker_pool_kills_a_worker_that_outlives_its_join(
        tmp_path, monkeypatch):
    spawned, worker_ends = [], []

    def stubborn_worker(heartbeat):
        previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        try:
            spawned.append(_sleeper())  # inherits SIGTERM ignored
        finally:
            signal.signal(signal.SIGTERM, previous)
        ours, theirs = socket.socketpair()
        worker_ends.append(theirs)
        return spawned[-1], ours

    monkeypatch.setattr(worker_mod, "spawn_worker", stubborn_worker)
    monkeypatch.setattr(service_mod, "_GRACE", 0.2)

    async def scenario():
        orch = Orchestrator(str(tmp_path / "s"))
        async with service_mod._workers(orch, 2):
            pass

    try:
        asyncio.run(scenario())
        assert [proc.exitcode for proc in spawned] == [-signal.SIGKILL] * 2
        assert all(_gone(proc.pid) for proc in spawned)
    finally:
        for proc in spawned:
            proc.kill()
            proc.join()
        for end in worker_ends:
            end.close()


def _exited(pid):
    """Whether ``pid`` has exited: reaped, or a zombie that the process
    it was reparented to has not reaped yet."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rpartition(")")[2].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def _socket_inodes(pid):
    """The inodes of the sockets process ``pid`` holds."""
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except FileNotFoundError:
            continue  # closed since the listing
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    return inodes


def _listening_tcp_ports(pid):
    """The ports of the listening TCP sockets process ``pid`` holds."""
    inodes = _socket_inodes(pid)
    ports = []
    for table in ("tcp", "tcp6"):
        try:
            with open(f"/proc/{pid}/net/{table}", encoding="ascii") as fh:
                rows = fh.read().splitlines()[1:]
        except FileNotFoundError:
            continue  # no IPv6 in this kernel
        for row in rows:
            fields = row.split()
            if fields[3] == "0A" and fields[9] in inodes:  # TCP_LISTEN
                ports.append(int(fields[1].rpartition(":")[2], 16))
    return ports


linux_only = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="reads /proc")


def _listening_unix_paths(pid):
    """The paths of the listening Unix sockets process ``pid`` holds."""
    inodes = _socket_inodes(pid)
    with open(f"/proc/{pid}/net/unix", encoding="ascii") as fh:
        rows = [row.split() for row in fh.read().splitlines()[1:]]
    return [row[7] for row in rows  # __SO_ACCEPTCON: listening
            if len(row) > 7 and row[6] in inodes and int(row[3], 16) & 1 << 16]


@linux_only
def test_a_service_listens_on_its_owner_only_socket_only(tmp_path):
    """Clients come over the service's Unix socket and workers are forked
    children on socketpairs: the one socket a service listens on is
    ``<state-dir>/serve.sock``, owner-only, which ``serve.json`` names;
    it holds no listening TCP socket, and neither ``serve.json`` nor
    ``/healthz`` publishes a worker port."""
    state = tmp_path / "s"
    handle = spawn_service(str(state), workers=1)
    try:
        with open(state / "serve.json", encoding="utf-8") as fh:
            discovery = json.load(fh)
        assert sorted(discovery) == ["pid", "socket", "workers"]
        assert discovery["socket"] == handle.socket == str(state /
                                                           "serve.sock")
        assert stat.S_IMODE(os.stat(handle.socket).st_mode) == 0o600
        with handle.client() as client:
            health = client.healthz()
        assert "worker_port" not in health and len(health["workers"]) == 1
        assert _listening_tcp_ports(handle.pid) == []
        assert _listening_unix_paths(handle.pid) == [handle.socket]
    finally:
        handle.stop()
    assert sorted(os.listdir(state)) == ["cache", "jobs.log"]


def test_a_state_directory_too_deep_for_a_socket_address_serves(tmp_path):
    """A state directory whose socket path is over the 107 bytes of a
    socket address still serves: the socket is bound in a private
    directory (0700), ``serve.json`` names it, and a clean stop removes
    both."""
    state = tmp_path / ("deep-" * 20)
    assert len(os.fsencode(os.path.join(state, "serve.sock"))) > 107
    handle = spawn_service(str(state), workers=1)
    private = os.path.dirname(handle.socket)
    try:
        assert private != str(state)
        assert stat.S_IMODE(os.stat(private).st_mode) == 0o700
        assert stat.S_IMODE(os.stat(handle.socket).st_mode) == 0o600
        with open(state / "serve.json", encoding="utf-8") as fh:
            assert json.load(fh)["socket"] == handle.socket
        with handle.client() as client:
            job = client.submit("selftest", {"n": 2})
            assert client.wait(job["job_id"], timeout=30)["done"] == 2
    finally:
        handle.stop()
    assert not os.path.exists(private)


def test_a_second_service_on_a_live_state_directory_leaves_its_socket(
        tmp_path, capsys):
    """Only the holder of the journal lock unlinks a socket in the state
    directory or touches its ``serve.json``: a second service on a live
    directory dies at start-up, the first still answers on its socket,
    ``serve.json`` still names it, and ``repro jobs`` finds it there."""
    state = str(tmp_path / "s")
    handle = spawn_service(state, workers=1)
    try:
        with handle.client() as client:
            job = client.submit("selftest", {"n": 1})
        with pytest.raises(ServeError, match="died during startup"):
            spawn_service(state, workers=1)
        with handle.client() as client:
            assert client.healthz()["ok"]
        assert read_discovery(state)["pid"] == handle.pid
        assert read_discovery(state)["socket"] == handle.socket
        capsys.readouterr()
        assert main(["jobs", "--state-dir", state]) == 0
        assert job["job_id"] in capsys.readouterr().out
    finally:
        handle.stop()


@pytest.mark.tier2
def test_a_killed_service_leaves_no_private_socket_directory(
        tmp_path, monkeypatch):
    """The private directory of a state directory too deep for a socket
    address goes with the service even when it is killed: the next
    service on the state directory removes the socket its ``serve.json``
    names and the directory that holds it."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    state = str(tmp_path / ("deep-" * 20))

    def private_dirs():
        return [name for name in os.listdir(tmp_path)
                if name.startswith("repro-serve-")]

    handle = spawn_service(state, workers=1)
    assert os.path.dirname(handle.socket) == str(tmp_path /
                                                 private_dirs()[0])
    handle.kill()
    assert len(private_dirs()) == 1  # the killed one's, with its socket
    handle = spawn_service(state, workers=1)
    try:
        assert private_dirs() == [os.path.basename(
            os.path.dirname(handle.socket))]
    finally:
        handle.stop()
    assert private_dirs() == []


@pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
def test_a_service_on_a_copied_state_directory_leaves_the_live_socket(
        tmp_path, monkeypatch, deep):
    """A state directory copied from a live one (a backup restore, a
    seeded cache) has a ``serve.json`` naming the live service's socket:
    a service started on the copy removes none of it, and the live
    service still answers, in its state directory or in a private
    ``repro-serve-*`` directory."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    live = str(tmp_path / ("deep-" * 20 if deep else "live"))
    handle = spawn_service(live, workers=1)
    try:
        assert (os.path.dirname(handle.socket) != live) == deep
        copy = str(tmp_path / "copy")
        shutil.copytree(live, copy,
                        ignore=shutil.ignore_patterns("serve.sock"))
        assert read_discovery(copy)["socket"] == handle.socket
        second = spawn_service(copy, workers=1)
        try:
            with second.client() as client:
                assert client.healthz()["ok"]
        finally:
            second.stop()
        assert stat.S_ISSOCK(os.lstat(handle.socket).st_mode)
        with handle.client() as client:
            assert client.healthz()["ok"]
    finally:
        handle.stop()


def test_a_damaged_discovery_file_removes_nothing_it_names(tmp_path):
    """Only a refused socket in a ``repro-serve-*`` directory is taken
    for a killed service's: a ``serve.json`` naming a regular file there,
    or a socket elsewhere, costs the file nothing."""
    private = tmp_path / "repro-serve-x"
    private.mkdir()
    (private / "serve.sock").write_text("keep")
    elsewhere = tmp_path / "sockets"
    elsewhere.mkdir()
    dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    dead.bind(str(elsewhere / "dead.sock"))
    dead.close()  # bound, never listened: a connect is refused
    for target in (private / "serve.sock", elsewhere / "dead.sock"):
        state = tmp_path / f"s-{target.name}"
        state.mkdir()
        (state / "serve.json").write_text(json.dumps({"socket": str(target)}))
        spawn_service(str(state), workers=1).stop()
        assert os.path.lexists(target)
    assert (private / "serve.sock").read_text() == "keep"


@linux_only
def test_a_worker_holds_no_service_end():
    """The service is the only holder of its end of each socketpair: a
    worker holds neither its own pair's nor an earlier sibling's, so
    each worker reads EOF the moment the service dies, busy siblings or
    not."""
    procs, ends = zip(*(worker_mod.spawn_worker(0.5) for _ in range(2)))
    try:
        inodes = {str(os.fstat(end.fileno()).st_ino) for end in ends}
        deadline = time.monotonic() + 5
        while (any(inodes & _socket_inodes(proc.pid) for proc in procs)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert [inodes & _socket_inodes(proc.pid) for proc in procs] == [
            set(), set()]
    finally:
        for end in ends:
            end.close()  # EOF: each worker leaves its loop
        for proc in procs:
            proc.join(10)
    assert [proc.exitcode for proc in procs] == [0, 0]


@linux_only
def test_killing_the_service_leaves_no_worker_running(tmp_path):
    """Each worker reads EOF on its socketpair once the service is gone,
    and exits: no worker holds a service end, its own or a sibling's."""
    handle = spawn_service(str(tmp_path / "s"), workers=3,
                           oversubscribe=True)
    pids = []
    try:
        pids = handle.worker_pids()
        assert len(pids) == 3
        handle.kill()
        deadline = time.monotonic() + 2
        while (not all(_exited(pid) for pid in pids)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert [pid for pid in pids if not _exited(pid)] == []
    finally:
        handle.kill()
        for pid in pids:  # a failed check leaves none running either
            if not _exited(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


# -- a worker's connection is its life -----------------------------------------
def _until(predicate, timeout, what):
    """Poll ``predicate`` until it holds; fail after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _metric(client, name):
    return sum(s["value"] for s in client.metrics()["metrics"].get(name, []))


def _pids(client):
    return sorted(w["pid"] for w in client.healthz()["workers"].values())


@pytest.mark.tier2
def test_an_idle_worker_killed_is_replaced_and_costs_no_attempt(tmp_path):
    """The connection of an idle worker is read too: its death unlists it
    at once, it is replaced, and the next job's point is not requeued."""
    handle = spawn_service(str(tmp_path / "s"), workers=1,
                           heartbeat_timeout=0.4)
    try:
        with handle.client() as client:
            _until(lambda: _pids(client), 10, "a worker")
            (victim,) = _pids(client)
            os.kill(victim, signal.SIGKILL)
            _until(lambda: _pids(client) not in ([], [victim]), 10,
                   "a replacement")
            assert victim not in _pids(client) and len(_pids(client)) == 1
            job = client.submit("selftest", {"n": 1})
            client.wait(job["job_id"], timeout=10)
            assert _metric(client, "serve.point.requeued") == 0
            assert _metric(client, "serve.worker.lost") == 1
    finally:
        handle.stop()


@pytest.mark.tier2
def test_a_wedged_worker_is_replaced(tmp_path):
    """A one-worker service whose busy worker is stopped (SIGSTOP) drops
    it at the heartbeat timeout, reaps it and forks a replacement, which
    finishes the point and the next job."""
    handle = spawn_service(str(tmp_path / "s"), workers=1,
                           heartbeat_timeout=0.4)
    wedged = None
    try:
        with handle.client() as client:
            job = client.submit("selftest", {"n": 1, "ms": 300})
            _until(lambda: any(w["busy"] for w in
                               client.healthz()["workers"].values()),
                   10, "a busy worker")
            (wedged,) = _pids(client)
            os.kill(wedged, signal.SIGSTOP)
            assert client.wait(job["job_id"], timeout=10)["status"] == "done"
            again = client.submit("selftest", {"n": 2})
            assert client.wait(again["job_id"], timeout=10)["status"] == "done"
            assert _metric(client, "serve.point.requeued") == 1
            assert wedged not in _pids(client)
            _until(lambda: _gone(wedged), 10, "the wedged worker reaped")
    finally:
        if wedged is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(wedged, signal.SIGKILL)
        handle.stop()


def _unix_inodes(pid):
    with open(f"/proc/{pid}/net/unix", encoding="ascii") as fh:
        return {row.split()[6] for row in fh.read().splitlines()[1:]
                if len(row.split()) > 6}


@linux_only
@pytest.mark.tier2
def test_a_respawned_worker_holds_only_its_own_end(tmp_path):
    """A worker forked while the service's socket listens and a client is
    connected inherits neither, nor the job journal: its one socket is
    its own end of its pair."""
    handle = spawn_service(str(tmp_path / "s"), workers=1)
    try:
        with handle.client() as client:  # a connection stays open
            _until(lambda: _pids(client), 10, "a worker")
            (first,) = _pids(client)
            os.kill(first, signal.SIGKILL)
            _until(lambda: set(_pids(client)) - {first}, 10,
                   "a replacement")
            (worker,) = set(_pids(client)) - {first}
            assert _listening_tcp_ports(worker) == []
            inodes = _socket_inodes(worker)
            assert len(inodes) == 1 and inodes <= _unix_inodes(worker)
            targets = []
            for fd in os.listdir(f"/proc/{worker}/fd"):
                with contextlib.suppress(FileNotFoundError):
                    targets.append(os.readlink(f"/proc/{worker}/fd/{fd}"))
            assert not [t for t in targets if t.endswith("jobs.log")]
    finally:
        handle.stop()


# -- one orchestrator per state directory --------------------------------------
def test_a_state_directory_takes_one_orchestrator(tmp_path):
    state = str(tmp_path / "s")
    first = Orchestrator(state)
    with pytest.raises(ServeError, match="held by another orchestrator"):
        Orchestrator(state)
    assert first.submit("selftest", {"n": 1}) == "job-00001"
    first.close()
    second = Orchestrator(state)
    second.resume_jobs()
    assert second.submit("selftest", {"n": 1}) == "job-00002"
    second.close()


def test_a_service_restarts_at_once_on_a_killed_ones_directory(tmp_path):
    """A killed service's busy worker outlives it for its point, but holds
    no descriptor of the journal, so a new service takes the directory
    at once, unlinks the socket file the killed one left, binds its own
    and resumes the job."""
    state = str(tmp_path / "s")
    handle = spawn_service(state, workers=1)
    with handle.client() as client:
        job = client.submit("selftest", {"n": 1, "ms": 1000})
        _until(lambda: any(w["busy"] for w in
                           client.healthz()["workers"].values()),
               10, "a busy worker")
    handle.kill()
    assert os.path.exists(handle.socket)  # stale: nothing listens on it
    with pytest.raises(ServeError, match="unreachable"):
        with handle.client() as client:
            client.healthz()
    handle = spawn_service(state, workers=1)
    try:
        with handle.client() as client:
            assert [j["job_id"] for j in client.jobs()] == [job["job_id"]]
            client.wait(job["job_id"], timeout=10)
    finally:
        handle.stop()


# -- asyncio without TLS -------------------------------------------------------
TLS_FREE = """
import importlib.abc, json, sys
from repro.serve.service import import_asyncio

if sys.argv[1] == "refused":
    class NeedsSsl(importlib.abc.MetaPathFinder):
        # An asyncio that cannot import with ssl blocked.
        def find_spec(self, name, path, target=None):
            if name == "asyncio.base_events" and "ssl" in sys.modules \\
                    and sys.modules["ssl"] is None:
                raise ImportError("asyncio needs ssl here")
            return None
    sys.meta_path.insert(0, NeedsSsl())

asyncio = import_asyncio()
report = {"ssl_after_helper": "ssl" in sys.modules,
          "loop_has_ssl": asyncio.base_events.ssl is not None}


async def echo_once():
    async def echo(reader, writer):
        writer.write(await reader.readline())
        await writer.drain()
        writer.close()
    server = await asyncio.start_server(echo, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"ping\\n")
    line = await reader.readline()
    writer.close()
    server.close()
    await server.wait_closed()
    return line.decode()

report["echo"] = asyncio.run(echo_once())
import ssl
report["ssl_imports"] = sys.modules["ssl"] is ssl and bool(ssl.OPENSSL_VERSION)
print(json.dumps(report))
"""


def _tls_free(case):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", TLS_FREE, case],
                          capture_output=True, text=True, timeout=60,
                          cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout)


def test_asyncio_imported_without_tls_serves_and_ssl_still_imports():
    assert _tls_free("plain") == {
        "ssl_after_helper": False, "loop_has_ssl": False,
        "echo": "ping\n", "ssl_imports": True}


def test_an_asyncio_that_needs_ssl_is_imported_normally():
    assert _tls_free("refused") == {
        "ssl_after_helper": True, "loop_has_ssl": True,
        "echo": "ping\n", "ssl_imports": True}


def test_the_helper_is_a_plain_import_once_ssl_is_loaded():
    import ssl  # noqa: F401
    assert service_mod.import_asyncio() is sys.modules["asyncio"]
