"""A model of the orchestrator, checked after every step of drawn runs.

:class:`OrchestratorMachine` runs one in-process ``Orchestrator`` on a
temporary state directory. Rules: submit a selftest document (or one that
asks each point twice) as a call or as a POST (its canonical text, pretty
JSON, YAML) whose journal append may fail; drain inline; lose a claimed
point; fail the next result save; garble a stored point; reopen with a
torn journal tail. After each step the journal's bytes, every job's
status, error, hits and results, the expansions, the calls of
``expand_job``, ``point_blob`` and the body parser, the point files
opened and stored, ``cache_counts()``, the counters and ``tasks`` are
the model's. :class:`WorkerMachine` (tier 2) adds socketpair workers that
attach, answer, answer with an error, go silent past the heartbeat
timeout and die, and checks each point a worker is sent. Each of
:data:`MUTANTS`, a fragment of ``orchestrator.py`` replaced, must fail a
machine.
"""

import asyncio
import contextlib
import errno
import json
import os
import shutil
import tempfile
from types import SimpleNamespace as Record
from unittest import mock

import pytest
import yaml
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

import repro.serve.cache as cache_mod
import repro.serve.http as http_mod
import repro.serve.orchestrator as orch_mod
from repro.errors import ServeError
from repro.serve.cache import cache_key
from repro.serve.orchestrator import MAX_ATTEMPTS
from repro.serve.points import JOB_KINDS
from repro.serve.protocol import error_frame, result_frame
from tests.helpers import mutated
from tests.test_serve_protocol import (_ask, _MemoryTransport, _post_body,
                                       _TestWorker)

#: The counters the model keeps, each ``serve.<name>``.
COUNTERS = ("job.submitted", "job.resumed", "job.done",
            "point.done", "point.failed", "point.requeued", "cache.hit",
            "cache.miss", "cache.save_failed", "worker.connected",
            "worker.lost")
#: The heartbeat timeout, in seconds. The watchdog wakes every quarter of
#: it, but its clock moves only when the machine says time passes.
TIMEOUT = 0.02
#: ``extra`` is no selftest field: it changes a document's text, not its
#: points. Its int keys sort one way as numbers and another as text.
SPECS = st.fixed_dictionaries({"n": st.integers(0, 4)}, optional={
    "fail_at": st.sampled_from([0, 1, 3]), "ms": st.just(0),
    "extra": st.one_of(st.dictionaries(
        st.sampled_from([2, 9, 10, 11]), st.sampled_from(["a", (1, 2)]),
        min_size=1, max_size=3), st.just({9: "a", "x": "b"}))})


def _twice(spec):
    """A second job kind: a selftest job's points, each asked twice."""
    return "selftest", 2 * JOB_KINDS["selftest"](spec)[1]


def _text(kind, spec):
    """What ``job_text`` should make of a document."""
    doc = json.loads(json.dumps({"kind": kind, "spec": spec}))
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _body(kind, spec, spelling):
    doc = {"kind": kind, "spec": spec}
    if spelling == "canonical":
        return _text(kind, spec).encode()
    if spelling == "pretty":  # its keys in the order they were given
        return json.dumps(doc, indent=2).encode()
    return yaml.safe_dump(doc, sort_keys=False).encode()  # int keys stay


def _points(kind, spec):
    return (2 if kind == "twice" else 1) * [
        {"i": i, "fail": True} if i == spec.get("fail_at") else {"i": i}
        for i in range(spec["n"])]


def _line(job_id, text):
    return f'{{"job_id":"{job_id}",{text[1:]}\n'.encode()


class OrchestratorMachine(RuleBasedStateMachine):
    module = orch_mod  # a mutant replaces it

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="serve-model-")
        self.patches, self.opened = contextlib.ExitStack(), 0
        self.spies = {name: self.patches.enter_context(mock.patch.object(
            module, name, wraps=getattr(module, name))) for module, name in (
            (self.module, "expand_job"), (self.module, "point_blob"),
            (http_mod, "parse_job_document"))}
        self.patches.enter_context(mock.patch.object(
            cache_mod, "open", self._open, create=True))
        self.patches.enter_context(mock.patch.dict(JOB_KINDS, twice=_twice))
        self.fail_save = False  # the store's next write fails
        # The model: journal lines, the points with a good file and with
        # any file, and the spies' counts.
        self.lines = []  # (job_id, text, points)
        self.valid, self.files = set(), set()
        self.expected = {"expand_job": [], "point_blob": 0,
                         "parse_job_document": 0, "open": 0}
        self.save_armed = False
        self.workers, self.ready = {}, []  # name -> busy key; idle names
        self._reopened()

    def _open(self, path, mode="r", *args, **kwargs):
        # The store's reads are counted; a write fails when asked to.
        if "w" not in mode:
            self.opened += 1
        elif self.fail_save:
            self.fail_save = False
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open(path, mode, *args, **kwargs)

    def _start(self):
        self.orch = self.module.Orchestrator(self.dir, TIMEOUT)
        self.orch.resume_jobs()
        self.connection = http_mod._Connection(http_mod.HttpApi(self.orch))
        self.transport = _MemoryTransport(self.connection)

    def _stop(self):
        self.orch.close()

    def teardown(self):
        self._stop()
        self.patches.close()
        shutil.rmtree(self.dir)

    # -- the model ---------------------------------------------------------
    def _reopened(self):
        """Start an orchestrator on the directory and resume the model."""
        self.remembered, self.expanded = set(), set()
        self.tasks, self.queue, self.jobs = {}, [], {}
        self.count = dict.fromkeys(COUNTERS, 0)
        self.next_id = 1 + len(self.lines)
        for job_id, text, points in self.lines:
            if text not in self.expanded:
                self._expanded(text, points)
            self._register(job_id, text, points)
            self.count["job.resumed"] += 1
        self._start()

    def _expanded(self, text, points):
        """``expand_job`` ran on the document as JSON reads it back."""
        doc = json.loads(text)
        self.expected["expand_job"].append((doc["kind"], doc["spec"]))
        if points:
            self.expected["point_blob"] += len(points)
            self.expanded.add(text)

    def _register(self, job_id, text, points):
        job = self.jobs[job_id] = Record(text=text, points=points,
                                         pending=set(), hits=0,
                                         status="running", error=())
        for index, point in enumerate(points):
            key = cache_key("selftest", point)
            if key not in self.remembered and key not in self.tasks:
                self.expected["open"] += 1  # once a job: then it is a task
                if key in self.valid:
                    self.remembered.add(key)
            if key in self.remembered:
                job.hits += 1
                continue
            job.pending.add(index)
            if key not in self.tasks:
                self.tasks[key] = Record(point=point, attempts=0, waiters=[])
                self.queue.append(key)
            self.tasks[key].waiters.append((job_id, index))
        self.count["cache.hit"] += job.hits
        self.count["cache.miss"] += len(job.pending)
        self._finish(job)
        self._dispatch()

    def _finish(self, job):
        if job.status == "running" and not job.pending:
            job.status = "done"
            self.count["job.done"] += 1

    def _dispatch(self):
        while self.queue and self.ready:
            self.workers[self.ready.pop(0)] = self.queue.pop(0)

    def _complete(self, key):
        self.remembered.add(key)
        self.count["point.done"] += 1
        if self.save_armed:  # remembered all the same, but no file
            self.save_armed = False
            self.count["cache.save_failed"] += 1
        else:
            self.valid.add(key)
            self.files.add(key)
        for job_id, index in self.tasks.pop(key).waiters:
            self.jobs[job_id].pending.discard(index)
            self._finish(self.jobs[job_id])

    def _fail(self, key, blame):
        self.count["point.failed"] += 1
        for job_id, index in self.tasks.pop(key).waiters:
            job = self.jobs[job_id]
            if job.status == "running":
                job.status = "failed"
                job.error = (f"point {index} failed: ", blame)

    def _requeue(self, key):
        self.tasks[key].attempts += 1
        self.count["point.requeued"] += 1
        if self.tasks[key].attempts >= MAX_ATTEMPTS:
            self._fail(key, f"gave up after {MAX_ATTEMPTS} attempts")
        else:
            self.queue.append(key)
            self._dispatch()

    def _journal(self):
        return b"".join(_line(job_id, text) for job_id, text, _ in self.lines)

    # -- rules -------------------------------------------------------------
    @rule(kind=st.sampled_from(["selftest", "twice"]), spec=SPECS,
          spelling=st.sampled_from(["call", "canonical", "pretty", "yaml"]),
          append=st.sampled_from([None] * 6 + ["short", "full"]))
    def submit(self, kind, spec, spelling, append):
        body, text = _body(kind, spec, spelling), _text(kind, spec)
        points = _points(kind, spec)
        real = os.write  # the journal's append writes part, or nothing
        if append == "short":
            os.write = lambda fd, data: real(fd, data[:9])
        elif append == "full":
            os.write = mock.Mock(side_effect=OSError(errno.ENOSPC, ""))
        try:
            if spelling == "call":
                got = 201, self.orch.submit(kind, spec)
            else:
                [(status, _h, doc)] = _ask(self.connection, self.transport,
                                           _post_body(body))
                got = status, doc.get("job_id") or doc["error"]
        except ServeError as exc:
            got = 400, str(exc)
        except OSError as exc:
            got = 500, str(exc)
        finally:
            os.write = real
        if spelling != "call" and body.decode("latin-1") not in self.expanded:
            self.expected["parse_job_document"] += 1
        job_id = f"job-{self.next_id:05d}"
        # A call and a YAML body keep int keys, which JSON cannot sort
        # beside a string key.
        if spelling in ("call", "yaml") and len(
                {type(key) for key in spec.get("extra", ())}) > 1:
            want = 400, "not JSON"
        elif not points:
            self._expanded(text, points)  # and again at every submit
            want = 400, "n >= 1"
        else:
            if text not in self.expanded:  # expanded before it is appended
                self._expanded(text, points)
            want = {None: (201, job_id), "short": (500, "short write"),
                    "full": (500, "[Errno 28]")}[append]
        assert got[0] == want[0] and want[1] in got[1], (got, want)
        if got[0] == 201:
            self.next_id += 1
            self.lines.append((job_id, text, points))
            self.count["job.submitted"] += 1
            self._register(job_id, text, points)

    @rule()
    def drain(self):
        self.orch.drain_inline()
        while self.queue:
            key = self.queue.pop(0)
            if self.tasks[key].point.get("fail"):
                self._fail(key, "asked to fail")
            else:
                self._complete(key)

    @precondition(lambda self: self.queue)
    @rule()
    def lose_a_claimed_point(self):
        orch = self.orch
        orch._requeue(orch.tasks[orch._queue.popleft()], "lost")
        self._requeue(self.queue.pop(0))

    @rule()
    def fail_the_next_save(self):
        self.fail_save = self.save_armed = True

    @precondition(lambda self: self.valid)
    @rule(data=st.data())
    def garble_a_stored_point(self, data):
        key = data.draw(st.sampled_from(sorted(self.valid)))
        with open(os.path.join(self.dir, "cache", f"point-{key}.json"),
                  "r+b") as fh:
            fh.truncate(data.draw(st.integers(0, len(fh.read()) - 1)))
        self.valid.discard(key)

    @rule(tail=st.one_of(st.binary(max_size=8), st.integers(1, 40)))
    def reopen(self, tail):
        """Close, tear the journal's end (a line being appended, or any
        bytes) and reopen."""
        self._stop()
        if isinstance(tail, int):
            tail = _line(f"job-{self.next_id:05d}",
                         _text("selftest", {"n": 1}))[:tail]
        with open(os.path.join(self.dir, "jobs.log"), "ab") as fh:
            fh.write(tail.replace(b"\n", b""))
        self._reopened()

    # -- the check ---------------------------------------------------------
    def _settle(self):
        """Let what the last rule set going end (see WorkerMachine)."""

    @invariant()
    def agrees_with_the_model(self):
        self._settle()
        orch = self.orch
        with open(os.path.join(self.dir, "jobs.log"), "rb") as fh:
            assert fh.read() == self._journal()
        assert sorted(os.listdir(self.dir)) == ["cache", "jobs.log"]
        assert [(doc["job_id"], doc["status"], doc["total"], doc["done"],
                 doc["cache_hits"]) for doc in orch.list_jobs()] == [
            (job_id, job.status, len(job.points),
             len(job.points) - len(job.pending), job.hits)
            for job_id, job in self.jobs.items()]
        shared = {}  # the jobs of one document share its point list
        for job_id, job in self.jobs.items():
            points, error = orch.jobs[job_id].points, orch.jobs[job_id].error
            assert shared.setdefault(job.text, points) is points
            assert (error is None) == (job.status != "failed")
            assert all(part in (error or "") for part in job.error)
            if job.status == "done":
                doc = orch.job_result(job_id)
                assert (doc["spec"], doc["points"], doc["results"]) == (
                    json.loads(job.text)["spec"], job.points,
                    [{"i": p["i"], "value": p["i"] ** 2} for p in job.points])
        running = sum(job.status == "running" for job in self.jobs.values())
        assert (orch.active, orch._running) == (running > 0, running)
        assert set(orch.expansions) == self.expanded
        assert {**{name: spy.call_count for name, spy in self.spies.items()},
                "expand_job": [call.args for call in
                               self.spies["expand_job"].call_args_list],
                "open": self.opened} == self.expected
        assert self.fail_save == self.save_armed
        assert sorted(os.listdir(os.path.join(self.dir, "cache"))) == sorted(
            f"point-{key}.json" for key in self.files)
        assert orch.cache_counts() == {"hits": self.count["cache.hit"],
                                       "misses": self.count["cache.miss"],
                                       "stored": len(self.files)}
        assert {name: orch.metrics.value(f"serve.{name}")
                for name in COUNTERS} == self.count
        assert {key: task.attempts for key, task in orch.tasks.items()} \
            == {key: task.attempts for key, task in self.tasks.items()}
        assert orch.queue_depth == len(self.queue)


test_the_orchestrator_agrees_with_its_model = OrchestratorMachine.TestCase


class WorkerMachine(OrchestratorMachine):
    """Workers on socketpairs, one event loop, and a heartbeat clock that
    moves only in :meth:`time_passes`."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.now, self.clients, self.claimed = 0.0, {}, {}
        super().__init__()
        self.patches.callback(self.loop.close)
        self.patches.enter_context(mock.patch.object(
            self.module, "time", Record(monotonic=lambda: self.now)))

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def _start(self):
        super()._start()
        self.run(self.orch.start())

    def _stop(self):
        self.run(self.orch.stop())
        for client in self.clients.values():
            client.close()
        self.run(asyncio.sleep(0))  # the closes and the cancelled watchdog
        for table in (self.clients, self.claimed, self.workers, self.ready):
            table.clear()

    def _busy(self):
        return sorted(name for name, key in self.workers.items() if key)

    def _settle(self):
        # Run the loop until the orchestrator's workers and queue are the
        # model's, then read each new claim off its worker's socket.
        async def settle():
            deadline = self.loop.time() + 2
            while ({name: worker["busy"] for name, worker
                    in self.orch.workers.items()},
                   self.orch.queue_depth) != (self.workers, len(self.queue)):
                assert self.loop.time() < deadline, self.orch.workers
                await asyncio.sleep(0.002)
            for name in self._busy():
                key = self.workers[name]
                if self.claimed.get(name) != key:
                    frame = await self.clients[name].next_frame(2)
                    assert (frame["type"], frame["id"], frame["point"]) == (
                        "job", key, self.tasks[key].point)
                    self.claimed[name] = key

        self.run(settle())

    @precondition(lambda self: len(self.workers) < 3)
    @rule()
    def attach(self):
        name = f"w{self.count['worker.connected']}"
        self.clients[name] = self.run(_TestWorker(self.orch).connect(name))
        self.workers[name] = None
        self.count["worker.connected"] += 1
        self.ready.append(name)
        self._dispatch()

    @precondition(lambda self: self._busy())
    @rule(data=st.data(), ok=st.sampled_from([True, True, False]))
    def answer(self, data, ok):
        """A busy worker answers as a worker does, or with an error."""
        name = data.draw(st.sampled_from(self._busy()))
        key, self.workers[name] = self.workers[name], None
        del self.claimed[name]
        point = self.tasks[key].point
        if ok and not point.get("fail"):
            frame = result_frame(key, {"i": point["i"],
                                       "value": point["i"] ** 2})
            self._complete(key)
        else:
            blame = "asked to fail" if ok else "injected"
            frame = error_frame(key, f"ValueError: {blame}")
            self._fail(key, blame)
        self.run(self.clients[name].send(frame))
        self.ready.append(name)
        self._dispatch()

    def _lose(self, name):
        self.clients.pop(name).close()
        self.claimed.pop(name, None)
        self.count["worker.lost"] += 1
        if name in self.ready:
            self.ready.remove(name)
        key = self.workers.pop(name)
        if key is not None:
            self._requeue(key)

    @precondition(lambda self: self.workers)
    @rule(data=st.data())
    def die(self, data):
        """A worker's connection ends, busy or idle."""
        self._lose(data.draw(st.sampled_from(sorted(self.workers))))

    @precondition(lambda self: self.workers and len(self._busy()) <= 1)
    @rule()
    def time_passes(self):
        """Past the heartbeat timeout: the busy are dropped, not the idle."""
        self.now += 2 * TIMEOUT
        self.run(asyncio.sleep(TIMEOUT / 2))  # two watchdog rounds
        for name in self._busy():
            self._lose(name)


test_the_orchestrator_with_workers_agrees_with_its_model = \
    pytest.mark.tier2(WorkerMachine.TestCase)
for machine in (OrchestratorMachine, WorkerMachine):
    machine.TestCase.settings = settings(machine.TestCase.settings,
                                         stateful_step_count=30)


# -- mutants -------------------------------------------------------------------
#: name -> (fragment of ``orchestrator.py``, its replacement): bugs the
#: orchestrator had, or could have. The last needs workers.
MUTANTS = {
    "drain stops once no job runs":
        ("while self._queue:", "while self._queue and self._running:"),
    "job text not read back":
        ("return CANONICAL_JSON.encode(json.loads(text))", "return text"),
    "failed append not cut back":
        ("os.ftruncate(self._journal_fd, self._journal_size)", "pass"),
    "torn line not cut off at open":
        ("os.ftruncate(self._journal_fd, len(whole))", "pass"),
    "failed save propagates":
        ('self.count["serve.cache.save_failed"].inc()', "raise"),
    "no in-flight dedupe": ("task = self.tasks.get(key)", "task = None"),
    "in-flight points looked up in the store": (
        "blobs, [task.blob for task in self.tasks.values()])", "blobs)"),
    "hits on a known document not counted": (
        "if len(points) > misses:",
        "if len(points) > misses and expansion.warm is None:"),
    "ended idle link left ready": ("orch._ready.remove(self)", "pass"),
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=[pytest.mark.tier2] * ("link" in name))
    for name in MUTANTS])
def test_each_mutant_fails_a_machine(name):
    # The same examples on every host (a mutant that survives one run in
    # ten is a flaky test), and no shrinking: any failure will do.
    machine = WorkerMachine if "link" in name else OrchestratorMachine
    killer = type(machine.__name__, (machine,),
                  {"module": mutated(orch_mod, *MUTANTS[name])})
    with pytest.raises((AssertionError, KeyError, OSError)):
        run_state_machine_as_test(killer, settings=settings(
            max_examples=200, deadline=None, derandomize=True, database=None,
            phases=[Phase.generate], stateful_step_count=30))
