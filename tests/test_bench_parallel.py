"""One executor at any worker count: identical results inline or fanned out.

Points are independent simulations, so the worker count may only change
host wall-clock — never results or their order (see docs/performance.md).
The battery the fork pool used to answer to, held against
:func:`repro.serve.run_local`.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ServeError
from repro.serve import execute_point, expand_job, run_local
from repro.serve.service import auto_jobs, usable_cpus

SELFTEST = {"n": 17}
SWEEP = {"params": {"mode": ["everywhere", "threads-original"],
                    "cores": [1, 4], "msgs_per_core": [8]}}
CLI_SWEEP = ["msgrate", "--modes", "everywhere", "threads-tags",
             "--cores", "1", "2", "--messages", "8"]


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """``workers=2`` forks two real workers even on a 1-CPU host."""
    monkeypatch.setattr("repro.serve.service.usable_cpus", lambda: 2)


def _reference(kind, spec):
    point_kind, points = expand_job(kind, spec)
    return [execute_point(point_kind, p) for p in points]


def _results(kind, spec, workers, state_dir=None):
    return run_local(state_dir, kind, spec, workers=workers)[0]["results"]


def test_run_points_serial_order():
    assert _results("selftest", SELFTEST, 1) == \
        [{"i": i, "value": i * i} for i in range(17)]


def test_run_points_parallel_matches_serial():
    assert _results("selftest", SELFTEST, 2) == \
        _results("selftest", SELFTEST, 1) == _reference("selftest", SELFTEST)


def test_two_worker_drain_returns_the_inline_documents(monkeypatch):
    """The whole result documents, not only the rows — and the drain
    waits on the orchestrator's idle event: it never sleeps to poll."""
    import asyncio
    naps, sleep = [], asyncio.sleep

    async def counted_sleep(delay, *args):
        naps.append(delay)
        await sleep(delay, *args)

    monkeypatch.setattr(asyncio, "sleep", counted_sleep)
    fanned = run_local(None, "selftest", {"n": 20}, workers=2)
    # The supervisor's and the watchdog's periods only: no 5 ms poll.
    assert naps and min(naps) >= 0.1
    assert fanned == run_local(None, "selftest", {"n": 20}, workers=1)
    assert [r["value"] for r in fanned[0]["results"]] == \
        [i * i for i in range(20)]


def test_parallel_simulation_results_identical():
    """Full simulator runs fanned across workers return byte-identical
    results in point order."""
    serial, fanned, reference = (
        json.dumps(results, sort_keys=True) for results in (
            _results("sweep", SWEEP, 1), _results("sweep", SWEEP, 2),
            _reference("sweep", SWEEP)))
    assert fanned == serial == reference


def test_sweep_run_jobs_matches_serial(capsys):
    tables = []
    for jobs in ("1", "2"):
        assert main(CLI_SWEEP + ["--jobs", jobs]) == 0
        tables.append(capsys.readouterr().out.split("[")[0])
    assert tables[0] == tables[1] and "threads-tags" in tables[0]


def test_chunked_dispatch_keeps_per_point_checkpoints(tmp_path):
    """Two workers leave one store file per point, and a second run
    returns byte-identical rows in the original order from them."""
    state = str(tmp_path / "state")
    fanned = _results("selftest", SELFTEST, 2, state)
    files = [f for f in (tmp_path / "state" / "cache").iterdir()
             if f.name.startswith("point-")]
    assert len(files) == SELFTEST["n"]
    again = run_local(state, "selftest", SELFTEST, workers=2)[0]
    assert again["cache_hits"] == SELFTEST["n"]
    assert again["results"] == fanned == _results("selftest", SELFTEST, 1)


def test_chunked_dispatch_csv_byte_identical(tmp_path):
    serial, fanned = tmp_path / "serial.csv", tmp_path / "fanned.csv"
    assert main(CLI_SWEEP + ["--csv", str(serial)]) == 0
    assert main(CLI_SWEEP + ["--jobs", "2", "--csv", str(fanned)]) == 0
    assert fanned.read_bytes() == serial.read_bytes()
    assert serial.read_text().startswith("mode,cores,rate_Mmsgs\n")


def test_worker_exception_propagates():
    for workers in (1, 2):
        with pytest.raises(ServeError,
                           match="(?s)point 3 failed.*asked to fail"):
            run_local(None, "selftest", {"n": 5, "fail_at": 3},
                      workers=workers)


def _cpus(monkeypatch, n):
    """Make ``n`` the CPU count ``auto_jobs`` sizes against."""
    monkeypatch.setattr("repro.serve.service.usable_cpus", lambda: n)


def test_auto_jobs_defaults_to_cpu_count(monkeypatch):
    # Never oversubscribe the host by default (workers > cpus is pure
    # dispatch overhead — see auto_jobs' docstring).
    _cpus(monkeypatch, 4)
    assert auto_jobs() == 4
    _cpus(monkeypatch, 1)
    assert auto_jobs() == 1


def test_auto_jobs_counts_only_the_cpus_this_process_may_use(monkeypatch):
    """Under ``taskset -c 0`` on a 2-CPU host the default is one worker,
    not two forked onto the one CPU."""
    monkeypatch.undo()  # the two_cpus fixture replaced the count itself
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert usable_cpus() == 1
    assert auto_jobs() == 1
    assert auto_jobs(requested=2) == 1


def test_auto_jobs_caps_explicit_requests_at_cpu_count(monkeypatch):
    _cpus(monkeypatch, 2)
    assert auto_jobs(requested=8) == 2
    assert auto_jobs(requested=8, oversubscribe=True) == 8
    _cpus(monkeypatch, 8)
    assert auto_jobs(requested=2) == 2  # honor smaller asks


def test_auto_jobs_never_exceeds_point_count(monkeypatch):
    _cpus(monkeypatch, 16)
    assert auto_jobs(n_points=3) == 3
    assert auto_jobs(requested=8, n_points=1) == 1


def test_auto_jobs_is_always_at_least_one(monkeypatch):
    _cpus(monkeypatch, 4)
    assert auto_jobs(requested=0) == 1
    assert auto_jobs(requested=-3) == 1
    assert auto_jobs(n_points=0) == 1
    _cpus(monkeypatch, 0)
    assert auto_jobs() == 1
