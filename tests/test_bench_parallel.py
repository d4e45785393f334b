"""The parallel sweep executor: identical results serial vs fanned out.

Sweep points are independent simulations, so the executor may only change
host wall-clock — never results or their order (see docs/performance.md).
"""

import pytest

from repro.bench import (MsgRateConfig, Sweep, auto_jobs, chunk_size,
                        default_jobs, run_points, run_msgrate, scaling_run)


def _square(x, offset=0):
    return x * x + offset


def _square_row(x, offset=0):
    return {"y": x * x + offset}


def _rate(mode, cores):
    r = run_msgrate(MsgRateConfig(mode=mode, cores=cores, msgs_per_core=8))
    return r.rate


POINTS = [{"x": i, "offset": i % 3} for i in range(17)]


def test_run_points_serial_order():
    assert run_points(_square, POINTS, jobs=1) == \
        [p["x"] ** 2 + p["offset"] for p in POINTS]


def test_run_points_parallel_matches_serial():
    serial = run_points(_square, POINTS, jobs=1)
    for jobs in (2, 4):
        assert run_points(_square, POINTS, jobs=jobs) == serial


def test_parallel_simulation_results_identical():
    """Full simulator runs fanned across workers return bit-identical
    rates in point order."""
    points = [{"mode": m, "cores": c}
              for m in ("everywhere", "threads-original")
              for c in (1, 4)]
    serial = run_points(_rate, points, jobs=1)
    fanned = run_points(_rate, points, jobs=2)
    assert [repr(r) for r in fanned] == [repr(r) for r in serial]


def test_sweep_run_jobs_matches_serial():
    sweep = Sweep(name="t", params={"x": [1, 2, 3], "offset": [0, 1]})
    rows_a = sweep.run(_square_row)
    rows_b = sweep.run(_square_row, jobs=2)
    assert [(r.params, r.outputs) for r in rows_a] == \
        [(r.params, r.outputs) for r in rows_b]
    assert rows_a[0].outputs == {"y": 1}


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_BENCH_JOBS", "4")
    assert default_jobs() == 4
    monkeypatch.setenv("REPRO_BENCH_JOBS", "0")
    assert default_jobs() == 1  # clamped
    monkeypatch.setenv("REPRO_BENCH_JOBS", "banana")
    assert default_jobs() == 1  # malformed -> serial


def test_progress_called_serially():
    seen = []
    run_points(_square, POINTS[:4], jobs=1, progress=seen.append)
    assert seen == POINTS[:4]


def test_scaling_run_times_each_worker_count():
    walls = scaling_run(_square, POINTS[:4], jobs_list=(1, 2))
    assert set(walls) == {1, 2}
    assert all(rec["wall_sec"] >= 0 for rec in walls.values())
    # every jobs point carries the host's CPU count so sub-unity
    # "speedups" on oversubscribed hosts are attributable, not noise
    assert all(rec["cpu_count"] >= 1 for rec in walls.values())


def test_scaling_run_records_rss_and_dispatch_overhead():
    """Every jobs record must explain itself from the JSON alone: the
    pool's fixed dispatch cost, the chunking used, and the parent/worker
    memory high-water marks."""
    walls = scaling_run(_square, POINTS[:6], jobs_list=(1, 2))
    for jobs, rec in walls.items():
        assert rec["dispatch_sec"] >= 0
        assert rec["chunk_size"] == chunk_size(6, jobs)
        assert rec["rss_self_kb"] > 0
        assert rec["rss_children_kb"] >= 0


def test_chunk_size_floor_and_scaling():
    assert chunk_size(35, 4) == max(1, 35 // 16) == 2
    assert chunk_size(3, 4) == 1     # never zero
    assert chunk_size(0, 1) == 1
    assert chunk_size(400, 2) == 50  # ~4 chunks per worker


def test_chunked_dispatch_keeps_per_point_checkpoints(tmp_path):
    """Chunked pool tasks still checkpoint one file per point, and a
    resume returns byte-identical rows in the original order."""
    ckpt = str(tmp_path / "ckpt")
    fanned = run_points(_square, POINTS, jobs=3, checkpoint_dir=ckpt)
    files = [f for f in sorted((tmp_path / "ckpt").iterdir())
             if f.name.startswith("point-")]
    assert len(files) == len(POINTS)  # one checkpoint per point, not chunk
    resumed = run_points(_square, POINTS, jobs=3, checkpoint_dir=ckpt,
                         resume=True)
    assert resumed == fanned == run_points(_square, POINTS, jobs=1)


def test_chunked_dispatch_csv_byte_identical(tmp_path):
    sweep = Sweep(name="t", params={"x": [1, 2, 3, 4], "offset": [0, 1]})
    serial = tmp_path / "serial.csv"
    fanned = tmp_path / "fanned.csv"
    sweep.to_csv(sweep.run(_square_row), str(serial))
    sweep.to_csv(sweep.run(_square_row, jobs=3), str(fanned))
    assert fanned.read_bytes() == serial.read_bytes()


def test_worker_exception_propagates():
    with pytest.raises(TypeError):
        run_points(_square, [{"x": "nope"}, {"x": 1}], jobs=2)


def test_auto_jobs_defaults_to_cpu_count():
    # The serve orchestrator's sizing bugfix: never oversubscribe the
    # host by default (jobs > cpus is pure dispatch overhead — see
    # auto_jobs' docstring).
    assert auto_jobs(cpu_count=4) == 4
    assert auto_jobs(cpu_count=1) == 1


def test_auto_jobs_caps_explicit_requests_at_cpu_count():
    assert auto_jobs(requested=8, cpu_count=2) == 2
    assert auto_jobs(requested=8, cpu_count=2, oversubscribe=True) == 8
    assert auto_jobs(requested=2, cpu_count=8) == 2  # honor smaller asks


def test_auto_jobs_never_exceeds_point_count():
    assert auto_jobs(cpu_count=16, n_points=3) == 3
    assert auto_jobs(requested=8, cpu_count=16, n_points=1) == 1


def test_auto_jobs_is_always_at_least_one():
    assert auto_jobs(requested=0, cpu_count=4) == 1
    assert auto_jobs(requested=-3, cpu_count=4) == 1
    assert auto_jobs(cpu_count=0) == 1
    assert auto_jobs(n_points=0, cpu_count=4) == 1
