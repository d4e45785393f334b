"""Parallel execution of independent sweep points.

Every sweep point is a self-contained simulation: it builds its own
:class:`~repro.sim.core.Simulator`, seeds its own RNGs, and shares no
mutable state with any other point. Results are therefore bit-identical
whether points run serially or fanned out across worker processes — the
executor only changes *host* wall-clock, never simulated results (the
same simulated-cost vs host-cost separation as the indexed matching
engine; see ``docs/performance.md``).

The executor uses the ``fork`` start method so workers inherit the parent's
imported modules (no per-worker interpreter/numpy start-up, and functions
defined in script-style modules such as the ``benchmarks/`` suite remain
reachable). Where ``fork`` is unavailable (non-POSIX hosts) or a single
job is requested, points run serially in-process.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = ["auto_jobs", "chunk_size", "default_jobs", "point_key",
           "run_points", "scaling_run"]


def default_jobs(env: str = "REPRO_BENCH_JOBS") -> int:
    """Worker count from the environment (``REPRO_BENCH_JOBS``), else 1.

    The benchmark suite stays serial unless explicitly told otherwise:
    parallel workers skew per-point host-time measurements on busy
    machines, so fan-out is opt-in.
    """
    try:
        return max(1, int(os.environ.get(env, "1")))
    except ValueError:
        return 1


def auto_jobs(requested: Optional[int] = None,
              n_points: Optional[int] = None,
              cpu_count: Optional[int] = None,
              oversubscribe: bool = False) -> int:
    """Worker count that never oversubscribes the host by default.

    The ``scaling_run`` records showed why: at ``jobs > cpu_count`` the
    fork pool's *dispatch* overhead (IPC, scheduling) is pure loss — on
    the 1-CPU CI host, jobs=2/4 ran the Fig 1(a) sweep *slower* than
    serial (0.85x / 0.80x).
    So the sizing rule consulted by the serve orchestrator is:

    - ``requested is None`` — use every CPU, no more (``os.cpu_count()``);
    - explicit ``requested`` — honored, but capped at the CPU count
      unless ``oversubscribe=True`` (tests and latency-insensitive
      fan-out may deliberately oversubscribe);
    - never more workers than ``n_points`` (idle workers are pure
      start-up cost), and always at least 1.

    ``cpu_count`` overrides host detection (for tests).
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    cpus = max(1, cpus)
    jobs = cpus if requested is None else max(1, int(requested))
    if not oversubscribe:
        jobs = min(jobs, cpus)
    if n_points is not None:
        jobs = min(jobs, max(1, int(n_points)))
    return max(1, jobs)


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return None


def point_key(point: dict) -> str:
    """Stable content key for a sweep point's parameters.

    The key is a SHA-256 of the canonical JSON of the (sorted) parameter
    mapping, so it survives process restarts and does not depend on
    parameter order. Used to name per-point checkpoint files.
    """
    blob = json.dumps(point, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


_PENDING = object()  # sentinel: point not yet computed / not checkpointed


class _PointStore:
    """Per-point result checkpoints for crash-safe, resumable campaigns.

    One JSON file per point under ``directory``, named by
    :func:`point_key` and written atomically (tmp + ``os.replace``), so a
    killed campaign leaves only whole checkpoints behind. Results must be
    JSON-serializable; floats survive the round-trip exactly (``repr``
    shortest-round-trip), so a resumed campaign's rows are byte-identical
    to an uninterrupted one.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, point: dict) -> str:
        return os.path.join(self.directory, f"point-{point_key(point)}.json")

    def load(self, point: dict) -> Any:
        """The checkpointed result for ``point``, or ``_PENDING``.

        Truncated/corrupt files (a crash mid-``os.replace`` cannot produce
        one, but a full disk can) read as pending and are recomputed.
        """
        try:
            with open(self._path(point), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return _PENDING
        if payload.get("point") != _jsonable(point):
            return _PENDING  # key collision or stale directory: recompute
        return payload["result"]

    def save(self, point: dict, result: Any) -> None:
        """Atomically persist ``result`` for ``point``."""
        path = self._path(point)
        tmp = path + ".tmp"
        payload = {"point": _jsonable(point), "result": result}
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"),
                      default=str)
        os.replace(tmp, path)


def _jsonable(point: dict) -> dict:
    """The point as it round-trips through JSON (for equality checks)."""
    return json.loads(json.dumps(point, sort_keys=True, default=str))


def chunk_size(n_points: int, jobs: int) -> int:
    """Points per pool task: ``max(1, n_points // (4 * jobs))``.

    One pool task per point is pure IPC overhead when points are tiny (a
    35-point Fig 1(a) sweep pays 35 pickle/unpickle round-trips for
    milliseconds of work each). Batching ~4 chunks per worker keeps the
    dispatch cost bounded while leaving enough chunks on the queue for
    work stealing: a worker that drew short chunks comes back for more
    while a worker stuck on a long chunk keeps just that one.
    """
    return max(1, n_points // (4 * max(1, jobs)))


def _run_chunk(fn: Callable[..., Any], kwds_list: list[dict]) -> list[Any]:
    """Run one chunk of points in a worker (module-level: pool tasks are
    pickled by name even under the ``fork`` start method)."""
    return [fn(**kwds) for kwds in kwds_list]


def run_points(fn: Callable[..., Any], points: Sequence[dict],
               jobs: int = 1,
               progress: Optional[Callable[[dict], None]] = None,
               checkpoint_dir: Optional[str] = None,
               resume: bool = False) -> list[Any]:
    """Run ``fn(**point)`` for every point; returns results in point order.

    ``jobs > 1`` fans the points across a ``fork`` process pool in
    chunks of :func:`chunk_size` points per pool task (work-stealing:
    idle workers pull the next chunk off the shared queue). Results are
    returned in the order of ``points`` regardless of completion order,
    so the output — and any CSV built from it — is byte-identical to a
    serial run for deterministic ``fn``. ``progress`` (serial path only)
    is called with each point before it runs — worker processes cannot
    usefully stream progress to the parent's terminal.

    ``checkpoint_dir`` persists every completed point's result as an
    atomic per-point JSON file the moment it completes (in the parent,
    via the pool's completion callback), so a killed campaign loses only
    in-flight points. ``resume=True`` loads existing checkpoints and runs
    only the missing points; because ``fn`` is deterministic per point
    and JSON round-trips floats exactly, a resumed campaign returns rows
    byte-identical to an uninterrupted one.
    """
    points = list(points)
    store = _PointStore(checkpoint_dir) if checkpoint_dir else None
    results: list[Any] = [_PENDING] * len(points)
    todo = list(range(len(points)))
    if store is not None and resume:
        todo = []
        for i, point in enumerate(points):
            cached = store.load(point)
            if cached is _PENDING:
                todo.append(i)
            else:
                results[i] = cached
    if not todo:
        return results
    if jobs <= 1 or len(todo) <= 1:
        for i in todo:
            if progress is not None:
                progress(points[i])
            results[i] = fn(**points[i])
            if store is not None:
                store.save(points[i], results[i])
        return results
    ctx = _fork_context()
    if ctx is None:  # pragma: no cover - non-POSIX hosts
        return run_points(fn, points, jobs=1, progress=progress,
                          checkpoint_dir=checkpoint_dir, resume=resume)
    jobs = min(jobs, len(todo))
    size = chunk_size(len(points), jobs)
    chunks = [todo[lo:lo + size] for lo in range(0, len(todo), size)]
    with ctx.Pool(processes=jobs) as pool:
        pending = []
        for indices in chunks:
            callback = None
            if store is not None:
                # Completion callbacks run in the parent: every point of
                # a chunk is checkpointed (one file per point, as before
                # chunking) the moment its worker returns the chunk, not
                # at the end of the campaign.
                def callback(chunk_results, _indices=tuple(indices)):
                    for j, result in zip(_indices, chunk_results):
                        store.save(points[j], result)
            pending.append((indices, pool.apply_async(
                _run_chunk, (fn, [points[j] for j in indices]),
                callback=callback)))
        for indices, handle in pending:
            for j, result in zip(indices, handle.get()):
                results[j] = result
    return results


def _noop_point(**_kwargs: Any) -> None:
    """Zero-work point function: times the executor's dispatch overhead."""
    return None


def _max_rss_kb() -> dict[str, int]:
    """Peak RSS of this process and its reaped children, in KiB."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return {"rss_self_kb": 0, "rss_children_kb": 0}
    return {
        "rss_self_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "rss_children_kb": int(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
    }


def scaling_run(fn: Callable[..., Any], points: Iterable[dict],
                jobs_list: Sequence[int]) -> dict[int, dict[str, Any]]:
    """Time the full point set at each worker count.

    Returns ``{jobs: {"wall_sec", "cpu_count", "dispatch_sec",
    "chunk_size", "rss_self_kb", "rss_children_kb"}}``. Every record
    carries what judging it against the host needs, so a saved record
    explains itself without rerunning anything:

    - ``cpu_count`` — ``jobs > cpu_count`` cannot beat serial, and a
      gate that ignores that tracks noise;
    - ``dispatch_sec`` — wall-clock of dispatching the same point set
      with a zero-work function at the same fan-out: the pool's fixed
      IPC/scheduling cost, i.e. the floor a sweep's wall-clock cannot
      go below no matter how fast the points get;
    - ``chunk_size`` / ``rss_*_kb`` — how the work was batched and the
      memory high-water marks (parent and reaped workers), so an
      oversubscription or swap stall is attributable after the fact.
    """
    import time
    points = list(points)
    walls: dict[int, dict[str, Any]] = {}
    for jobs in jobs_list:
        t0 = time.perf_counter()
        run_points(fn, points, jobs=jobs)
        wall = time.perf_counter() - t0
        t1 = time.perf_counter()
        run_points(_noop_point, [dict(p) for p in points], jobs=jobs)
        dispatch = time.perf_counter() - t1
        record: dict[str, Any] = {
            "wall_sec": wall,
            "cpu_count": os.cpu_count() or 1,
            "dispatch_sec": dispatch,
            "chunk_size": chunk_size(len(points), jobs),
        }
        record.update(_max_rss_kb())
        walls[jobs] = record
    return walls
