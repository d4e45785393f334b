"""Warm-prefix memoization for sweep executors.

Many sweep points share an expensive *warm-up prefix*: everything their
(program, config, seed) triple determines before the swept parameter
first matters — world construction, communicator duplication, endpoint
creation. This module simulates each unique prefix **once**, fingerprints
the warm world with :func:`repro.snap.state_digest`, and serves every
point that shares the fingerprint from an ``os.fork`` of the warm parent
(the :mod:`repro.snap.fork` trick: generator frames can't be pickled,
but a forked child holds them live). The digest, not the parameter
split, is the source of truth — two points belong to the same prefix
exactly when their warm worlds hash identically.

Results are also persisted across runs in the
:class:`repro.bench.parallel._PointStore` checkpoint format, keyed by
``(memo format version, warm-prefix digest, tail parameters)``. A
repeated sweep therefore re-simulates **zero** warm-ups: the prefix
digests are read back from the cache index and every point resolves to
a stored result. The memo format version embeds the SNAP/STATE format
versions, so bumping either invalidates every cached digest and result
at once (stale keys simply never match again).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..snap import SNAP_VERSION, STATE_FORMAT_VERSION
from ..snap.fork import fork_available
from .parallel import _PENDING, _PointStore

__all__ = ["MEMO_VERSION", "MemoStats", "WarmPrefixExecutor",
           "canonical_params", "json_roundtrip",
           "fig1a_executor", "FIG1A_PREFIX_KEYS"]

#: Cache-key version: any SNAP/STATE format bump invalidates every
#: cached prefix digest and memoized result (keys never match again).
MEMO_VERSION = f"memo1-snap{SNAP_VERSION}-state{STATE_FORMAT_VERSION}"


@dataclass
class MemoStats:
    """What one :meth:`WarmPrefixExecutor.run` actually did.

    ``warmups_simulated`` is the headline: a repeated sweep against a
    warm cache directory must report 0 here (asserted in the tests).
    """

    #: Warm-up prefixes simulated from scratch this run.
    warmups_simulated: int = 0
    #: Points served by forking an already-warm world (no re-warm-up).
    warmup_reuses: int = 0
    #: Points served whole from the persistent cross-run result cache.
    result_hits: int = 0
    #: Children forked to isolate per-point measurement.
    forks: int = 0
    #: Points whose tail actually executed this run.
    points_run: int = 0
    #: Digest of each warm prefix, keyed by canonical prefix JSON.
    prefix_digests: dict[str, str] = field(default_factory=dict)


def canonical_params(params: dict) -> str:
    """Canonical JSON for a parameter mapping (sorted keys, no spaces).

    The shared spelling of "these parameters, as a cache key" — the memo
    executor groups prefixes by it and :mod:`repro.serve.cache` keys the
    service's result cache with it.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"),
                      default=str)


def json_roundtrip(result: Any) -> Any:
    """``result`` as JSON reads it back (tuples become lists, ...).

    Every result is normalized this way whether it was computed live,
    ferried from a forked child, served by a socket worker, or loaded
    from the persistent cache — so all paths return byte-identical data.
    """
    return json.loads(json.dumps(result, default=str))


# Pre-service spellings, kept for callers grown before repro.serve.
_canonical = canonical_params
_roundtrip = json_roundtrip


def _prefix_record(prefix: dict) -> dict:
    """Store key for a prefix's digest (the cross-run digest index)."""
    return {"kind": "warm-prefix", "memo": MEMO_VERSION, "prefix": prefix}


def _result_record(digest: str, tail: dict) -> dict:
    """Store key for one memoized point result.

    Keyed by the *digest* of the warm prefix — not its parameters — so a
    result is only ever reused when the warm-up state it continued from
    is byte-identical to the one it was computed from.
    """
    return {"kind": "memo-result", "memo": MEMO_VERSION,
            "warm_prefix": digest, "tail": tail}


class WarmPrefixExecutor:
    """Run sweep points as (shared warm-up prefix) + (forked tail).

    ``prefix_fn(**prefix_params)`` simulates a warm-up and returns the
    warm state (anything with a ``world`` attribute, or a World itself);
    ``tail_fn(state, **tail_params)`` continues it to a JSON-able
    result. ``prefix_keys`` names the point parameters that select the
    prefix; the rest of each point is the tail. Results come back in
    point order, so CSVs built from them are ordering-stable.

    Tails mutate the warm state, so every tail but a prefix's last runs
    in a forked child (parent state stays pristine); without ``os.fork``
    the executor degrades to re-simulating the prefix per point. With
    ``cache_dir`` set, prefix digests and point results persist across
    runs in the :class:`~repro.bench.parallel._PointStore` format.
    """

    def __init__(self, prefix_fn: Callable[..., Any],
                 tail_fn: Callable[..., Any],
                 prefix_keys: Sequence[str],
                 cache_dir: Optional[str] = None,
                 digest_fn: Optional[Callable[[Any], str]] = None):
        self.prefix_fn = prefix_fn
        self.tail_fn = tail_fn
        self.prefix_keys = tuple(prefix_keys)
        self.store = _PointStore(cache_dir) if cache_dir else None
        self._digest_fn = digest_fn

    def _digest(self, state: Any) -> str:
        if self._digest_fn is not None:
            return self._digest_fn(state)
        from ..snap import capture_state, state_digest
        return state_digest(capture_state(getattr(state, "world", state)))

    def _split(self, point: dict) -> tuple[dict, dict]:
        prefix = {k: point[k] for k in self.prefix_keys if k in point}
        tail = {k: v for k, v in point.items() if k not in self.prefix_keys}
        return prefix, tail

    def run(self, points: Sequence[dict],
            stats: Optional[MemoStats] = None) -> list[Any]:
        """Run every point; returns results in point order."""
        stats = stats if stats is not None else MemoStats()
        points = list(points)
        results: list[Any] = [_PENDING] * len(points)
        groups: dict[str, list[int]] = {}
        prefixes: dict[str, dict] = {}
        for i, point in enumerate(points):
            prefix, _tail = self._split(point)
            key = _canonical(prefix)
            groups.setdefault(key, []).append(i)
            prefixes[key] = prefix
        for key, indices in groups.items():
            self._run_group(prefixes[key], key, indices, points, results,
                            stats)
        return results

    def _run_group(self, prefix: dict, key: str, indices: list[int],
                   points: list[dict], results: list[Any],
                   stats: MemoStats) -> None:
        """All points of one prefix: cache lookups, then forked tails."""
        store = self.store
        digest: Optional[str] = None
        if store is not None:
            cached = store.load(_prefix_record(prefix))
            if cached is not _PENDING:
                digest = cached
        todo = list(indices)
        if digest is not None:
            stats.prefix_digests[key] = digest
            todo = []
            for i in indices:
                _p, tail = self._split(points[i])
                cached = store.load(_result_record(digest, tail))
                if cached is _PENDING:
                    todo.append(i)
                else:
                    results[i] = cached
                    stats.result_hits += 1
        if not todo:
            return
        state = self.prefix_fn(**prefix)
        stats.warmups_simulated += 1
        actual = self._digest(state)
        if digest is not None and actual != digest:
            # The code changed under an unchanged format version: the
            # cached digest no longer describes this prefix. Distrust
            # every result served off it and recompute the whole group.
            for i in indices:
                if i not in todo and results[i] is not _PENDING:
                    results[i] = _PENDING
                    stats.result_hits -= 1
                    todo.append(i)
            todo.sort()
        digest = actual
        stats.prefix_digests[key] = digest
        if store is not None:
            store.save(_prefix_record(prefix), digest)
        can_fork = fork_available()
        for pos, i in enumerate(todo):
            _p, tail = self._split(points[i])
            last = pos == len(todo) - 1
            if last:
                # The group is done with this warm world: the final tail
                # may consume it in-process, no fork needed.
                result = _roundtrip(self.tail_fn(state, **tail))
            elif can_fork:
                result = self._tail_in_fork(state, tail)
                stats.forks += 1
            else:  # pragma: no cover - non-POSIX hosts
                result = _roundtrip(self.tail_fn(state, **tail))
                state = self.prefix_fn(**prefix)
                stats.warmups_simulated += 1
            if pos > 0:
                stats.warmup_reuses += 1
            stats.points_run += 1
            results[i] = result
            if store is not None:
                store.save(_result_record(digest, tail), result)

    def _tail_in_fork(self, state: Any, tail: dict) -> Any:
        """Run one tail in a forked child; the parent's state survives.

        The child streams its JSON-able result (or the error that killed
        it) back over a pipe and always leaves via ``os._exit``, so the
        parent's atexit/pytest machinery runs exactly once.
        """
        res_r, res_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(res_r)
            code = 0
            try:
                payload = {"result": self.tail_fn(state, **tail)}
            except BaseException as exc:  # noqa: BLE001 - ferried to parent
                payload = {"error": f"{type(exc).__name__}: {exc}"}
                code = 1
            try:
                with os.fdopen(res_w, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, default=str)
            finally:
                os._exit(code)
        os.close(res_w)
        try:
            with os.fdopen(res_r, "r", encoding="utf-8") as fh:
                text = fh.read()
        finally:
            os.waitpid(pid, 0)
        payload = json.loads(text)
        if "error" in payload:
            raise RuntimeError(
                f"memoized tail {tail!r} failed in child: {payload['error']}")
        return payload["result"]


#: The point parameters that select a Fig 1(a) warm-up prefix;
#: everything else (``msgs_per_core``) is the measured tail.
FIG1A_PREFIX_KEYS = ("mode", "cores", "msg_bytes", "window", "seed")


def _fig1a_prefix(mode: str, cores: int, msg_bytes: int = 8,
                  window: int = 16, seed: int = 0):
    from .msgrate import warm_msgrate
    return warm_msgrate(mode=mode, cores=cores, msg_bytes=msg_bytes,
                        window=window, seed=seed)


def _fig1a_tail(warm, msgs_per_core: int) -> dict[str, Any]:
    result = warm.measure(msgs_per_core)
    return {"rate": result.rate, "span": result.span,
            "messages": result.messages}


def fig1a_executor(cache_dir: Optional[str] = None) -> WarmPrefixExecutor:
    """The memoized Fig 1(a) executor: points are ``{mode, cores,
    msgs_per_core}`` dicts (plus optional ``msg_bytes``/``window``/
    ``seed``); results are ``{rate, span, messages}`` dicts."""
    return WarmPrefixExecutor(_fig1a_prefix, _fig1a_tail,
                              FIG1A_PREFIX_KEYS, cache_dir=cache_dir)
