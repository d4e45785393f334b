"""The result store: one point, one file, one key.

Every completed point — run by ``repro sweep``, ``repro campaign`` or a
served job — persists as one atomic JSON file, keyed by the canonical
JSON of ``(cache version, point kind, point parameters)``: the full
(program, config, seed) triple that determines a simulation. Two points
collide on a key only if their canonical parameter JSON is
byte-identical, in which case they *are* the same simulation; the stored
key record is verified on load, so even a SHA-256 filename collision (or
a foreign, truncated or hand-edited file) reads as a miss and is
recomputed, never as a wrong result.

:data:`SERVE_CACHE_VERSION` embeds the SNAP/STATE format versions, so
bumping either snapshot format invalidates every stored result at once —
stale keys simply never match again. A completed point is therefore
reused wherever it is asked for again and a stale reuse is impossible by
construction; there is no separate "resume" mode.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Optional

from ..snap import SNAP_VERSION, STATE_FORMAT_VERSION

__all__ = ["SERVE_CACHE_VERSION", "PENDING", "ResultCache", "cache_key",
           "cache_record", "json_roundtrip"]

#: Cache-key version, derived here and nowhere else. ``serve1-memo1`` is
#: a frozen label (stores written since PR 10 carry it), the rest tracks
#: the snapshot formats.
SERVE_CACHE_VERSION = (f"serve1-memo1-snap{SNAP_VERSION}"
                       f"-state{STATE_FORMAT_VERSION}")

#: Sentinel returned by :meth:`ResultCache.load` for a miss.
PENDING = object()


def json_roundtrip(result: Any) -> Any:
    """``result`` as JSON reads it back (tuples become lists, ...).

    Every point and result is normalized this way whether it was
    computed in this process, served by a socket worker or loaded from
    the store — so all of them are byte-identical.
    """
    return json.loads(json.dumps(result, default=str))


def cache_record(kind: str, point: dict) -> dict:
    """The full key record stored (and verified) with each result."""
    return {"kind": "serve-result", "version": SERVE_CACHE_VERSION,
            "point_kind": kind, "point": point}


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=str)


def _key(blob: str) -> str:
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def cache_key(kind: str, point: dict) -> str:
    """Stable content key for one (point kind, parameters) pair.

    A SHA-256 of the canonical key record, so it survives restarts and
    does not depend on parameter order. Also the orchestrator's dedupe
    identity: two queued points with the same key are the same
    simulation, so only one ever runs at a time.
    """
    return _key(_canonical(cache_record(kind, point)))


class ResultCache:
    """Persistent, content-addressed store of completed points.

    ``load`` returns :data:`PENDING` on a miss and the byte-identical
    JSON result on a hit; ``save`` writes ``point-<key>.json`` atomically
    (tmp + ``os.replace``), so a killed run leaves only whole files
    behind. Floats survive the round-trip exactly (``repr``
    shortest-round-trip). ``directory=None`` disables persistence (every
    load misses) — the orchestrator code path stays identical either way.
    """

    def __init__(self, directory: Optional[str]):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)
        #: Lifetime hit/miss counts (also mirrored into the service's
        #: metrics registry by the orchestrator).
        self.hits = 0
        self.misses = 0

    def _entry(self, kind: str, point: dict) -> tuple[str, dict]:
        """File path and key record (as JSON reads it back) of a point."""
        blob = _canonical(cache_record(kind, point))
        return (os.path.join(self.directory, f"point-{_key(blob)}.json"),
                json.loads(blob))

    def load(self, kind: str, point: dict) -> Any:
        """The stored result for ``(kind, point)``, or :data:`PENDING`.

        Anything but a whole JSON object carrying this exact key record
        and a ``"result"`` is a miss: the point is recomputed and the
        file overwritten.
        """
        if self.directory:
            path, record = self._entry(kind, point)
            try:
                with open(path, encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, ValueError, RecursionError):
                payload = None
            if (isinstance(payload, dict) and "result" in payload
                    and payload.get("point") == record):
                self.hits += 1
                return payload["result"]
        self.misses += 1
        return PENDING

    def save(self, kind: str, point: dict, result: Any) -> None:
        """Atomically persist ``result`` for ``(kind, point)``."""
        if not self.directory:
            return
        path, record = self._entry(kind, point)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_canonical({"point": record, "result": result}))
        os.replace(tmp, path)

    def __len__(self) -> int:
        if not self.directory or not os.path.isdir(self.directory):
            return 0
        return sum(1 for name in os.listdir(self.directory)
                   if name.startswith("point-") and name.endswith(".json"))
