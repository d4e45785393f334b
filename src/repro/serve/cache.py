"""The result store: one point, one file, one key.

Every completed point — run by ``repro msgrate``, ``repro campaign`` or a
served job — persists as one atomic JSON file, keyed by the canonical
JSON of ``(cache version, point kind, point parameters)``: the full
(program, config, seed) triple that determines a simulation. Two points
collide on a key only if their canonical parameter JSON is
byte-identical, in which case they *are* the same simulation; the stored
key record is verified on load, so even a SHA-256 filename collision (or
a foreign, truncated or hand-edited file) reads as a miss and is
recomputed, never as a wrong result.

:data:`SERVE_CACHE_VERSION` embeds the state-tree format version, so
bumping it invalidates every stored result at once — stale keys simply
never match again. A completed point is therefore
reused wherever it is asked for again and a stale reuse is impossible by
construction; there is no separate "resume" mode.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import repeat
from typing import Any, Iterable

from ..snap import STATE_FORMAT_VERSION
from .protocol import CANONICAL_JSON, JsonEncoder

__all__ = ["SERVE_CACHE_VERSION", "PENDING", "ResultCache", "blob_key",
           "cache_key", "cache_record", "json_roundtrip", "point_blob"]

#: Cache-key version, derived here and nowhere else. ``serve1-memo1-snap2``
#: is a frozen label (every existing store carries it; the snapshot file
#: format it once named is gone), the rest tracks the state-tree format.
SERVE_CACHE_VERSION = f"serve1-memo1-snap2-state{STATE_FORMAT_VERSION}"

#: Sentinel returned by :meth:`ResultCache.load` for a miss.
PENDING = object()

# Built once: ``json.dumps`` and ``JSONEncoder.encode`` build an encoder
# per call, which is a third of the cost of serialising one small point.
# Only what JSON reads back matters here, not the bytes, so the keys stay
# in their order and the separators are compact.
_DECODER = json.JSONDecoder()
_PLAIN = JsonEncoder(sort_keys=False, separators=(",", ":"))


def json_roundtrip(result: Any) -> Any:
    """``result`` as JSON reads it back (tuples become lists, ...).

    Every point and result is normalized this way whether it was
    computed in this process, served by a socket worker or loaded from
    the store — so all of them are byte-identical.
    """
    return _DECODER.decode(_PLAIN.encode(result))


def cache_record(kind: str, point: dict) -> dict:
    """The full key record stored (and verified) with each result."""
    return {"kind": "serve-result", "version": SERVE_CACHE_VERSION,
            "point_kind": kind, "point": point}


def _canonical(record: Any) -> str:
    return CANONICAL_JSON.encode(record)


def point_blob(kind: str, point: dict) -> str:
    """The canonical key record of ``(kind, point)``: its identity text.

    Everything the store knows about a point derives from this one
    string — its key (:func:`blob_key`), its file name and the verbatim
    head of its file — so a caller that keeps the blob (the
    orchestrator does, on its :class:`PointTask`) serialises a point
    once, however often it is looked up or saved.
    """
    return _canonical(cache_record(kind, point))


def blob_key(blob: str) -> str:
    """The content key of a :func:`point_blob`."""
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def cache_key(kind: str, point: dict) -> str:
    """Stable content key for one (point kind, parameters) pair.

    A SHA-256 of the canonical key record, so it survives restarts and
    does not depend on parameter order. Also the orchestrator's dedupe
    identity: two queued points with the same key are the same
    simulation, so only one ever runs at a time.
    """
    return blob_key(point_blob(kind, point))


class ResultCache:
    """Persistent, content-addressed store of completed points.

    ``load`` returns :data:`PENDING` on a miss and the byte-identical
    JSON result on a hit; ``save`` writes ``point-<key>.json`` atomically
    (tmp + ``os.replace``), so a killed run leaves only whole files
    behind. Floats survive the round-trip exactly (``repr``
    shortest-round-trip).

    A file is ``{"point":<blob>,"result":<canonical result>}`` and
    nothing else: ``save`` writes those bytes by concatenation and
    ``load`` accepts only a file that starts with this point's own head,
    holds exactly one JSON value after it and ends with the closing
    brace. That is as exact as parsing the file and comparing records
    (the head *is* the record, canonically serialised), so a reformatted,
    foreign, torn or lying file is a miss.

    The instance remembers ``blob -> result`` for every record it saved
    (even if the write failed) or verified: it owns finished results. The
    store is content-addressed and points are deterministic, so a
    remembered result cannot be wrong, and asking again costs a
    dictionary lookup. Nothing is ever forgotten, so a caller that kept
    the results of an all-hit lookup may answer the same blobs from them
    (the orchestrator's ``Expansion.warm``). Remembered results are
    handed out as the same object every time: treat them as read-only.
    The caller counts hits. ``load``/``save`` are :meth:`load_blobs`/
    :meth:`save_blob` for callers that do not keep the blob.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._known: dict[str, Any] = {}

    def _path(self, blob: str) -> str:
        return os.path.join(self.directory, f"point-{blob_key(blob)}.json")

    def _read(self, blob: str) -> Any:
        """The result in ``blob``'s file if the file proves it, else
        :data:`PENDING`."""
        head = f'{{"point":{blob},"result":'
        try:
            with open(self._path(blob), encoding="utf-8") as fh:
                text = fh.read()
            if text.startswith(head):
                result, end = _DECODER.raw_decode(text, len(head))
                if text[end:] == "}":
                    return result
        except (OSError, ValueError, RecursionError):
            pass  # unreadable, not UTF-8, not JSON: a miss like any other
        return PENDING

    def load_blobs(self, blobs: list[str],
                   missed: Iterable[str] = ()) -> list[Any]:
        """The stored result for each point ``blobs`` name, in one pass: a
        new list, :data:`PENDING` for each miss. A file is read only for
        a blob the store has not proved and ``missed`` does not name,
        and at most once a call."""
        known = self._known
        results = list(map(known.get, blobs, repeat(PENDING)))
        if PENDING in results:
            missed = set(missed)
            for index, blob in enumerate(blobs):
                if results[index] is PENDING and blob not in missed:
                    result = known.get(blob, PENDING)
                    if result is PENDING:
                        result = self._read(blob)
                        if result is PENDING:
                            missed.add(blob)
                        else:
                            known[blob] = result
                    results[index] = result
        return results

    def save_blob(self, blob: str, result: Any) -> None:
        """Atomically persist ``result`` (a JSON document, as
        :func:`json_roundtrip` returns it) for the point ``blob`` names.
        It is remembered first, so a write that raises loses no result."""
        self._known[blob] = result
        path = self._path(blob)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f'{{"point":{blob},"result":{_canonical(result)}}}')
        os.replace(tmp, path)

    def load(self, kind: str, point: dict) -> Any:
        """The stored result for ``(kind, point)``, or :data:`PENDING`.

        Anything but this point's own file, whole, is a miss: the point
        is recomputed and the file overwritten.
        """
        return self.load_blobs([point_blob(kind, point)])[0]

    def save(self, kind: str, point: dict, result: Any) -> None:
        """Atomically persist ``result`` for ``(kind, point)``."""
        self.save_blob(point_blob(kind, point), result)

    def __len__(self) -> int:
        if not os.path.isdir(self.directory):
            return 0
        return sum(1 for name in os.listdir(self.directory)
                   if name.startswith("point-") and name.endswith(".json"))
