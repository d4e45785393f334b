"""The VCI-mappability advisor (S304, S313-S315 + mechanism verdicts).

The paper's core claim is that fast MPI+threads communication is a
*contract*: the library can spread traffic across VCIs only when the
program promises, up front, that matching stays unambiguous — no
wildcard receives, disjoint per-thread channels, the right
``mpi_assert_*`` info hints. This pass classifies every communication
site against those preconditions and renders a verdict for each of the
paper's four mechanisms (tags-with-hints, per-thread communicators,
user-visible endpoints, partitioned communication): which ones the
program can legally use as written, and what blocks the rest.

Only S304 (a wildcard on a communicator that *asserted* it would never
use one) is an error — it is the static twin of CHK104. Everything else
here is ``advice`` severity: it never fails a build, it explains.
"""

from __future__ import annotations

import ast
from typing import Any, Optional

from ...mpi.info import HINT_TRUE
from .findings import StaticFinding
from .model import (Access, FuncInfo, ModuleModel, api_call, dotted,
                    own_nodes, unwrap)

__all__ = ["check_advisor"]

#: Info keys that promise wildcard-freedom.
_NO_SOURCE = "mpi_assert_no_any_source"
_NO_TAG = "mpi_assert_no_any_tag"
_OVERTAKE = "mpi_assert_allow_overtaking"


def _is_true(hints: dict[str, str], key: str) -> bool:
    """Whether a hint dict asserts ``key`` with a library-true value."""
    return str(hints.get(key, "")).strip().lower() in HINT_TRUE


def _info_hints(expr: Optional[ast.AST], model: ModuleModel,
                scope: FuncInfo,
                seen: frozenset[tuple[str, str]] = frozenset()
                ) -> dict[str, str]:
    """Info hints an expression in ``scope`` carries, best-effort."""
    if isinstance(expr, ast.Call):
        base = (dotted(expr.func) or "").rsplit(".", 1)[-1]
        if base == "listing2_info":
            return {_NO_SOURCE: "true", _NO_TAG: "true"}
        if base == "overtaking_only_info":
            return {_OVERTAKE: "true"}
        if base == "Info" and expr.args \
                and isinstance(expr.args[0], ast.Dict):
            out: dict[str, str] = {}
            for k, v in zip(expr.args[0].keys, expr.args[0].values):
                if isinstance(k, ast.Constant) \
                        and isinstance(v, ast.Constant):
                    out[str(k.value)] = str(v.value)
            return out
    if isinstance(expr, ast.Name):
        return _var_hints(expr.id, model, scope, seen)
    return {}


def _var_hints(name: str, model: ModuleModel, scope: FuncInfo,
               seen: frozenset[tuple[str, str]]) -> dict[str, str]:
    """Hints accumulated on an Info variable (construction + .set) in
    the scope that binds it; ``seen`` holds the variables on the current
    chain, so a cycle (``a = b; b = a``) ends."""
    hints: dict[str, str] = {}
    where = model.defining_scope(name, scope)
    if where is None or (where.qualname, name) in seen:
        return hints
    seen = seen | {(where.qualname, name)}
    for node in own_nodes(where.node):
        if isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets):
            hints.update(_info_hints(node.value, model, where, seen))
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "set" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == name \
                and len(node.args) >= 2 \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[1], ast.Constant):
            hints[str(node.args[0].value)] = str(node.args[1].value)
    return hints


def _comm_table(model: ModuleModel) -> dict[str, dict[str, Any]]:
    """Communicators created in the module, keyed by the scope-qualified
    identity accesses carry (:meth:`ModuleModel.comm_identity`): display
    name, ``hints`` dict, ``endpoint`` flag."""
    comms: dict[str, dict[str, Any]] = {}
    for scope in (model.root, *model.functions.values()):
        for node in own_nodes(scope.node):
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1):
                continue
            # Driver classes hold their communicator as ``self.comm``;
            # accesses carry the same dotted path.
            target = dotted(node.targets[0])
            call = unwrap(node.value)
            kind = api_call(call)[1]
            if target is None or not isinstance(call, ast.Call) \
                    or kind not in ("dup", "split", "endpoints"):
                continue
            hints = (_info_hints(call.args[0] if call.args else None,
                                 model, scope) if kind == "dup" else {})
            comms[model.comm_identity(target, scope)[0]] = {
                "comm": target, "hints": hints,
                "endpoint": kind == "endpoints"}
    return comms


def _comm_meta(comm_id: Optional[str],
               comms: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """The table entry of a communicator identity, else the entry of its
    root name (``ep`` for ``ep.comm``)."""
    if comm_id is None:
        return {}
    if comm_id in comms:
        return comms[comm_id]
    where, _, comm = comm_id.partition(":")
    return comms.get(f"{where}:{comm.split('.', 1)[0]}", {})


def check_advisor(model: ModuleModel) -> tuple[list[StaticFinding],
                                               dict[str, Any]]:
    """Advisor findings plus the mechanism-verdict summary."""
    comms = _comm_table(model)
    findings: list[StaticFinding] = []

    # Every site in every scope (wildcards matter even outside regions).
    all_accesses: list[Access] = []
    for accs in model.spawner_accesses.values():
        all_accesses.extend(a for _, a in accs)

    # -- S304: wildcard vs asserted hints (error) -----------------------
    s304_comms: set[str] = set()
    for acc in all_accesses:
        if acc.kind != "recv":
            continue
        hints = _comm_meta(acc.comm_id, comms).get("hints", {})
        for wild, hint, what in (
                (acc.wildcard_source, _NO_SOURCE, "ANY_SOURCE"),
                (acc.wildcard_tag, _NO_TAG, "ANY_TAG")):
            if wild and _is_true(hints, hint):
                s304_comms.add(acc.comm or "")
                findings.append(StaticFinding(
                    "S304",
                    f"{what} receive on communicator {acc.comm!r} which "
                    f"was constructed with {hint}=true; the hint is a "
                    f"promise the program now breaks", model.path,
                    acc.line, acc.col, function=acc.func.qualname,
                    extra={"comm": acc.comm, "hint": hint}))

    # -- S313: wildcard fast-path advice --------------------------------
    wild_sites: dict[str, list[Access]] = {}
    for acc in all_accesses:
        if acc.kind == "recv" and (acc.wildcard_source
                                   or acc.wildcard_tag):
            wild_sites.setdefault(acc.comm or "<unknown>", []).append(acc)
    for comm, accs in sorted(wild_sites.items()):
        if comm in s304_comms:
            continue
        lines = [a.line for a in accs]
        where = "a dedicated endpoint" if any(
            _comm_meta(a.comm_id, comms).get("endpoint") for a in accs) \
            else "one dedicated receiving thread/endpoint"
        findings.append(StaticFinding(
            "S313",
            f"wildcard receive(s) on communicator {comm!r} at line(s) "
            f"{sorted(set(lines))}: matching must stay serial, which "
            f"blocks the tags-with-hints fast path; confine wildcards "
            f"to {where} or remove them (paper Lesson 5)",
            model.path, min(lines), function="",
            extra={"comm": comm, "lines": sorted(set(lines))}))

    # -- Region-level channel geometry (S314/S315) ----------------------
    multi: dict[str, dict[str, Any]] = {}
    for region in model.regions:
        for acc in region.accesses:
            if acc.kind not in ("send", "recv") or acc.comm is None \
                    or not acc.comm_shared:
                continue
            entry = multi.setdefault(acc.comm_id or acc.comm, {
                "comm": acc.comm, "regions": set(), "many": False,
                "tags": {}, "wild": False, "line": acc.line})
            entry["regions"].add(region.index)
            entry["many"] |= region.many and not acc.guarded
            entry["wild"] |= acc.wildcard_source or acc.wildcard_tag
            if acc.tag.is_const:
                entry["tags"].setdefault(acc.tag.value,
                                         set()).add(region.index)

    for cid, entry in sorted(multi.items()):
        comm = entry["comm"]
        concurrent_use = len(entry["regions"]) > 1 or entry["many"]
        if not concurrent_use:
            continue
        overlapping = {t: rs for t, rs in entry["tags"].items()
                       if len(rs) > 1 or entry["many"]}
        if overlapping:
            tags = sorted(overlapping, key=repr)
            findings.append(StaticFinding(
                "S314",
                f"concurrent thread regions share constant tag(s) "
                f"{tags} on communicator {comm!r}; without disjoint "
                f"per-thread tag bits (Listing 2) the library cannot "
                f"map these threads to separate VCIs",
                model.path, entry["line"], function="",
                extra={"comm": comm, "tags": [repr(t) for t in tags]}))
        meta = _comm_meta(cid, comms)
        hints = meta.get("hints", {})
        if not entry["wild"] and not meta.get("endpoint") \
                and not _is_true(hints, _NO_SOURCE):
            findings.append(StaticFinding(
                "S315",
                f"communicator {comm!r} is driven from multiple "
                f"concurrent thread regions without mpi_assert hints; "
                f"without {_NO_SOURCE}/{_NO_TAG} (and {_OVERTAKE}) the "
                f"library must assume wildcards and serialize matching "
                f"(paper Lessons 5-6)", model.path, entry["line"],
                function="", extra={"comm": comm}))

    verdicts = _mechanisms(model, comms, wild_sites, multi)
    return findings, verdicts


def _mechanisms(model: ModuleModel, comms: dict[str, dict[str, Any]],
                wild_sites: dict[str, list[Access]],
                multi: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Per-mechanism verdicts: ok | blocked | in-use | candidate."""
    wildcard_free = not wild_sites
    overlaps = [
        (entry["comm"],
         sorted(map(repr, (t for t, rs in entry["tags"].items()
                           if len(rs) > 1 or entry["many"]))))
        for _cid, entry in sorted(multi.items())
        if any(len(rs) > 1 or entry["many"]
               for rs in entry["tags"].values())]
    uses_partitioned = any(f.partitioned_vars
                           for f in model.functions.values())
    uses_endpoints = any(meta.get("endpoint")
                         for meta in comms.values())
    hinted = sorted({meta["comm"] for meta in comms.values()
                     if _is_true(meta["hints"], _NO_SOURCE)})

    def verdict(status: str, *reasons: str) -> dict[str, Any]:
        return {"status": status, "reasons": list(reasons)}

    tags: dict[str, Any]
    if not wildcard_free:
        tags = verdict(
            "blocked",
            "wildcard receives present: matching cannot be split by tag "
            f"(comms: {sorted(wild_sites)})")
    elif overlaps:
        tags = verdict(
            "blocked",
            *[f"constant tag space overlaps across threads on {c!r}: "
              f"{ts}" for c, ts in overlaps])
    else:
        tags = verdict(
            "ok" if hinted else "ok-needs-hints",
            *([f"hints already asserted on: {hinted}"] if hinted else
              ["add mpi_assert_no_any_source/no_any_tag via Info/Dup "
               "to activate VCI spreading (Listing 2)"]))

    if wildcard_free:
        per_comm = verdict(
            "ok", "no wildcard receives: each thread can own a "
                  "duplicated communicator (paper Lesson 7)")
    else:
        per_comm = verdict(
            "blocked",
            "wildcard receives must all land on one communicator "
            "owned by a single thread before per-thread comms are "
            "legal")

    endpoints = verdict(
        "in-use" if uses_endpoints else "ok",
        "endpoints decouple matching streams from thread count"
        + ("" if wildcard_free else
           "; confine the wildcard receives to one dedicated endpoint"))

    partitioned = verdict(
        "in-use" if uses_partitioned else "candidate",
        "partitioned requests already in use" if uses_partitioned else
        "requires a persistent, statically known communication "
        "pattern; not inferable from this program (paper Lesson 15)")

    return {
        "wildcard_free": wildcard_free,
        "mechanisms": {
            "tags-with-hints": tags,
            "per-thread-comms": per_comm,
            "endpoints": endpoints,
            "partitioned": partitioned,
        },
    }
