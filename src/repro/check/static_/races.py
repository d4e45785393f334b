"""Lockset + static happens-before race detection (S301-S303, S307, S310).

The happens-before approximation is purely structural: two thread-region
instances are concurrent when their spawn→join windows overlap inside
one spawner (``all_of``/``run_all`` close every open window), and a
spawner's own statement races with a region exactly when it executes
inside that region's open window. Accesses under a common lock, inside
sibling branches of one ``if``, or restricted to a single instance by a
``param == const`` guard are ordered/exclusive and never reported.

The bias is asymmetric on purpose: report only when the conflicting
coordinates are *provably* identical (same shared object, equal constant
channel/target coordinates). Unknown or thread-dependent values are
assumed disjoint — missed races are the dynamic checker's job.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .findings import StaticFinding
from .model import Access, ModuleModel, Region, _branch_compatible

__all__ = ["check_races"]

#: Request accesses that conflict with each other (CHK101's access set).
_REQ_CONFLICT = frozenset({"wait", "test", "cancel"})


def _instance_pairs(model: ModuleModel) -> Iterable[
        tuple[Region, Region, bool]]:
    """Pairs of region instances that can run concurrently. The bool
    marks a *self* pair (two instances of one multi-spawned region)."""
    for i, a in enumerate(model.regions):
        if a.many:
            yield a, a, True
        for b in model.regions[i + 1:]:
            if a.concurrent_with(b):
                yield a, b, a.func is b.func


def _shared_req(model: ModuleModel, acc: Access,
                regions: tuple[Region, ...]) -> bool:
    """Whether the access touches a request object shared across the
    given instances (not a per-frame local of either region body)."""
    if acc.obj is None or acc.obj not in model.request_keys:
        return False
    return all(acc.obj.scope != r.func.qualname for r in regions)


def _ordered(a: Access, b: Access, self_pair: bool) -> bool:
    """True when something orders or separates the two accesses."""
    if a.locks & b.locks:
        return True
    if not _branch_compatible(a.branches, b.branches):
        return True
    # A `param == const` guard on a multi-instance region keeps the
    # access on a single instance: two guarded accesses of a self pair
    # are the same instance, hence program-ordered.
    if self_pair and a.guarded and b.guarded:
        return True
    return False


def _spawner_window_accesses(model: ModuleModel,
                             region: Region) -> list[Access]:
    """Spawner statements executing while ``region``'s window is open."""
    return [acc for pos, acc in
            model.spawner_accesses[region.spawner.qualname]
            if region.start_pos < pos < region.end_pos]


def check_races(model: ModuleModel) -> list[StaticFinding]:
    """Run every concurrency rule over the model."""
    out: list[StaticFinding] = []
    seen: set[tuple] = set()

    def emit(rule_id: str, message: str, acc: Access,
             key: tuple, **extra: object) -> None:
        dedup = (rule_id,) + key
        if dedup in seen:
            return
        seen.add(dedup)
        out.append(StaticFinding(
            rule_id, message, model.path, acc.line, acc.col,
            function=acc.func.qualname,
            extra={str(k): v for k, v in extra.items()}))

    for ra, rb, self_pair in _instance_pairs(model):
        _check_pair(model, emit, ra, rb, list(ra.accesses),
                    list(rb.accesses), self_pair)

    for region in model.regions:
        spawner_accs = _spawner_window_accesses(model, region)
        if spawner_accs:
            _check_pair(model, emit, region, region,
                        list(region.accesses), spawner_accs,
                        self_pair=False, vs_spawner=True)

    out.extend(_check_lock_order(model))
    return out


def _check_pair(model: ModuleModel, emit, ra: Region, rb: Region,
                accs_a: list[Access], accs_b: list[Access],
                self_pair: bool, vs_spawner: bool = False) -> None:
    regions = (ra,) if vs_spawner else (ra, rb)
    # Note: `a is b` pairs stay in — the same source access executed by
    # two concurrent instances is exactly how a multi-spawned region
    # races with itself; program order never spans instances.
    for a in accs_a:
        for b in accs_b:
            if _ordered(a, b, self_pair):
                continue
            # -- S301: request race --------------------------------
            if a.kind in _REQ_CONFLICT and b.kind in _REQ_CONFLICT \
                    and a.obj is not None and a.obj == b.obj \
                    and _shared_req(model, a, regions):
                other = ("the spawning scope" if vs_spawner
                         else f"instance of {rb.func.qualname!r}")
                emit("S301",
                     f"request {a.obj.describe()!r} may be "
                     f"{a.kind}ed here concurrently with a "
                     f"{b.kind} in a concurrent {other} "
                     f"(line {b.line}); no join or common lock orders "
                     f"the accesses", a,
                     key=(a.obj, min(a.line, b.line), max(a.line, b.line)),
                     request=a.obj.describe(), other_line=b.line)
            # -- S302: channel collision ---------------------------
            if a.kind == b.kind and a.kind in ("send", "recv") \
                    and a.comm_id is not None and a.comm_id == b.comm_id \
                    and a.comm_shared and b.comm_shared \
                    and a.peer.is_const and a.tag.is_const \
                    and a.peer == b.peer and a.tag == b.tag \
                    and not (self_pair and (a.guarded or b.guarded)):
                emit("S302",
                     f"two concurrent thread regions {a.kind} on "
                     f"communicator {a.comm!r} with identical constant "
                     f"coordinates (peer={a.peer.value!r}, "
                     f"tag={a.tag.value!r}); message order on the "
                     f"channel is undefined (here and line {b.line})", a,
                     key=(a.comm, a.kind, a.peer.value, a.tag.value),
                     comm=a.comm, peer=a.peer.value, tag=a.tag.value)
            # -- S307: RMA race ------------------------------------
            if a.kind == "rma" and b.kind == "rma" \
                    and a.obj is not None and a.obj == b.obj \
                    and "Put" in (a.op, b.op) \
                    and "Accumulate" not in (a.op, b.op) \
                    and a.peer.is_const and a.peer == b.peer \
                    and a.tag.is_const and a.tag == b.tag:
                emit("S307",
                     f"conflicting nonatomic RMA accesses ({a.op} vs "
                     f"{b.op}) on window {a.obj.describe()!r} target "
                     f"{a.peer.value!r} disp {a.tag.value!r} from "
                     f"concurrent thread regions (here and line "
                     f"{b.line})", a,
                     key=(a.obj, a.peer.value, a.tag.value),
                     window=a.obj.describe())
            # -- S310 (concurrent half): collectives in flight -----
            if a.kind == "collective" and b.kind == "collective" \
                    and a.comm_id is not None and a.comm_id == b.comm_id \
                    and a.comm_shared and b.comm_shared \
                    and not (a.guarded or b.guarded):
                emit("S310",
                     f"collective {a.op} on communicator {a.comm!r} may "
                     f"overlap a concurrent {b.op} on the same "
                     f"communicator (line {b.line}); MPI requires "
                     f"collectives on one communicator to be serial", a,
                     key=(a.comm, min(a.line, b.line),
                          max(a.line, b.line)),
                     comm=a.comm)


# -- S303: lock-order cycles ---------------------------------------------

def _check_lock_order(model: ModuleModel) -> list[StaticFinding]:
    edges: dict[str, set[str]] = {}
    sites: dict[tuple[str, str], Access] = {}
    for accs in model.spawner_accesses.values():
        for _, acc in accs:
            if acc.kind != "lock-acquire" or acc.obj is None:
                continue
            for held in acc.locks:
                if held == acc.obj.name:
                    continue
                edges.setdefault(held, set()).add(acc.obj.name)
                sites.setdefault((held, acc.obj.name), acc)
    out: list[StaticFinding] = []
    reported: set[frozenset[str]] = set()
    for start in sorted(edges):
        cycle = _find_cycle(edges, start)
        if cycle is None:
            continue
        key = frozenset(cycle)
        if key in reported:
            continue
        reported.add(key)
        acc = sites[(cycle[0], cycle[1])]
        out.append(StaticFinding(
            "S303",
            f"lock acquisition order cycle: {' -> '.join(cycle)} -> "
            f"{cycle[0]}; these locks can deadlock under an adversarial "
            f"schedule", model.path, acc.line, acc.col,
            function=acc.func.qualname,
            extra={"locks": sorted(key)}))
    return out


def _find_cycle(edges: dict[str, set[str]],
                start: str) -> Optional[list[str]]:
    """A cycle through ``start`` in the acquisition graph, if any."""
    path: list[str] = [start]
    on_path = {start}

    def dfs(node: str) -> Optional[list[str]]:
        for nxt in sorted(edges.get(node, ())):
            if nxt == start:
                return list(path)
            if nxt in on_path:
                continue
            path.append(nxt)
            on_path.add(nxt)
            found = dfs(nxt)
            if found is not None:
                return found
            on_path.discard(nxt)
            path.pop()
        return None

    return dfs(start)
