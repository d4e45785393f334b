"""Canonical state capture: every layer's mutable state as one JSON tree.

:func:`capture_state` walks a :class:`~repro.runtime.world.World` and
returns a plain-JSON tree covering the sim kernel (clock, step count,
event heap, live tasks), the RNG streams, every rank's MPI library
(counters, rendezvous handshakes, per-VCI locks/servers/matching queues
including tombstone bookkeeping), the netsim (NIC hardware contexts,
in-flight fabric packets, reliable-transport flows), the fault injector's
decision stream, and the metrics/trace instruments.

The tree is *canonical*: identical simulations at the same step produce
byte-identical :func:`canonical_json` encodings, so :func:`state_digest`
equality is the project's definition of "the same state". Two rules make
that work:

- nothing host-dependent enters the tree — object ids and host clocks
  are excluded (messages are identified by their protocol fields, which
  are a pure function of the simulation);
- floats are serialized by ``repr`` (shortest round-trip form), so digest
  equality is exact float equality, never tolerance-based.

Dict keys are stringified with :func:`canon_key` and every mapping is
emitted sorted, so insertion order never leaks into the digest.
"""

from __future__ import annotations

import enum
import hashlib
import json
import sys
from collections import deque
from dataclasses import is_dataclass
from typing import Any, Iterable, Optional

from ..mpi.matching import PostedRecv
from ..mpi.request import Request
from ..netsim.message import WireMessage
from ..netsim.nic import HardwareContext
from ..sim.core import Event, Process, Timeout, _waiting_kind
from .version import STATE_FORMAT_VERSION

__all__ = ["capture_state", "canonical_json", "state_digest",
           "diff_states", "prune_state", "canon_key", "describe_value",
           "STATE_FORMAT_VERSION"]

#: Depth cap for user payload description — deep enough for every wire
#: payload the library produces, shallow enough to stop runaway graphs.
_MAX_DEPTH = 8

#: ``json.dumps(value, sort_keys=True, separators=(",", ":"),
#: allow_nan=True)`` without building an encoder per call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           allow_nan=True).encode


def canon_key(key: Any) -> str:
    """Deterministic string form for an arbitrary mapping key."""
    if isinstance(key, str):
        return key
    if isinstance(key, (bool, int, float)) or key is None:
        return repr(key)
    if isinstance(key, enum.Enum):
        return f"{type(key).__name__}.{key.name}"
    if isinstance(key, tuple):
        return "(" + ",".join(canon_key(k) for k in key) + ")"
    return f"<{type(key).__name__}>"


def describe_value(value: Any, depth: int = 0) -> Any:
    """Reduce an arbitrary simulation value to canonical JSON-able form."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    if depth >= _MAX_DEPTH:
        return {"__deep__": type(value).__name__}
    # Nothing is a numpy value before numpy is imported, and a capture
    # does not import it for a run that never did.
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, (np.integer, np.floating, np.bool_)):
            return value.item()
        if isinstance(value, np.ndarray):
            data = np.ascontiguousarray(value)
            return {"__ndarray__": [
                list(value.shape), str(value.dtype),
                hashlib.sha256(data.tobytes()).hexdigest()]}
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": [len(value),
                              hashlib.sha256(bytes(value)).hexdigest()]}
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, WireMessage):
        return describe_message(value, depth + 1)
    if isinstance(value, PostedRecv):
        return describe_posted(value, depth + 1)
    if isinstance(value, Request):
        return {"__request__": {"kind": value.kind,
                                "completed": value._completed,
                                "vci": getattr(value.vci, "index", None)}}
    if isinstance(value, Process):
        return {"__task__": {"pid": value._pid, "name": value.name,
                             "alive": value.is_alive}}
    if isinstance(value, Event):
        return {"__event__": {"kind": type(value).__name__,
                              "triggered": value._triggered,
                              "processed": value._processed}}
    # The sender's clock in ``WireMessage.meta["_hb"]``: described as the
    # ``{pid: counter}`` mapping it stands for, not as the tuple it is
    # (hence before the sequence branch). Only a checker publishes one,
    # so none exists before its module is imported.
    hb = sys.modules.get("repro.check.hb")
    if hb is not None and isinstance(value, hb.PublishedClock):
        return describe_value(value.mapping(), depth)
    if isinstance(value, (list, tuple, deque)):
        return [describe_value(v, depth + 1) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(canon_key(v) for v in value)}
    if isinstance(value, dict):
        return {canon_key(k): describe_value(v, depth + 1)
                for k, v in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        fields = {f: describe_value(getattr(value, f), depth + 1)
                  for f in value.__dataclass_fields__}
        return {"__dataclass__": type(value).__name__, "fields": fields}
    return {"__obj__": type(value).__name__}


def describe_message(msg: WireMessage, depth: int = 0) -> dict[str, Any]:
    """Canonical description of one wire message.

    Every field described is a pure function of the simulation; the
    per-flow ``rel_seq`` ordering identifies the message exactly. The
    rendezvous correlation handle ``meta["rid"]`` is a request id — per
    simulator since PR 7, so a function of the run as well — and stays
    omitted only because the digests pinned across the test suite were
    taken without it.
    """
    meta = msg.meta
    if isinstance(meta, dict) and "rid" in meta:
        meta = {k: v for k, v in meta.items() if k != "rid"}
    return {
        "kind": msg.kind.value,
        "src_node": msg.src_node, "dst_node": msg.dst_node,
        "src_rank": msg.src_rank, "dst_rank": msg.dst_rank,
        "context_id": msg.context_id, "tag": msg.tag, "size": msg.size,
        "src_vci": msg.src_vci, "dst_vci": msg.dst_vci,
        "stream_seq": msg.stream_seq,
        "payload": describe_value(msg.payload, depth + 1),
        "meta": describe_value(meta, depth + 1),
        "rel_flow": canon_key(msg.rel_flow) if msg.rel_flow is not None
                    else None,
        "rel_seq": msg.rel_seq,
        "checksum": msg.checksum,
    }


def describe_posted(entry: PostedRecv, depth: int = 0) -> dict[str, Any]:
    """Canonical description of one posted receive (``req.rid`` omitted,
    as :func:`describe_message` omits ``meta["rid"]``)."""
    return {
        "context_id": entry.context_id, "source": entry.source,
        "tag": entry.tag, "dst_addr": entry.dst_addr, "seq": entry.seq,
        "count": entry.count,
        "buf": describe_value(entry.buf, depth + 1),
    }


def _callback_name(fn: Any) -> str:
    """Stable name for an event callback (bound methods dominate)."""
    owner = getattr(fn, "__self__", None)
    name = getattr(getattr(fn, "__func__", fn), "__qualname__",
                   type(fn).__name__)
    if owner is not None and "." not in name:
        name = f"{type(owner).__name__}.{name}"
    return name


def _describe_heap_event(event: Event) -> dict[str, Any]:
    desc: dict[str, Any] = {"kind": type(event).__name__,
                            "triggered": event._triggered}
    if isinstance(event, Timeout):
        desc["delay"] = event.delay
    if isinstance(event, Process):
        desc["task"] = {"pid": event._pid, "name": event.name}
    if event._exc is not None:
        desc["exc"] = type(event._exc).__name__
    if event._value is not None:
        desc["value"] = describe_value(event._value, 1)
    if event.callbacks:
        desc["callbacks"] = [_callback_name(fn) for fn in event.callbacks]
    return desc


def _kernel_state(sim: Any) -> dict[str, Any]:
    # ``pending_entries()`` is the schedule as (when, prio, seq, event)
    # entries in execution order, whatever structure holds it — so the
    # digest is also comparable with the heap oracle of tests/oracles.py.
    heap = [[when, prio, seq, _describe_heap_event(ev)]
            for when, prio, seq, ev in sim.pending_entries()]
    tasks = {}
    for pid, proc in sorted(sim._processes.items()):
        target = proc._waiting_on
        if target is None:
            waiting = "unresumed"
        elif isinstance(target, Process):
            waiting = f"join:{target.name}"
        else:
            waiting = _waiting_kind(target)
        tasks[str(pid)] = {"name": proc.name, "waiting_on": waiting}
    return {"now": sim._now, "steps": sim.steps, "seq": sim._seq,
            "next_pid": sim._next_pid, "heap": heap, "tasks": tasks}


def _server_state(server: Any) -> dict[str, Any]:
    stats = server.stats
    return {"free_at": server._free_at, "requests": stats.requests,
            "busy_time": stats.busy_time,
            "total_queue_delay": stats.total_queue_delay}


def _lock_state(lock: Any) -> dict[str, Any]:
    stats = lock.stats
    return {"locked": lock.locked, "waiters": lock.queue_length,
            "acquisitions": stats.acquisitions,
            "contended": stats.contended_acquisitions,
            "total_wait_time": stats.total_wait_time,
            "total_hold_time": stats.total_hold_time,
            "max_queue_length": stats.max_queue_length}


def engine_state(engine: Any) -> dict[str, Any]:
    """Canonical matching-engine state, comparable across implementations.

    The logical queues (live posted receives and unexpected messages in
    FIFO order) and the analytic counters are what any implementation of
    the matching rules must agree on (``tests/test_matching_indexed.py``
    holds the production engine to a linear-scan oracle on exactly
    these), so they form the comparable core; implementation-private
    bookkeeping (tombstone counts, wildcard side-index state) goes under
    ``internals`` where :func:`prune_state` can drop it when comparing
    different engine implementations.
    """
    return {
        "max_posted_depth": engine.max_posted_depth,
        "max_unexpected_depth": engine.max_unexpected_depth,
        "total_scans": engine.total_scans,
        "posted": [describe_value(e, 1) for e in engine.live_posted()],
        "unexpected": [describe_value(m, 1)
                       for m in engine.live_unexpected()],
        "internals": engine.internals(),
    }


def _transport_state(transport: Any) -> Optional[dict[str, Any]]:
    if transport is None:
        return None
    inflight = {}
    for flow, pending in transport._inflight.items():
        inflight[canon_key(flow)] = [
            [seq, rec.retries, rec.acked, describe_message(rec.msg, 1)]
            for seq, rec in sorted(pending.items())]
    recv = {}
    for flow, st in transport._recv.items():
        recv[canon_key(flow)] = {
            "next_seq": st.next_seq,
            "buffer": [[seq, describe_message(m, 1)]
                       for seq, m in sorted(st.buffer.items())]}
    return {
        "send_seq": {canon_key(f): s
                     for f, s in transport._send_seq.items()},
        "inflight": inflight, "recv": recv,
        "data_sent": transport.data_sent,
        "retransmits": transport.retransmits,
        "acks_sent": transport.acks_sent,
        "acks_received": transport.acks_received,
        "dup_suppressed": transport.dup_suppressed,
        "corrupt_dropped": transport.corrupt_dropped,
        "ooo_buffered": transport.ooo_buffered,
    }


def _context_state(ctx: Any) -> dict[str, Any]:
    return {"index": ctx.index, "messages_issued": ctx.messages_issued,
            "bytes_issued": ctx.bytes_issued, "sharers": ctx.sharers,
            "jitter_state": ctx._jitter_state,
            "failovers_in": ctx.failovers_in,
            "stall_waits": ctx.stall_waits,
            "injector": _server_state(ctx.injector),
            "doorbell": _lock_state(ctx.doorbell_lock)}


#: ``slot index -> (pristine record, its canonical JSON text)``: what
#: :func:`_context_state` says of a context nothing has touched yet, which
#: depends on the slot index alone (see :class:`~repro.netsim.nic.Nic`).
#: One record per index therefore describes the unbuilt slots of every NIC
#: of every world. Captured trees *share* these records, so they are
#: read-only, and :func:`canonical_json` knows them by identity.
_PRISTINE: dict[int, tuple[dict[str, Any], str]] = {}


def _nic_state(nic: Any) -> dict[str, Any]:
    """A NIC's pool; an unbuilt slot is its index's pristine record, made
    once by capturing a throwaway context so it cannot drift from the
    class. Nothing is built on the NIC itself."""
    contexts = []
    for index, ctx in enumerate(nic.slots()):
        if ctx is not None:
            contexts.append(_context_state(ctx))
            continue
        entry = _PRISTINE.get(index)
        if entry is None:
            record = _context_state(
                HardwareContext(nic.sim, index, nic.params))
            entry = _PRISTINE[index] = (record, _encode(record))
        contexts.append(entry[0])
    return {"next": nic._next, "contexts": contexts}


def _proc_state(proc: Any) -> dict[str, Any]:
    lib = proc.lib
    vcis = {}
    for index in sorted(lib.vci_pool._vcis):
        vci = lib.vci_pool._vcis[index]
        vcis[str(index)] = {
            "sends": vci.sends, "recvs": vci.recvs,
            "lock": _lock_state(vci.lock),
            "match_server": _server_state(vci.match_server),
            "hw_context": vci.hw_context.index,
            "engine": engine_state(vci.engine),
        }
    return {
        "sends_posted": lib.sends_posted,
        "recvs_posted": lib.recvs_posted,
        "recvs_completed": lib.recvs_completed,
        "bytes_sent": lib.bytes_sent,
        "next_ep_vci": lib._next_ep_vci,
        "rndv_sends": [describe_value(st, 1)
                       for st in lib._rndv_sends.values()],
        "rndv_recvs": [describe_posted(entry, 1)
                       for entry in lib._rndv_recvs.values()],
        "vcis": vcis,
        "transport": _transport_state(lib.transport),
    }


def _rng_state(rng: Any) -> dict[str, Any]:
    streams = {}
    for name in sorted(rng._streams):
        st = rng._streams[name].bit_generator.state
        streams[name] = describe_value(st, 1)
    return {"seed": rng.seed, "streams": streams}


def _trace_state(tracer: Any) -> Optional[dict[str, Any]]:
    if tracer is None:
        return None
    digest = hashlib.sha256()
    for rec in tracer.records:
        entry = [rec.time, rec.category.name,
                 describe_value(rec.payload, 1)]
        digest.update(canonical_json(entry).encode("utf-8"))
        digest.update(b"\n")
    return {"records": len(tracer.records), "span_seq": tracer._span_seq,
            "records_digest": digest.hexdigest()}


def _topology_state(topology: Any) -> Optional[dict[str, Any]]:
    """Per-link queue and counter state of a routed interconnect.

    ``None`` for direct (single-hop) worlds, keeping their trees — and
    digests — identical whether built through ``ClusterSpec`` or the
    bare dimension keywords.
    """
    if topology is None:
        return None
    return {
        "name": topology.name,
        "num_hosts": topology.num_hosts,
        "links": {link.name: {"messages": link.messages,
                              "bytes": link.bytes,
                              **_server_state(link.server)}
                  for link in topology.links()},
    }


def capture_state(world: Any) -> dict[str, Any]:
    """The full canonical state tree of a world at the current step.

    Pure observation: captures between kernel steps schedule no events,
    advance no sequence numbers, touch no RNG and build no simulation
    object (an unused NIC slot stays unbuilt), so a run interleaved with
    captures is byte-identical to an uninterrupted one. The tree shares
    the pristine hardware-context records with every other capture:
    treat it as read-only.
    """
    meetings = {canon_key(k): {"arrived": m.arrived, "expected": m.expected}
                for k, m in world._meetings.items()}
    state: dict[str, Any] = {
        "format": STATE_FORMAT_VERSION,
        "kernel": _kernel_state(world.sim),
        "rng": _rng_state(world.rng),
        "world": {
            "num_nodes": world.num_nodes,
            "procs_per_node": world.procs_per_node,
            "threads_per_proc": world.threads_per_proc,
            "max_vcis_per_proc": world.max_vcis_per_proc,
            "next_context": world._next_context,
            "meetings": meetings,
        },
        "procs": {str(p.rank): _proc_state(p) for p in world.procs},
        "nics": {str(node.node_id): _nic_state(node.nic)
                 for node in world.nodes},
        "fabric": {
            "messages_delivered": world.fabric.messages_delivered,
            "bytes_delivered": world.fabric.bytes_delivered,
            "ingress": {str(n): _server_state(s)
                        for n, s in sorted(world.fabric._ingress.items())},
            "egress": {str(n): _server_state(s)
                       for n, s in sorted(world.fabric._egress.items())},
        },
        "topology": _topology_state(getattr(world.fabric, "topology", None)),
        "faults": None, "metrics": None, "trace": None, "check": None,
    }
    if world.injector is not None:
        inj = world.injector
        state["faults"] = {"rng_state": inj._state, "seed": inj.seed,
                           **inj.summary()}
    # Conditional, like the topology subtree's None: worlds without
    # background traffic keep their pre-traffic trees and digests.
    if getattr(world, "traffic", None) is not None:
        state["traffic"] = {"seed": world.traffic.seed,
                            "flow_table": [list(f) for f in
                                           world.traffic.flow_table],
                            **world.traffic.summary()}
    if world.metrics is not None:
        state["metrics"] = describe_value(world.metrics.snapshot(), 1)
    state["trace"] = _trace_state(world.tracer)
    if world.checker is not None:
        chk = world.checker
        state["check"] = {
            "violations": [[v.rule_id, v.time, v.task]
                           for v in chk.violations],
            "dropped": chk.dropped,
        }
    return state


def _object_json(obj: Any, member_json: Any) -> str:
    """What :func:`_encode` emits for ``obj``; when that is a str-keyed
    dict, each member's text comes from ``member_json(key, value)``."""
    if type(obj) is not dict or not all(type(k) is str for k in obj):
        return _encode(obj)
    return "{" + ",".join([f"{_encode(k)}:{member_json(k, v)}"
                           for k, v in sorted(obj.items())]) + "}"


def _state_member_json(key: str, value: Any) -> str:
    if key != "nics":
        return _encode(value)
    return _object_json(
        value, lambda _, nic: _object_json(nic, _nic_member_json))


def _nic_member_json(key: str, value: Any) -> str:
    if key != "contexts" or type(value) is not list:
        return _encode(value)
    # ``is``, never ``==``: 0 == 0.0 yet they encode differently. A record
    # that merely equals a pristine one (a built-but-idle context, a tree
    # read back from a file) takes the encoder and yields the same text.
    parts = []
    for index, record in enumerate(value):
        entry = _PRISTINE.get(index)
        parts.append(entry[1] if entry is not None and record is entry[0]
                     else _encode(record))
    return "[" + ",".join(parts) + "]"


def canonical_json(state: Any) -> str:
    """The byte-stable encoding the digest is computed over:
    ``json.dumps(state, sort_keys=True, separators=(",", ":"))``.

    Nine tenths of a world's tree is hardware contexts no run touched, so
    the top level and the ``nics -> <node> -> contexts`` lists of a state
    tree are composed here — exactly as the encoder would — and each
    shared pristine record contributes its cached text; everything else,
    and every value that is not a state tree, goes through the encoder.
    """
    if type(state) is dict and "nics" in state:
        return _object_json(state, _state_member_json)
    return _encode(state)


def state_digest(state: Any) -> str:
    """SHA-256 over :func:`canonical_json`; equality == identical state."""
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


def diff_states(a: Any, b: Any, prefix: str = "",
                limit: int = 40) -> list[str]:
    """Paths at which two state trees differ (bounded, depth-first)."""
    out: list[str] = []
    _diff(a, b, prefix or "$", out, limit)
    return out


def _diff(a: Any, b: Any, path: str, out: list[str], limit: int) -> None:
    if len(out) >= limit:
        return
    if type(a) is not type(b):
        out.append(f"{path}: {type(a).__name__} != {type(b).__name__}")
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                out.append(f"{path}.{key}: only in b")
            elif key not in b:
                out.append(f"{path}.{key}: only in a")
            else:
                _diff(a[key], b[key], f"{path}.{key}", out, limit)
            if len(out) >= limit:
                return
        return
    if isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (va, vb) in enumerate(zip(a, b)):
            _diff(va, vb, f"{path}[{i}]", out, limit)
            if len(out) >= limit:
                return
        return
    if a != b and not (a != a and b != b):  # NaN == NaN for our purposes
        out.append(f"{path}: {a!r} != {b!r}")


def prune_state(state: Any, ignore: Iterable[str],
                _path: str = "$") -> Any:
    """Copy of a state tree with any path containing an ``ignore``
    substring removed — a comparison projection."""
    ignore = tuple(ignore)
    if not ignore:
        return state
    if isinstance(state, dict):
        out = {}
        for key, value in state.items():
            path = f"{_path}.{key}"
            if any(tok in path for tok in ignore):
                continue
            out[key] = prune_state(value, ignore, path)
        return out
    if isinstance(state, list):
        return [prune_state(v, ignore, f"{_path}[{i}]")
                for i, v in enumerate(state)]
    return state
