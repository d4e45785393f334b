"""Outside-only layer tracing for the stack benchmark.

Nothing under ``src/`` changes: :class:`SpanRecorder` replaces the
*public* callables named in :data:`LAYER_ENTRY_POINTS` with timing
wrappers for the duration of a traced round and restores them after.
Every wrapped call is a span on one in-memory span stack; a span's
*self time* is its duration minus the part its child spans cover, so
layer totals add up to the covered wall time with nothing counted twice.
Plain functions get one span per call; generator entry points
(``yield from comm.Isend(...)``) get one span per *resume*, because a
generator's host cost is spread over every time the kernel wakes it.

All numbers here are host-clock. Counts that must repeat bit-for-bit
(`C` metrics) come from the simulated objects themselves through
:func:`repro.obs.collect_world`, never from a clock.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["LAYER_ENTRY_POINTS", "SpanRecorder", "probe_kernel",
           "probe_matching"]

_SYNC = [f"repro.sim.sync:{cls}.{meth}" for cls, meths in (
    ("Lock", ("acquire", "release", "try_acquire")),
    ("Gate", ("open", "reset", "wait")),
    ("Barrier", ("wait",)),
    ("Mailbox", ("put", "get", "try_get")),
    ("Semaphore", ("post", "wait")),
) for meth in meths]

_CHECK_HOOKS = (
    "on_spawn", "on_resume", "lock_acquired", "lock_released",
    "gate_opened", "gate_passed", "barrier_arrive", "barrier_release",
    "barrier_depart", "mailbox_put", "mailbox_got", "meet_arrive",
    "meet_depart", "on_channel_send", "on_channel_recv", "on_request_new",
    "on_msg_join", "on_request_complete", "on_request_access",
    "on_request_join", "on_rma_sync", "on_rma_op",
)

#: ``(layer, "module:Class.method" | "module:function")`` — every public
#: callable the traced pass wraps. The layer name is the metric prefix.
LAYER_ENTRY_POINTS: list[tuple[str, str]] = [
    # Every driver reaches the kernel through World.run/run_all (a snap
    # recording slices the same loop through Simulator.run_steps), so
    # these two spans are "the simulator ran"; what no inner span claims
    # is kernel dispatch plus unwrapped coroutine bodies.
    ("sim", "repro.runtime.world:World.run"),
    ("sim", "repro.runtime.world:World.run_all"),
    *[("sim.sync", target) for target in _SYNC],
    ("mpi.comm", "repro.mpi.comm:Communicator.Isend"),
    ("mpi.comm", "repro.mpi.comm:Communicator.Irecv"),
    ("mpi.comm", "repro.mpi.request:waitall"),
    ("mpi.library.issue", "repro.mpi.library:MpiLibrary.issue_from_thread"),
    ("mpi.library.issue", "repro.mpi.library:MpiLibrary.issue_async"),
    ("mpi.library.issue", "repro.mpi.library:MpiLibrary.issue_async_batch"),
    ("mpi.library.deliver", "repro.mpi.library:MpiLibrary.deliver"),
    *[("mpi.matching", f"repro.mpi.matching:MatchingEngine.{meth}")
      for meth in ("post_recv", "incoming", "probe", "claim_unexpected",
                   "cancel_posted")],
    *[("netsim.nic", f"repro.netsim.nic:HardwareContext.{meth}")
      for meth in ("issue", "issue_batch", "issue_event")],
    ("netsim.fabric", "repro.netsim.fabric:Fabric.transmit"),
    ("netsim.fabric", "repro.netsim.fabric:Fabric.transmit_batch"),
    ("netsim.topology", "repro.netsim.topology.graph:Topology.route"),
    ("netsim.topology",
     "repro.netsim.topology.routed:RoutedFabric.register_node"),
    ("netsim.topology",
     "repro.netsim.topology.routed:RoutedFabric.latency_for"),
    ("faults", "repro.faults.transport:ReliableTransport.send"),
    ("faults", "repro.faults.transport:ReliableTransport.intercept"),
    ("faults", "repro.faults.injector:FaultInjector.wire_actions"),
    ("faults", "repro.faults.injector:FaultInjector.stall_until"),
    ("faults", "repro.faults.injector:FaultInjector.note_failover"),
    *[("check", f"repro.check.checker:Checker.{hook}")
      for hook in _CHECK_HOOKS],
    ("snap", "repro.snap.state:capture_state"),
    ("snap", "repro.snap.state:state_digest"),
    ("apps", "repro.scenarios.apps:AppAdapter.run"),
]


class SpanRecorder:
    """One span stack plus per-layer totals for a traced round.

    ``calls`` counts invocations (a generator counts once, however often
    it is resumed), ``self_s`` is the summed self time and ``total_s``
    the summed span duration, all keyed by layer. ``worlds`` collects
    every :class:`repro.runtime.world.World` built while installed, so
    the workload can harvest exact simulated counters after each
    operation.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.sim_events = 0
        self.worlds: list[Any] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping --------------------------------------------------
    def _close(self, layer: str, started: float, frame: list[float]) -> None:
        """Pop ``frame`` and charge its self time to ``layer``."""
        duration = time.perf_counter() - started
        self._stack.pop()
        self.self_s[layer] += duration - frame[0]
        self.total_s[layer] += duration
        if self._stack:
            self._stack[-1][0] += duration

    def _wrap_function(self, layer: str, orig: Callable) -> Callable:
        stack = self._stack
        close = self._close
        calls = self.calls
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[layer] += 1
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                close(layer, started, frame)
        return traced

    def _wrap_generator(self, layer: str, orig: Callable) -> Callable:
        stack = self._stack
        close = self._close
        calls = self.calls
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            # A real generator (not a proxy object), so `yield from`,
            # `sim.spawn` and generator introspection keep working; each
            # resume of the wrapped generator is one span.
            calls[layer] += 1
            gen = orig(*args, **kwargs)
            value: Any = None
            exc: Any = None
            while True:
                frame = [0.0]
                stack.append(frame)
                started = clock()
                try:
                    if exc is None:
                        out = gen.send(value)
                    else:
                        out = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close(layer, started, frame)
                try:
                    value, exc = (yield out), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as thrown:  # re-thrown into `gen`
                    value, exc = None, thrown
        return traced

    def _wrap_world_run(self, orig: Callable) -> Callable:
        """``World.run``/``run_all`` span that also counts kernel events."""
        inner = self._wrap_function("sim", orig)

        def traced(world: Any, *args: Any, **kwargs: Any) -> Any:
            before = world.sim.steps
            try:
                return inner(world, *args, **kwargs)
            finally:
                self.sim_events += world.sim.steps - before
        return traced

    # -- install / uninstall -----------------------------------------------
    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_ENTRY_POINTS`."""
        for layer, target in LAYER_ENTRY_POINTS:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            orig = owner.__dict__[attr]
            if layer == "sim":
                new = self._wrap_world_run(orig)
            elif inspect.isgeneratorfunction(orig):
                new = self._wrap_generator(layer, orig)
            else:
                new = self._wrap_function(layer, orig)
            self._patch(owner, attr, new)
            if not owner_name:
                # `from .x import f` copies the function into the
                # importer's namespace; rebind those copies too.
                for other in list(sys.modules.values()):
                    if (other is not module
                            and getattr(other, "__name__", "").startswith(
                                "repro.")
                            and other.__dict__.get(attr) is orig):
                        self._patch(other, attr, new)
        from repro.runtime.world import World
        recorder = self
        orig_init = World.__dict__["__init__"]

        def tracked_init(world: Any, *args: Any, **kwargs: Any) -> None:
            orig_init(world, *args, **kwargs)
            recorder.worlds.append(world)
        self._patch(World, "__init__", tracked_init)

    def uninstall(self) -> None:
        """Restore every callable :meth:`install` replaced."""
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    # -- exact simulated counters --------------------------------------------
    def harvest(self, counters: dict[str, float]) -> None:
        """Fold the structural counters of every world built since the
        last harvest into ``counters`` and release the worlds."""
        from repro.obs import MetricsRegistry, collect_world
        for world in self.worlds:
            registry = MetricsRegistry()
            collect_world(world, registry)
            acquisitions = registry.series("vci.lock.acquisitions")
            ratios = registry.series("vci.lock.contention_ratio")
            counters["lock_acquires"] += sum(g.value for g in acquisitions)
            counters["lock_contended"] += sum(
                round(a.value * r.value)
                for a, r in zip(acquisitions, ratios))
            for key, name in (("match_scans", "match.total_scans"),
                              ("recvs_completed", "mpi.recvs_completed"),
                              ("topo_hops", "topo.link.messages"),
                              ("retransmits", "transport.total.retransmits")):
                counters[key] += sum(g.value for g in registry.series(name))
        self.worlds.clear()


# -- probes: one layer's public function driven directly ---------------------
def probe_kernel(n_procs: int = 8, timeouts_per_proc: int = 50_000) -> float:
    """Kernel events per host second: timeout churn on the default engine
    (the ceiling for ``sim.events`` / ``sim.run_self_s``)."""
    from repro.sim.calendar import make_simulator

    def ping(sim: Any, n: int) -> Any:
        for _ in range(n):
            yield sim.timeout(1e-9)

    sim = make_simulator()
    for _ in range(n_procs):
        sim.spawn(ping(sim, timeouts_per_proc))
    started = time.perf_counter()
    sim.run()
    return sim.steps / (time.perf_counter() - started)


def probe_matching(depth: int = 512, rounds: int = 2_000) -> float:
    """Matching operations per host second at queue depth ``depth``: post
    ``depth`` receives, then ``rounds`` arrivals that match the queue
    tail, re-posting after each."""
    import numpy as np
    from repro.mpi.matching import MatchingEngine, PostedRecv
    from repro.netsim.message import MessageKind, WireMessage

    engine = MatchingEngine()
    buf = np.zeros(1, dtype=np.uint8)

    def post(tag: int) -> None:
        engine.post_recv(PostedRecv(req=None, buf=buf, count=1, context_id=0,
                                    source=0, tag=tag, dst_addr=0))

    for tag in range(depth):
        post(tag)
    tail = depth - 1
    started = time.perf_counter()
    for _ in range(rounds):
        entry, _ = engine.incoming(WireMessage(
            kind=MessageKind.EAGER, src_node=0, dst_node=0, src_rank=0,
            dst_rank=0, context_id=0, tag=tail, size=1, payload=None,
            meta={"src_addr": 0, "dst_addr": 0}))
        if entry is None:
            raise RuntimeError("matching probe: the tail receive did not "
                               "match")
        post(tail)
    return 2 * rounds / (time.perf_counter() - started)
