"""Discrete-event simulation kernel.

This module provides the event loop on which the whole reproduction runs:
simulated MPI processes, threads, NIC hardware contexts, and the fabric are
all cooperative tasks scheduled on a :class:`Simulator`.

The design is a deliberately small SimPy-style kernel:

- an :class:`Event` is a one-shot occurrence with a value and callbacks;
- a :class:`Process` wraps a Python generator; each ``yield`` suspends the
  task until the yielded event triggers;
- the :class:`Simulator` owns the clock and a binary heap of scheduled
  events and executes them in ``(time, priority, sequence)`` order, so runs
  are fully deterministic.

Simulated time is a ``float`` in **seconds**. Determinism is load-bearing
for the reproduction: two runs with identical parameters produce identical
simulated timings, which makes the benchmark shapes stable and the tests
exact.
"""

from __future__ import annotations

import gc
import heapq
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "SimulationError",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]

# Priorities for events scheduled at the same timestamp. Urgent is used for
# event-triggering chains (e.g. a lock handoff) that must run before newly
# scheduled same-time timeouts.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, bad yield, ...)."""


class Event:
    """A one-shot simulation event.

    An event goes through three states: *pending* (created), *triggered*
    (value set and scheduled on the simulator heap), and *processed*
    (callbacks executed). Once triggered, an event carries either a value
    (success) or an exception (failure).
    """

    # ``_seq`` is the schedule sequence number, written at enqueue time by
    # the calendar engine (:mod:`repro.sim.calendar`), which stores bare
    # events in its buckets instead of the heap engine's
    # ``(time, priority, seq, event)`` tuples. It is deliberately left
    # unset here: the heap engine never reads it, and initializing it
    # would tax every event allocation.
    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered",
                 "_processed", "_seq")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_URGENT) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._enqueue(self, 0.0, priority)
        return self

    def fail(self, exc: BaseException, priority: int = PRIORITY_URGENT) -> "Event":
        """Trigger the event as failed with exception ``exc``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self.sim._enqueue(self, 0.0, priority)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self._processed:
            fn(self)
        else:
            assert self.callbacks is not None
            self.callbacks.append(fn)

    def _process(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            # Most events have exactly one waiter; skip the loop setup.
            if len(callbacks) == 1:
                callbacks[0](self)
            else:
                for fn in callbacks:
                    fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.9f}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._enqueue(self, delay, PRIORITY_NORMAL)


class Process(Event):
    """A cooperative task wrapping a generator.

    The process is itself an event: it triggers with the generator's return
    value (or its unhandled exception) when the generator finishes, so
    processes can ``yield`` other processes to join them.
    """

    __slots__ = ("gen", "name", "_waiting_on", "_pid", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        self._pid = sim._next_pid
        sim._next_pid += 1
        sim._processes[self._pid] = self
        if sim.checker is not None:
            sim.checker.on_spawn(self)
        # The resume callback is bound once: creating a fresh bound method
        # on every suspend is measurable across millions of events. (This
        # makes each Process part of a reference cycle with itself; the
        # collect() on run() exit reclaims completed ones.)
        self._resume_cb = self._resume
        # Bootstrap: start the generator at the current simulation time.
        # Built by hand (a pre-triggered bare Event carrying the resume
        # callback) to keep spawn off the succeed/add_callback slow path.
        bootstrap = Event.__new__(Event)
        bootstrap.sim = sim
        bootstrap.callbacks = [self._resume_cb]
        bootstrap._value = None
        bootstrap._exc = None
        bootstrap._triggered = True
        bootstrap._processed = False
        sim._enqueue(bootstrap, 0.0, PRIORITY_NORMAL)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    # Completed processes are dropped from the simulator's task table (the
    # deadlock report only needs live tasks; retaining every process ever
    # spawned leaks memory over long sweeps).
    def succeed(self, value: Any = None, priority: int = PRIORITY_URGENT) -> "Event":
        self.sim._processes.pop(self._pid, None)
        return super().succeed(value, priority)

    def fail(self, exc: BaseException, priority: int = PRIORITY_URGENT) -> "Event":
        self.sim._processes.pop(self._pid, None)
        return super().fail(exc, priority)

    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        sim = self.sim
        if sim.checker is not None:
            sim.checker.on_resume(self, trigger)
        sim._active_process = self
        try:
            if trigger._exc is not None:
                target = self.gen.throw(trigger._exc)
            else:
                target = self.gen.send(trigger._value)
        except StopIteration as stop:
            sim._active_process = None
            if not self._triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            if not self._triggered:
                self.fail(exc)
                return
            raise
        sim._active_process = None
        # Fast suspend: the overwhelmingly common yield is a fresh,
        # still-pending Timeout from this simulator.
        if type(target) is Timeout and target.sim is sim \
                and not target._processed:
            self._waiting_on = target
            target.callbacks.append(self._resume_cb)
            return
        if not isinstance(target, Event) or target.sim is not sim:
            self.gen.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances from their own simulator"))
            return
        self._waiting_on = target
        if target._processed:
            self._resume(target)
        else:
            target.callbacks.append(self._resume_cb)


class AllOf(Event):
    """Triggers when all given events have triggered successfully.

    Its value is the list of the constituent values, in input order. If any
    constituent fails, the AllOf fails with that exception (first failure
    wins).
    """

    __slots__ = ("_pending", "_results", "_failed", "_children")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        # The checker joins the clocks of joined child processes when a
        # task resumes from an AllOf; without a checker the reference is
        # dropped so completed children stay collectable.
        self._children = events if sim.checker is not None else None
        self._results: list[Any] = [None] * len(events)
        self._pending = len(events)
        self._failed = False
        if not events:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            ev.add_callback(lambda e, i=i: self._on_child(e, i))

    def _on_child(self, ev: Event, index: int) -> None:
        if self._failed or self._triggered:
            return
        if ev._exc is not None:
            self._failed = True
            self.fail(ev._exc)
            return
        self._results[index] = ev._value
        self._pending -= 1
        if self._pending == 0:
            self.succeed(list(self._results))


class AnyOf(Event):
    """Triggers when the first of the given events triggers."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        if not events:
            raise ValueError("AnyOf requires at least one event")
        for i, ev in enumerate(events):
            ev.add_callback(lambda e, i=i: self._on_child(e, i))

    def _on_child(self, ev: Event, index: int) -> None:
        if self._triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
        else:
            self.succeed((index, ev._value))


class Simulator:
    """The discrete-event loop: clock + scheduled-event heap."""

    #: Maximum number of dead Timeout shells kept for reuse.
    _POOL_MAX = 1024

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Installed by ``World(check=...)``: a :class:`repro.check.Checker`
        #: observing this simulator, or None. Hook sites guard on this so
        #: an unchecked run pays one attribute test per site.
        self.checker = None
        self.steps = 0
        #: Live processes by spawn id (for deadlock diagnostics); completed
        #: processes remove themselves so long sweeps don't accumulate.
        self._processes: dict[int, Process] = {}
        self._next_pid = 0
        #: Next MPI request id (:class:`repro.mpi.request.Request` numbers
        #: itself per simulator, so ids are a function of the run alone).
        self._next_rid = 0
        #: Recycled Timeout shells (see :meth:`timeout` and :meth:`run`).
        self._timeout_pool: list[Timeout] = []
        #: Extra report providers consulted when a deadlock is detected
        #: (see :meth:`add_diagnostic`).
        self._diagnostics: list[Callable[[], list[str]]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event construction helpers --------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Schedule a timeout — the kernel's dominant allocation.

        Fast path: pop a recycled shell off the free-list (dead timeouts
        are returned by the run loop once provably unreferenced) and
        enqueue it directly, skipping ``Timeout.__init__``.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            t = pool.pop()
            t.delay = delay
            t._value = value
            t._exc = None
            t._triggered = True
            t._processed = False
            t.callbacks = []
            self._seq += 1
            heapq.heappush(self._heap,
                           (self._now + delay, PRIORITY_NORMAL, self._seq, t))
            return t
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new cooperative task from a generator."""
        return Process(self, gen, name)

    # alias matching simpy vocabulary
    process = spawn

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- deadlock diagnostics ---------------------------------------------
    def add_diagnostic(self, fn: Callable[[], list[str]]) -> None:
        """Register a provider of extra deadlock-report lines.

        When the event heap runs dry while a ``run(until=event)`` target is
        still pending, the simulator raises a report that names every
        blocked task; providers registered here (e.g. the runtime's
        per-rank pending-MPI-state dump) append domain detail to it.
        """
        self._diagnostics.append(fn)

    def _deadlock_report(self, limit: int = 25) -> str:
        """Build the deadlock diagnosis raised from :meth:`run`."""
        lines = ["simulation ran out of events before the awaited event "
                 "triggered (deadlock?)"]
        blocked = [p for p in self._processes.values() if p.is_alive]
        if blocked:
            lines.append(f"blocked tasks ({len(blocked)}):")
            for p in blocked[:limit]:
                target = p._waiting_on
                if target is None:
                    what = "not yet resumed"
                elif isinstance(target, Process):
                    what = f"joining task {target.name!r}"
                else:
                    what = f"waiting on {type(target).__name__}"
                lines.append(f"  - {p.name}: {what}")
            if len(blocked) > limit:
                lines.append(f"  ... and {len(blocked) - limit} more")
        for fn in self._diagnostics:
            try:
                lines.extend(fn())
            except Exception as exc:  # a broken provider must not mask
                lines.append(f"(diagnostic provider failed: {exc!r})")
        return "\n".join(lines)

    # -- scheduling -------------------------------------------------------
    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))

    # -- schedule introspection -------------------------------------------
    # These three methods are the engine-agnostic view of the pending
    # schedule. Snapshot capture (:mod:`repro.snap.state`) and the snap
    # session driver consume them instead of reaching into ``_heap``, so
    # alternative engines (:mod:`repro.sim.calendar`) only need to
    # override them to stay digest-compatible.
    def pending_entries(self) -> list[tuple[float, int, int, Event]]:
        """Pending ``(when, priority, seq, event)`` entries in execution
        order — the canonical schedule view captured by state digests."""
        return sorted(self._heap, key=lambda entry: entry[:3])

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None when drained."""
        return self._heap[0][0] if self._heap else None

    def queue_empty(self) -> bool:
        """True when no events remain scheduled."""
        return not self._heap

    def step(self) -> None:
        """Process the single next event."""
        when, _prio, _seq, event = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError("time went backwards")
        self._now = when
        self.steps += 1
        event._process()

    def run_steps(self, n: int, horizon: Optional[float] = None,
                  stop_event: Optional[Event] = None) -> int:
        """Process up to ``n`` events; returns the number processed.

        This is the sliced-execution primitive behind snapshotting and
        record-replay (:mod:`repro.snap`): a driver alternates
        ``run_steps`` slices with zero-footprint state captures, and the
        event sequence is *identical* to an uninterrupted :meth:`run` —
        slicing schedules nothing and perturbs no sequence numbers.

        Early-stop conditions (all leave the remaining events queued):

        - the heap runs dry;
        - ``horizon`` is given and the next event lies strictly beyond it
          (the clock is *not* advanced to the horizon — callers that need
          :meth:`run`'s clamp semantics apply it themselves);
        - ``stop_event`` is given and becomes processed (checked after
          each event, exactly like ``run(until=event)``).
        """
        heap = self._heap
        pool = self._timeout_pool
        pool_max = self._POOL_MAX
        pop = heapq.heappop
        processed = 0
        while processed < n and heap:
            if horizon is not None and heap[0][0] > horizon:
                break
            when, _prio, _seq, event = pop(heap)
            if when < self._now:
                raise SimulationError("time went backwards")
            self._now = when
            self.steps += 1
            processed += 1
            event._processed = True
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for fn in callbacks:
                        fn(event)
            if type(event) is Timeout and len(pool) < pool_max \
                    and getrefcount(event) == 2:
                event._value = None
                pool.append(event)
            if stop_event is not None and stop_event._processed:
                break
        return processed

    def run(self, until: Optional[float | Event] = None,
            max_steps: Optional[int] = None) -> Any:
        """Run the simulation.

        ``until`` may be a time (run until the clock passes it), an
        :class:`Event` (run until it is processed; returns its value), or
        ``None`` (run until no events remain). ``max_steps`` guards against
        runaway loops.
        """
        start_steps = self.steps
        # The three loop variants below inline :meth:`step` — the heap pop,
        # clock advance and callback dispatch are the kernel's innermost
        # loop, and a method call per event is measurable across millions
        # of events. Dead timeouts are recycled onto the free-list when the
        # refcount proves nothing else holds them (exactly the pop'd local
        # and the getrefcount argument), so pooling can never resurrect an
        # event some process or user still watches.
        #
        # Cyclic GC is suspended for the duration of the loop: the kernel
        # allocates one-or-more short-lived objects per event, and gen-0
        # collections triggered mid-run cost real host time without freeing
        # anything the free-list and refcounting don't already handle. This
        # is purely a host-side optimization — collection timing can never
        # affect simulated results. A collect() on exit reclaims the
        # generator-frame cycles that completed processes leave behind.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(until, max_steps, start_steps)
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect(0)

    def _run(self, until: Optional[float | Event], max_steps: Optional[int],
             start_steps: int) -> Any:
        heap = self._heap
        pop = heapq.heappop
        pool = self._timeout_pool
        pool_max = self._POOL_MAX
        if isinstance(until, Event):
            target = until
            while not target._processed:
                if not heap:
                    raise SimulationError(self._deadlock_report())
                if max_steps is not None and self.steps - start_steps >= max_steps:
                    raise SimulationError(f"exceeded max_steps={max_steps}")
                when, _prio, _seq, event = pop(heap)
                if when < self._now:
                    raise SimulationError("time went backwards")
                self._now = when
                self.steps += 1
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for fn in callbacks:
                            fn(event)
                if type(event) is Timeout and len(pool) < pool_max \
                        and getrefcount(event) == 2:
                    event._value = None
                    pool.append(event)
            return target.value
        if until is None:
            while heap:
                if max_steps is not None and self.steps - start_steps >= max_steps:
                    raise SimulationError(f"exceeded max_steps={max_steps}")
                when, _prio, _seq, event = pop(heap)
                if when < self._now:
                    raise SimulationError("time went backwards")
                self._now = when
                self.steps += 1
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for fn in callbacks:
                            fn(event)
                if type(event) is Timeout and len(pool) < pool_max \
                        and getrefcount(event) == 2:
                    event._value = None
                    pool.append(event)
            return None
        horizon = float(until)
        while heap and heap[0][0] <= horizon:
            if max_steps is not None and self.steps - start_steps >= max_steps:
                raise SimulationError(f"exceeded max_steps={max_steps}")
            self.step()
        self._now = max(self._now, horizon)
        return None
