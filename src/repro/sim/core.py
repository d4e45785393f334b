"""Discrete-event simulation kernel.

This module provides the event loop on which the whole reproduction runs:
simulated MPI processes, threads, NIC hardware contexts, and the fabric are
all cooperative tasks scheduled on a :class:`Simulator`.

The design is a deliberately small SimPy-style kernel:

- an :class:`Event` is a one-shot occurrence with a value and callbacks;
- a :class:`Process` wraps a Python generator; each ``yield`` suspends the
  task until the yielded event triggers, and a yielded ``float`` is a sleep
  of that many seconds (the task itself is scheduled, no event is built);
- the :class:`Simulator` owns the clock and a calendar queue of scheduled
  events (one bucket per distinct time) and executes them in
  ``(time, priority, sequence)`` order, so runs are fully deterministic.

Simulated time is a ``float`` in **seconds**. Determinism is load-bearing
for the reproduction: two runs with identical parameters produce identical
simulated timings, which makes the benchmark shapes stable and the tests
exact.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import (TYPE_CHECKING, Any, Callable, Generator, Iterable,
                    Iterator, Optional)

if TYPE_CHECKING:  # pragma: no cover
    from ..check.hb import TaskClock

__all__ = [
    "SimulationError",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Simulator",
    "gc_suspended",
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


@contextmanager
def gc_suspended() -> Iterator[None]:
    """Suspend cyclic GC for the life of a World's owner.

    The kernel allocates one-or-more short-lived objects per event, and
    gen-0 collections triggered mid-run cost real host time without
    freeing anything refcounting doesn't already handle.
    A World is a reference cycle (world, node, process, library and VCI
    back-pointers, each process's bound resume callback), so only the
    collector frees it. The scope therefore belongs to the World's
    *owner*, the code that builds, runs, reads and drops it:
    ``run_msgrate``, ``run_scenario`` (both as ``@gc_suspended()``) and a
    checking :class:`~repro.check.session.Session` (but not a script
    ``run_program`` runs in one). ``Simulator.run`` and ``Session.run``
    keep a scope of their own for a World run outside any owner.

    A nested scope is a no-op (the collector is already off), so the
    outermost one alone ends in ``gc.collect(0)``: everything its owner
    built is still in the young generation then, and what the owner
    dropped, its World included, is freed by that one young collection
    instead of drifting into an older generation. No scope may end while
    its World is alive, which is why ``run_app`` (it returns the World)
    is not an owner. This is purely a host-side optimization — collection
    timing can never affect simulated results.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect(0)


class Event:
    """A one-shot simulation event.

    An event goes through three states: *pending* (created), *triggered*
    (value set and scheduled on the simulator), and *processed*
    (callbacks executed). Once triggered, an event carries either a value
    (success) or an exception (failure).
    """

    # ``_seq`` is the schedule sequence number, written by the simulator
    # at enqueue time (its buckets hold bare events, not
    # ``(time, priority, seq, event)`` tuples). ``__init__`` leaves it
    # unset: nothing reads it before the enqueue, and initializing it
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
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._urgent(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed with exception ``exc``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self.sim._urgent(self)
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
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._schedule(self, delay)


class Process(Event):
    """A cooperative task wrapping a generator.

    The process is itself an event: it triggers with the generator's return
    value (or its unhandled exception) when the generator finishes, so
    processes can ``yield`` other processes to join them.
    """

    __slots__ = ("gen", "name", "_waiting_on", "_pid", "_resume_cb", "_hb")

    #: The checker's vector clock for this task: assigned by
    #: ``Checker.on_spawn`` and only ever read by the checker; None on a
    #: simulator nothing observes.
    _hb: "TaskClock"

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        #: The event the task waits on; the delay (a float) while it
        #: sleeps on a yielded one, which every reader shows as the
        #: Timeout it replaces; None while it runs or before it starts.
        self._waiting_on: Event | float | None = None
        self._pid = sim._next_pid
        sim._next_pid += 1
        sim._processes[self._pid] = self
        self._hb = None  # type: ignore[assignment]
        if sim.checker is not None:
            sim.checker.on_spawn(self)
        # The resume callback is bound once: creating a fresh bound method
        # on every suspend is measurable across millions of events. (This
        # makes each Process part of a reference cycle with itself; the
        # collect(0) that ends its World owner's gc_suspended scope
        # reclaims it with the World.)
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
        sim._schedule(bootstrap, 0.0)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    # Completed processes are dropped from the simulator's task table (the
    # deadlock report only needs live tasks; retaining every process ever
    # spawned leaks memory over long sweeps).
    def succeed(self, value: Any = None) -> "Event":
        self.sim._processes.pop(self._pid, None)
        return super().succeed(value)

    def fail(self, exc: BaseException) -> "Event":
        self.sim._processes.pop(self._pid, None)
        return super().fail(exc)

    def _resume(self, trigger: Event) -> None:
        """Run the task to its next yield: ``trigger`` is the processed
        event it waited on. (A sleep's end is the run loop's own wake-up,
        in :meth:`Simulator.run_steps`.)"""
        self._waiting_on = None
        sim = self.sim
        # Only a finished task (or a set of them) carries a clock to join.
        if sim.checker is not None and isinstance(trigger, (Process, AllOf)):
            sim.checker.on_resume(self, trigger)
        sim._active_process = self
        try:
            if trigger._exc is not None:
                target = self.gen.throw(trigger._exc)
            else:
                target = self.gen.send(trigger._value)
        except BaseException as exc:
            sim._active_process = None
            self._finish(exc)
            return
        sim._active_process = None
        # A sleep: the overwhelmingly common yield. The task's own entry
        # goes where a Timeout's would (same sum, same seq) and stands for
        # that Timeout in every view of the schedule.
        if type(target) is float and target >= 0.0:
            self._waiting_on = target
            sim._schedule(self, target)
        else:
            self._wait_on(target)

    def _finish(self, exc: BaseException) -> None:
        """The generator raised ``exc`` on a resume: a StopIteration
        succeeds the task with its return value, anything else fails it
        (or propagates, if the task already triggered)."""
        if isinstance(exc, StopIteration):
            if not self._triggered:
                self.succeed(exc.value)
        elif not self._triggered:
            self.fail(exc)
        else:
            raise exc

    def _wait_on(self, target: Any) -> None:
        """The task yielded ``target``, which is not a sleep: an event to
        wait on, or a bad yield (a negative delay, anything but an event
        of this simulator), which fails the task."""
        if type(target) is float:
            self.gen.close()
            self.fail(ValueError(f"timeout delay must be >= 0, got {target}"))
            return
        if not isinstance(target, Event) or target.sim is not self.sim:
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


class Simulator:
    """The discrete-event loop: clock + calendar queue of scheduled events.

    The schedule is one *bucket* per distinct timestamp — a flat list of
    bare events in enqueue order — plus a min-heap of those timestamps.
    The workloads this kernel runs are heavily time-clustered (a rank's
    threads wake at the same tick, a doorbell batch departs together,
    collective rounds complete in lockstep), so the queue pays one heap
    pop per *distinct time* and a plain list append per event.

    Execution order is ``(time, priority, seq)``:

    - buckets are drained in ascending time order;
    - at one time, every urgent (priority-0) event runs before every
      normal one, each class in enqueue (= seq) order. Urgent events come
      only from ``succeed``/``fail``, which schedule at the current time,
      so a single *urgent lane* serves every bucket in turn; the drain
      re-checks it before each event, so an urgent event triggered by a
      callback runs ahead of the rest of the draining bucket;
    - events scheduled *into* the draining bucket are appended to it and
      picked up in the same pass.

    The sequence number lives on the event (``Event._seq``) and is only
    read back by :meth:`pending_entries`; the drain never compares it,
    because appends are seq-monotone. Both lanes being drained (the
    current bucket and the urgent lane) are deques an event leaves as it
    is dispatched, so stopping a run between :meth:`run_steps` calls is
    invisible to the drain.
    """

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        #: Min-heap of the keys of :attr:`_buckets` (each pushed once,
        #: when its bucket is created).
        self._times: list[float] = []
        #: time -> the normal-priority events scheduled then, in seq order.
        self._buckets: dict[float, list[Event]] = {}
        #: What is left of the bucket being drained, and its timestamp
        #: (never a key of :attr:`_buckets`).
        self._cur: deque[Event] = deque()
        self._cur_time: Optional[float] = None
        #: The urgent lane: events at the current time.
        self._u: deque[Event] = deque()
        self._active_process: Optional[Process] = None
        #: Installed by ``World(check=...)``: a :class:`repro.check.Checker`
        #: observing this simulator, or None. Hook sites guard on this so
        #: an unchecked run pays one attribute test per site.
        self.checker = None
        #: Installed by ``World(metrics=..., tracer=...)`` beside the
        #: checker: the run's :class:`repro.obs.MetricsRegistry` and
        #: :class:`repro.sim.trace.Tracer`, or None. Layers read them once
        #: when built and keep their own handles.
        self.metrics = None
        self.tracer = None
        self.steps = 0
        #: Live processes by spawn id (for deadlock diagnostics); completed
        #: processes remove themselves so long sweeps don't accumulate.
        self._processes: dict[int, Process] = {}
        self._next_pid = 0
        #: Next MPI request id (:class:`repro.mpi.request.Request` numbers
        #: itself per simulator, so ids are a function of the run alone).
        self._next_rid = 0
        #: Next lock creation serial (:class:`repro.sim.sync.Lock`): the
        #: checker's lock-order graph names locks by it, never by ``id()``.
        self._next_lock_serial = 0
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
        """Schedule a timeout: the composable sleep (a callback, an
        ``AllOf`` member, a user script's ``yield``). A task that only
        sleeps yields its delay instead, and nothing is allocated."""
        return Timeout(self, delay, value)

    def call_after(self, delay: float, fn: Optional[Callable[[Event], None]],
                   value: Any = None) -> Event:
        """Run ``fn(event)`` ``delay`` seconds from now; returns the event.

        The event is pre-triggered with ``value`` (``fn`` may be None, for
        a caller that only waits on it) and scheduled like a Timeout, at
        ``now + delay`` with the next sequence number. This is the one
        constructor of a scheduled callback: a server completion, a wire
        arrival and a shared-memory copy each build one per message.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"delay must be >= 0, got {delay}")
        event = Event.__new__(Event)
        event.sim = self
        event.callbacks = [] if fn is None else [fn]
        event._value = value
        event._exc = None
        event._triggered = True
        event._processed = False
        event._seq = self._seq = self._seq + 1
        when = self._now + delay
        bucket = self._buckets.get(when)
        if bucket is not None:
            bucket.append(event)
        elif when == self._cur_time:
            self._cur.append(event)
        else:
            self._buckets[when] = [event]
            heappush(self._times, when)
        return event

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new cooperative task from a generator."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- deadlock diagnostics ---------------------------------------------
    def add_diagnostic(self, fn: Callable[[], list[str]]) -> None:
        """Register a provider of extra deadlock-report lines.

        When the schedule runs dry while a ``run(until=event)`` target is
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
                    what = f"waiting on {_waiting_kind(target)}"
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
    def _schedule(self, event: Event, delay: float) -> None:
        """Schedule ``event`` (or a sleeping task) at normal priority,
        ``delay`` seconds from now, with the next sequence number."""
        event._seq = self._seq = self._seq + 1
        when = self._now + delay
        # An existing bucket is the hot case; the draining bucket's time
        # is never in the dict, so a miss tells it from a new time.
        bucket = self._buckets.get(when)
        if bucket is not None:
            bucket.append(event)
        elif when == self._cur_time:
            self._cur.append(event)
        else:
            self._buckets[when] = [event]
            heappush(self._times, when)

    def _urgent(self, event: Event) -> None:
        """Schedule a triggered ``event`` on the urgent lane: at the
        current time, ahead of every normal event then."""
        event._seq = self._seq = self._seq + 1
        self._u.append(event)

    # -- schedule introspection -------------------------------------------
    # Snapshot capture (:mod:`repro.snap.state`) and a stopping session
    # (:mod:`repro.check.session`) read the pending schedule through these
    # three methods only.
    def pending_entries(self) -> list[tuple[float, int, int, Event]]:
        """Pending ``(when, priority, seq, event)`` entries in execution
        order — the canonical schedule view captured by state digests."""
        entries = [(self._now, PRIORITY_URGENT, ev._seq, ev)
                   for ev in self._u]
        entries += [(self._cur_time, PRIORITY_NORMAL, ev._seq, ev)
                    for ev in self._cur]
        for when, bucket in self._buckets.items():
            entries += [(when, PRIORITY_NORMAL, ev._seq, ev) for ev in bucket]
        return _canonical(entries)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None when drained."""
        if self._u:
            return self._now
        if self._cur:
            return self._cur_time
        return self._times[0] if self._times else None

    def queue_empty(self) -> bool:
        """True when no events remain scheduled."""
        return self.peek_time() is None

    # -- execution --------------------------------------------------------
    def run_steps(self, n: int, horizon: Optional[float] = None,
                  stop_event: Optional[Event] = None) -> int:
        """Process up to ``n`` events; returns the number processed.

        This is the kernel's only dispatch loop. :meth:`run` calls it with
        an unbounded budget; a session that stops a run
        (:mod:`repro.check.session`) calls it up to the stop, captures
        state there with zero footprint, and hands the rest to
        :meth:`run` — the event sequence is *identical* either way:
        stopping schedules nothing and perturbs no sequence numbers.

        Early-stop conditions (all leave the remaining events queued):

        - the schedule runs dry;
        - ``horizon`` is given and the next event lies strictly beyond it
          (the clock is *not* advanced to the horizon — :meth:`run`
          applies its clamp itself);
        - ``stop_event`` is given and is processed (tested before each
          event, so nothing runs if it already was).
        """
        if horizon is None:
            horizon = _INF
        elif horizon < self._now:
            return 0  # everything pending is at or after the clock
        if stop_event is None:
            stop_event = _NEVER_PROCESSED
        first = steps = self.steps
        last = first + n
        # The budget and the stop event are tested here and after each
        # dispatch (only a dispatch can process the stop event), so the
        # iterations that only move the drain cost neither test.
        if steps >= last or stop_event._processed:
            return 0
        buckets = self._buckets
        times = self._times
        u = self._u
        cur = self._cur
        while True:
            if u:
                event = u.popleft()
            elif cur:
                event = cur.popleft()
            else:
                # Bucket exhausted: the one place the clock moves, so
                # the one place the horizon needs testing.
                if not times:
                    break
                when = times[0]
                if when > horizon:
                    break
                if when < self._now:
                    raise SimulationError("time went backwards")
                heappop(times)
                cur.extend(buckets.pop(when))  # one deque, refilled
                self._cur_time = self._now = when
                continue
            # ``self.steps`` is stored before the dispatch: observers
            # inside callbacks (the checker records ``sim.steps`` with
            # a violation) must see the exact per-event count.
            self.steps = steps = steps + 1
            if type(event) is Process and not event._triggered:
                # A sleeping task's own entry (a finished task's is
                # triggered): wake it as its Timeout would have (see
                # :meth:`Process._resume`), and when it sleeps again,
                # schedule it as :meth:`_schedule` does.
                event._waiting_on = None
                self._active_process = event
                try:
                    target = event.gen.send(None)
                except BaseException as exc:
                    self._active_process = None
                    event._finish(exc)
                else:
                    self._active_process = None
                    if type(target) is float and target >= 0.0:
                        event._waiting_on = target
                        event._seq = self._seq = self._seq + 1
                        when = self._now + target
                        bucket = buckets.get(when)
                        if bucket is not None:
                            bucket.append(event)
                        elif when == self._cur_time:
                            cur.append(event)
                        else:
                            buckets[when] = [event]
                            heappush(times, when)
                    else:
                        event._wait_on(target)
            else:
                callbacks = event.callbacks
                event._processed = True
                event.callbacks = None
                if callbacks:
                    for fn in callbacks:
                        fn(event)
            if steps == last or stop_event._processed:
                break
        return steps - first

    def run(self, until: Optional[float | Event] = None,
            max_steps: Optional[int] = None) -> Any:
        """Run the simulation.

        ``until`` may be a time (run until the clock passes it), an
        :class:`Event` (run until it is processed; returns its value), or
        ``None`` (run until no events remain). ``max_steps`` guards against
        runaway loops.
        """
        target = until if isinstance(until, Event) else None
        horizon = None if target is not None or until is None else float(until)
        budget = _UNBOUNDED if max_steps is None else max_steps
        with gc_suspended():
            done = self.run_steps(budget, horizon, target)
        if target is not None:
            if target._processed:
                return target.value
            if self.queue_empty():
                raise SimulationError(self._deadlock_report())
            raise SimulationError(f"exceeded max_steps={max_steps}")
        if done >= budget:
            when = self.peek_time()
            if when is not None and (horizon is None or when <= horizon):
                raise SimulationError(f"exceeded max_steps={max_steps}")
        if horizon is not None:
            self._now = max(self._now, horizon)
        return None


def _waiting_kind(target: Event | float) -> str:
    """What ``Process._waiting_on`` is called in a report or a capture: a
    sleep's delay is the Timeout it replaces."""
    return "Timeout" if type(target) is float else type(target).__name__


def _canonical(entries: list[tuple[float, int, int, Event]]
               ) -> list[tuple[float, int, int, Event]]:
    """Schedule entries in execution order, each sleeping task's entry
    shown as the Timeout it replaces (same delay, seq and callback), so a
    state digest cannot tell a yielded delay from ``yield sim.timeout``."""
    entries.sort(key=lambda entry: entry[:3])
    for i, (when, prio, seq, ev) in enumerate(entries):
        if type(ev) is Process and not ev._triggered:
            view = Timeout.__new__(Timeout)
            view.sim = ev.sim
            view.callbacks = [ev._resume_cb]
            view._value = None
            view._exc = None
            view._triggered = True
            view._processed = False
            view._seq = seq
            view.delay = ev._waiting_on
            entries[i] = (when, prio, seq, view)
    return entries


#: ``run_steps``' stand-in for a missing ``stop_event``: never triggered,
#: so never processed, and the loop tests one attribute either way.
_NEVER_PROCESSED = Event(None)

#: ``run_steps``' horizon when none is given.
_INF = float("inf")

#: The step budget of a run given no ``max_steps`` (``run`` and a
#: stopping session's passes).
_UNBOUNDED = 1 << 62
