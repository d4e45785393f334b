"""NIC model: hardware contexts with per-message issue gaps.

A :class:`HardwareContext` is the unit of network parallelism — the paper's
"network hardware context" (work queue + doorbell register). Each context
injects at most one message per ``issue_gap`` seconds; the doorbell write
is serialized among the software channels (VCIs) mapped onto it.

A :class:`Nic` owns a fixed pool of contexts. VCIs request contexts through
:meth:`Nic.allocate_context`; when more VCIs exist than contexts, contexts
are shared round-robin — the Omni-Path resource-exhaustion effect of
Lesson 3. The pool is fixed in *size*; the Python object behind a slot is
built when the slot is first handed out (never by looking at it), because
a Fig 1(a) point touches 1–128 of an Omni-Path node pair's 320 contexts.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..sim.core import Event, Simulator
from ..sim.resources import FIFOServer
from ..sim.sync import Lock
from .config import NicParams

__all__ = ["HardwareContext", "Nic"]


class HardwareContext:
    """One NIC hardware context (work queue + doorbell).

    With a metrics registry on the simulator the context instruments its
    doorbell lock (the Lesson 3 serialization point among sharing VCIs)
    and records a queue-delay histogram for its injector — how long each
    message sat behind earlier injections before departing.
    """

    __slots__ = ("sim", "index", "params", "injector", "doorbell_lock",
                 "messages_issued", "bytes_issued", "sharers",
                 "_jitter_state", "_node_id", "m_inject_queue",
                 "nic", "fault_injector", "failovers_in", "stall_waits")

    def __init__(self, sim: Simulator, index: int, params: NicParams,
                 node_id: int = 0):
        self.sim = sim
        self.index = index
        self.params = params
        self.injector = FIFOServer(sim, name=f"hwctx{index}.inject")
        #: Serializes doorbell rings from the VCIs sharing this context.
        self.doorbell_lock = Lock(sim, name=f"hwctx{index}.doorbell")
        self.messages_issued = 0
        self.bytes_issued = 0
        #: Number of VCIs mapped onto this context.
        self.sharers = 0
        self._jitter_state = index * 0x9E3779B9 + 1
        self._node_id = node_id
        self.m_inject_queue = None
        #: Owning NIC (set by Nic; needed to pick a failover target).
        self.nic: Optional["Nic"] = None
        #: Optional :class:`repro.faults.FaultInjector` whose plan may
        #: stall this context (the World attaches it).
        self.fault_injector = None
        #: Messages other contexts failed over onto this one.
        self.failovers_in = 0
        #: Messages that had to wait out a stall here (no failover target).
        self.stall_waits = 0

    def _instrument(self) -> None:
        """Create this context's metric series. The NIC calls it when it
        builds the slot (allocated, or chosen as a failover target), so a
        160-context pool doesn't flood the registry with unused series."""
        metrics = self.sim.metrics
        if metrics is not None:
            from ..obs.metrics import instrument_lock
            self.m_inject_queue = metrics.histogram(
                "nic.inject.queue_delay", node=self._node_id, ctx=self.index)
            instrument_lock(self.doorbell_lock, metrics, node=self._node_id,
                            ctx=self.index)

    def _jitter(self) -> float:
        """Deterministic per-message timing jitter (failure injection).

        Jitter is applied *inside* the context's FIFO injector, so the
        per-channel ordering MPI's transport relies on is preserved while
        arrival order *across* channels becomes irregular — exactly the
        reordering that logically-parallel communication must tolerate.
        """
        if self.params.issue_jitter <= 0.0:
            return 0.0
        # xorshift32: cheap, deterministic, seeded by context index
        x = self._jitter_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._jitter_state = x
        return self.params.issue_jitter * (x / 0xFFFFFFFF)

    def issue(self, wire_bytes: int) -> float:
        """Queue one message for injection; returns its departure time.

        The context is a serial injector: the message departs at
        ``max(now, previous departure) + gap + bytes * per_byte``.

        When a fault plan stalls this context (wedged work queue), the
        message fails over to a healthy context on the same NIC — landing
        on a *shared* context, where it contends with that context's own
        traffic (the Lesson 3 penalty, now triggered by a fault instead of
        resource exhaustion). With no healthy context available, nothing
        leaves the wedged queue until the stall window ends.
        """
        inj = self.fault_injector
        if inj is not None:
            stall_end = inj.stall_until(self._node_id, self.index,
                                        self.sim._now)
            if stall_end > 0.0:
                target = None if self.nic is None else \
                    self.nic.failover_target(self)
                if target is not None:
                    inj.note_failover(self._node_id, self.index,
                                      target.index)
                    target.failovers_in += 1
                    return target.issue(wire_bytes)
                self.stall_waits += 1
                if self.injector.free_at < stall_end:
                    self.injector._free_at = stall_end
        params = self.params
        if not params.issue_jitter <= 0.0:  # as :meth:`_jitter` tests it
            service = params.issue_gap + self._jitter() \
                + wire_bytes * params.issue_per_byte
        else:  # the same sum: adding a 0.0 jitter changes no float
            service = params.issue_gap + wire_bytes * params.issue_per_byte
        depart = self.injector.occupy(service)
        self.messages_issued += 1
        self.bytes_issued += wire_bytes
        if self.m_inject_queue is not None:
            self.m_inject_queue.observe(
                max(0.0, depart - service - self.sim._now))
        return depart

    def issue_batch(self, sizes: Sequence[int]) -> list[float]:
        """:meth:`issue` once per item. No caller under ``src/``: the frozen
        ``benchmarks/stack/layers.py`` resolves this name; it goes with
        the benchmark thaw (ROADMAP item 1)."""
        return [self.issue(b) for b in sizes]

    def issue_event(self, wire_bytes: int) -> Event:
        """Like :meth:`issue` but returns the departure event (for waiting
        on local send completion)."""
        service = self.params.issue_gap + wire_bytes * self.params.issue_per_byte
        self.messages_issued += 1
        self.bytes_issued += wire_bytes
        return self.injector.submit(service)

    @property
    def is_shared(self) -> bool:
        return self.sharers > 1


class Nic:
    """A NIC with a fixed pool of hardware contexts.

    A slot's :class:`HardwareContext` is built on first use: when it is
    allocated to a VCI or chosen as a failover target. An unbuilt slot is
    by definition a pristine context (no sharers, nothing issued, idle
    injector), and a context's only construction-time state — its jitter
    seed — depends on the slot index alone, so *when* a slot is built can
    never show in simulated results. Observers read :meth:`slots` or
    :meth:`built_contexts`; neither builds anything.
    """

    def __init__(self, sim: Simulator, params: NicParams, node_id: int = 0):
        if params.num_hardware_contexts < 1:
            raise ValueError("NIC needs at least one hardware context")
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self._fault_injector = None
        #: One entry per hardware context; None until the slot is built.
        self._slots: list[Optional[HardwareContext]] = \
            [None] * params.num_hardware_contexts
        self._next = 0

    def _context(self, index: int) -> HardwareContext:
        """The context in slot ``index``, built now if it never was."""
        ctx = self._slots[index]
        if ctx is None:
            ctx = self._slots[index] = HardwareContext(
                self.sim, index, self.params, node_id=self.node_id)
            ctx.nic = self
            ctx.fault_injector = self._fault_injector
            ctx._instrument()
        return ctx

    def slots(self) -> tuple[Optional[HardwareContext], ...]:
        """The whole pool in index order, ``None`` where no context was
        built yet — the read-only view state captures walk."""
        return tuple(self._slots)

    def built_contexts(self) -> list[HardwareContext]:
        """The contexts built so far, in index order. Everything that was
        ever allocated or issued on is among them."""
        return [ctx for ctx in self._slots if ctx is not None]

    def attach_fault_injector(self, injector) -> None:
        """Subject every context, built or not yet, to ``injector``'s
        stall windows."""
        self._fault_injector = injector
        for ctx in self.built_contexts():
            ctx.fault_injector = injector

    def failover_target(self, stalled: HardwareContext
                        ) -> Optional[HardwareContext]:
        """A healthy context to absorb a stalled context's traffic.

        Deterministic preference order: the lowest-index healthy context
        that is already allocated to VCIs (its owners will feel the extra
        contention — graceful degradation, not a free lunch), else the
        lowest-index healthy context at all (an unbuilt slot is a healthy
        unallocated one; it is built only if it is chosen).
        """
        inj = stalled.fault_injector
        now = self.sim._now
        fallback = None
        for i, ctx in enumerate(self._slots):
            if ctx is stalled or (
                    inj is not None
                    and inj.stall_until(self.node_id, i, now) != 0.0):
                continue
            if ctx is not None and ctx.sharers > 0:
                return ctx
            if fallback is None:
                fallback = i
        return None if fallback is None else self._context(fallback)

    def allocate_context(self) -> HardwareContext:
        """Allocate a context round-robin.

        Within the pool, allocation hands out each context once before any
        context is handed out twice, so sharing only begins once the pool
        is exhausted — matching how VCI-enabled MPI libraries create a pool
        of network resources at init and map logical channels onto them
        (Section II-B of the paper).
        """
        ctx = self._context(self._next % len(self._slots))
        self._next += 1
        ctx.sharers += 1
        return ctx

    @property
    def num_allocated(self) -> int:
        return self._next

    @property
    def oversubscription(self) -> float:
        """Mean number of VCIs per *used* hardware context."""
        used = [c for c in self.built_contexts() if c.sharers > 0]
        if not used:
            return 0.0
        return sum(c.sharers for c in used) / len(used)

    def load_imbalance(self) -> float:
        """Max/mean of messages issued across used contexts.

        A perfectly balanced mapping gives 1.0. Used by the RMA hashing
        experiment (Fig 6): hash collisions show up as imbalance > 1.
        """
        counts = [c.messages_issued for c in self.built_contexts()
                  if c.messages_issued]
        if not counts:
            return 0.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 0.0
