"""The dynamic correctness analyzer: hooks, state machines, verdicts.

One :class:`Checker` observes one :class:`~repro.sim.core.Simulator`. It is
installed by ``World(check=CheckConfig(...))`` as ``sim.checker`` and fed
by narrow hook sites in the kernel (task spawn/resume), the sync
primitives (lock, barrier, gate, mailbox), and the MPI layer
(channels, requests, partitioned protocol, RMA windows).

Design constraints, in order:

1. **Observer-only**: hooks never schedule events or charge simulated
   time, so a checked run's simulated timings are byte-identical to an
   unchecked run (tested). The only behavioural difference is opt-in:
   raise mode turns detections into :class:`~repro.errors.CheckError`.
2. **Zero-cost when off**: every hook site guards on
   ``sim.checker is not None``; with no checker the added work is one
   attribute load per site (``benchmarks/stack`` runs Fig 1(a) with the
   checker off and on: ``fig1a_eager`` / ``fig1a_checked``). An
   unchecked World imports nothing of :mod:`repro.check`: it looks for
   an active session only in ``sys.modules``, and imports this module
   only to build a checker.
3. **Epoch-cheap when on**: per-object access checks use the FastTrack
   epoch shortcut, and a release point publishes its clock as one small
   ``(pid, epoch, shared dict, zeros)`` tuple — no copy; a join looks at
   a clock only when it can learn from it, and copies rather than walks
   one that provably holds all the joiner published (see
   :mod:`repro.check.hb`).
4. **State lives on what it describes** (``Process._hb``, a primitive's
   ``_hb``, ``Request._hb_*``, ``Window._hb_*``) and dies with it:
   nothing here is keyed by ``id()``, pid or request id but what a
   finalize scan must enumerate.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import CheckError
from ..sim.core import AllOf, Process, Simulator
from .hb import Access, LockOrderGraph, Publication, PublishedClock, \
    TaskClock, merge_published
from .report import CheckReport, CheckWarning, Violation

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.comm import Communicator
    from ..mpi.request import Request
    from ..sim.sync import Barrier, Gate, Lock, Mailbox, Semaphore

__all__ = ["CheckConfig", "Checker"]

#: Library-internal request kinds that persist by design and must not be
#: reported as leaks (the partitioned-init marker sits in the posted queue
#: for the lifetime of the persistent operation).
_INTERNAL_REQUEST_KINDS = frozenset({"precv-init"})

#: Cap on per-rule detail in the finalize leak scans.
_LEAK_DETAIL_LIMIT = 10
#: Stop recording detail beyond this many violations (counts continue).
MAX_VIOLATIONS = 10_000


@dataclass(frozen=True)
class CheckConfig:
    """Configuration for the dynamic checker.

    ``mode="warn"`` records violations (and emits :class:`CheckWarning`)
    while letting the run continue on a safe path; ``mode="raise"`` turns
    the first detection into a :class:`~repro.errors.CheckError` inside
    the offending task. Rules marked *hard* in the catalog and the
    finalize-time scans (lock cycles, leaks) always only record.
    """

    mode: str = "warn"
    #: Emit a Python ``CheckWarning`` per violation in warn mode.
    emit_warnings: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("warn", "raise"):
            raise ValueError(f"check mode must be 'warn' or 'raise', "
                             f"got {self.mode!r}")


class Checker:
    """Dynamic analysis state for one simulator."""

    def __init__(self, sim: Simulator, config: Optional[CheckConfig] = None):
        self.sim = sim
        self.config = config or CheckConfig()
        self.violations: list[Violation] = []
        self.dropped = 0
        self._finalized = False
        #: Observer called with each :class:`Violation` as it is recorded
        #: (before warn/raise handling). Used by ``repro replay
        #: --to-finding`` to stop a recorded run at the exact step a rule
        #: fires; observers must not mutate checker or simulation state.
        self.on_violation: Optional[Callable[[Violation], None]] = None
        self._lock_graph = LockOrderGraph()
        # -- channels (CHK102) -----------------------------------------
        self._channels: dict[tuple, Access] = {}
        #: rid -> (kind, creation time, creating task) of every request
        #: not yet complete: what CHK109 enumerates and prints.
        self._live_requests: dict[int, tuple[str, float,
                                             Optional[str]]] = {}
        # -- RMA (CHK107, CHK108, CHK110) ------------------------------
        self._windows: list[Any] = []

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    def violation(self, rule_id: str, message: str, *,
                  task: Optional[str] = None, rank: Optional[int] = None,
                  vci: Optional[int] = None, hard: bool = False,
                  **extra: Any) -> Violation:
        """Record one violation; raise in raise mode (unless ``hard``).

        ``hard=True`` marks detections whose call site must raise its own
        library error regardless of mode (the simulation cannot continue
        safely), and finalize-time scans (there is no task to raise in).
        """
        st = self.sim._active_process
        v = Violation(rule_id, message, time=self.sim.now,
                      task=task or (st.name if st is not None else None),
                      rank=rank, vci=vci, extra=extra)
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(v)
        else:
            self.dropped += 1
        if self.on_violation is not None:
            self.on_violation(v)
        if hard:
            return v
        if self.config.mode == "raise":
            raise CheckError(v.describe(), violation=v)
        if self.config.emit_warnings:
            warnings.warn(v.describe(), CheckWarning, stacklevel=3)
        return v

    # ------------------------------------------------------------------
    # kernel hooks
    # ------------------------------------------------------------------
    # ``proc._hb`` is set for every task: the checker is installed before
    # the first spawn (World does), so :meth:`on_spawn` saw them all.
    def on_spawn(self, proc: Process) -> None:
        """A task was spawned: it inherits its spawner's clock."""
        parent = self.sim._active_process
        proc._hb = TaskClock(proc._pid, proc.name,
                             parent._hb if parent is not None else None)

    def on_resume(self, proc: Process, trigger: Any) -> None:
        """A task resumed from a ``Process`` or an ``AllOf`` (the kernel
        calls for no other trigger): joining a finished task merges its
        clock."""
        st = proc._hb
        if isinstance(trigger, Process):
            st.join_task(trigger._hb)
        elif isinstance(trigger, AllOf):
            for ev in trigger._children or ():
                if isinstance(ev, Process):
                    st.join_task(ev._hb)

    # -- sync-primitive hooks --------------------------------------------
    def lock_acquired(self, lock: "Lock") -> None:
        """Join the releaser's clock; record lock-order edges for held locks."""
        proc = self.sim._active_process
        if proc is None:
            return
        st = proc._hb
        clock = lock._hb
        # Most acquisitions retake a lock this task released last.
        if clock is not None and clock[0] != st.pid:
            st.join(clock)
        held = st.held
        for other in held:
            if other is not lock:
                self._lock_graph.add(other.serial, other.name,
                                     lock.serial, lock.name,
                                     st.name, self.sim.now)
        held.append(lock)

    def lock_released(self, lock: "Lock") -> None:
        """Publish this task's clock for the next acquirer; pop held state."""
        proc = self.sim._active_process
        if proc is None:
            return
        st = proc._hb
        lock._hb = st.snapshot()
        held = st.held
        if held and held[-1] is lock:  # releases are mostly LIFO
            held.pop()
            return
        for i in range(len(held) - 2, -1, -1):
            if held[i] is lock:
                del held[i]
                break

    def gate_opened(self, gate: "Gate") -> None:
        """Publish the opener's clock for everyone who passes the gate."""
        proc = self.sim._active_process
        if proc is not None:
            gate._hb = proc._hb.snapshot()

    def gate_passed(self, gate: "Gate") -> None:
        """Join the clock the gate's opener published."""
        proc = self.sim._active_process
        if proc is not None:
            proc._hb.join(gate._hb)

    def barrier_arrive(self, barrier: "Barrier") -> None:
        """Merge this arriver's clock into the barrier's pending clock."""
        proc = self.sim._active_process
        if proc is None:
            return
        if barrier._hb_pending is None:
            barrier._hb_pending = {}
        merge_published(barrier._hb_pending, proc._hb.snapshot())

    def barrier_release(self, barrier: "Barrier") -> None:
        """Called by the last arriver: publish the merged clock."""
        barrier._hb_release = barrier._hb_pending
        barrier._hb_pending = None

    def barrier_depart(self, barrier: "Barrier") -> None:
        """Join the clock all arrivers of this generation merged."""
        proc = self.sim._active_process
        if proc is not None:
            proc._hb.join_merged(barrier._hb_release)

    def mailbox_put(self, mailbox: "Mailbox | Semaphore") -> None:
        """Queue the putter's clock for the get that takes this item."""
        # FIFO clock queue mirrors item order across both the queued and
        # the direct-handoff path; a put from a non-task context (NIC
        # callback) contributes None to keep the queues aligned.
        proc = self.sim._active_process
        if mailbox._hb is None:
            mailbox._hb = deque()
        mailbox._hb.append(proc._hb.snapshot() if proc is not None
                           else None)

    def mailbox_got(self, mailbox: "Mailbox | Semaphore") -> None:
        """Join the clock the matching put published (FIFO pairing)."""
        clocks = mailbox._hb
        if not clocks:
            return
        clock = clocks.popleft()
        proc = self.sim._active_process
        if proc is not None:
            proc._hb.join(clock)

    def meet_arrive(self, meeting: Any) -> None:
        """Merge this participant's clock into the meeting's shared clock."""
        proc = self.sim._active_process
        if proc is None:
            return
        if meeting.hb_clock is None:
            meeting.hb_clock = {}
        merge_published(meeting.hb_clock, proc._hb.snapshot())

    def meet_depart(self, meeting: Any) -> None:
        """Join the clock every participant of the meeting merged."""
        proc = self.sim._active_process
        if proc is not None:
            proc._hb.join_merged(meeting.hb_clock)

    # ------------------------------------------------------------------
    # point-to-point channels (CHK102, CHK104 context)
    # ------------------------------------------------------------------
    def on_channel_send(self, comm: "Communicator", dest: int, tag: int,
                        context_id: int) -> Optional[PublishedClock]:
        """A send is being posted; returns the sender's published clock to
        ride in the message meta (for the receive-completion join)."""
        proc = self.sim._active_process
        if proc is None:
            return None
        st = proc._hb
        if not comm.hints.allow_overtaking:
            key = ("s", context_id, comm.rank, dest, tag)
            self._channel_access(key, st, comm, tag, dest, "send")
        # The one publication a state capture reaches: typed, so that it
        # is described as the mapping it stands for.
        return PublishedClock(st.snapshot())

    def on_channel_recv(self, comm: "Communicator", source: int, tag: int,
                        context_id: int, vci: Optional[int] = None) -> None:
        """Record a posted-receive channel access (CHK102 collision check)."""
        proc = self.sim._active_process
        if proc is None or comm.hints.allow_overtaking:
            return
        key = ("r", context_id, comm.rank, source, tag)
        self._channel_access(key, proc._hb, comm, tag, source, "recv",
                             vci=vci)

    def _channel_access(self, key: tuple, st: TaskClock,
                        comm: "Communicator", tag: int, peer: int,
                        direction: str, vci: Optional[int] = None) -> None:
        last = self._channels.get(key)
        if last is not None and last[0] != st.pid and not st.saw(last):
            self.violation(
                "CHK102",
                f"tasks {last[2]!r} and {st.name!r} both {direction} on "
                f"channel (comm {comm.name!r} ctx={key[1]}, tag={tag}, "
                f"peer={peer}) with no ordering edge between them — "
                f"message order on this channel is undefined",
                rank=comm.lib.rank, vci=vci, comm=comm.name, tag=tag,
                peer=peer, other_task=last[2])
        self._channels[key] = st.access()

    # ------------------------------------------------------------------
    # requests (CHK101, CHK109)
    # ------------------------------------------------------------------
    def on_request_new(self, req: "Request") -> None:
        """Give a request its checker state; remember it until it
        completes (CHK109 leak scan)."""
        req._hb_access = None
        req._hb_edges = ()
        if req.kind in _INTERNAL_REQUEST_KINDS:
            return
        proc = self.sim._active_process
        self._live_requests[req.rid] = (
            req.kind, self.sim._now, proc.name if proc is not None else None)

    def on_msg_join(self, req: "Request", hb: Publication) -> None:
        """The message completing ``req`` carried the sender's clock: a
        completion edge, joined when the request is waited on or tested."""
        req._hb_edges += (hb,)

    def on_request_complete(self, req: "Request") -> None:
        """``req`` completed: the completing task's clock is an edge too."""
        self._live_requests.pop(req.rid, None)
        proc = self.sim._active_process
        if proc is not None:
            req._hb_edges += (proc._hb.snapshot(),)

    def on_request_access(self, req: "Request") -> None:
        """wait/test/cancel entered on ``req`` by the active task."""
        proc = self.sim._active_process
        if proc is None:
            return
        if req.kind not in _INTERNAL_REQUEST_KINDS:
            st = proc._hb
            last = req._hb_access
            if last is not None and last[0] != st.pid and not st.saw(last):
                self.violation(
                    "CHK101",
                    f"tasks {last[2]!r} and {st.name!r} both wait/test "
                    f"request #{req.rid} ({req.kind}) with no "
                    f"happens-before edge; MPI forbids concurrent "
                    f"completion calls on one request",
                    vci=req.vci.index if req.vci is not None else None,
                    rid=req.rid, other_task=last[2])
            req._hb_access = st.access()

    def on_request_join(self, req: "Request") -> None:
        """``req`` observed complete: join its completion edges."""
        proc = self.sim._active_process
        if proc is not None:
            st = proc._hb
            for clock in req._hb_edges:
                st.join(clock)

    # ------------------------------------------------------------------
    # RMA (CHK107, CHK108, CHK110)
    # ------------------------------------------------------------------
    def register_window(self, win: Any) -> None:
        """Give a window its checker state; remember it for CHK110."""
        self._windows.append(win)
        win._hb_locked = set()   # "all" stands for Lock(None)
        win._hb_epochs_used = False
        win._hb_last_write = {}
        win._hb_last_read = {}

    def on_rma_sync(self, win: Any, op: str, target: Optional[int]) -> None:
        """Track lock/unlock epoch transitions on a window (CHK107)."""
        locked: set = win._hb_locked
        token = "all" if target is None else target
        if op == "lock":
            win._hb_epochs_used = True
            if token in locked:
                self.violation(
                    "CHK107",
                    f"double Lock of target {token} on window "
                    f"{win.win_id} (epoch already open)",
                    rank=win.comm.lib.rank, win=win.win_id, target=target)
            else:
                locked.add(token)
        elif op == "unlock":
            if token not in locked:
                self.violation(
                    "CHK107",
                    f"Unlock of target {token} on window {win.win_id} "
                    f"without a matching Lock",
                    rank=win.comm.lib.rank, win=win.win_id, target=target)
            else:
                locked.discard(token)

    def on_rma_op(self, win: Any, op: str, target: int, disp: int,
                  count: int, *, atomic: bool, write: bool) -> None:
        """Check epoch discipline (CHK107) and overlapping-range races (CHK108)."""
        locked: set = win._hb_locked
        if win._hb_epochs_used and target not in locked \
                and "all" not in locked:
            # Mixed discipline: this handle opens explicit epochs but
            # issued an operation outside any. Flush-only handles (the
            # paper's NWChem pattern) never set "used" and are exempt.
            self.violation(
                "CHK107",
                f"{op} to target {target} outside any epoch on window "
                f"{win.win_id}, which elsewhere uses explicit Lock/Unlock "
                f"epochs",
                rank=win.comm.lib.rank, win=win.win_id, target=target)
        if atomic:
            return
        proc = self.sim._active_process
        if proc is None:
            return
        st = proc._hb
        lo, hi = disp, disp + count
        conflict = win._hb_last_write.get(target)
        if write and conflict is None:
            conflict = win._hb_last_read.get(target)
        if conflict is not None:
            last, llo, lhi = conflict
            if last[0] != st.pid and llo < hi and lo < lhi \
                    and not st.saw(last):
                self.violation(
                    "CHK108",
                    f"nonatomic {op} to window {win.win_id} target "
                    f"{target} [{lo}, {hi}) conflicts with task "
                    f"{last[2]!r}'s access [{llo}, {lhi}) — no "
                    f"happens-before edge between them",
                    rank=win.comm.lib.rank, win=win.win_id, target=target,
                    other_task=last[2])
        rec = (st.access(), lo, hi)
        if write:
            win._hb_last_write[target] = rec
        else:
            win._hb_last_read[target] = rec

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def finalize(self) -> CheckReport:
        """Run the end-of-run scans and return the report (idempotent)."""
        if not self._finalized:
            self._finalized = True
            self._scan_lock_cycles()
            self._scan_request_leaks()
            self._scan_window_leaks()
        return CheckReport(self.violations, mode=self.config.mode)

    def _scan_lock_cycles(self) -> None:
        for cycle in self._lock_graph.cycles():
            self.violation(
                "CHK103",
                "lock acquisition order forms a cycle (potential "
                "deadlock): " + self._lock_graph.describe_cycle(cycle),
                hard=True, edges=len(cycle))

    def _scan_request_leaks(self) -> None:
        leaked = sorted(self._live_requests.items())
        for rid, (kind, time, task) in leaked[:_LEAK_DETAIL_LIMIT]:
            self.violation(
                "CHK109",
                f"request #{rid} ({kind}, created at t={time:.9f} by "
                f"{task!r}) never completed before finalize",
                hard=True, rid=rid, kind=kind)
        if len(leaked) > _LEAK_DETAIL_LIMIT:
            self.violation(
                "CHK109",
                f"... and {len(leaked) - _LEAK_DETAIL_LIMIT} more leaked "
                f"request(s)",
                hard=True, count=len(leaked) - _LEAK_DETAIL_LIMIT)

    def _scan_window_leaks(self) -> None:
        for win in self._windows:
            pending = {t: n for t, n in win._outstanding.items() if n}
            if pending:
                total = sum(pending.values())
                self.violation(
                    "CHK110",
                    f"window {win.win_id} (rank {win.comm.rank}) has "
                    f"{total} unflushed operation(s) to target(s) "
                    f"{sorted(pending)} at finalize",
                    hard=True, rank=win.comm.lib.rank, win=win.win_id,
                    outstanding=total)
