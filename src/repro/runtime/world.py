"""Cluster construction: nodes, MPI processes, simulated threads.

A :class:`World` assembles the whole simulated machine — simulator, fabric,
nodes with NICs, one :class:`MpiProcess` (with its
:class:`~repro.mpi.library.MpiLibrary`) per rank — and hands out
``COMM_WORLD`` handles. Application code is written as generator functions
("simulated threads") spawned via :meth:`MpiProcess.spawn`.

Typical use::

    world = World(num_nodes=2, procs_per_node=1, threads_per_proc=4)
    for proc in world.procs:
        for tid in range(4):
            proc.spawn(worker(proc, tid))
    world.run()
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from ..errors import MpiUsageError
from ..mpi.comm import Communicator
from ..mpi.library import MpiLibrary
from ..netsim.fabric import Fabric
from ..netsim.nic import Nic
from ..netsim.topology import ClusterSpec
from ..sim.core import Event, Process, Simulator
from ..sim.random import RandomStreams
from ..sim.sync import Gate
from ..sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..check.checker import CheckConfig, Checker
    from ..check.report import CheckReport
    from ..faults.injector import FaultInjector
    from ..faults.plan import FaultPlan
    from ..faults.transport import TransportParams
    from ..netsim.config import NetworkConfig
    from ..netsim.message import WireMessage
    from ..obs.metrics import MetricsRegistry

__all__ = ["Node", "MpiProcess", "World"]


class Node:
    """One compute node: a NIC shared by the node's processes."""

    def __init__(self, sim: Simulator, node_id: int, cfg: NetworkConfig):
        self.sim = sim
        self.node_id = node_id
        self.nic = Nic(sim, cfg.nic, node_id=node_id)
        self.procs: list["MpiProcess"] = []
        #: The node's processes by world rank (filled by :meth:`attach`).
        self.procs_by_rank: dict[int, "MpiProcess"] = {}

    def attach(self, proc: "MpiProcess") -> None:
        """Place ``proc`` on this node."""
        self.procs.append(proc)
        self.procs_by_rank[proc.rank] = proc

    def deliver(self, msg: WireMessage) -> None:
        """Fabric handler: route an arriving message to its process."""
        self.procs_by_rank[msg.dst_rank].lib.deliver(msg)


class MpiProcess:
    """One MPI process (rank) with any number of simulated threads."""

    def __init__(self, world: "World", rank: int, node: Node):
        self.world = world
        self.rank = rank
        self.node = node
        self.lib = MpiLibrary(world.sim, world, rank, node, world.cfg,
                              max_vcis=world.max_vcis_per_proc)
        self.comm_world = Communicator(
            self.lib, world.world_group, rank,
            context_id=0, name="COMM_WORLD")
        self.threads: list[Process] = []

    @property
    def sim(self) -> Simulator:
        return self.world.sim

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a simulated thread on this process."""
        proc = self.world.sim.spawn(gen, name or f"rank{self.rank}.thread")
        self.threads.append(proc)
        return proc

    def compute(self, seconds: float) -> float:
        """Charge ``seconds`` of local computation (``yield
        proc.compute(x)``): the sleep, as the float delay a task yields."""
        if not seconds >= 0:  # also rejects NaN
            raise ValueError(f"compute time must be >= 0, got {seconds}")
        return float(seconds)

    def shm_exchange(self, nbytes: int) -> float:
        """Charge a thread-to-thread shared-memory copy of ``nbytes``
        (the non-MPI path of the paper's listings: ``else: use shared
        memory``); ``yield`` the delay it returns."""
        cpu = self.world.cfg.cpu
        return cpu.shm_copy_base + nbytes / cpu.shm_bandwidth

    def __repr__(self) -> str:
        return f"<MpiProcess rank={self.rank} node={self.node.node_id}>"


@dataclass
class _Meeting:
    """Rendezvous state for one collective setup call (dup, win create...)."""

    expected: int
    gate: Gate
    contributions: dict[int, Any] = field(default_factory=dict)
    shared: dict[str, Any] = field(default_factory=dict)
    arrived: int = 0
    #: Componentwise max of the clocks all arrivers published: a full
    #: ``{pid: counter}`` mapping (checker-only, else None).
    hb_clock: Optional[dict[int, int]] = None


class World:
    """The whole simulated machine plus MPI job.

    Observability is opt-in through two keyword hooks — the documented
    path to instrumented runs (callers should not reach into ``world.sim``
    internals):

    - ``metrics=`` — a :class:`repro.obs.MetricsRegistry`. The world
      installs it as ``sim.metrics`` before it builds any layer, and each
      layer that records (VCI locks, issue path, matching engines, NIC
      contexts, fabric links, fault injector) takes its handles from
      there. Call :meth:`finalize_metrics` after the run to harvest
      structural stats (queue high-water marks, context occupancy, link
      saturation).
    - ``tracer=`` — a :class:`repro.sim.trace.Tracer`; may be constructed
      without a simulator (``Tracer()``), the world binds its clock and
      installs it as ``sim.tracer``. Feed it to
      :func:`repro.obs.export_chrome_trace` for a Perfetto timeline.

    Both default to ``None`` (no instrument, one ``is None`` test per hot
    site), and neither affects simulated timings when given: metric
    recording schedules no events, so instrumented and bare runs of the
    same seed produce identical timings.

    A third hook, ``check=``, enables the correctness analyzer
    (:mod:`repro.check`): pass a :class:`repro.check.CheckConfig` (or
    ``True`` for defaults) and read :meth:`check_report` after the run.
    Like the instruments it is observer-only — simulated timings are
    byte-identical with checking on or off.
    """

    def __init__(self, num_nodes: Optional[int] = None,
                 procs_per_node: Optional[int] = None,
                 threads_per_proc: Optional[int] = None,
                 max_vcis_per_proc: int = 64, seed: int = 0,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None,
                 transport: Optional[TransportParams] = None,
                 check: Optional[CheckConfig | bool] = None,
                 cluster: Optional[ClusterSpec] = None):
        # -- cluster resolution -----------------------------------------
        # The declarative path is `cluster=ClusterSpec(...)`; bare
        # dimension keywords remain first-class sugar for a direct
        # (single-hop) cluster.
        if cluster is not None:
            if (num_nodes is not None or procs_per_node is not None
                    or threads_per_proc is not None):
                raise MpiUsageError(
                    "with cluster=, the cluster dimensions come from the "
                    "ClusterSpec (nodes/procs_per_node/threads_per_proc)")
        else:
            num_nodes = 2 if num_nodes is None else num_nodes
            procs_per_node = 1 if procs_per_node is None else procs_per_node
            threads_per_proc = 1 if threads_per_proc is None else threads_per_proc
            if num_nodes < 1 or procs_per_node < 1 or threads_per_proc < 1:
                raise MpiUsageError("world dimensions must be positive")
            cluster = ClusterSpec(nodes=num_nodes,
                                  procs_per_node=procs_per_node,
                                  threads_per_proc=threads_per_proc,
                                  topology="direct")
        self.cluster = cluster
        num_nodes = cluster.nodes
        procs_per_node = cluster.procs_per_node
        threads_per_proc = cluster.threads_per_proc
        self.sim = Simulator()
        # -- correctness checking (opt-in) ------------------------------
        # check=None adopts the session default (set by `python -m repro
        # check`), check=False forces it off, check=True/CheckConfig(...)
        # turns it on for this world. Installed before any simulation
        # object exists so every task spawn is observed. No session is
        # active before its module is imported, and only a checked world
        # imports the checker.
        sessions = sys.modules.get("repro.check.session")
        session = None if sessions is None else sessions.current_session()
        if check is None and session is not None:
            check = session.config
        self.checker: Optional[Checker] = None
        if check:
            from ..check.checker import CheckConfig, Checker
            self.checker = Checker(self.sim,
                                   CheckConfig() if check is True else check)
            self.sim.checker = self.checker
        # The instruments ride on the simulator like the checker, so every
        # layer built below finds them there. An absent instrument is None,
        # and every layer tests it with `is None`, never truthiness: both
        # are falsy when empty.
        self.metrics = self.sim.metrics = metrics
        self.tracer = self.sim.tracer = \
            tracer if tracer is None else tracer.bind(self.sim)
        self.cfg = cluster.network
        self.num_nodes = num_nodes
        self.procs_per_node = procs_per_node
        self.threads_per_proc = threads_per_proc
        self.num_procs = num_nodes * procs_per_node
        #: COMM_WORLD's group, one tuple shared by every rank's handle.
        self.world_group = tuple(range(self.num_procs))
        self.max_vcis_per_proc = max_vcis_per_proc
        self.rng = RandomStreams(seed)
        #: The bound interconnect graph, or None on a direct (single-hop)
        #: cluster — in which case the fabric is the legacy `Fabric` and
        #: timing is byte-identical to the pre-ClusterSpec code path.
        self.topology = cluster.build_topology()
        if self.topology is None:
            self.fabric = Fabric(self.sim, self.cfg.fabric)
        else:
            from ..netsim.topology.routed import RoutedFabric
            self.fabric = RoutedFabric(self.sim, self.cfg.fabric,
                                       self.topology)

        self.nodes = [Node(self.sim, i, self.cfg) for i in range(num_nodes)]
        self.procs: list[MpiProcess] = []
        for node in self.nodes:
            self.fabric.register_node(node.node_id, node.deliver)
        for rank in range(self.num_procs):
            node = self.nodes[rank // procs_per_node]
            proc = MpiProcess(self, rank, node)
            node.attach(proc)
            self.procs.append(proc)

        # -- fault injection + reliable transport (opt-in) -------------
        # With a fault plan, the fabric and NICs consult one injector
        # (seeded by the world seed, so the fault schedule reproduces per
        # seed) and every process gets a ReliableTransport restoring MPI's
        # delivery guarantees. Passing transport= alone runs the reliable
        # protocol on a lossless fabric (useful for overhead studies).
        self.fault_plan = faults
        #: Installed background-traffic session, set by
        #: :func:`repro.netsim.traffic.install_traffic`; None when the
        #: world runs without background load.
        self.traffic = None
        self.injector: Optional[FaultInjector] = None
        self.transport_params: Optional[TransportParams] = None
        if faults is not None or transport is not None:
            from ..faults import injector as injection, transport as reliable
            if faults is not None:
                self.injector = injection.FaultInjector(self.sim, faults,
                                                        seed=seed)
                self.fabric.injector = self.injector
                for node in self.nodes:
                    node.nic.attach_fault_injector(self.injector)
            self.transport_params = transport or reliable.TransportParams()
            for proc in self.procs:
                proc.lib.transport = reliable.ReliableTransport(
                    proc.lib, self.transport_params)
        self.sim.add_diagnostic(self._pending_mpi_report)

        # Context ids are allocated in strides of four per communicator:
        # +0 point-to-point, +1 collectives, +2 partitioned, +3 reserved.
        # COMM_WORLD holds 0..3.
        self._next_context = 4
        self._meetings: dict[Any, _Meeting] = {}

        # -- which session owns this world, and which one stops it? -----
        # The innermost session lists the world; a session with a stop
        # around it (`python -m repro replay`) runs it: run()/run_all()
        # then pause at its stop, and the events run are the same.
        self._runner = session.adopt(self) if session is not None else None

    # ------------------------------------------------------------------
    def _pending_mpi_report(self) -> list[str]:
        """Deadlock-diagnostic lines: per-rank, per-VCI pending MPI state.

        Registered with the simulator so that when a run deadlocks, the
        error names what each rank was still waiting for — posted receives
        that never matched, unexpected messages nobody received, stuck
        rendezvous handshakes, and unacknowledged transport packets —
        instead of a bare "deadlock?".
        """
        lines: list[str] = []
        for proc in self.procs:
            lib = proc.lib
            detail: list[str] = []
            for vci in lib.vci_pool.active_vcis:
                engine = vci.engine
                bits = []
                if engine.posted_depth:
                    bits.append(f"{engine.posted_depth} posted recv(s) "
                                "never matched")
                if engine.unexpected_depth:
                    bits.append(f"{engine.unexpected_depth} unexpected "
                                "msg(s) never received")
                if bits:
                    detail.append(f"    vci {vci.index}: " + "; ".join(bits))
            if lib._rndv_sends:
                detail.append(f"    {len(lib._rndv_sends)} rendezvous "
                              "send(s) awaiting CTS")
            if lib._rndv_recvs:
                detail.append(f"    {len(lib._rndv_recvs)} rendezvous "
                              "recv(s) awaiting DATA")
            if lib.transport is not None and lib.transport.unacked:
                detail.extend("    transport " + line for line in
                              lib.transport.pending_description())
            if detail:
                lines.append(f"  rank {proc.rank}:")
                lines.extend(detail)
        if lines:
            lines.insert(0, "pending MPI state per rank:")
        return lines

    def proc(self, rank: int) -> MpiProcess:
        return self.procs[rank]

    def comm_world(self, rank: int) -> Communicator:
        return self.procs[rank].comm_world

    def alloc_context_id(self) -> int:
        """Allocate a fresh (even) context id, globally consistent."""
        context_id = self._next_context
        self._next_context = context_id + 4
        return context_id

    # ------------------------------------------------------------------
    def meet(self, key: Any, nmembers: int, rank: int,
             contribution: Any = None,
             alloc: Optional[Callable[[], dict]] = None,
             finalize: Optional[Callable[["_Meeting"], None]] = None
             ) -> Generator[Event, Any, _Meeting]:
        """Rendezvous of ``nmembers`` participants under ``key``.

        Used by collective *setup* operations (Comm_dup, endpoint and
        window creation): every participant blocks until all have arrived,
        contributions are exchanged, and the first arriver runs ``alloc``
        to populate the meeting's shared dictionary (e.g. allocate a
        context id that all members must agree on). ``finalize`` runs once,
        by the *last* arriver, after all contributions are in — for
        allocations whose size depends on the contributions (Comm_split's
        per-color context ids). Setup calls are outside every benchmark's
        critical path, so the rendezvous itself is time-free by design.
        """
        meeting = self._meetings.get(key)
        if meeting is None:
            meeting = _Meeting(expected=nmembers, gate=Gate(self.sim))
            if alloc is not None:
                meeting.shared.update(alloc())
            self._meetings[key] = meeting
        if meeting.expected != nmembers:
            raise MpiUsageError(
                f"meeting {key!r} size mismatch: {meeting.expected} vs {nmembers}")
        if rank in meeting.contributions:
            raise MpiUsageError(f"rank {rank} joined meeting {key!r} twice")
        meeting.contributions[rank] = contribution
        meeting.arrived += 1
        chk = self.sim.checker
        if chk is not None:
            chk.meet_arrive(meeting)
        if meeting.arrived == meeting.expected:
            del self._meetings[key]
            if finalize is not None:
                finalize(meeting)
            meeting.gate.open()
        else:
            yield from meeting.gate.wait()
        if chk is not None:
            chk.meet_depart(meeting)
        return meeting

    # ------------------------------------------------------------------
    def launch(self, fn: Callable[[MpiProcess, int], Generator],
               threads_per_proc: Optional[int] = None) -> list[Process]:
        """Spawn ``fn(proc, tid)`` on every process for every thread id."""
        nt = threads_per_proc or self.threads_per_proc
        tasks = []
        for proc in self.procs:
            for tid in range(nt):
                tasks.append(proc.spawn(fn(proc, tid),
                                        name=f"rank{proc.rank}.t{tid}"))
        return tasks

    def run(self, until: Optional[float | Event] = None,
            max_steps: Optional[int] = None) -> Any:
        if self._runner is not None:
            return self._runner.run(self, until, max_steps)
        return self.sim.run(until=until, max_steps=max_steps)

    def finalize_metrics(self) -> None:
        """Harvest end-of-run structural metrics into ``self.metrics``.

        Fills the gauges that are cheaper to read once than to track live:
        per-VCI lock totals and queue high-water marks, matching-queue
        depths, NIC context occupancy and oversubscription, fabric link
        saturation. A no-op without a registry, and safe to call more than
        once (values are overwritten, not accumulated).
        """
        if self.metrics is None:
            return
        from ..obs.collect import collect_world
        collect_world(self, self.metrics)

    def check_report(self) -> CheckReport:
        """The correctness checker's report for this world.

        Runs the end-of-run scans (lock-order cycles, leaked requests and
        windows) on first call; idempotent afterwards. Without
        ``check=`` the report is trivially clean.
        """
        if self.checker is None:
            from ..check.report import CheckReport
            return CheckReport([], mode="warn")
        return self.checker.finalize()

    def run_all(self, tasks: Iterable[Process],
                max_steps: Optional[int] = None) -> list[Any]:
        """Run until every task in ``tasks`` has finished; returns their
        values (raises if any failed)."""
        gather = self.sim.all_of(list(tasks))
        if self._runner is not None:
            return self._runner.run(self, gather, max_steps)
        return self.sim.run(until=gather, max_steps=max_steps)

    @property
    def now(self) -> float:
        return self.sim.now
