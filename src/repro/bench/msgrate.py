"""Message-rate microbenchmark (Fig 1a).

Two nodes; node 0's workers blast windowed nonblocking sends at node 1's
workers, which keep windows of pre-posted receives. The achieved aggregate
rate (completed receives / elapsed simulated time) is measured per core
count N, for the execution modes of Fig 1(a). A mode is a row of
:data:`_MODES`: mode -> the :mod:`repro.apps.channels` mechanism its
workers communicate under, plus what it tells the library.

- ``everywhere`` -> ``original`` — MPI everywhere: N single-threaded
  processes per node, each with its own (single) VCI;
- ``threads-original`` -> ``original`` — 1 process, N threads,
  MPI_THREAD_MULTIPLE on ``COMM_WORLD``: every operation funnels through
  one VCI;
- ``threads-tags`` -> ``tags`` — N threads + the Listing 2 tag/hint bundle
  (one VCI per thread via tag bits);
- ``threads-comms`` -> ``communicators`` — N threads, one duplicated
  communicator per thread;
- ``threads-endpoints`` -> ``endpoints`` — N threads, one endpoint each.

Two ablation modes dissect the hint bundle; both -> ``original`` (thread
ids in the tag) on a duplicate that asserts only part of it:

- ``threads-overtaking`` — only ``mpi_assert_allow_overtaking``: sends
  spread over VCIs but receives stay on the base VCI (Section II-A);
- ``threads-tags-hash`` — no-wildcard assertions with the default *hash*
  tag-to-VCI policy instead of one-to-one (Lesson 7: without the
  bit-layout hints the mapping is at the mercy of the hash).

The paper's headline: the logically-parallel MPI+threads modes match MPI
everywhere, while the original mode stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..errors import MpiUsageError
from ..mapping.tags import overtaking_only_info
from ..mpi.info import Info
from ..mpi.request import waitall
from ..netsim.config import NetworkConfig
from ..sim.core import gc_suspended

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..runtime.world import MpiProcess
    from ..sim.trace import Tracer

__all__ = ["MsgRateConfig", "MsgRateResult", "run_msgrate", "MODES"]


#: mode -> (mechanism, ``open_channels`` options for n threads, whether a
#: process gets VCIs to spread over by default — one for the modes that
#: tell the library nothing).
_MODES: dict[str, tuple[str, Callable[[int], dict[str, Any]], bool]] = {
    "everywhere": ("original", lambda n: {}, False),
    "threads-original": ("original", lambda n: {}, False),
    "threads-tags": ("tags", lambda n: {"app_bits": 4}, True),
    "threads-comms": ("communicators", lambda n: {"thread_prefix": "mr"},
                      True),
    "threads-endpoints": ("endpoints", lambda n: {}, True),
    "threads-overtaking": ("original",
                           lambda n: {"info": overtaking_only_info(n)}, True),
    "threads-tags-hash": ("original", lambda n: {"info": Info({
        "mpi_assert_no_any_tag": "true", "mpi_assert_no_any_source": "true",
        "mpich_num_vcis": str(n)})}, True),
}

MODES = tuple(_MODES)


@dataclass
class MsgRateConfig:
    """Parameters for the message-rate microbenchmark."""

    mode: str = "everywhere"
    #: Communicating cores per node.
    cores: int = 8
    #: Messages each sender core issues.
    msgs_per_core: int = 64
    #: Payload bytes per message (Fig 1a uses small messages).
    msg_bytes: int = 8
    #: Nonblocking window depth.
    window: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise MpiUsageError(f"unknown mode {self.mode!r}")
        for name, low in (("cores", 1), ("msgs_per_core", 1),
                          ("window", 1), ("msg_bytes", 0)):
            value = getattr(self, name)
            if type(value) is not int:  # a bool is no count either
                raise MpiUsageError(f"{name} must be an integer, "
                                    f"got {value!r}")
            if value < low:
                raise MpiUsageError(f"{name} must be >= {low}")


@dataclass
class MsgRateResult:
    """Aggregate rate and span measured by one message-rate run."""

    cfg: MsgRateConfig
    #: Aggregate messages/second (completed receives / span).
    rate: float
    #: Simulated seconds from first send post to last receive completion.
    span: float
    messages: int

    def __str__(self) -> str:
        return (f"{self.cfg.mode:18s} cores={self.cfg.cores:3d} "
                f"rate={self.rate / 1e6:8.2f} M msg/s")


def _sender(route: tuple[Any, int, int], cfg: MsgRateConfig,
            payload: bytearray) -> Generator[Any, Any, None]:
    comm, peer, tag = route
    pending = []
    for _ in range(cfg.msgs_per_core):
        req = yield from comm.Isend(payload, peer, tag)
        pending.append(req)
        if len(pending) >= cfg.window:
            yield from waitall(pending)
            pending = []
    yield from waitall(pending)


def _receiver(route: tuple[Any, int, int], cfg: MsgRateConfig
              ) -> Generator[Any, Any, None]:
    comm, peer, tag = route
    bufs = [bytearray(cfg.msg_bytes) for _ in range(cfg.window)]
    left = cfg.msgs_per_core
    while left > 0:
        reqs = []
        for buf in bufs[:left]:
            req = yield from comm.Irecv(buf, peer, tag)
            reqs.append(req)
        yield from waitall(reqs)
        left -= len(reqs)


@gc_suspended()  # owns its World: freed on return (see gc_suspended)
def run_msgrate(cfg: MsgRateConfig,
                net: Optional[NetworkConfig] = None,
                max_vcis_per_proc: Optional[int] = None,
                metrics: Optional["MetricsRegistry"] = None,
                tracer: Optional["Tracer"] = None) -> MsgRateResult:
    """Run one message-rate experiment; returns the achieved rate.

    Pass a :class:`repro.obs.MetricsRegistry` as ``metrics`` and/or an
    enabled :class:`repro.sim.trace.Tracer` as ``tracer`` to instrument
    the run (``python -m repro profile msgrate`` does exactly this).
    Instrumentation does not change the simulated timings.
    """
    # Not at module level: ``repro.cli`` imports this module at start-up,
    # and no front end may load an app module before it runs one.
    from ..apps.channels import open_channels
    from ..apps.harness import run_app

    n = cfg.cores
    mechanism, options, spreads = _MODES[cfg.mode]
    # MPI everywhere is a process shape, not a mechanism: n processes a
    # node, each one single-VCI worker running inline in its main thread.
    everywhere = cfg.mode == "everywhere"
    workers = 1 if everywhere else n
    if everywhere or max_vcis_per_proc is None:
        max_vcis_per_proc = max(4, 2 * n) if spreads else 1
    # Nothing reads a Fig 1(a) message, so its buffers are bytes: a run
    # loads no numpy (see repro.mpi.datatypes).
    payload = bytearray(cfg.msg_bytes)

    def proc_main(proc: "MpiProcess") -> Generator[Any, Any, float]:
        channels = yield from open_channels(proc, mechanism, workers,
                                            **options(n))
        # Worker ``tid`` of a sending rank pairs with worker ``tid`` of
        # the rank ``half`` above it.
        half = proc.world.num_procs // 2

        def worker(tid: int) -> Generator[Any, Any, None]:
            # On ``original`` only the tag tells a process's workers apart.
            app_tag = tid if mechanism == "original" else 0
            if proc.rank < half:
                return _sender(channels.send(tid, proc.rank + half, tid,
                                             app_tag), cfg, payload)
            return _receiver(channels.recv(tid, proc.rank - half, tid,
                                           app_tag), cfg)

        if everywhere:
            yield from worker(0)
        else:
            yield proc.sim.all_of([proc.spawn(worker(tid))
                                   for tid in range(n)])
        return proc.sim.now

    world, end_times = run_app(
        2, workers, proc_main, procs_per_node=n if everywhere else 1,
        seed=cfg.seed, net=net, max_vcis_per_proc=max_vcis_per_proc,
        metrics=metrics, tracer=tracer)
    world.finalize_metrics()
    # The receiving ranks: each ends when its last receive completes.
    span = max(end_times[len(end_times) // 2:])
    total = n * cfg.msgs_per_core
    return MsgRateResult(cfg=cfg, rate=total / span, span=span,
                         messages=total)
