"""Fault injection and reliable transport for the simulated fabric.

This package makes the fabric *lossy on purpose* and the MPI layer survive
it. The pieces:

- :mod:`~repro.faults.plan` — declarative, per-seed-reproducible
  :class:`FaultPlan` schedules (drop/dup/corrupt/delay rates, NIC
  hardware-context stalls, link flap/degradation windows).
- :mod:`~repro.faults.injector` — the :class:`FaultInjector` that turns a
  plan plus the experiment seed into concrete per-message decisions.
- :mod:`~repro.faults.transport` — :class:`ReliableTransport`: sequence
  numbers, checksums, duplicate suppression, and ACK/timeout
  retransmission restoring per-channel FIFO, exactly-once delivery on any
  plan.
- :mod:`~repro.faults.report` — the post-run reliability report.

Enable it through the runtime: ``World(faults=FaultPlan(drop=0.05))``, or
``python -m repro stencil --plan drop=0.05 --seed 1``. See
``docs/faults.md`` for the fault model and determinism guarantees.
"""

from .. import _lazy
from .injector import Delivery, FaultInjector, payload_checksum
from .plan import ANY, CtxStall, FaultPlan, LinkWindow, parse_plan, parse_time
from .transport import ReliableTransport, TransportParams

#: The reliability report renders after a run, on the profiling tables.
__getattr__, __dir__ = _lazy(__name__, {
    ".report": ("render_reliability_report",),
})

__all__ = [
    "ANY",
    "CtxStall",
    "Delivery",
    "FaultInjector",
    "FaultPlan",
    "LinkWindow",
    "ReliableTransport",
    "TransportParams",
    "parse_plan",
    "parse_time",
    "payload_checksum",
    "render_reliability_report",
]
