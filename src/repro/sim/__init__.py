"""Discrete-event simulation kernel for the MPI+threads reproduction.

Everything in :mod:`repro` runs on this kernel: MPI processes and threads
are cooperative tasks (:class:`~repro.sim.core.Process`), NIC hardware
contexts are :class:`~repro.sim.resources.FIFOServer` instances, and
contention is modelled with the primitives in :mod:`repro.sim.sync`.
"""

from .core import (
    AllOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .random import RandomStreams
from .resources import FIFOServer, ServerStats
from .sync import Barrier, ContentionStats, Gate, Lock, Mailbox, Semaphore
from .trace import (
    Category,
    SpanPairing,
    TraceCategory,
    TraceRecord,
    Tracer,
)

__all__ = [
    "AllOf",
    "Barrier",
    "Category",
    "ContentionStats",
    "Event",
    "FIFOServer",
    "Gate",
    "Lock",
    "Mailbox",
    "Process",
    "RandomStreams",
    "Semaphore",
    "ServerStats",
    "SimulationError",
    "Simulator",
    "SpanPairing",
    "Timeout",
    "TraceCategory",
    "TraceRecord",
    "Tracer",
]
