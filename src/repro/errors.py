"""Exception hierarchy for the simulated MPI library."""

from __future__ import annotations

__all__ = [
    "MpiError",
    "MpiUsageError",
    "TruncationError",
    "TagOverflowError",
    "InvalidHintError",
    "HintViolationError",
    "RmaSemanticsError",
    "TransportError",
    "FaultPlanError",
    "FaultConfigError",
    "TrafficConfigError",
    "ScenarioError",
    "CheckError",
    "TopologyError",
    "ServeError",
    "ProtocolError",
]


class MpiError(Exception):
    """Base class for all simulated-MPI errors."""


class MpiUsageError(MpiError):
    """API misuse: wrong arguments, wrong state, wrong call ordering.

    Examples: issuing two concurrent collectives on one communicator
    (MPI requires them to be serial), waiting on an inactive request.
    """


class TruncationError(MpiError):
    """A received message is larger than the posted receive buffer."""


class TagOverflowError(MpiError):
    """A tag does not fit in the configured tag space.

    The paper's Lesson 9: encoding parallelism information into tags
    exacerbates tag overflow, already reported for SNAP, Smilei, MITgcm.
    """


class InvalidHintError(MpiError):
    """An Info hint has an invalid value or an inconsistent combination."""


class HintViolationError(MpiError):
    """The application violated a semantics-relaxing hint it asserted.

    E.g. posting an ``ANY_TAG`` receive on a communicator created with
    ``mpi_assert_no_any_tag=true``.
    """


class RmaSemanticsError(MpiError):
    """Violation of RMA window semantics (bounds, epochs, atomic misuse)."""


class TransportError(MpiError):
    """The reliable transport gave up on a message.

    Raised when a wire message exhausts its retransmission budget (the
    fault plan's loss exceeded what ACK/timeout recovery can absorb).
    Carries enough context to identify the flow that died.
    """

    def __init__(self, message: str, flow=None, seq=None, retries=None,
                 pending_seqs=None, backoff_schedule=None):
        super().__init__(message)
        self.flow = flow
        self.seq = seq
        self.retries = retries
        #: Every unacked sequence number of the dying flow at give-up time.
        self.pending_seqs = list(pending_seqs or [])
        #: The per-retry timeout schedule (seconds) the sender waited out.
        self.backoff_schedule = list(backoff_schedule or [])


class FaultPlanError(MpiError):
    """A fault-injection plan spec is malformed or inconsistent."""


class FaultConfigError(FaultPlanError):
    """A fault plan's *values* are invalid (rates, windows, durations).

    Subclass of :class:`FaultPlanError` so existing handlers keep working;
    raised eagerly at plan construction — never mid-run — for negative or
    out-of-range probabilities, negative durations, and inverted time
    windows.
    """


class TrafficConfigError(MpiError):
    """A background-traffic shape is malformed (rates, sizes, windows)."""


class ScenarioError(MpiError):
    """A scenario spec is malformed or references unknown components."""


class CheckError(MpiError):
    """A correctness violation detected by :mod:`repro.check` in raise mode.

    Carries the :class:`repro.check.Violation` that triggered it as
    ``violation`` so callers can inspect rule id, simulated time and task.
    """

    def __init__(self, message: str, violation=None):
        super().__init__(message)
        self.violation = violation


class TopologyError(MpiError):
    """An interconnect topology is malformed or cannot host the cluster.

    Raised for unknown topology names, generator parameters that violate
    the topology's structural constraints (odd fat-tree arity, too few
    dragonfly groups), clusters larger than the topology's host capacity,
    and routing-table defects detected while building static routes.
    """


class ServeError(MpiError):
    """A simulation-service operation failed (:mod:`repro.serve`).

    Raised for malformed job documents, unknown job/point kinds, lookups
    of job ids the orchestrator has never seen, and service lifecycle
    failures (state directory held by another orchestrator).
    """


class ProtocolError(ServeError):
    """A worker-protocol frame is malformed.

    Raised when a length-prefixed JSON frame is truncated at EOF,
    exceeds the frame size bound, or decodes to something other than a
    JSON object with a ``type`` field. Transport code treats it as a
    fatal error for that connection: the peer is dropped and any job it
    held is re-queued.
    """
