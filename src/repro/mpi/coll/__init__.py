"""Collective communication: schedules and their executor, operators,
and the user-driven intranode helper of Lesson 18."""

from .algorithms import (
    allreduce,
    dissemination_rounds,
    recursive_doubling_rounds,
    ring_rounds,
    run_schedule,
)
from .hierarchical import ThreadTeamReduce
from .ops import SUM, Op

__all__ = [
    "SUM", "Op", "ThreadTeamReduce", "allreduce", "dissemination_rounds",
    "recursive_doubling_rounds", "ring_rounds", "run_schedule",
]
