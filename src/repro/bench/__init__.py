"""Benchmark harness: workload generators, sweeps, reporting."""

from .. import _lazy
from .msgrate import MODES, MsgRateConfig, MsgRateResult, run_msgrate

#: A Fig 1(a) run needs only the workload; tables and sweeps load on use.
__getattr__, __dir__ = _lazy(__name__, {
    ".report": ("Table", "write_results"),
    ".sweep": ("Sweep", "SweepRow"),
})

__all__ = ["MODES", "MsgRateConfig", "MsgRateResult", "Sweep", "SweepRow",
           "Table", "run_msgrate", "write_results"]
