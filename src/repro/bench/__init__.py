"""Benchmark harness: the Fig 1(a) workload and result tables."""

from .. import _lazy
from .msgrate import MODES, MsgRateConfig, MsgRateResult, run_msgrate

#: A Fig 1(a) run needs only the workload; tables load on use.
__getattr__, __dir__ = _lazy(__name__, {
    ".report": ("Table", "write_results"),
})

__all__ = ["MODES", "MsgRateConfig", "MsgRateResult", "Table", "run_msgrate",
           "write_results"]
