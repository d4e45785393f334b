"""Benchmark harness: workload generators, sweeps, reporting."""

from .msgrate import MODES, MsgRateConfig, MsgRateResult, run_msgrate
from .report import Table, write_results
from .sweep import Sweep, SweepRow

__all__ = ["MODES", "MsgRateConfig", "MsgRateResult", "Sweep", "SweepRow",
           "Table", "run_msgrate", "write_results"]
