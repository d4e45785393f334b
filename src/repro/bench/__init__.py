"""Benchmark harness: the Fig 1(a) workload and result tables."""

from .. import _lazy

#: The Fig 1(a) execution modes by name: the paper's five, then the two
#: ablation modes (:mod:`repro.bench.msgrate` says what each one runs).
#: Defined here, so the CLI lists them without loading the simulator.
MODES = ("everywhere", "threads-original", "threads-tags", "threads-comms",
         "threads-endpoints", "threads-overtaking", "threads-tags-hash")

#: Nothing else loads with the package: a Fig 1(a) run needs no tables.
__getattr__, __dir__ = _lazy(__name__, {
    ".msgrate": ("MsgRateConfig", "MsgRateResult", "run_msgrate"),
    ".report": ("Table", "write_results"),
})

__all__ = ["MODES", "MsgRateConfig", "MsgRateResult", "Table", "run_msgrate",
           "write_results"]
