"""repro.check.static_: the interprocedural static analyzer.

``python -m repro analyze <prog.py>`` runs four passes over the AST of
a driver program — no import, no execution:

1. **races** — lockset + static happens-before over thread regions
   (spawn/join windows): S301 request races, S302 channel collisions,
   S303 lock-order cycles, S307 RMA races, concurrent collectives.
2. **lifecycle** — branch/loop-sensitive request tracking: S308 leaks
   (including early-return paths), S311 double-wait, S312
   cancel-after-complete, S305 partitioned protocol, S306 RMA epochs,
   S309 unflushed windows.
3. **collective consistency** — S310 mismatched collectives across
   rank-dependent branches.
4. **VCI-mappability advisor** — S304 hint violations plus advice-only
   S313-S315 and a verdict for each of the paper's four mechanisms.

The S3xx catalog lives in :mod:`repro.check.rules` next to the dynamic
CHK rules it mirrors; :mod:`repro.check.static_.crossval` cross-validates
the two engines over the scenario corpus.
"""

from __future__ import annotations

from .analyzer import (StaticReport, analyze_path, analyze_paths,
                       analyze_source)
from .findings import StaticFinding
from .sarif import to_sarif

__all__ = [
    "StaticFinding",
    "StaticReport",
    "analyze_path",
    "analyze_paths",
    "analyze_source",
    "to_sarif",
]
