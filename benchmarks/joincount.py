"""Happens-before joins per simulated message: how each clock join ends,
and how much of what a walking join visits is news.

    PYTHONPATH=src python benchmarks/joincount.py [--mode M] [--cores N ...]

Runs Fig 1(a) points of one mode (default ``threads-original``) checked,
each exactly as ``benchmarks/opcount.py`` and the ``fig1a_checked``
workload run it (16 messages per core, ``omnipath``), with
``TaskClock.join`` and ``TaskClock._raise_to`` wrapped in this script;
nothing under ``src/`` changes. Per simulated message it prints:

- ``joins``: calls of ``TaskClock.join`` with a publication;
- ``known``: joins that return at once (the publisher's epoch is known);
- ``adopted``: joins that take the publisher's dict by copy;
- ``walks``: joins that walk the publisher's dict in Python, and where
  they come from (the checker hook that called ``join``);
- ``visited``: components those walks read, and ``news``: how many of
  them raised a component of the joining clock;
- the same by caller: the checker hook that called ``join``, or
  ``join_task`` / ``join_merged`` for the walks of a process join or a
  barrier, which are not ``join`` calls and not in the totals.

A tree clock (ROADMAP item 14) does work in proportion to ``news``, so
``visited / news`` bounds what it can save on a walk. The counts depend
only on the code: two runs print the same bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from opcount import config, run_point  # noqa: E402  (the same points)


def census(mode: str, cores: int, msgs: int) -> tuple[int, Counter]:
    """``(messages, counts)`` for one checked point; ``counts`` keys are
    ``joins``, ``known``, ``adopted``, ``walks``, ``visited``, ``news``
    and ``walks from <hook>`` / ``adopted from <hook>``."""
    from repro.check.hb import TaskClock

    counts: Counter = Counter()
    real_join, real_raise = TaskClock.join, TaskClock._raise_to
    #: The hook whose join is running, and whether that join walked.
    joining: list = [None, False]

    def join(self, other):
        if other is None:
            return real_join(self, other)
        counts["joins"] += 1
        opid, oepoch, _theirs, _ = other
        if opid == self.pid or self.foreign.get(opid, 0) >= oepoch:
            counts["known"] += 1
            return real_join(self, other)
        joining[:] = sys._getframe(1).f_code.co_qualname, False
        try:
            real_join(self, other)
        finally:
            hook, walked = joining
            joining[:] = None, False
        outcome = "walks" if walked else "adopted"
        counts[outcome] += 1
        counts[f"{outcome} from {hook}"] += 1

    def raise_to(self, theirs):
        hook = joining[0]
        if theirs is not self._merged:
            get, pid = self.foreign.get, self.pid
            news = sum(p != pid and get(p, 0) < c for p, c in theirs.items())
            if hook is None:  # a process join or a barrier, not a join()
                hook = "TaskClock." + sys._getframe(1).f_code.co_name
            else:
                joining[1] = True
                counts["visited"] += len(theirs)
                counts["news"] += news
            counts[f"visited from {hook}"] += len(theirs)
            counts[f"news from {hook}"] += news
        real_raise(self, theirs)

    TaskClock.join, TaskClock._raise_to = join, raise_to
    try:
        messages = run_point(config(mode, cores, msgs), checked=True)
    finally:
        TaskClock.join, TaskClock._raise_to = real_join, real_raise
    return messages, counts


def main(argv: list[str] | None = None) -> int:
    """Print one row per core count; returns 0."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", default="threads-original")
    ap.add_argument("--cores", type=int, nargs="+", default=[8, 16, 32, 64])
    ap.add_argument("--msgs-per-core", type=int, default=16)
    args = ap.parse_args(argv)
    run_point(config(args.mode, 2, 2), checked=True)  # first-use imports
    columns = ("joins", "known", "adopted", "walks", "visited", "news")
    rows = [(cores, *census(args.mode, cores, args.msgs_per_core))
            for cores in args.cores]
    lines = [f"{args.mode}, checked, {args.msgs_per_core} msgs/core: "
             f"TaskClock.join per simulated message", "",
             f"{'cores':>5} {'messages':>8} "
             + " ".join(f"{c:>8}" for c in columns)]
    lines += [f"{cores:>5} {messages:>8} "
              + " ".join(f"{counts[c] / messages:>8.2f}" for c in columns)
              for cores, messages, counts in rows]
    lines += ["", "by caller (every walk, a join()'s or not)", "",
              f"{'count':<46} "
              + " ".join(f"{cores:>7}" for cores, _, _ in rows)]
    keys = sorted({key for _, _, counts in rows for key in counts
                   if " from " in key})
    lines += [f"{key:<46} " + " ".join(
        f"{counts[key] / messages:>7.2f}" for _, messages, counts in rows)
        for key in keys]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
