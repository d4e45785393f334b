"""Generic parameter sweeps with tabular/CSV output.

A :class:`Sweep` runs an experiment function over the cartesian product of
named parameter values and collects flat result rows — the workhorse
behind "regenerate this figure" scripts::

    sweep = Sweep(name="fig1a",
                  params={"mode": ["everywhere", "threads-original"],
                          "cores": [1, 8, 32]})

    def run(mode, cores):
        r = run_msgrate(MsgRateConfig(mode=mode, cores=cores))
        return {"rate_Mmsgs": r.rate / 1e6}

    rows = sweep.run(run)
    print(sweep.to_table(rows))
    sweep.to_csv(rows, "fig1a.csv")
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from .report import Table

__all__ = ["Sweep", "SweepRow"]


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: the parameters and the measured outputs."""

    params: dict[str, Any]
    outputs: dict[str, Any]

    def flat(self) -> dict[str, Any]:
        """Merge params and outputs into one row dict (keys must not clash)."""
        out = dict(self.params)
        for k, v in self.outputs.items():
            if k in out:
                raise ValueError(f"output column {k!r} collides with a "
                                 "parameter name")
            out[k] = v
        return out


class Sweep:
    """Cartesian-product experiment sweep."""

    def __init__(self, name: str, params: Mapping[str, Iterable[Any]]):
        if not params:
            raise ValueError("sweep needs at least one parameter")
        self.name = name
        self.params = {k: list(v) for k, v in params.items()}
        for k, vs in self.params.items():
            if not vs:
                raise ValueError(f"parameter {k!r} has no values")

    @property
    def points(self) -> list[dict[str, Any]]:
        keys = list(self.params)
        return [dict(zip(keys, combo))
                for combo in itertools.product(*self.params.values())]

    def run(self, fn: Callable[..., Mapping[str, Any]],
            progress: Optional[Callable[[dict], None]] = None
            ) -> list[SweepRow]:
        """Run ``fn(**point)`` for every point, in point order; ``fn``
        returns an output mapping. ``progress`` (if given) is called with
        each point before it runs."""
        rows = []
        for point in self.points:
            if progress is not None:
                progress(point)
            row = SweepRow(params=point, outputs=dict(fn(**point)))
            row.flat()  # validates output/parameter name collisions
            rows.append(row)
        return rows

    # -- output ----------------------------------------------------------
    def columns(self, rows: list[SweepRow]) -> list[str]:
        """Column order: sweep params first, then outputs as discovered."""
        cols = list(self.params)
        for row in rows:
            for k in row.outputs:
                if k not in cols:
                    cols.append(k)
        return cols

    def to_table(self, rows: list[SweepRow]) -> str:
        """Render sweep rows as an aligned text table."""
        cols = self.columns(rows)
        table = Table(self.name, cols)
        for row in rows:
            flat = row.flat()
            table.add(*[flat.get(c, "") for c in cols])
        return table.render()

    def to_csv(self, rows: list[SweepRow], path: str) -> str:
        """Write sweep rows to ``path`` as CSV; returns the path."""
        cols = self.columns(rows)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for row in rows:
                writer.writerow(row.flat())
        return path

    def pivot(self, rows: list[SweepRow], index: str, column: str,
              value: str) -> Table:
        """A 2D view: one table row per ``index`` value, one table column
        per ``column`` value, cells from ``value``."""
        col_values = self.params.get(column)
        if col_values is None:
            raise ValueError(f"{column!r} is not a sweep parameter")
        idx_values = self.params.get(index)
        if idx_values is None:
            raise ValueError(f"{index!r} is not a sweep parameter")
        lookup = {}
        for row in rows:
            flat = row.flat()
            lookup[(flat[index], flat[column])] = flat.get(value, "")
        table = Table(f"{self.name}: {value}",
                      [index] + [str(c) for c in col_values])
        for iv in idx_values:
            table.add(iv, *[lookup.get((iv, cv), "") for cv in col_values])
        return table
