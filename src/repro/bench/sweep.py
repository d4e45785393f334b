"""Generic parameter sweeps with tabular/CSV output.

A :class:`Sweep` names the cartesian product of parameter values and
shapes flat result rows into tables. It runs nothing: every point executes
through :func:`repro.serve.run_local` (see ``repro sweep``), and the
results come back here as :class:`SweepRow` rows::

    sweep = Sweep(name="fig1a",
                  params={"mode": ["everywhere", "threads-original"],
                          "cores": [1, 8, 32]})
    rows = [SweepRow(point, {"rate_Mmsgs": rate[point["mode"],
                                                point["cores"]]})
            for point in sweep.points]
    print(sweep.pivot(rows, index="cores", column="mode",
                      value="rate_Mmsgs").render())
    sweep.to_csv(rows, "fig1a.csv")
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

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

    # -- output ----------------------------------------------------------
    def to_csv(self, rows: list[SweepRow], path: str) -> str:
        """Write sweep rows to ``path`` as CSV (sweep params first, then
        outputs as discovered); returns the path."""
        cols = list(self.params)
        for row in rows:
            for k in row.outputs:
                if k not in cols:
                    cols.append(k)
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
