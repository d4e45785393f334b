"""Deterministic random-number streams for simulations.

Every stochastic component (workload generators, graph partitions, jitter)
draws from a named child stream derived from a single experiment seed, so
adding a new consumer never perturbs the draws seen by existing ones.
numpy loads with the first stream a run draws from, not with the World.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A tree of named, independently-seeded numpy Generators."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        if self.seed < 0:  # what numpy's SeedSequence would refuse
            raise ValueError(f"seed must be non-negative, got {seed!r}")
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``.

        The stream depends only on ``(seed, name)``, not on creation order
        nor on the interpreter's hash seed.
        """
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np
            child = np.random.SeedSequence(
                entropy=self.seed,
                spawn_key=(zlib.crc32(name.encode("utf-8")),),
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.stream(name)
