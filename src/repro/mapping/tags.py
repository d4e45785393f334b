"""Tag encoding for the "tags with hints" mechanism (Lessons 6-9,
Listing 2).

MPI+threads applications already encode thread ids into tags (hypre,
Smilei); this module provides the Listing 2 encoding::

    tag = src_tid << (NUM_TID_BITS + NUM_APP_BITS)
        | dst_tid << NUM_APP_BITS
        | app_tag

together with the Info bundles that (a) relax the semantics the pattern
does not need and (b) tell the (MPICH-like) library which bits carry the
parallelism information. The schema validates bit budgets against the
modelled ``TAG_BITS``-wide tag space, raising
:class:`~repro.errors.TagOverflowError` when thread bits plus application
bits no longer fit — Lesson 9's tag-overflow hazard, made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MpiUsageError, TagOverflowError
from ..mpi.info import Info
from ..mpi.vci import TAG_BITS

__all__ = ["TagSchema", "listing2_info", "overtaking_only_info"]


@dataclass(frozen=True)
class TagSchema:
    """Bit layout of a parallelism-encoding tag: the src/dst thread
    fields sit at the top of the tag (Listing 2's MSB placement)."""

    num_tid_bits: int
    num_app_bits: int

    def __post_init__(self):
        if self.num_tid_bits < 0 or self.num_app_bits < 0:
            raise MpiUsageError("bit counts must be non-negative")
        if 2 * self.num_tid_bits + self.num_app_bits > TAG_BITS:
            raise TagOverflowError(
                f"tag layout needs {2 * self.num_tid_bits + self.num_app_bits} "
                f"bits but the tag space has only {TAG_BITS} — encoding "
                "parallelism information into tags exacerbates tag overflow "
                "(Lesson 9)")

    @property
    def max_threads(self) -> int:
        return 1 << self.num_tid_bits

    @property
    def max_app_tag(self) -> int:
        return (1 << self.num_app_bits) - 1

    def encode(self, src_tid: int, dst_tid: int, app_tag: int = 0) -> int:
        """Build the wire tag (Listing 2's encoding)."""
        if not 0 <= src_tid < self.max_threads:
            raise TagOverflowError(
                f"src_tid {src_tid} does not fit in {self.num_tid_bits} bits")
        if not 0 <= dst_tid < self.max_threads:
            raise TagOverflowError(
                f"dst_tid {dst_tid} does not fit in {self.num_tid_bits} bits")
        if not 0 <= app_tag <= self.max_app_tag:
            raise TagOverflowError(
                f"app_tag {app_tag} does not fit in {self.num_app_bits} bits")
        src_shift = TAG_BITS - self.num_tid_bits
        dst_shift = TAG_BITS - 2 * self.num_tid_bits
        return (src_tid << src_shift) | (dst_tid << dst_shift) | app_tag

    def decode(self, tag: int) -> tuple[int, int, int]:
        """Return ``(src_tid, dst_tid, app_tag)``."""
        mask = self.max_threads - 1
        src = (tag >> (TAG_BITS - self.num_tid_bits)) & mask
        dst = (tag >> (TAG_BITS - 2 * self.num_tid_bits)) & mask
        app = tag & ((1 << (TAG_BITS - 2 * self.num_tid_bits)) - 1)
        return src, dst, app


def listing2_info(n_threads: int, num_tid_bits: int) -> Info:
    """The full Listing 2 hint bundle: relax wildcards, request one VCI per
    thread, and describe the tag layout one-to-one."""
    if n_threads > (1 << num_tid_bits):
        raise MpiUsageError(
            f"{n_threads} threads do not fit in {num_tid_bits} tag bits")
    info = Info()
    info.set("mpi_assert_no_any_tag", "true")
    info.set("mpi_assert_no_any_source", "true")
    info.set("mpich_num_vcis", n_threads)
    info.set("mpich_num_tag_bits_vci", num_tid_bits)
    info.set("mpich_place_tag_bits_local_vci", "MSB")
    info.set("mpich_tag_vci_hash_type", "one-to-one")
    return info


def overtaking_only_info(num_vcis: int) -> Info:
    """Only ``allow_overtaking``: the application still needs wildcards, so
    just the sends become logically parallel (Section II-A)."""
    info = Info()
    info.set("mpi_assert_allow_overtaking", "true")
    info.set("mpich_num_vcis", num_vcis)
    return info
