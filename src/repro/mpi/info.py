"""MPI Info objects and the MPI-4.0 / MPICH hint vocabulary.

The paper's "tags with hints" mechanism (Listing 2) combines:

- standard MPI-4.0 assertions that *relax semantics*:
  ``mpi_assert_allow_overtaking``, ``mpi_assert_no_any_tag``,
  ``mpi_assert_no_any_source``;
- MPICH-specific hints that *communicate the parallelism encoding*:
  ``mpich_num_vcis``, ``mpich_num_tag_bits_vci``,
  ``mpich_place_tag_bits_local_vci``, ``mpich_tag_vci_hash_type``.

This module parses an :class:`Info` dictionary into a validated
:class:`CommHints` bundle. Validation encodes the semantic dependencies the
paper discusses: tag-based VCI selection on the *receive* side requires the
no-wildcard assertions, while ``allow_overtaking`` alone only unlocks
sender-side spreading (receives can still use wildcards, so they must all
be matched on the communicator's single VCI).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Optional

from ..errors import InvalidHintError

__all__ = ["HINT_TRUE", "Info", "CommHints", "WindowHints",
           "parse_comm_hints", "parse_window_hints"]

#: The spellings of a true boolean hint (after ``strip().lower()``); the
#: static advisor reads hints by the same set.
HINT_TRUE = frozenset({"true", "1", "yes"})
_FALSE = {"false", "0", "no"}


class Info:
    """A string-to-string key/value store, as in MPI_Info.

    Unknown keys are permitted (MPI ignores hints it does not understand);
    known keys are validated when the Info is attached to an object.
    """

    def __init__(self, initial: Optional[Mapping[str, str]] = None):
        self._data: dict[str, str] = {}
        if initial:
            for k, v in initial.items():
                self.set(k, v)

    def set(self, key: str, value) -> None:
        if not isinstance(key, str) or not key:
            raise InvalidHintError(f"info keys must be non-empty strings: {key!r}")
        self._data[key] = str(value)

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self._data.get(key, default)

    def delete(self, key: str) -> None:
        self._data.pop(key, None)

    def keys(self):
        return self._data.keys()

    def items(self):
        return self._data.items()

    def copy(self) -> "Info":
        return Info(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __repr__(self) -> str:
        return f"Info({self._data!r})"


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in HINT_TRUE:
        return True
    if low in _FALSE:
        return False
    raise InvalidHintError(f"hint {key}={raw!r} is not a boolean")


def _parse_int(key: str, raw: str, minimum: int = 0) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise InvalidHintError(f"hint {key}={raw!r} is not an integer") from None
    if value < minimum:
        raise InvalidHintError(f"hint {key}={value} must be >= {minimum}")
    return value


@dataclass(frozen=True)
class CommHints:
    """Validated communicator hints."""

    #: MPI 4.0: matching need not follow posting order.
    allow_overtaking: bool = False
    #: MPI 4.0: the application promises never to use MPI_ANY_TAG.
    no_any_tag: bool = False
    #: MPI 4.0: the application promises never to use MPI_ANY_SOURCE.
    no_any_source: bool = False
    #: MPICH: number of VCIs to spread this communicator's traffic over.
    num_vcis: int = 1
    #: MPICH: number of tag bits that encode one thread id.
    num_tag_bits_vci: int = 0
    #: MPICH: where the *local* (sender) thread-id bits sit: "MSB" means the
    #: sender bits are the most significant used bits, with the receiver
    #: bits immediately below (Listing 2's encoding).
    place_tag_bits_local_vci: str = "MSB"
    #: MPICH: "one-to-one" (sender bits -> local VCI, receiver bits ->
    #: remote VCI) or "hash" (hash the whole tag).
    tag_vci_hash_type: str = "hash"

    @property
    def wildcards_forbidden(self) -> bool:
        return self.no_any_tag and self.no_any_source

    @property
    def recv_side_spreading(self) -> bool:
        """Whether receive-side VCI selection may depend on the tag.

        Requires both wildcard assertions: with ``MPI_ANY_TAG`` possible, a
        receive cannot be routed to a tag-derived VCI.
        """
        return self.num_vcis > 1 and self.wildcards_forbidden

    @property
    def send_side_spreading(self) -> bool:
        """Whether send-side (local) VCI selection may depend on the tag.

        ``allow_overtaking`` relaxes the non-overtaking order, making sends
        with different tags logically parallel even when receives are not
        (Section II-A of the paper).
        """
        return self.num_vcis > 1 and (
            self.allow_overtaking or self.wildcards_forbidden)


def parse_comm_hints(info: Optional[Info]) -> CommHints:
    """Parse and validate communicator hints from an Info object."""
    if info is None:
        return CommHints()
    kw = {}
    if "mpi_assert_allow_overtaking" in info:
        kw["allow_overtaking"] = _parse_bool(
            "mpi_assert_allow_overtaking", info.get("mpi_assert_allow_overtaking"))
    if "mpi_assert_no_any_tag" in info:
        kw["no_any_tag"] = _parse_bool(
            "mpi_assert_no_any_tag", info.get("mpi_assert_no_any_tag"))
    if "mpi_assert_no_any_source" in info:
        kw["no_any_source"] = _parse_bool(
            "mpi_assert_no_any_source", info.get("mpi_assert_no_any_source"))
    if "mpich_num_vcis" in info:
        kw["num_vcis"] = _parse_int("mpich_num_vcis",
                                    info.get("mpich_num_vcis"), minimum=1)
    if "mpich_num_tag_bits_vci" in info:
        kw["num_tag_bits_vci"] = _parse_int(
            "mpich_num_tag_bits_vci", info.get("mpich_num_tag_bits_vci"))
    if "mpich_place_tag_bits_local_vci" in info:
        place = info.get("mpich_place_tag_bits_local_vci").upper()
        if place not in ("MSB", "LSB"):
            raise InvalidHintError(
                f"mpich_place_tag_bits_local_vci must be MSB or LSB, got {place!r}")
        kw["place_tag_bits_local_vci"] = place
    if "mpich_tag_vci_hash_type" in info:
        htype = info.get("mpich_tag_vci_hash_type").lower()
        if htype not in ("one-to-one", "hash"):
            raise InvalidHintError(
                f"mpich_tag_vci_hash_type must be 'one-to-one' or 'hash', got {htype!r}")
        kw["tag_vci_hash_type"] = htype

    hints = CommHints(**kw)

    if hints.tag_vci_hash_type == "one-to-one":
        if hints.num_tag_bits_vci <= 0:
            raise InvalidHintError(
                "one-to-one tag-VCI mapping requires mpich_num_tag_bits_vci > 0")
        if not hints.wildcards_forbidden:
            raise InvalidHintError(
                "one-to-one tag-VCI mapping requires mpi_assert_no_any_tag "
                "and mpi_assert_no_any_source (receive-side VCI selection "
                "depends on the tag)")
    return hints


@dataclass(frozen=True)
class WindowHints:
    """Validated RMA window hints."""

    #: "default" preserves MPI's same-location atomic ordering;
    #: "none" relaxes it (the paper's accumulate_ordering=none).
    accumulate_ordering: str = "default"
    #: MPICH-style: number of VCIs to spread window traffic over.
    num_vcis: int = 1

    @property
    def atomics_may_spread(self) -> bool:
        return self.accumulate_ordering == "none" and self.num_vcis > 1


def parse_window_hints(info: Optional[Info]) -> WindowHints:
    """Extract window-creation hints from an Info object."""
    if info is None:
        return WindowHints()
    kw = {}
    if "accumulate_ordering" in info:
        order = info.get("accumulate_ordering").strip().lower()
        if order in ("none", ""):
            kw["accumulate_ordering"] = "none"
        elif order in ("default", "rar,raw,war,waw"):
            kw["accumulate_ordering"] = "default"
        else:
            raise InvalidHintError(
                f"unsupported accumulate_ordering {order!r} "
                "(use 'default' or 'none')")
    if "mpich_rma_num_vcis" in info:
        kw["num_vcis"] = _parse_int("mpich_rma_num_vcis",
                                    info.get("mpich_rma_num_vcis"), minimum=1)
    return WindowHints(**kw)
