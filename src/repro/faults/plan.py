"""Declarative fault-injection plans.

A :class:`FaultPlan` is an immutable, serializable description of *what can
go wrong* on the simulated fabric: per-message loss, duplication, payload
corruption and delay spikes, NIC hardware-context stall windows, and link
degradation/flap windows. A plan says nothing about *which* messages are
hit — that decision is made by :class:`repro.faults.injector.FaultInjector`
from the plan's rates and the experiment seed, so the same ``(plan, seed)``
pair always produces the same fault schedule.

Plans can be built programmatically, from a dict (``FaultPlan.from_dict``),
from a JSON file, or from the compact CLI spec accepted by
:func:`parse_plan`::

    drop=0.05,dup=0.02,corrupt=0.01,delay=0.1,delay_max=20us
    drop=0.1,stall=0/0/50us/300us,down=1/100us/140us
    plan.json

Times accept ``ns``/``us``/``ms``/``s`` suffixes (bare numbers are
seconds).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Mapping, Union

from ..errors import FaultConfigError, FaultPlanError

__all__ = ["CtxStall", "LinkWindow", "FaultPlan", "parse_plan",
           "parse_time"]

#: Wildcard node/context selector in specs ("*" on the CLI).
ANY = -1

_TIME_SUFFIXES = (("ns", 1e-9), ("us", 1e-6), ("ms", 1e-3), ("s", 1.0))


def parse_time(text: Union[str, float, int]) -> float:
    """Parse ``"20us"``-style durations into seconds (bare = seconds)."""
    if isinstance(text, (int, float)):
        return float(text)
    text = text.strip()
    for suffix, scale in _TIME_SUFFIXES:
        if text.endswith(suffix):
            try:
                return float(text[: -len(suffix)]) * scale
            except ValueError:
                break
    try:
        return float(text)
    except ValueError:
        raise FaultPlanError(f"cannot parse time {text!r}") from None


@dataclass(frozen=True)
class CtxStall:
    """A NIC hardware context that stops injecting for a window.

    Models a wedged work queue / unresponsive doorbell: messages issued on
    the context during ``[start, start + duration)`` either fail over to
    another context (reliable worlds) or wait out the stall.
    """

    node: int            # node id, or ANY for every node
    ctx: int             # hardware-context index, or ANY for every context
    start: float         # simulated seconds
    duration: float

    def __post_init__(self):
        if self.node < ANY or self.ctx < ANY:
            raise FaultConfigError(
                f"stall selectors must be node/ctx ids or ANY (-1), got "
                f"node={self.node}, ctx={self.ctx}")
        if not self.start >= 0.0:
            raise FaultConfigError(
                f"stall window starts before t=0 (start={self.start!r})")
        if not self.duration >= 0.0:
            raise FaultConfigError(
                f"stall duration must be non-negative, got "
                f"{self.duration!r} (inverted window?)")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def covers(self, node: int, ctx: int, now: float) -> bool:
        return ((self.node == ANY or self.node == node)
                and (self.ctx == ANY or self.ctx == ctx)
                and self.start <= now < self.end)


@dataclass(frozen=True)
class LinkWindow:
    """A per-node link misbehaviour window.

    ``kind="down"`` drops every message departing the node (or arriving at
    it) during the window — a link flap. ``kind="degraded"`` multiplies
    the message's wire time by ``factor`` — congestion or a renegotiated
    slower rate.
    """

    node: int            # node id, or ANY for every node
    start: float
    end: float
    kind: str = "down"   # "down" | "degraded"
    factor: float = 4.0  # wire-time multiplier for "degraded"

    def __post_init__(self):
        if self.kind not in ("down", "degraded"):
            raise FaultPlanError(f"unknown link window kind {self.kind!r}")
        if self.node < ANY:
            raise FaultConfigError(
                f"link window node must be a node id or ANY (-1), got "
                f"{self.node}")
        if not self.start >= 0.0:
            raise FaultConfigError(
                f"link window starts before t=0 (start={self.start!r})")
        if not self.end >= self.start:
            raise FaultConfigError(
                f"link window ends before it starts "
                f"(start={self.start!r}, end={self.end!r})")
        if not self.factor >= 1.0:
            raise FaultConfigError(
                f"degradation factor must be >= 1 (a wire-time multiplier), "
                f"got {self.factor!r}")

    def covers(self, node: int, now: float) -> bool:
        return ((self.node == ANY or self.node == node)
                and self.start <= now < self.end)


@dataclass(frozen=True)
class FaultPlan:
    """One experiment's fault schedule, reproducible per seed.

    Rates are independent per-message probabilities evaluated at fabric
    entry; a message can be both delayed and duplicated, and the duplicate
    is subject to the same hazards as the original. Stall and link windows
    are deterministic wall-clock (simulated) intervals.
    """

    #: P(a wire message is silently dropped).
    drop: float = 0.0
    #: P(a wire message is delivered twice).
    dup: float = 0.0
    #: P(the delivered payload is corrupted in flight).
    corrupt: float = 0.0
    #: P(a delivery gets an extra delay spike).
    delay: float = 0.0
    #: Maximum extra delay of one spike (uniform in (0, delay_max]).
    delay_max: float = 20e-6
    #: Extra delay of a duplicate copy behind the original.
    dup_delay: float = 2e-6
    #: NIC hardware-context stall windows.
    stalls: tuple[CtxStall, ...] = ()
    #: Link flap / degradation windows.
    links: tuple[LinkWindow, ...] = ()

    def __post_init__(self):
        for name in ("drop", "dup", "corrupt", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise FaultConfigError(
                    f"{name} rate must be in [0, 1], got {p!r}")
        if not (self.delay_max >= 0 and self.dup_delay >= 0):
            raise FaultConfigError(
                f"delays must be non-negative, got "
                f"delay_max={self.delay_max!r}, dup_delay={self.dup_delay!r}")
        for stall in self.stalls:
            if not isinstance(stall, CtxStall):
                raise FaultConfigError(
                    f"stalls must be CtxStall instances, got {stall!r}")
        for window in self.links:
            if not isinstance(window, LinkWindow):
                raise FaultConfigError(
                    f"links must be LinkWindow instances, got {window!r}")

    @property
    def any_message_faults(self) -> bool:
        return (self.drop > 0 or self.dup > 0 or self.corrupt > 0
                or self.delay > 0 or bool(self.links))

    @property
    def lossless(self) -> bool:
        return not self.any_message_faults and not self.stalls

    def describe(self) -> str:
        """One-line summary of the plan's fault rates and schedules."""
        parts = [f"drop={self.drop:g}", f"dup={self.dup:g}",
                 f"corrupt={self.corrupt:g}", f"delay={self.delay:g}"]
        if self.stalls:
            parts.append(f"stalls={len(self.stalls)}")
        if self.links:
            parts.append(f"links={len(self.links)}")
        return " ".join(parts)

    # -- construction ------------------------------------------------------
    def with_(self, **kwargs) -> "FaultPlan":
        return replace(self, **kwargs)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a FaultPlan from its ``to_dict()`` form.

        Anything else (a document or window that is not a mapping, a
        missing window key, a value of the wrong type) raises
        :class:`FaultPlanError` naming the bad entry.
        """
        if not isinstance(data, Mapping):
            raise FaultPlanError(
                f"a fault plan must be a mapping, got {data!r}")
        data = dict(data)
        stalls: list[CtxStall] = []
        links: list[LinkWindow] = []
        entry: Any = data  # what the handlers below name
        try:
            for entry in data.pop("stalls", ()):
                stalls.append(entry if isinstance(entry, CtxStall)
                              else CtxStall(
                                  node=int(entry.get("node", ANY)),
                                  ctx=int(entry.get("ctx", ANY)),
                                  start=parse_time(entry["start"]),
                                  duration=parse_time(entry["duration"])))
            for entry in data.pop("links", ()):
                links.append(entry if isinstance(entry, LinkWindow)
                             else LinkWindow(
                                 node=int(entry.get("node", ANY)),
                                 start=parse_time(entry["start"]),
                                 end=parse_time(entry["end"]),
                                 kind=entry.get("kind", "down"),
                                 factor=float(entry.get("factor", 4.0))))
            entry = data
            unknown = set(data) - {"drop", "dup", "corrupt", "delay",
                                   "delay_max", "dup_delay"}
            if unknown:
                raise FaultPlanError(
                    f"unknown fault plan keys: {sorted(unknown)}")
            rates = {key: parse_time(value)
                     if key in ("delay_max", "dup_delay") else float(value)
                     for key, value in data.items()}
        except KeyError as exc:
            raise FaultPlanError(
                f"fault plan entry {entry!r} lacks key {exc}") from None
        except (TypeError, ValueError, AttributeError) as exc:
            raise FaultPlanError(
                f"bad fault plan entry {entry!r}: {exc}") from None
        return FaultPlan(stalls=tuple(stalls), links=tuple(links), **rates)


def _number(text: str, cast: Callable[[str], Any] = float) -> Any:
    try:
        return cast(text)
    except ValueError:
        raise FaultPlanError(f"cannot parse number {text!r}") from None


def _parse_selector(text: str) -> int:
    return ANY if text in ("*", "") else _number(text, int)


def parse_plan(spec: str) -> FaultPlan:
    """Parse a fault plan from a JSON file path or a compact spec string.

    Compact spec: comma-separated ``key=value`` items. Rate keys: ``drop``,
    ``dup``, ``corrupt``, ``delay``; time keys: ``delay_max``,
    ``dup_delay``. Repeatable window items::

        stall=<node>/<ctx>/<start>/<duration>      (node/ctx may be "*")
        down=<node>/<start>/<end>
        degraded=<node>/<start>/<end>[/<factor>]

    Anything malformed raises :class:`FaultPlanError`.
    """
    spec = spec.strip()
    if spec.endswith(".json") or os.path.exists(spec):
        try:
            with open(spec) as fh:
                return FaultPlan.from_dict(json.load(fh))
        except (OSError, ValueError) as exc:  # ValueError: not JSON
            raise FaultPlanError(f"cannot read plan file {spec!r}: {exc}")
    rates: dict[str, float] = {}
    stalls: list[CtxStall] = []
    links: list[LinkWindow] = []
    for item in filter(None, (part.strip() for part in spec.split(","))):
        if "=" not in item:
            raise FaultPlanError(f"malformed plan item {item!r} "
                                 "(expected key=value)")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in ("drop", "dup", "corrupt", "delay"):
            rates[key] = _number(value)
        elif key in ("delay_max", "dup_delay"):
            rates[key] = parse_time(value)
        elif key == "stall":
            fields = value.split("/")
            if len(fields) != 4:
                raise FaultPlanError(
                    f"stall spec {value!r} needs node/ctx/start/duration")
            stalls.append(CtxStall(
                node=_parse_selector(fields[0]),
                ctx=_parse_selector(fields[1]),
                start=parse_time(fields[2]),
                duration=parse_time(fields[3])))
        elif key in ("down", "degraded"):
            fields = value.split("/")
            if not 3 <= len(fields) <= 4:
                raise FaultPlanError(
                    f"{key} spec {value!r} needs node/start/end[/factor]")
            links.append(LinkWindow(
                node=_parse_selector(fields[0]),
                start=parse_time(fields[1]), end=parse_time(fields[2]),
                kind=key,
                factor=_number(fields[3]) if len(fields) == 4 else 4.0))
        else:
            raise FaultPlanError(f"unknown plan key {key!r}")
    return FaultPlan(stalls=tuple(stalls), links=tuple(links), **rates)
