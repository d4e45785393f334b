"""Metric primitives: counters, gauges, weighted histograms.

A :class:`MetricsRegistry` holds no clock. What a series means in time is
the recorder's business: a World's registry holds simulated quantities
(live counters and histograms, some observations weighted by simulated
durations such as "time spent at queue depth d", and gauges that
:func:`repro.obs.collect_world` sets at the end of a run), while the
service's registry records host seconds. Recording a metric never
schedules an event, so enabling metrics cannot perturb simulated timings
— two runs with the same seed produce identical metric values whether or
not anyone is watching.

Series are keyed by ``(name, labels)``; labels are small tag dictionaries
(``rank=0, vci=3``) sorted into a canonical tuple, so snapshots and
reports are deterministic.
"""

from __future__ import annotations

import bisect
from typing import Any, Optional

__all__ = [
    "Counter",
    "Counters",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DURATION_BUCKETS",
    "DEPTH_BUCKETS",
    "instrument_lock",
]

LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


def format_labels(labels: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in labels)


#: Default bucket bounds for durations in seconds: 1-2-5 per decade from
#: 1 ns to 10 ms. Values above the last bound land in the overflow bucket.
DURATION_BUCKETS: tuple[float, ...] = tuple(
    m * (10.0 ** e) for e in range(-9, -2) for m in (1.0, 2.0, 5.0))

#: Default bucket bounds for queue depths / occupancies: powers of two.
DEPTH_BUCKETS: tuple[float, ...] = tuple(
    float(1 << i) for i in range(13))  # 1 .. 4096


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A set value: the last one, the largest one and how many were set."""

    __slots__ = ("name", "labels", "value", "max_value", "_samples")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.max_value = 0.0
        self._samples = 0

    def set(self, value: float) -> None:
        self.value = value
        self.max_value = max(self.max_value, value)
        self._samples += 1

    def as_dict(self) -> dict[str, Any]:
        return {"value": self.value, "max": self.max_value,
                "samples": self._samples}


class Histogram:
    """A weighted histogram with fixed bucket bounds.

    ``observe(v)`` records one observation; ``observe(v, weight=dt)``
    records a *time-weighted* observation (bucket mass grows by ``dt``),
    which is how queue-depth-over-time distributions are built on a
    discrete-event clock.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_weights", "count",
                 "total", "weight", "min_value", "max_value")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey,
                 bounds: tuple[float, ...] = DURATION_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = bounds
        #: One weight cell per bound plus one overflow cell.
        self.bucket_weights = [0.0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.weight = 0.0
        self.min_value = float("inf")
        self.max_value = float("-inf")

    def observe(self, value: float, weight: float = 1.0) -> None:
        """Record one sample into count/total/min/max and its bucket."""
        self.count += 1
        self.total += value
        self.weight += weight
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        self.bucket_weights[bisect.bisect_left(self.bounds, value)] += weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q`` quantile from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.weight <= 0.0:
            return 0.0
        target = q * self.weight
        cum = 0.0
        for i, w in enumerate(self.bucket_weights):
            cum += w
            if cum >= target:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max_value
        return self.max_value

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "weight": self.weight,
            "mean": self.mean,
            "min": self.min_value if self.count else 0.0,
            "max": self.max_value if self.count else 0.0,
        }


class MetricsRegistry:
    """The per-run metric store.

    Layers fetch (get-or-create) metric series by name + labels once and
    hold the returned handle; recording through a handle is a plain
    attribute update. An uninstrumented run has no registry at all
    (``None``), so hot paths skip instrumentation with one ``is None``
    test.
    """

    def __init__(self):
        self._metrics: dict[tuple[str, LabelKey], Any] = {}

    # -- series construction ----------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create the counter with this name and label set."""
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Counter(name, key[1])
            self._metrics[key] = metric
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create the gauge with this name and label set."""
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Gauge(name, key[1])
            self._metrics[key] = metric
        return metric

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DURATION_BUCKETS,
                  **labels: Any) -> Histogram:
        """Get or create the histogram with this name, bounds and labels."""
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, key[1], bounds)
            self._metrics[key] = metric
        return metric

    # -- one-shot conveniences --------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        self.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, weight: float = 1.0,
                **labels: Any) -> None:
        self.histogram(name, **labels).observe(value, weight)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self.gauge(name, **labels).set(value)

    # -- introspection -----------------------------------------------------
    def series(self, name: str) -> list[Any]:
        """All series of metric ``name``, sorted by labels."""
        found = [m for (n, _), m in self._metrics.items() if n == name]
        found.sort(key=lambda m: m.labels)
        return found

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """A specific series, or None if it was never recorded."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, default: float = 0.0, **labels: Any) -> float:
        """Scalar value of a counter/gauge series (``default`` if absent)."""
        metric = self.get(name, **labels)
        return metric.value if metric is not None else default

    def names(self) -> list[str]:
        return sorted({n for n, _ in self._metrics})

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """Deterministic nested-dict dump of every series (for tests,
        exporters, and run-to-run comparisons)."""
        out: dict[str, list[dict[str, Any]]] = {}
        for name in self.names():
            out[name] = [
                {"labels": format_labels(m.labels), "kind": m.kind,
                 **m.as_dict()}
                for m in self.series(name)
            ]
        return out


class Counters(dict):
    """Unlabelled counter handles of one registry, by name, each created
    on its first lookup.

    A caller that counts the same few series over and over holds one
    table and writes ``count[name].inc()``: one dictionary lookup, where
    :meth:`MetricsRegistry.inc` builds a label key per call. A series
    never looked up is never created, so it stays absent from
    :meth:`MetricsRegistry.snapshot` as it would with ``inc``; look a
    name up only to count.
    """

    def __init__(self, registry: MetricsRegistry):
        super().__init__()
        self.registry = registry

    def __missing__(self, name: str) -> Counter:
        handle = self[name] = self.registry.counter(name)
        return handle


def instrument_lock(lock: Any, metrics: MetricsRegistry,
                    **labels: Any) -> None:
    """Attach contention metrics to a :class:`repro.sim.sync.Lock`.

    Feeds three series from the lock's observer hook: per-acquire wait
    times, per-release hold times, and a wait-time-weighted queue-depth
    histogram (how long acquirers spent waiting at each queue position).
    Idempotent per lock: an existing observer is left in place.
    """
    if lock.observer is not None:
        return
    h_wait = metrics.histogram("sim.lock.wait", lock=lock.name, **labels)
    h_hold = metrics.histogram("sim.lock.hold", lock=lock.name, **labels)
    h_queue = metrics.histogram("sim.lock.queue_depth", bounds=DEPTH_BUCKETS,
                                lock=lock.name, **labels)

    def observer(event: str, duration: float, queue_len: int) -> None:
        if event == "acquire":
            h_wait.observe(duration)
            if queue_len:
                h_queue.observe(queue_len, weight=duration)
        elif event == "hold":
            h_hold.observe(duration)

    lock.observer = observer
