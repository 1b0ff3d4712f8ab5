"""Process-merge-safe metrics primitives: counters, gauges, histograms.

Everything in this module is designed around one constraint: the process
backend runs one worker per shard, so every metric a worker records has to
travel home over a pickle boundary and combine **exactly** with the metrics
of every other shard and of the facade. That rules out t-digest-style
approximate sketches whose merge depends on insertion order; instead the
:class:`Histogram` uses fixed log-spaced buckets, whose merge is a plain
element-wise addition — associative, commutative, and lossless with respect
to the bucketed representation.

* :class:`Counter` / :class:`Gauge` — the scalar metrics.
* :class:`Histogram` — fixed-bucket mergeable latency histogram with exact
  ``sum`` / ``count`` / ``min`` / ``max`` side-channels and a conservative
  ``quantile`` (upper bucket bound, clamped to the observed maximum).
* :class:`MetricsRegistry` — a named, labeled collection of the above with
  get-or-create accessors and a ``merge`` that combines registries from
  other processes.
* :class:`Reservoir` — the seeded Algorithm-R sample reservoir behind the
  matcher's commit-lag sampler.

All classes are plain-attribute objects: picklable, no locks (each shard
writes only its own registry; merging happens on the facade thread).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Reservoir",
    "default_latency_buckets",
]

Labels = Tuple[Tuple[str, str], ...]

#: Default seed of the Algorithm-R reservoirs (shared with the commit-lag
#: reservoir of :class:`repro.mapmatching.OnlineMapMatcher`).
RESERVOIR_SEED = 0x1A6


def default_latency_buckets(start: float = 1e-6, factor: float = 2.0,
                            count: int = 26) -> Tuple[float, ...]:
    """Log-spaced latency bucket upper bounds, 1µs .. ~33.5s by default.

    Every histogram in the pipeline uses the same deterministic ladder so
    that any two histograms of the same metric merge exactly.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("buckets need start > 0, factor > 1, count >= 1")
    return tuple(start * factor ** i for i in range(count))


def _label_tuple(labels) -> Labels:
    if not labels:
        return ()
    if isinstance(labels, dict):
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    return tuple(sorted((str(k), str(v)) for k, v in labels))


class Counter:
    """A monotonically increasing scalar; merges by addition."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


class Gauge:
    """A point-in-time scalar; merging keeps the other side's value."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def merge(self, other: "Gauge") -> None:
        self.value = other.value

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


class Histogram:
    """Fixed-bucket histogram whose merge is exact across processes.

    ``counts[i]`` counts observations ``<= buckets[i]`` (exclusive of the
    previous bound); ``counts[-1]`` is the +Inf overflow bucket. ``total``
    and ``count`` are exact, so means derived from merged histograms are
    exact too; quantiles are conservative upper bucket bounds clamped to
    the exact observed ``vmax``.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: Labels = (),
                 buckets: Optional[Sequence[float]] = None):
        bounds = tuple(buckets) if buckets is not None \
            else default_latency_buckets()
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.name}")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.count += other.count
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self.vmin if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self.vmax if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation.

        Clamped to the exact observed extrema so that
        ``minimum <= quantile(q) <= maximum`` always holds.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank and count:
                if index < len(self.buckets):
                    bound = self.buckets[index]
                else:
                    bound = self.vmax
                return min(max(bound, self.vmin), self.vmax)
        return self.vmax

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A picklable collection of named, labeled metrics.

    Accessors are get-or-create: asking twice for the same (name, labels)
    pair returns the same object, so instrumentation sites never need to
    pre-register anything. ``merge`` combines a registry shipped home from
    a shard worker — counters and histograms add, gauges take the incoming
    value (the worker's report is newer than the facade's copy).
    """

    def __init__(self):
        self._metrics: Dict[Tuple[str, Labels], Metric] = {}
        self._help: Dict[str, str] = {}

    def counter(self, name: str, labels=None, help: str = "") -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, labels=None, help: str = "") -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(self, name: str, labels=None, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        key = (name, _label_tuple(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, key[1], buckets=buckets)
            self._metrics[key] = metric
            if help:
                self._help.setdefault(name, help)
        elif not isinstance(metric, Histogram):
            raise TypeError(f"{name} is already registered as {metric.kind}")
        return metric

    def _get(self, cls, name, labels, help):
        key = (name, _label_tuple(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
            if help:
                self._help.setdefault(name, help)
        elif not isinstance(metric, cls):
            raise TypeError(f"{name} is already registered as {metric.kind}")
        return metric

    def get(self, name: str, labels=None) -> Optional[Metric]:
        return self._metrics.get((name, _label_tuple(labels)))

    def help_text(self, name: str) -> str:
        return self._help.get(name, "")

    def collect(self) -> List[Metric]:
        """Every metric, sorted by (name, labels) for stable output."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        for (name, labels), metric in other._metrics.items():
            if isinstance(metric, Histogram):
                mine = self.histogram(name, dict(labels),
                                      buckets=metric.buckets)
            elif isinstance(metric, Counter):
                mine = self.counter(name, dict(labels))
            else:
                mine = self.gauge(name, dict(labels))
            mine.merge(metric)
        for name, text in other._help.items():
            self._help.setdefault(name, text)
        return self

    def __len__(self) -> int:
        return len(self._metrics)


class Reservoir:
    """Seeded Algorithm-R reservoir sampling, shared across samplers.

    Semantics match the original commit-lag sampler of
    :class:`repro.mapmatching.OnlineMapMatcher` exactly (the population
    counter increments before the slot draw), so refactoring the matcher
    onto this class is behavior-identical for a given seed.
    """

    def __init__(self, cap: int, seed: int = RESERVOIR_SEED):
        if cap < 1:
            raise ValueError("reservoir cap must be >= 1")
        self.cap = cap
        self.samples: List[float] = []
        self.count = 0
        self._rng = random.Random(seed)

    def add(self, value) -> None:
        self.count += 1
        if len(self.samples) < self.cap:
            self.samples.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.cap:
            self.samples[slot] = value

    def extend(self, values: Iterable) -> None:
        for value in values:
            self.add(value)

    def __len__(self) -> int:
        return len(self.samples)
