"""Timing harness for the efficiency experiments (Figures 3 and 4), which
time a detector's ``detect`` from outside, and the latency report of the
streaming pipeline stages."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import EvaluationError
from ..trajectory.models import MatchedTrajectory


@dataclass
class TimingReport:
    """Latency statistics of a detector over a workload."""

    detector_name: str
    per_point_seconds: List[float]
    per_trajectory_seconds: List[float]

    @property
    def mean_per_point_ms(self) -> float:
        if not self.per_point_seconds:
            return 0.0
        return float(np.mean(self.per_point_seconds)) * 1000.0

    @property
    def mean_per_trajectory_ms(self) -> float:
        if not self.per_trajectory_seconds:
            return 0.0
        return float(np.mean(self.per_trajectory_seconds)) * 1000.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "detector": self.detector_name,
            "mean_per_point_ms": self.mean_per_point_ms,
            "mean_per_trajectory_ms": self.mean_per_trajectory_ms,
        }


def measure_detector(
    detector,
    trajectories: Sequence[MatchedTrajectory],
    name: str = "detector",
) -> TimingReport:
    """Time a detector's ``detect`` method over a set of trajectories.

    The per-point latency is the per-trajectory wall clock divided by the
    trajectory length, matching how the paper reports "average running time
    per point".
    """
    if not trajectories:
        raise EvaluationError("timing requires at least one trajectory")
    per_point: List[float] = []
    per_trajectory: List[float] = []
    for trajectory in trajectories:
        started = time.perf_counter()
        detector.detect(trajectory)
        elapsed = time.perf_counter() - started
        per_trajectory.append(elapsed)
        per_point.append(elapsed / max(1, len(trajectory)))
    return TimingReport(detector_name=name, per_point_seconds=per_point,
                        per_trajectory_seconds=per_trajectory)


@dataclass
class LatencyReport:
    """Distribution of per-point latency of a streaming pipeline stage.

    Two backings, one report: built from raw ``samples`` (the ingest
    gateway's commit-lag reservoir — each sample counts the *follow-up
    points* that had to arrive before a fix's road segment was committed)
    or from a shared :class:`repro.obs.Histogram`
    (:meth:`from_histogram` — the per-stage trace-span latencies), so every bounded-staleness stage reports
    through this one code path. Quantiles from a histogram backing are
    conservative bucket upper bounds clamped to the exact observed
    extremes, so ``maximum >= p99 >= p95 >= p50`` holds for both backings.
    """

    name: str
    samples: List[float] = field(default_factory=list)
    #: Optional :class:`repro.obs.Histogram` backing; when set, ``samples``
    #: is ignored and every statistic reads from the histogram.
    histogram: Optional[object] = None
    #: What one sample counts — "points" (follow-up arrivals) or "s".
    unit: str = "points"

    @classmethod
    def from_histogram(cls, name: str, histogram,
                       unit: str = "s") -> "LatencyReport":
        """A report over a :class:`repro.obs.Histogram` (no raw samples)."""
        return cls(name=name, samples=[], histogram=histogram, unit=unit)

    @property
    def count(self) -> int:
        if self.histogram is not None:
            return self.histogram.count
        return len(self.samples)

    @property
    def mean(self) -> float:
        if self.histogram is not None:
            return self.histogram.mean
        return float(np.mean(self.samples)) if self.samples else 0.0

    def _quantile(self, q: float) -> float:
        if self.histogram is not None:
            return self.histogram.quantile(q)
        if not self.samples:
            return 0.0
        return float(np.percentile(self.samples, q * 100.0))

    @property
    def p50(self) -> float:
        return self._quantile(0.50)

    @property
    def p95(self) -> float:
        return self._quantile(0.95)

    @property
    def p99(self) -> float:
        return self._quantile(0.99)

    @property
    def maximum(self) -> float:
        if self.histogram is not None:
            return self.histogram.maximum
        return max(self.samples) if self.samples else 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }

    def format(self) -> str:
        if self.unit == "points":
            return (f"{self.name}: commit lag over {self.count} points — "
                    f"mean {self.mean:.2f}, p50 {self.p50:.0f}, "
                    f"p95 {self.p95:.0f}, p99 {self.p99:.0f}, "
                    f"max {self.maximum}")
        return (f"{self.name}: latency over {self.count} samples — "
                f"mean {self.mean * 1e3:.3f}ms, p50 {self.p50 * 1e3:.3f}ms, "
                f"p95 {self.p95 * 1e3:.3f}ms, p99 {self.p99 * 1e3:.3f}ms, "
                f"max {self.maximum * 1e3:.3f}ms")

