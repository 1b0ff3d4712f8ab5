"""Timing harnesses for the efficiency experiments (Figures 3 and 4), the
fleet-throughput comparison between the single-stream detector and the batched
stream engine, and the training-throughput comparison of the training engine
across batch sizes (one trajectory per step against whole batches)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
class ThroughputReport:
    """Points-per-second throughput of one detection strategy over a workload."""

    name: str
    total_points: int
    total_seconds: float
    num_trajectories: int = 0

    @property
    def points_per_second(self) -> float:
        if self.total_seconds <= 0.0:
            return 0.0
        return self.total_points / self.total_seconds

    def speedup_over(self, other: "ThroughputReport") -> float:
        """How many times faster this strategy is than ``other``."""
        if other.points_per_second <= 0.0:
            return float("inf")
        return self.points_per_second / other.points_per_second

    @classmethod
    def combined(cls, name: str, reports: Sequence["ThroughputReport"],
                 total_seconds: Optional[float] = None) -> "ThroughputReport":
        """Aggregate per-worker reports into one fleet-level report.

        Points and trajectories add up across workers; the elapsed time is
        the *maximum* of the workers' (they run concurrently, so the slowest
        one bounds the wall clock) unless the caller measured the true
        end-to-end wall clock and passes it as ``total_seconds``. Used by the
        sharded detection service to roll per-shard throughput into one
        number.
        """
        if not reports:
            raise EvaluationError("combining requires at least one report")
        elapsed = (float(total_seconds) if total_seconds is not None
                   else max(report.total_seconds for report in reports))
        return cls(
            name=name,
            total_points=sum(report.total_points for report in reports),
            total_seconds=elapsed,
            num_trajectories=sum(report.num_trajectories for report in reports),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "total_points": self.total_points,
            "num_trajectories": self.num_trajectories,
            "total_seconds": self.total_seconds,
            "points_per_second": self.points_per_second,
        }

    def format(self) -> str:
        trips = (f" from {self.num_trajectories} trips"
                 if self.num_trajectories else "")
        return (f"{self.name}: {self.total_points} points{trips} in "
                f"{self.total_seconds:.3f}s = "
                f"{self.points_per_second:,.0f} points/sec")


def measure_throughput(
    run: Callable[[], object],
    total_points: int,
    name: str = "detector",
    num_trajectories: int = 0,
) -> Tuple[ThroughputReport, object]:
    """Wall-clock ``run()`` (which must process ``total_points`` points).

    Returns ``(report, run's return value)``, so the workload's results stay
    available without closure tricks. Used to compare the per-trajectory
    :class:`OnlineDetector` loop against the batched
    :class:`~repro.core.stream.StreamEngine` on the same workload.
    """
    if total_points < 1:
        raise EvaluationError("throughput needs at least one point")
    started = time.perf_counter()
    value = run()
    elapsed = time.perf_counter() - started
    report = ThroughputReport(name=name, total_points=total_points,
                              total_seconds=elapsed,
                              num_trajectories=num_trajectories)
    return report, value


@dataclass
class LatencyReport:
    """Distribution of per-point latency of a streaming pipeline stage.

    Two backings, one report: built from raw ``samples`` (the ingest
    gateway's commit-lag reservoir — each sample counts the *follow-up
    points* that had to arrive before a fix's road segment was committed)
    or from a shared :class:`repro.obs.Histogram`
    (:meth:`from_histogram` — the per-stage trace-span latencies and the
    shard queue-wait sampler), so every bounded-staleness stage reports
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


@dataclass
class TrainingThroughputReport:
    """Throughput of one *training* strategy over a fixed epoch workload.

    Counts both granularities the training loop works at: road-network points
    (every segment passes through RSRNet's recurrent step and, in the middle
    of a trajectory, through ASDNet's policy) and whole trajectories (each is
    one episode plus one supervised gradient step per epoch). Used to compare
    the training engine at different batch sizes, batch size 1 — one
    trajectory per step — being the baseline.
    """

    name: str
    batch_size: int
    epochs: int
    total_points: int
    num_trajectories: int
    total_seconds: float

    @property
    def points_per_second(self) -> float:
        if self.total_seconds <= 0.0:
            return 0.0
        return self.total_points * self.epochs / self.total_seconds

    @property
    def trajectories_per_second(self) -> float:
        if self.total_seconds <= 0.0:
            return 0.0
        return self.num_trajectories * self.epochs / self.total_seconds

    def speedup_over(self, other: "TrainingThroughputReport") -> float:
        """How many times more training points/sec than ``other``."""
        if other.points_per_second <= 0.0:
            return float("inf")
        return self.points_per_second / other.points_per_second

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "total_points": self.total_points,
            "num_trajectories": self.num_trajectories,
            "total_seconds": self.total_seconds,
            "points_per_second": self.points_per_second,
            "trajectories_per_second": self.trajectories_per_second,
        }

    def format(self) -> str:
        return (f"{self.name}: {self.epochs} epoch(s) x "
                f"{self.num_trajectories} trips ({self.total_points} points) "
                f"in {self.total_seconds:.3f}s = "
                f"{self.points_per_second:,.0f} points/sec, "
                f"{self.trajectories_per_second:,.1f} trips/sec")


def measure_training_throughput(
    run: Callable[[], object],
    total_points: int,
    num_trajectories: int,
    epochs: int = 1,
    batch_size: int = 1,
    name: str = "trainer",
) -> Tuple[TrainingThroughputReport, object]:
    """Wall-clock one training workload (e.g. a fine-tuning epoch).

    ``run()`` must train over ``num_trajectories`` trajectories totalling
    ``total_points`` points for ``epochs`` epochs. Returns ``(report, run's
    return value)``, mirroring :func:`measure_throughput`.
    """
    if total_points < 1:
        raise EvaluationError("training throughput needs at least one point")
    if num_trajectories < 1:
        raise EvaluationError("training throughput needs at least one trajectory")
    started = time.perf_counter()
    value = run()
    elapsed = time.perf_counter() - started
    report = TrainingThroughputReport(
        name=name, batch_size=batch_size, epochs=epochs,
        total_points=total_points, num_trajectories=num_trajectories,
        total_seconds=elapsed)
    return report, value
