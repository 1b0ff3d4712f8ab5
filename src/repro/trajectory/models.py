"""Trajectory value objects."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..exceptions import EmptyTrajectoryError, TrajectoryError


@dataclass(frozen=True)
class GPSPoint:
    """A single GPS fix ``(x, y, t)`` in local planar metres and seconds."""

    x: float
    y: float
    t: float


@dataclass
class RawTrajectory:
    """A raw trajectory: an ordered sequence of GPS points.

    ``trajectory_id`` identifies the trip; ``start_time_s`` is the absolute
    time of day (seconds since midnight) at which the trip started, used for
    time-slot grouping and concept-drift experiments.
    """

    trajectory_id: int
    points: List[GPSPoint]
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.points:
            raise EmptyTrajectoryError("a raw trajectory needs at least one point")
        for earlier, later in zip(self.points, self.points[1:]):
            if later.t < earlier.t:
                raise TrajectoryError("GPS timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[GPSPoint]:
        return iter(self.points)

    @property
    def duration_s(self) -> float:
        """Elapsed time between the first and last fix."""
        return self.points[-1].t - self.points[0].t


@dataclass
class MatchedTrajectory:
    """A map-matched trajectory: an ordered sequence of road segment ids.

    ``labels`` optionally stores the per-segment anomaly labels (0 = normal,
    1 = anomalous). Ground-truth trajectories from the generator carry their
    true labels; detector outputs carry predicted labels.
    """

    trajectory_id: int
    segments: List[int]
    start_time_s: float = 0.0
    labels: Optional[List[int]] = None
    travel_times_s: Optional[List[float]] = None

    def __post_init__(self) -> None:
        if not self.segments:
            raise EmptyTrajectoryError("a matched trajectory needs at least one segment")
        if self.labels is not None and len(self.labels) != len(self.segments):
            raise TrajectoryError("labels must align with segments")
        if self.labels is not None:
            for label in self.labels:
                if label not in (0, 1):
                    raise TrajectoryError("labels must be 0 (normal) or 1 (anomalous)")
        if (self.travel_times_s is not None
                and len(self.travel_times_s) != len(self.segments)):
            raise TrajectoryError("travel_times_s must align with segments")

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[int]:
        return iter(self.segments)

    @property
    def source(self) -> int:
        """The source road segment (``S`` of the SD pair)."""
        return self.segments[0]

    @property
    def destination(self) -> int:
        """The destination road segment (``D`` of the SD pair)."""
        return self.segments[-1]

    @property
    def sd_pair(self) -> Tuple[int, int]:
        return self.source, self.destination

    @property
    def is_anomalous(self) -> bool:
        """True if any segment carries an anomalous label."""
        return bool(self.labels) and any(label == 1 for label in self.labels)

    def route_key(self) -> Tuple[int, ...]:
        """Hashable identity of the travelled route (segment id tuple)."""
        return tuple(self.segments)

    def subtrajectory(self, start: int, end: int) -> "Subtrajectory":
        """The subtrajectory ``T[start, end]`` (inclusive, 0-based indices)."""
        if not (0 <= start <= end < len(self.segments)):
            raise TrajectoryError(
                f"invalid subtrajectory bounds [{start}, {end}] for length {len(self)}"
            )
        return Subtrajectory(
            trajectory_id=self.trajectory_id,
            start_index=start,
            end_index=end,
            segments=list(self.segments[start:end + 1]),
        )

@dataclass
class Subtrajectory:
    """A contiguous slice of a matched trajectory (``T[i, j]`` in the paper)."""

    trajectory_id: int
    start_index: int
    end_index: int
    segments: List[int]

    def __post_init__(self) -> None:
        if self.start_index > self.end_index:
            raise TrajectoryError("start_index must not exceed end_index")
        expected = self.end_index - self.start_index + 1
        if len(self.segments) != expected:
            raise TrajectoryError(
                f"expected {expected} segments, got {len(self.segments)}"
            )

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def span(self) -> Tuple[int, int]:
        return self.start_index, self.end_index


@dataclass(frozen=True)
class SDPair:
    """A (source segment, destination segment) pair plus an optional time slot.

    Hashes and compares as the plain ``(source, destination, time_slot)``
    tuple, so a map keyed by ``SDPair`` answers the tuple a per-trip lookup
    already holds — no key object is built to ask for a group. Still a
    dataclass: a pickled history (every checkpoint) names
    its groups by the state dict of one.
    """

    source: int
    destination: int
    time_slot: int = 0

    def as_tuple(self) -> Tuple[int, int, int]:
        return self.source, self.destination, self.time_slot

    def __hash__(self) -> int:
        return hash((self.source, self.destination, self.time_slot))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SDPair):
            other = other.as_tuple()
        elif not isinstance(other, tuple):
            return NotImplemented
        return (self.source, self.destination, self.time_slot) == other
