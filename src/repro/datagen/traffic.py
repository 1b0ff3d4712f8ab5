"""Time-of-day traffic model and concept-drift schedules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..exceptions import DataGenerationError

SECONDS_PER_DAY = 24 * 3600


@dataclass
class TrafficModel:
    """Piecewise-constant congestion model over the day.

    ``speed_factor(t)`` multiplies free-flow speed: 1.0 means free flow, lower
    values mean congestion. The default profile has a morning and an evening
    rush hour, which also drives the travel-time (trip duration) traffic
    context features.
    """

    hourly_speed_factor: Sequence[float] = field(default_factory=lambda: (
        1.00, 1.00, 1.00, 1.00, 1.00, 0.95,   # 00-05
        0.85, 0.65, 0.55, 0.70, 0.85, 0.90,   # 06-11
        0.85, 0.85, 0.90, 0.90, 0.80, 0.60,   # 12-17
        0.55, 0.70, 0.85, 0.95, 1.00, 1.00,   # 18-23
    ))

    def __post_init__(self) -> None:
        if len(self.hourly_speed_factor) != 24:
            raise DataGenerationError("hourly_speed_factor must have 24 entries")
        if any(factor <= 0 for factor in self.hourly_speed_factor):
            raise DataGenerationError("speed factors must be positive")

    def speed_factor(self, time_of_day_s: float) -> float:
        """Congestion multiplier at an absolute time of day (seconds)."""
        hour = int((time_of_day_s % SECONDS_PER_DAY) // 3600)
        return float(self.hourly_speed_factor[hour])

    def effective_speed(self, free_flow_mps: float, time_of_day_s: float) -> float:
        """Speed actually driven given free-flow speed and the time of day."""
        return max(1.0, free_flow_mps * self.speed_factor(time_of_day_s))


@dataclass
class DriftSchedule:
    """Describes how route popularity drifts across parts of the day.

    The day is split into ``n_parts`` equal parts. ``rotation_per_part`` says
    by how many positions the ranking of an SD pair's normal routes is rotated
    in each part: with two normal routes and rotation 1, the popular and the
    unpopular route swap every part — exactly the situation of Figure 7 in the
    paper.
    """

    n_parts: int = 1
    rotation_per_part: int = 0
    drifting_pair_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.n_parts < 1:
            raise DataGenerationError("n_parts must be at least 1")
        if self.rotation_per_part < 0:
            raise DataGenerationError("rotation_per_part must be non-negative")
        if not (0.0 <= self.drifting_pair_fraction <= 1.0):
            raise DataGenerationError("drifting_pair_fraction must be in [0, 1]")

    @property
    def has_drift(self) -> bool:
        return self.n_parts > 1 and self.rotation_per_part > 0

    def part_of(self, time_of_day_s: float) -> int:
        """Which part of the day an absolute time falls into."""
        part_length = SECONDS_PER_DAY / self.n_parts
        seconds = time_of_day_s % SECONDS_PER_DAY
        return min(int(seconds // part_length), self.n_parts - 1)

    def route_weights(
        self,
        base_weights: Sequence[float],
        part: int,
        pair_drifts: bool = True,
    ) -> List[float]:
        """Popularity weights of an SD pair's routes within a part of the day."""
        weights = list(base_weights)
        if not self.has_drift or not pair_drifts:
            return weights
        rotation = (part * self.rotation_per_part) % len(weights)
        return weights[rotation:] + weights[:rotation]
