"""Grouping of trajectories by SD pair and time slot (Step-1 of preprocessing)."""

from __future__ import annotations

import math
from collections import defaultdict
from numbers import Real
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..exceptions import TrajectoryError
from .models import MatchedTrajectory, SDPair

SECONDS_PER_DAY = 24 * 3600


def check_start_time(start_time_s) -> None:
    """Reject a start time from outside (a stream's opening point) that is
    not a finite real number; :func:`time_slot_of` would fail on it untyped."""
    # The builtin check first: the ABC one costs ten times as much, and this
    # runs for every trip a fleet opens.
    if not ((isinstance(start_time_s, (float, int))
             or isinstance(start_time_s, Real))
            and math.isfinite(start_time_s)):
        raise TrajectoryError(
            f"start_time_s must be a finite real number, got {start_time_s!r}")


def time_slot_of(start_time_s: float, slots_per_day: int = 24) -> int:
    """The time slot a trajectory falls into given its starting time of day."""
    if slots_per_day < 1:
        raise TrajectoryError("slots_per_day must be at least 1")
    seconds = start_time_s % SECONDS_PER_DAY
    slot_length = SECONDS_PER_DAY / slots_per_day
    return min(int(seconds // slot_length), slots_per_day - 1)


def group_by_sd_pair(
    trajectories: Iterable[MatchedTrajectory],
    slots_per_day: int = 24,
) -> Dict[SDPair, List[MatchedTrajectory]]:
    """Group trajectories by (source segment, destination segment, time slot)."""
    groups: Dict[SDPair, List[MatchedTrajectory]] = defaultdict(list)
    for trajectory in trajectories:
        key = SDPair(
            source=trajectory.source,
            destination=trajectory.destination,
            time_slot=time_slot_of(trajectory.start_time_s, slots_per_day),
        )
        groups[key].append(trajectory)
    return dict(groups)


class SDPairIndex:
    """Queryable index of trajectories grouped by SD pair and time slot.

    The preprocessing, the normal-route inference and several baselines all
    need the set of historical trajectories sharing an SD pair; the index
    builds it once and exposes filtered views.
    """

    def __init__(
        self,
        trajectories: Iterable[MatchedTrajectory],
        slots_per_day: int = 24,
    ):
        self._slots_per_day = slots_per_day
        self._groups = group_by_sd_pair(trajectories, slots_per_day)
        self._by_pair: Dict[Tuple[int, int], List[MatchedTrajectory]] = defaultdict(list)
        for key, group in self._groups.items():
            self._by_pair[(key.source, key.destination)].extend(group)

    @property
    def slots_per_day(self) -> int:
        return self._slots_per_day

    def groups(self) -> Mapping[SDPair, List[MatchedTrajectory]]:
        return self._groups

    def sd_pairs(self) -> List[Tuple[int, int]]:
        """All distinct (source, destination) pairs, ignoring time slots."""
        return sorted(self._by_pair)

    def group(self, source: int, destination: int,
              time_slot: Optional[int] = None) -> List[MatchedTrajectory]:
        """Trajectories of an SD pair, optionally restricted to one time slot."""
        if time_slot is None:
            return list(self._by_pair.get((source, destination), []))
        key = SDPair(source=source, destination=destination, time_slot=time_slot)
        return list(self._groups.get(key, []))

    def group_for(self, trajectory: MatchedTrajectory) -> List[MatchedTrajectory]:
        """The historical group the given trajectory belongs to."""
        slot = time_slot_of(trajectory.start_time_s, self._slots_per_day)
        group = self.group(trajectory.source, trajectory.destination, slot)
        if group:
            return group
        # Fall back to all time slots when the specific slot has no history;
        # this mirrors how sparse SD pairs are handled in the cold-start study.
        return self.group(trajectory.source, trajectory.destination)

    def pair_sizes(self) -> Dict[Tuple[int, int], int]:
        """Number of historical trajectories per (source, destination) pair."""
        return {pair: len(group) for pair, group in self._by_pair.items()}

    def filter_pairs(self, min_trajectories: int) -> "SDPairIndex":
        """A new index keeping only SD pairs with enough historical support.

        The paper filters SD pairs with fewer than 25 trajectories.
        """
        kept = [
            trajectory
            for pair, group in self._by_pair.items()
            if len(group) >= min_trajectories
            for trajectory in group
        ]
        return SDPairIndex(kept, self._slots_per_day)

    def drop_fraction(self, drop_rate: float, seed: int = 0) -> "SDPairIndex":
        """Randomly drop a fraction of trajectories per SD pair (cold-start study)."""
        if not (0.0 <= drop_rate < 1.0):
            raise TrajectoryError("drop_rate must be in [0, 1)")
        import numpy as np

        rng = np.random.default_rng(seed)
        kept: List[MatchedTrajectory] = []
        for pair, group in self._by_pair.items():
            keep_count = max(1, int(round(len(group) * (1.0 - drop_rate))))
            indices = rng.permutation(len(group))[:keep_count]
            kept.extend(group[i] for i in indices)
        return SDPairIndex(kept, self._slots_per_day)

    def __len__(self) -> int:
        return sum(len(group) for group in self._by_pair.values())
