"""Time slots of the day, which split an SD pair's history into groups.

The grouping itself is :class:`~repro.history.HistorySnapshot`'s.
"""

from __future__ import annotations

import math
from numbers import Real

from ..exceptions import TrajectoryError

SECONDS_PER_DAY = 24 * 3600


def check_start_time(start_time_s) -> None:
    """Reject an outside start time (a stream's opening) that is a ``bool`` or
    not a finite real number; :func:`time_slot_of` would fail on it untyped."""
    # The builtin check first: the ABC one costs ten times as much, and this
    # runs for every trip a fleet opens.
    if not (isinstance(start_time_s, (float, int, Real))
            and start_time_s.__class__ is not bool
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

