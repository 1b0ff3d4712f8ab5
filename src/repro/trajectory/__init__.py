"""Trajectory data model: raw GPS traces, map-matched trajectories, SD pairs.

Terminology follows Section III of the paper: a *raw trajectory* is a sequence
of GPS points, a *map-matched trajectory* is a sequence of road segments, a
*subtrajectory* ``T[i, j]`` is a contiguous slice, and a *transition* is a pair
of adjacent segments. Trajectories with the same source and destination
segment form an *SD pair*.
"""

from .models import (
    GPSPoint,
    MatchedTrajectory,
    RawTrajectory,
    SDPair,
    Subtrajectory,
)
from .ops import (
    interleave_streams,
    split_by_labels,
    subtrajectory_spans,
    transitions_of,
)
from .sdpairs import time_slot_of

__all__ = [
    "GPSPoint",
    "RawTrajectory",
    "MatchedTrajectory",
    "Subtrajectory",
    "SDPair",
    "time_slot_of",
    "transitions_of",
    "subtrajectory_spans",
    "split_by_labels",
    "interleave_streams",
]
