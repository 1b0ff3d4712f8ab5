"""Operations on matched trajectories: transitions, label spans, streams."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..exceptions import TrajectoryError
from .models import MatchedTrajectory, Subtrajectory

SOURCE_PAD = -1
"""Sentinel used to pad the initial transition ``<*, e1>`` (Step-3 of the paper)."""


def transitions_of(segments: Sequence[int]) -> List[Tuple[int, int]]:
    """The transition sequence of a route, padded with ``<*, e1>`` at the start.

    For a route ``<e1, e2, ..., en>`` the result is
    ``[(-1, e1), (e1, e2), ..., (e_{n-1}, e_n)]`` so it aligns one-to-one with
    the route's segments, matching Step-3 of the preprocessing.
    """
    if not segments:
        raise TrajectoryError("cannot compute transitions of an empty route")
    transitions = [(SOURCE_PAD, segments[0])]
    transitions.extend(zip(segments, segments[1:]))
    return transitions


def subtrajectory_spans(labels: Sequence[int]) -> List[Tuple[int, int]]:
    """Maximal spans of consecutive 1-labels as ``(start, end)`` inclusive pairs.

    This converts per-segment anomaly labels into the anomalous subtrajectories
    the evaluation metrics operate on.
    """
    if labels.count(0) == len(labels):  # a normal trip: nothing to scan
        return []
    spans: List[Tuple[int, int]] = []
    start = None
    for index, label in enumerate(labels):
        if label not in (0, 1):
            raise TrajectoryError("labels must be 0 or 1")
        if label == 1 and start is None:
            start = index
        elif label == 0 and start is not None:
            spans.append((start, index - 1))
            start = None
    if start is not None:
        spans.append((start, len(labels) - 1))
    return spans


def split_by_labels(trajectory: MatchedTrajectory,
                    labels: Sequence[int]) -> List[Subtrajectory]:
    """The anomalous subtrajectories of ``trajectory`` under ``labels``."""
    if len(labels) != len(trajectory):
        raise TrajectoryError("labels must align with the trajectory")
    return [
        trajectory.subtrajectory(start, end)
        for start, end in subtrajectory_spans(labels)
    ]


def labels_from_spans(length: int, spans: Iterable[Tuple[int, int]]) -> List[int]:
    """Per-segment 0/1 labels of a trajectory of ``length`` given anomalous spans."""
    labels = [0] * length
    for start, end in spans:
        if not (0 <= start <= end < length):
            raise TrajectoryError(f"span ({start}, {end}) out of range for {length}")
        for index in range(start, end + 1):
            labels[index] = 1
    return labels


def interleave_streams(
    trajectories: Sequence[MatchedTrajectory],
    rng=None,
) -> Iterable[Tuple[int, int, int]]:
    """Merge trajectories into one fleet-arrival stream of point events.

    Yields ``(trajectory_index, position, segment)`` tuples simulating many
    vehicles reporting fixes concurrently. Without ``rng`` the streams advance
    in lockstep round-robin (every vehicle reports once per round); with a
    :class:`numpy.random.Generator` each event comes from a uniformly random
    unfinished stream, producing an arbitrary interleaving. Every trajectory's
    own points are always emitted in order.
    """
    cursors = [0] * len(trajectories)
    pending = [index for index, trajectory in enumerate(trajectories)
               if len(trajectory.segments) > 0]
    while pending:
        chosen = list(pending) if rng is None else \
            [pending[int(rng.integers(len(pending)))]]
        for index in chosen:
            position = cursors[index]
            yield index, position, trajectories[index].segments[position]
            cursors[index] += 1
            if cursors[index] == len(trajectories[index].segments):
                pending.remove(index)
