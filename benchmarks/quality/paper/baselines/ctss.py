"""CTSS: continuous trajectory similarity search for online outlier detection
(Zhang et al. 2020).

CTSS compares the ongoing partial route against a reference (normal) route of
the same SD pair using the discrete Fréchet distance; an anomaly is flagged
when the deviation exceeds a threshold. Adapted to the subtrajectory task, the
per-segment anomaly score is the *increase* in Fréchet deviation caused by
appending that segment, so scores localise where the detour happens rather
than accumulating from the source.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.exceptions import TrajectoryError
from repro.labeling.features import PreprocessingPipeline
from repro.trajectory.models import MatchedTrajectory
from .base import ScoringDetector


def discrete_frechet_points(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Discrete Fréchet distance between two polylines given as point arrays.

    The whole-table form of the coupling :class:`CTSSScorer` grows a row
    per point; the tests hold the scorer's prefix scores against it.
    """
    n, m = len(points_a), len(points_b)
    if n == 0 or m == 0:
        raise TrajectoryError("point sequences must not be empty")
    # Pairwise Euclidean distances.
    diff = points_a[:, None, :] - points_b[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    coupling = np.full((n, m), np.inf)
    coupling[0, 0] = dist[0, 0]
    for j in range(1, m):
        coupling[0, j] = max(coupling[0, j - 1], dist[0, j])
    for i in range(1, n):
        coupling[i, 0] = max(coupling[i - 1, 0], dist[i, 0])
        for j in range(1, m):
            best_previous = min(coupling[i - 1, j], coupling[i - 1, j - 1],
                                coupling[i, j - 1])
            coupling[i, j] = max(best_previous, dist[i, j])
    return float(coupling[n - 1, m - 1])


class CTSSScorer(ScoringDetector):
    """Per-segment Fréchet-deviation scores against the most popular normal route."""

    name = "CTSS"

    def __init__(self, pipeline: PreprocessingPipeline):
        self._pipeline = pipeline
        self._network = pipeline.network

    def _reference_routes(self, trajectory: MatchedTrajectory) -> List[Sequence[int]]:
        """The SD pair's normal routes; the deviation is taken against the
        closest one, so travelling either popular alternative is not penalised."""
        return list(self._pipeline.normal_routes_for(trajectory))

    def _points(self, route: Sequence[int]) -> np.ndarray:
        return np.array([self._network.segment_midpoint(s) for s in route])

    def scores(self, trajectory: MatchedTrajectory) -> List[float]:
        """Per-prefix Fréchet deviation against the closest normal route."""
        per_reference = [
            self._scores_against(trajectory, reference)
            for reference in self._reference_routes(trajectory)
        ]
        return [float(min(values)) for values in zip(*per_reference)]

    def _scores_against(self, trajectory: MatchedTrajectory,
                        reference: Sequence[int]) -> List[float]:
        """Fréchet deviation of every prefix of the trajectory.

        The coupling table of the discrete Fréchet distance is grown one row
        per newly observed point (this is the "continuous" aspect of CTSS), so
        the whole trajectory costs O(n·m) instead of O(n²·m). The deviation
        stays high after the vehicle rejoins the normal route, which is why
        CTSS tends to over-extend detected detours towards the destination —
        the failure mode Figure 5 of the paper illustrates.
        """
        reference_points = self._points(reference)
        trajectory_points = self._points(trajectory.segments)
        m = len(reference_points)
        scores: List[float] = []
        previous_row = None
        for index in range(len(trajectory_points)):
            diff = reference_points - trajectory_points[index]
            distances = np.sqrt((diff ** 2).sum(axis=1))
            row = np.empty(m)
            if previous_row is None:
                row[0] = distances[0]
                for j in range(1, m):
                    row[j] = max(row[j - 1], distances[j])
            else:
                row[0] = max(previous_row[0], distances[0])
                for j in range(1, m):
                    best_previous = min(previous_row[j], previous_row[j - 1], row[j - 1])
                    row[j] = max(best_previous, distances[j])
            # The deviation of the partial trajectory is measured against the
            # best-matching *prefix* of the reference route (min over the DP
            # row): comparing a short prefix with the full reference would be
            # dominated by the not-yet-travelled remainder of the reference.
            scores.append(float(row.min()))
            previous_row = row
        return scores
