"""Trajectory similarity measures.

The CTSS baseline uses the discrete Fréchet distance between the ongoing
partial route and a reference normal route; the Jaccard similarity of two
routes' segment sets is the route-overlap measure the tests compare with.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import TrajectoryError


def discrete_frechet_points(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Discrete Fréchet distance between two polylines given as point arrays."""
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


def jaccard_similarity(route_a: Sequence[int], route_b: Sequence[int]) -> float:
    """Jaccard similarity of the segment sets of two routes."""
    set_a, set_b = set(route_a), set(route_b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)
