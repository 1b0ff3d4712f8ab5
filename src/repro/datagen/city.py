"""Selection of source/destination (SD) pairs in a synthetic city."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..exceptions import DataGenerationError
from ..roadnet.graph import RoadNetwork
from ..roadnet.shortest_path import dijkstra_route
from ..exceptions import DisconnectedRouteError


def sample_sd_pairs(
    network: RoadNetwork,
    n_pairs: int,
    rng: np.random.Generator,
    min_route_length: int = 6,
    max_route_length: int = 70,
    max_attempts_per_pair: int = 60,
) -> List[Tuple[int, int]]:
    """Sample SD pairs whose shortest route length falls in a target range.

    A pair is only accepted when a route exists between the two segments and
    its shortest-route hop count lies in ``[min_route_length,
    max_route_length]`` — this mirrors the paper's length groups G1–G4 and
    avoids degenerate one-segment trips.
    """
    if n_pairs < 1:
        raise DataGenerationError("n_pairs must be at least 1")
    segment_ids = network.segment_ids()
    if len(segment_ids) < 2:
        raise DataGenerationError("network too small to sample SD pairs")

    pairs: List[Tuple[int, int]] = []
    seen = set()
    attempts_budget = n_pairs * max_attempts_per_pair
    attempts = 0
    while len(pairs) < n_pairs and attempts < attempts_budget:
        attempts += 1
        source, destination = rng.choice(segment_ids, size=2, replace=False)
        source, destination = int(source), int(destination)
        if (source, destination) in seen:
            continue
        try:
            route = dijkstra_route(network, source, destination)
        except DisconnectedRouteError:
            continue
        if not (min_route_length <= len(route) <= max_route_length):
            continue
        seen.add((source, destination))
        pairs.append((source, destination))
    if len(pairs) < n_pairs:
        raise DataGenerationError(
            f"could only sample {len(pairs)} of {n_pairs} SD pairs; "
            "relax the route-length bounds or enlarge the network"
        )
    return pairs
