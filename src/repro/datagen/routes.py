"""Route planning for the generator: normal routes and detour injection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DataGenerationError, DisconnectedRouteError
from ..roadnet.graph import RoadNetwork
from ..roadnet.shortest_path import dijkstra_route, k_shortest_routes


@dataclass
class PlannedPair:
    """Normal routes of one SD pair together with their popularity weights."""

    source: int
    destination: int
    normal_routes: List[List[int]]
    base_weights: List[float]

    def __post_init__(self) -> None:
        if len(self.normal_routes) != len(self.base_weights):
            raise DataGenerationError("each normal route needs a weight")
        if not self.normal_routes:
            raise DataGenerationError("an SD pair needs at least one normal route")


class RoutePlanner:
    """Plans the normal routes of every SD pair.

    Normal routes are the k cheapest loopless alternatives between the pair's
    segments; popularity weights decay geometrically so the first route is the
    clear majority route, matching the premise that normal trajectories follow
    the route travelled by most of the traffic.
    """

    def __init__(self, network: RoadNetwork, rng: np.random.Generator):
        self._network = network
        self._rng = rng

    #: Popularity profiles by number of normal routes. With one or two normal
    #: routes every normal route carries a clear majority/plurality of the
    #: traffic (as in the paper's Figure 1, where the two normal routes carry
    #: 50% and 40% of the trajectories); with three the least popular
    #: alternative is a genuinely borderline route, which keeps the detection
    #: problem non-trivial.
    WEIGHT_PROFILES = {
        1: [1.0],
        2: [0.55, 0.45],
        3: [0.46, 0.36, 0.18],
    }

    def plan_pair(
        self,
        source: int,
        destination: int,
        n_routes_range: Tuple[int, int] = (1, 3),
    ) -> PlannedPair:
        """Choose the normal routes and their popularity weights for one pair."""
        low, high = n_routes_range
        if low < 1 or high < low:
            raise DataGenerationError("invalid n_routes_range")
        if high > max(self.WEIGHT_PROFILES):
            raise DataGenerationError(
                f"at most {max(self.WEIGHT_PROFILES)} normal routes are supported")
        wanted = int(self._rng.integers(low, high + 1))
        routes = k_shortest_routes(self._network, source, destination, wanted)
        if not routes:
            raise DisconnectedRouteError(
                f"no route between segments {source} and {destination}")
        weights = list(self.WEIGHT_PROFILES[len(routes)])
        return PlannedPair(source=source, destination=destination,
                           normal_routes=routes, base_weights=weights)


def inject_detour(
    network: RoadNetwork,
    route: Sequence[int],
    rng: np.random.Generator,
    detour_length_range: Tuple[int, int] = (3, 10),
    max_attempts: int = 25,
) -> Optional[Tuple[List[int], List[int]]]:
    """Replace a middle portion of ``route`` with an off-route alternative.

    Returns ``(detoured_route, labels)`` where ``labels`` marks with 1 the
    segments that are *not* part of the original route (the injected detour),
    or ``None`` when no detour could be constructed (e.g. the route is too
    short or the network offers no alternative).

    The construction mirrors how real detours look: the vehicle leaves the
    normal route at some segment, wanders over segments the normal route does
    not use, and rejoins the normal route downstream.
    """
    route = list(route)
    if len(route) < 5:
        return None
    min_extra, max_extra = detour_length_range
    original_segments = set(route)

    for _ in range(max_attempts):
        # Leave after index i, rejoin at index j (both interior).
        i = int(rng.integers(1, len(route) - 3))
        j = int(rng.integers(i + 2, len(route) - 1))
        leave_segment = route[i]
        rejoin_segment = route[j]
        banned = set(route[i + 1:j])  # forbid the normal segments in between
        if not banned:
            continue
        try:
            alternative = dijkstra_route(
                network, leave_segment, rejoin_segment,
                banned_segments=banned,
            )
        except DisconnectedRouteError:
            continue
        detour_body = alternative[1:-1]
        if not (min_extra <= len(detour_body)):
            continue
        if len(detour_body) > max_extra:
            continue
        if any(segment in original_segments for segment in detour_body):
            # The alternative re-uses other parts of the normal route; such a
            # "detour" would not read as anomalous, try again.
            continue
        detoured = route[: i + 1] + detour_body + route[j:]
        labels = (
            [0] * (i + 1)
            + [1] * len(detour_body)
            + [0] * (len(route) - j)
        )
        if len(labels) != len(detoured):
            raise DataGenerationError("internal error: labels misaligned with route")
        return detoured, labels
    return None
