"""Routing over road networks: Dijkstra and Yen-style k-shortest routes.

Routes are expressed as sequences of segment ids, which is the representation
every downstream component (trajectory generator, map matcher, detector)
consumes. A route's cost is its length in metres.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import DisconnectedRouteError, RoadNetworkError
from .graph import RoadNetwork


def dijkstra_route(
    network: RoadNetwork,
    source_segment: int,
    target_segment: int,
    banned_segments: Optional[set] = None,
) -> List[int]:
    """Shortest route between two segments (both endpoints included).

    The search runs over the segment-level adjacency so the returned route is
    directly usable as a map-matched trajectory. Raises
    :class:`DisconnectedRouteError` when the target is unreachable.
    """
    if not network.has_segment(source_segment):
        raise RoadNetworkError(f"unknown source segment {source_segment}")
    if not network.has_segment(target_segment):
        raise RoadNetworkError(f"unknown target segment {target_segment}")
    banned = banned_segments or set()
    if source_segment in banned or target_segment in banned:
        raise DisconnectedRouteError("source or target segment is banned")
    if source_segment == target_segment:
        return [source_segment]

    best_cost: Dict[int, float] = {source_segment: 0.0}
    parent: Dict[int, int] = {}
    frontier: List[Tuple[float, int]] = [(0.0, source_segment)]
    visited = set()

    while frontier:
        current_cost, current = heapq.heappop(frontier)
        if current in visited:
            continue
        visited.add(current)
        if current == target_segment:
            break
        for successor in network.successor_segments(current):
            if successor in banned or successor in visited:
                continue
            new_cost = current_cost + network.segment(successor).length_m
            if new_cost < best_cost.get(successor, float("inf")):
                best_cost[successor] = new_cost
                parent[successor] = current
                heapq.heappush(frontier, (new_cost, successor))

    if target_segment not in visited:
        raise DisconnectedRouteError(
            f"no route from segment {source_segment} to {target_segment}"
        )

    route = [target_segment]
    while route[-1] != source_segment:
        route.append(parent[route[-1]])
    route.reverse()
    return route


def k_shortest_routes(
    network: RoadNetwork,
    source_segment: int,
    target_segment: int,
    k: int,
) -> List[List[int]]:
    """Up to ``k`` loopless shortest routes (Yen's algorithm on segments).

    Used by the trajectory generator to obtain several plausible "normal"
    routes between an SD pair, mirroring how real taxi traffic splits across a
    few popular alternatives.
    """
    if k < 1:
        raise RoadNetworkError("k must be at least 1")
    try:
        first = dijkstra_route(network, source_segment, target_segment)
    except DisconnectedRouteError:
        return []
    routes = [first]
    candidates: List[Tuple[float, List[int]]] = []

    def total_cost(route: Sequence[int]) -> float:
        return sum(network.segment(segment_id).length_m for segment_id in route)

    while len(routes) < k:
        previous_route = routes[-1]
        for spur_index in range(len(previous_route) - 1):
            spur_segment = previous_route[spur_index]
            root_route = previous_route[: spur_index + 1]
            banned = set()
            for route in routes:
                if route[: spur_index + 1] == root_route and len(route) > spur_index + 1:
                    banned.add(route[spur_index + 1])
            banned.update(root_route[:-1])
            try:
                spur_route = dijkstra_route(
                    network, spur_segment, target_segment,
                    banned_segments=banned,
                )
            except DisconnectedRouteError:
                continue
            candidate = root_route[:-1] + spur_route
            if any(existing == candidate for existing in routes):
                continue
            if any(existing[1] == candidate for existing in candidates):
                continue
            heapq.heappush(candidates, (total_cost(candidate), candidate))
        if not candidates:
            break
        _, best_candidate = heapq.heappop(candidates)
        routes.append(best_candidate)
    return routes
