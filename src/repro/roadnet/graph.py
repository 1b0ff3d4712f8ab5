"""Core road-network data structures.

A :class:`RoadNetwork` is a directed graph ``G(V, E)`` where vertices are
intersections and edges are road segments, matching the preliminaries of the
paper (Section III-A). Segments carry geometric and traffic attributes used by
map matching, data generation and representation learning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import (
    IntersectionNotFoundError,
    RoadNetworkError,
    SegmentNotFoundError,
)


@dataclass(frozen=True)
class Intersection:
    """A vertex of the road network (a crossroad).

    Coordinates are planar metres in a local projection; the synthetic cities
    and the GPS sampler use the same frame so no geodesy is needed.
    """

    node_id: int
    x: float
    y: float

    def distance_to(self, other: "Intersection") -> float:
        """Euclidean distance in metres to another intersection."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class RoadSegment:
    """A directed road segment (an edge of the road network)."""

    segment_id: int
    start_node: int
    end_node: int
    length_m: float
    speed_limit_mps: float = 13.9
    road_type: int = 0

    @property
    def travel_time_s(self) -> float:
        """Free-flow travel time along the segment in seconds."""
        return self.length_m / max(self.speed_limit_mps, 0.1)


class RoadNetwork:
    """A directed road network with segment- and node-level adjacency.

    The class offers the queries the rest of the library depends on:

    * node and segment lookup,
    * successor segments (segment-level adjacency used by route planning),
    * in/out degree of a segment (``e.in`` / ``e.out`` in the paper),
    * geometric helpers (segment midpoint, projection of a point).
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, Intersection] = {}
        self._segments: Dict[int, RoadSegment] = {}
        self._out_segments: Dict[int, List[int]] = {}
        self._in_segments: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------ nodes
    def add_intersection(self, node_id: int, x: float, y: float) -> Intersection:
        """Add an intersection; replacing an existing id is an error."""
        if node_id in self._nodes:
            raise RoadNetworkError(f"intersection {node_id} already exists")
        node = Intersection(node_id=node_id, x=x, y=y)
        self._nodes[node_id] = node
        self._out_segments.setdefault(node_id, [])
        self._in_segments.setdefault(node_id, [])
        return node

    def intersection(self, node_id: int) -> Intersection:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise IntersectionNotFoundError(node_id) from None

    @property
    def num_intersections(self) -> int:
        return len(self._nodes)

    def intersections(self) -> Iterator[Intersection]:
        return iter(self._nodes.values())

    # --------------------------------------------------------------- segments
    def add_segment(
        self,
        segment_id: int,
        start_node: int,
        end_node: int,
        length_m: Optional[float] = None,
        speed_limit_mps: float = 13.9,
        road_type: int = 0,
    ) -> RoadSegment:
        """Add a directed segment between two existing intersections."""
        if segment_id in self._segments:
            raise RoadNetworkError(f"segment {segment_id} already exists")
        if start_node not in self._nodes:
            raise IntersectionNotFoundError(start_node)
        if end_node not in self._nodes:
            raise IntersectionNotFoundError(end_node)
        if start_node == end_node:
            raise RoadNetworkError("self-loop segments are not supported")
        if length_m is None:
            length_m = self._nodes[start_node].distance_to(self._nodes[end_node])
        if length_m <= 0:
            raise RoadNetworkError("segment length must be positive")
        segment = RoadSegment(
            segment_id=segment_id,
            start_node=start_node,
            end_node=end_node,
            length_m=length_m,
            speed_limit_mps=speed_limit_mps,
            road_type=road_type,
        )
        self._segments[segment_id] = segment
        self._out_segments[start_node].append(segment_id)
        self._in_segments[end_node].append(segment_id)
        return segment

    def segment(self, segment_id: int) -> RoadSegment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise SegmentNotFoundError(segment_id) from None

    def has_segment(self, segment_id: int) -> bool:
        return segment_id in self._segments

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def segments(self) -> Iterator[RoadSegment]:
        return iter(self._segments.values())

    def segment_ids(self) -> List[int]:
        return sorted(self._segments)

    # ------------------------------------------------------------- adjacency
    def successor_segments(self, segment_id: int) -> List[int]:
        """Segments that can directly follow ``segment_id`` on a route."""
        segment = self.segment(segment_id)
        return list(self._out_segments[segment.end_node])

    def out_degree(self, segment_id: int) -> int:
        """Number of segments reachable right after ``segment_id`` (``e.out``)."""
        return len(self._out_segments[self.segment(segment_id).end_node])

    def in_degree(self, segment_id: int) -> int:
        """Number of segments that can directly lead into ``segment_id`` (``e.in``)."""
        return len(self._in_segments[self.segment(segment_id).start_node])

    def is_route_connected(self, route: Sequence[int]) -> bool:
        """True if consecutive segments of ``route`` share an intersection."""
        for previous_id, current_id in zip(route, route[1:]):
            previous = self.segment(previous_id)
            current = self.segment(current_id)
            if previous.end_node != current.start_node:
                return False
        return True

    # -------------------------------------------------------------- geometry
    def segment_endpoints(self, segment_id: int) -> Tuple[Intersection, Intersection]:
        segment = self.segment(segment_id)
        return self._nodes[segment.start_node], self._nodes[segment.end_node]

    def segment_midpoint(self, segment_id: int) -> Tuple[float, float]:
        start, end = self.segment_endpoints(segment_id)
        return (start.x + end.x) / 2.0, (start.y + end.y) / 2.0

    def project_point(self, segment_id: int, x: float, y: float) -> Tuple[float, float, float]:
        """Project ``(x, y)`` onto a segment.

        Returns ``(distance_m, fraction, offset_m)`` where ``distance_m`` is the
        perpendicular distance from the point to the segment, ``fraction`` in
        [0, 1] locates the projection along the segment and ``offset_m`` is the
        distance from the segment start to the projection.
        """
        start, end = self.segment_endpoints(segment_id)
        dx, dy = end.x - start.x, end.y - start.y
        seg_len_sq = dx * dx + dy * dy
        if seg_len_sq == 0:
            return math.hypot(x - start.x, y - start.y), 0.0, 0.0
        t = ((x - start.x) * dx + (y - start.y) * dy) / seg_len_sq
        t = min(1.0, max(0.0, t))
        px, py = start.x + t * dx, start.y + t * dy
        distance = math.hypot(x - px, y - py)
        segment = self._segments[segment_id]
        return distance, t, t * segment.length_m

    def point_along_segment(self, segment_id: int, fraction: float) -> Tuple[float, float]:
        """Point located at ``fraction`` (0..1) of a segment's length."""
        fraction = min(1.0, max(0.0, fraction))
        start, end = self.segment_endpoints(segment_id)
        return (
            start.x + fraction * (end.x - start.x),
            start.y + fraction * (end.y - start.y),
        )

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self._segments

    def __len__(self) -> int:
        return len(self._segments)

    def __repr__(self) -> str:
        return (
            f"RoadNetwork(num_intersections={self.num_intersections}, "
            f"num_segments={self.num_segments})"
        )
