"""Spatial indexing of road segments.

Map matching needs "which segments are within r metres of this GPS point"
queries for every point of every trajectory, so a uniform grid index over
segment midpoints/endpoints is built once per network.
"""

from __future__ import annotations

import math
from collections import defaultdict
from operator import itemgetter
from typing import Dict, List, Tuple

from ..exceptions import RoadNetworkError
from .graph import RoadNetwork

#: Query windows memoised before the memo is dropped and refilled (bounds
#: the memory a stream of far-flung fixes can pin).
_MAX_WINDOWS = 65536


class SpatialIndex:
    """Uniform-grid spatial index over the segments of a road network.

    Each segment is inserted into every grid cell its bounding box overlaps,
    so radius queries only need to inspect the cells overlapping the query
    disc. Segment geometry is flattened at build time and each query
    window's deduplicated candidate rows are memoised on first use.
    """

    def __init__(self, network: RoadNetwork, cell_size_m: float = 150.0):
        if cell_size_m <= 0:
            raise RoadNetworkError("cell_size_m must be positive")
        self._cell_size = float(cell_size_m)
        self._cells: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        #: segment id -> (id, start_x, start_y, dx, dy, dx*dx + dy*dy)
        self._rows: Dict[int, tuple] = {}
        #: (min_cx, min_cy, max_cx, max_cy) -> rows of the segments in it
        self._windows: Dict[Tuple[int, int, int, int], Tuple[tuple, ...]] = {}
        for segment in network.segments():
            start, end = network.segment_endpoints(segment.segment_id)
            dx, dy = end.x - start.x, end.y - start.y
            self._rows[segment.segment_id] = (
                segment.segment_id, start.x, start.y, dx, dy, dx * dx + dy * dy)
            for cell in self._cells_in(self._window(
                    min(start.x, end.x), min(start.y, end.y),
                    max(start.x, end.x), max(start.y, end.y))):
                self._cells[cell].append(segment.segment_id)

    @property
    def cell_size_m(self) -> float:
        return self._cell_size

    def _window(self, min_x: float, min_y: float, max_x: float, max_y: float
                ) -> Tuple[int, int, int, int]:
        size, floor = self._cell_size, math.floor
        return (floor(min_x / size), floor(min_y / size),
                floor(max_x / size), floor(max_y / size))

    @staticmethod
    def _cells_in(window: Tuple[int, int, int, int]) -> List[Tuple[int, int]]:
        min_cx, min_cy, max_cx, max_cy = window
        return [(cx, cy) for cx in range(min_cx, max_cx + 1)
                for cy in range(min_cy, max_cy + 1)]

    def _window_rows(self, window: Tuple[int, int, int, int]) -> Tuple[tuple, ...]:
        """Memoise the rows of every segment touching ``window``, in the
        iteration order of the ``set`` union of its cells: that order ranks
        equidistant candidates (the two directions of one road) and so
        decides which of them survives the matcher's ``max_candidates``."""
        candidates = set()
        for cell in self._cells_in(window):
            candidates.update(self._cells.get(cell, ()))
        if len(self._windows) >= _MAX_WINDOWS:
            self._windows.clear()
        rows = self._windows[window] = tuple(
            self._rows[segment_id] for segment_id in candidates)
        return rows

    def segments_near(self, x: float, y: float, radius_m: float) -> List[Tuple[int, float]]:
        """Segments whose distance to ``(x, y)`` is at most ``radius_m``.

        Returns ``(segment_id, distance_m)`` pairs sorted by distance;
        equidistant segments keep a fixed, query-independent relative order.
        """
        if radius_m <= 0:
            raise RoadNetworkError("radius_m must be positive")
        window = self._window(
            x - radius_m, y - radius_m, x + radius_m, y + radius_m)
        rows = self._windows.get(window)
        if rows is None:
            rows = self._window_rows(window)
        hypot = math.hypot
        results = []
        # Same float expression tree as RoadNetwork.project_point.
        for segment_id, start_x, start_y, dx, dy, seg_len_sq in rows:
            if seg_len_sq == 0:
                distance = hypot(x - start_x, y - start_y)
            else:
                t = ((x - start_x) * dx + (y - start_y) * dy) / seg_len_sq
                if not t > 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                distance = hypot(x - (start_x + t * dx), y - (start_y + t * dy))
            if distance <= radius_m:
                results.append((segment_id, distance))
        results.sort(key=itemgetter(1))
        return results

    def nearest_segment(self, x: float, y: float, max_radius_m: float = 2000.0) -> Tuple[int, float]:
        """The closest segment to ``(x, y)``, expanding the search radius.

        Raises :class:`RoadNetworkError` if nothing is found within
        ``max_radius_m``.
        """
        radius = self._cell_size
        while radius <= max_radius_m:
            near = self.segments_near(x, y, radius)
            if near:
                return near[0]
            radius *= 2.0
        raise RoadNetworkError(
            f"no segment within {max_radius_m} m of ({x:.1f}, {y:.1f})"
        )
