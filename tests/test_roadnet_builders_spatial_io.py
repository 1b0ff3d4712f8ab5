"""Tests of the city builders, the spatial index and edge-list I/O."""

import functools
import math
from collections import defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import RoadNetworkConfig
from repro.exceptions import RoadNetworkError
from repro.roadnet import (
    RoadNetwork,
    SpatialIndex,
    build_grid_city,
    dijkstra_route,
    load_edge_list,
    save_edge_list,
)


# ----------------------------------------------------------------- builders
def test_grid_city_sizes(grid_network):
    assert grid_network.num_intersections == 64
    # Two-way streets: at least the border ring exists.
    assert grid_network.num_segments > 100


def test_grid_city_is_deterministic():
    a = build_grid_city(RoadNetworkConfig(grid_rows=6, grid_cols=6, seed=9))
    b = build_grid_city(RoadNetworkConfig(grid_rows=6, grid_cols=6, seed=9))
    assert a.num_segments == b.num_segments
    assert [s.length_m for s in a.segments()] == [s.length_m for s in b.segments()]


def test_grid_city_two_way_streets(grid_network):
    """Every street is two-way, so every segment has a reverse counterpart."""
    endpoints = {(s.start_node, s.end_node) for s in grid_network.segments()}
    for segment in list(grid_network.segments())[:50]:
        assert (segment.end_node, segment.start_node) in endpoints


def test_grid_city_routes_exist(grid_network):
    segment_ids = grid_network.segment_ids()
    route = dijkstra_route(grid_network, segment_ids[0], segment_ids[-1])
    assert grid_network.is_route_connected(route)


# ------------------------------------------------------------- spatial index
def test_spatial_index_nearest(line_network):
    index = SpatialIndex(line_network, cell_size_m=50.0)
    segment_id, distance = index.nearest_segment(50.0, 5.0)
    assert segment_id == 0
    assert distance == pytest.approx(5.0)


def test_spatial_index_radius_query(line_network):
    index = SpatialIndex(line_network, cell_size_m=50.0)
    near = index.segments_near(150.0, 0.0, radius_m=60.0)
    found = {segment_id for segment_id, _ in near}
    assert 1 in found
    # Results are sorted by distance.
    distances = [d for _, d in near]
    assert distances == sorted(distances)


def test_spatial_index_rejects_bad_radius(line_network):
    index = SpatialIndex(line_network)
    with pytest.raises(RoadNetworkError):
        index.segments_near(0, 0, radius_m=0)


def test_spatial_index_nearest_raises_when_too_far(line_network):
    index = SpatialIndex(line_network, cell_size_m=50.0)
    with pytest.raises(RoadNetworkError):
        index.nearest_segment(1e7, 1e7, max_radius_m=100.0)


def test_spatial_index_consistent_with_projection(grid_network):
    index = SpatialIndex(grid_network, cell_size_m=150.0)
    x, y = grid_network.segment_midpoint(grid_network.segment_ids()[10])
    segment_id, distance = index.nearest_segment(x, y)
    direct, _, _ = grid_network.project_point(segment_id, x, y)
    assert distance == pytest.approx(direct)


class BruteForceIndex:
    """The reference for :meth:`SpatialIndex.segments_near`: the grid index
    as it was before geometry rows and the window memo — a fresh 9-cell
    ``set`` union per query, ``RoadNetwork.project_point`` per candidate.
    The union's iteration order is part of the contract (it ranks
    equidistant candidates), so the reference keeps the union, not a scan."""

    def __init__(self, network, cell_size_m):
        self.network, self.cell_size = network, float(cell_size_m)
        self.cells = defaultdict(list)
        for segment in network.segments():
            start, end = network.segment_endpoints(segment.segment_id)
            for cell in self.cells_overlapping(
                    min(start.x, end.x), min(start.y, end.y),
                    max(start.x, end.x), max(start.y, end.y)):
                self.cells[cell].append(segment.segment_id)

    def cell_of(self, x, y):
        return (int(math.floor(x / self.cell_size)),
                int(math.floor(y / self.cell_size)))

    def cells_overlapping(self, min_x, min_y, max_x, max_y):
        min_cx, min_cy = self.cell_of(min_x, min_y)
        max_cx, max_cy = self.cell_of(max_x, max_y)
        return [(cx, cy) for cx in range(min_cx, max_cx + 1)
                for cy in range(min_cy, max_cy + 1)]

    def segments_near(self, x, y, radius_m):
        candidates = set()
        for cell in self.cells_overlapping(
                x - radius_m, y - radius_m, x + radius_m, y + radius_m):
            candidates.update(self.cells.get(cell, ()))
        results = []
        for segment_id in candidates:
            distance, _, _ = self.network.project_point(segment_id, x, y)
            if distance <= radius_m:
                results.append((segment_id, distance))
        results.sort(key=lambda item: item[1])
        return results


def origin_grid() -> RoadNetwork:
    """A 5x5 two-way grid, 100 m apart, centred on the origin: integer
    coordinates of both signs (exact distance ties between the two
    directions of a street and between streets meeting at a corner), plus
    one segment between two coincident nodes (zero-length geometry)."""
    network = RoadNetwork()
    for row in range(5):
        for col in range(5):
            network.add_intersection(row * 5 + col, (col - 2) * 100.0,
                                     (row - 2) * 100.0)
    segment_id = 0
    for row in range(5):
        for col in range(5):
            for other in ((row, col + 1), (row + 1, col)):
                if other[0] < 5 and other[1] < 5:
                    a, b = row * 5 + col, other[0] * 5 + other[1]
                    network.add_segment(segment_id, a, b)
                    network.add_segment(segment_id + 1, b, a)
                    segment_id += 2
    network.add_intersection(99, 200.0, 200.0)  # on top of node 24
    network.add_segment(segment_id, 24, 99, length_m=1.0)
    return network


_ORIGIN_GRID = origin_grid()


@functools.lru_cache(maxsize=None)
def index_pair(cell_size_m):
    """One long-lived (index, reference) pair per cell size, so later
    examples hit windows memoised by earlier ones."""
    return (SpatialIndex(_ORIGIN_GRID, cell_size_m=cell_size_m),
            BruteForceIndex(_ORIGIN_GRID, cell_size_m))


def bit_exact(results):
    return [(segment_id, distance.hex()) for segment_id, distance in results]


@settings(max_examples=300, deadline=None)
@given(cell_size_m=st.sampled_from([60.0, 100.0, 150.0]),
       x=st.one_of(st.floats(-420.0, 420.0),
                   st.sampled_from([-200.0, -100.0, 0.0, 150.0, 200.0])),
       y=st.one_of(st.floats(-420.0, 420.0),
                   st.sampled_from([-200.0, -50.0, 0.0, 100.0, 200.0])),
       radius_factor=st.sampled_from([1e-3, 0.4, 1.0, 1.7, 3.0]))
@example(cell_size_m=100.0, x=0.0, y=0.0, radius_factor=1.0)      # a corner
@example(cell_size_m=100.0, x=-200.0, y=50.0, radius_factor=1.0)  # bbox edge
@example(cell_size_m=150.0, x=200.0, y=200.0, radius_factor=0.4)  # degenerate
@example(cell_size_m=60.0, x=-300.0, y=-300.0, radius_factor=3.0)  # outside
def test_segments_near_equals_brute_force_reference(
        cell_size_m, x, y, radius_factor):
    """Ordered list and bit-equal distances: inside, on the edge of and
    outside the bounding box, both coordinate signs, radius below / equal
    to / above the cell size, two-way streets (equidistant pairs)."""
    index, reference = index_pair(cell_size_m)
    radius_m = cell_size_m * radius_factor
    expected = reference.segments_near(x, y, radius_m)
    assert bit_exact(index.segments_near(x, y, radius_m)) == bit_exact(expected)
    # Asked again, the memoised window gives the same answer.
    assert bit_exact(index.segments_near(x, y, radius_m)) == bit_exact(expected)


def test_segments_near_equals_reference_on_the_jittered_city(grid_network):
    """The session grid city (irregular coordinates, 236 two-way segments)
    swept on a lattice that covers and overshoots its bounding box."""
    index = SpatialIndex(grid_network, cell_size_m=50.0)
    reference = BruteForceIndex(grid_network, 50.0)
    ties = 0
    for x in range(-120, 1700, 70):
        for y in range(-120, 1700, 70):
            for radius_m in (20.0, 50.0, 130.0):
                expected = reference.segments_near(float(x), float(y), radius_m)
                assert bit_exact(index.segments_near(
                    float(x), float(y), radius_m)) == bit_exact(expected)
                distances = [distance for _, distance in expected]
                ties += len(distances) - len(set(distances))
    assert ties > 0  # equidistant pairs occurred, and kept their order


def test_window_memo_overflow_keeps_answers(monkeypatch):
    """Past its bound the window memo is dropped and refilled: answers (and
    tie order) are unaffected and the memo stays within the bound."""
    from repro.roadnet import spatial

    monkeypatch.setattr(spatial, "_MAX_WINDOWS", 4)
    index = SpatialIndex(_ORIGIN_GRID, cell_size_m=100.0)
    reference = BruteForceIndex(_ORIGIN_GRID, 100.0)
    for x in range(-250, 251, 50):
        for y in (-150.0, 0.0, 150.0):
            assert bit_exact(index.segments_near(float(x), y, 100.0)) == \
                bit_exact(reference.segments_near(float(x), y, 100.0))
            assert len(index._windows) <= 4


# ---------------------------------------------------------------------- I/O
def test_edge_list_round_trip(tmp_path, line_network):
    path = tmp_path / "network.txt"
    save_edge_list(line_network, path)
    loaded = load_edge_list(path)
    assert loaded.num_intersections == line_network.num_intersections
    assert loaded.num_segments == line_network.num_segments
    for segment in line_network.segments():
        other = loaded.segment(segment.segment_id)
        assert other.start_node == segment.start_node
        assert other.length_m == pytest.approx(segment.length_m)


def test_edge_list_rejects_malformed(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("N 0 0.0 0.0\nX what is this\n")
    with pytest.raises(RoadNetworkError):
        load_edge_list(path)


def test_edge_list_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("# comment\n\nN 0 0 0\nN 1 10 0\nE 0 0 1 10.0 13.9 0\n")
    loaded = load_edge_list(path)
    assert loaded.num_segments == 1
