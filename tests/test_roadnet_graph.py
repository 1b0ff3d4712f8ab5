"""Tests of the road-network data structures."""

import math

import pytest

from repro.exceptions import (
    IntersectionNotFoundError,
    RoadNetworkError,
    SegmentNotFoundError,
)
from repro.roadnet import RoadNetwork


def test_add_and_lookup_intersections(line_network):
    assert line_network.num_intersections == 5
    node = line_network.intersection(1)
    assert (node.x, node.y) == (100.0, 0.0)


def test_duplicate_intersection_rejected(line_network):
    with pytest.raises(RoadNetworkError):
        line_network.add_intersection(0, 1.0, 1.0)


def test_missing_intersection_raises(line_network):
    with pytest.raises(IntersectionNotFoundError):
        line_network.intersection(99)


def test_add_and_lookup_segments(line_network):
    assert line_network.num_segments == 5
    segment = line_network.segment(0)
    assert segment.start_node == 0 and segment.end_node == 1
    assert segment.length_m == pytest.approx(100.0)


def test_missing_segment_raises(line_network):
    with pytest.raises(SegmentNotFoundError):
        line_network.segment(42)


def test_segment_needs_existing_nodes():
    network = RoadNetwork()
    network.add_intersection(0, 0, 0)
    with pytest.raises(IntersectionNotFoundError):
        network.add_segment(0, 0, 7)


def test_self_loop_rejected():
    network = RoadNetwork()
    network.add_intersection(0, 0, 0)
    with pytest.raises(RoadNetworkError):
        network.add_segment(0, 0, 0)


def test_duplicate_segment_rejected(line_network):
    with pytest.raises(RoadNetworkError):
        line_network.add_segment(0, 2, 3)


def test_successor_and_predecessor_segments(line_network):
    assert sorted(line_network.successor_segments(0)) == [1, 3]


def test_degrees(line_network):
    # Segment 0 (n0->n1) can be followed by segments 1 and 3.
    assert line_network.out_degree(0) == 2
    # Segment 2 (n2->n3) can be reached from segments 1 and 4.
    assert line_network.in_degree(2) == 2
    assert line_network.in_degree(0) == 0


def test_is_route_connected(line_network):
    assert line_network.is_route_connected([0, 1, 2])
    assert line_network.is_route_connected([0, 3, 4, 2])
    assert not line_network.is_route_connected([0, 2])


def test_travel_time_property(line_network):
    segment = line_network.segment(0)
    assert segment.travel_time_s == pytest.approx(segment.length_m / segment.speed_limit_mps)


def test_segment_midpoint(line_network):
    x, y = line_network.segment_midpoint(0)
    assert (x, y) == (50.0, 0.0)


def test_project_point_on_segment(line_network):
    distance, fraction, offset = line_network.project_point(0, 50.0, 30.0)
    assert distance == pytest.approx(30.0)
    assert fraction == pytest.approx(0.5)
    assert offset == pytest.approx(50.0)


def test_project_point_clamps_to_endpoints(line_network):
    distance, fraction, _ = line_network.project_point(0, -40.0, 0.0)
    assert fraction == 0.0
    assert distance == pytest.approx(40.0)


def test_point_along_segment(line_network):
    assert line_network.point_along_segment(0, 0.25) == (25.0, 0.0)
    assert line_network.point_along_segment(0, 2.0) == (100.0, 0.0)


def test_contains_and_len(line_network):
    assert 0 in line_network
    assert 99 not in line_network
    assert len(line_network) == 5


def test_repr_mentions_sizes(line_network):
    assert "num_segments=5" in repr(line_network)
