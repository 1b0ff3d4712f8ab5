"""Tests of Dijkstra routing and k-shortest routes."""

import pytest

from repro.exceptions import DisconnectedRouteError, RoadNetworkError
from repro.roadnet import RoadNetwork, dijkstra_route, k_shortest_routes


def test_dijkstra_prefers_direct_route(line_network):
    route = dijkstra_route(line_network, 0, 2)
    assert route == [0, 1, 2]


def test_dijkstra_same_segment(line_network):
    assert dijkstra_route(line_network, 1, 1) == [1]


def test_dijkstra_respects_banned_segments(line_network):
    route = dijkstra_route(line_network, 0, 2, banned_segments={1})
    assert route == [0, 3, 4, 2]


def test_dijkstra_unknown_segment(line_network):
    with pytest.raises(RoadNetworkError):
        dijkstra_route(line_network, 0, 99)


def test_dijkstra_disconnected():
    network = RoadNetwork()
    for node_id, (x, y) in enumerate([(0, 0), (10, 0), (20, 0), (30, 0)]):
        network.add_intersection(node_id, x, y)
    network.add_segment(0, 0, 1)
    network.add_segment(1, 2, 3)
    with pytest.raises(DisconnectedRouteError):
        dijkstra_route(network, 0, 1)


def test_k_shortest_routes_returns_distinct_loopless_routes(line_network):
    routes = k_shortest_routes(line_network, 0, 2, k=3)
    assert routes[0] == [0, 1, 2]
    assert [0, 3, 4, 2] in routes
    assert len({tuple(r) for r in routes}) == len(routes)
    for route in routes:
        assert line_network.is_route_connected(route)
        assert len(set(route)) == len(route)


def test_k_shortest_routes_ordered_by_cost(grid_network):
    ids = grid_network.segment_ids()
    routes = k_shortest_routes(grid_network, ids[0], ids[-1], k=3)
    lengths = [sum(grid_network.segment(s).length_m for s in route)
               for route in routes]
    assert lengths == sorted(lengths)


def test_k_shortest_routes_k_must_be_positive(line_network):
    with pytest.raises(RoadNetworkError):
        k_shortest_routes(line_network, 0, 2, k=0)


def test_k_shortest_routes_unreachable_returns_empty():
    network = RoadNetwork()
    for node_id, (x, y) in enumerate([(0, 0), (10, 0), (20, 0), (30, 0)]):
        network.add_intersection(node_id, x, y)
    network.add_segment(0, 0, 1)
    network.add_segment(1, 2, 3)
    assert k_shortest_routes(network, 0, 1, k=2) == []
