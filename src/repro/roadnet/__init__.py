"""Road-network substrate: directed graphs of road segments and intersections.

The road network is the substrate every other component consumes: map matching
searches it for candidate segments, the trajectory generator plans routes over
it, the labeling component inspects segment in/out degrees (for the
road-network-enhanced labeling rules), and the embedding component walks it.
"""

from .graph import Intersection, RoadNetwork, RoadSegment
from .builders import build_grid_city
from .spatial import SpatialIndex
from .shortest_path import dijkstra_route, k_shortest_routes
from .io import load_edge_list, save_edge_list

__all__ = [
    "Intersection",
    "RoadNetwork",
    "RoadSegment",
    "SpatialIndex",
    "build_grid_city",
    "dijkstra_route",
    "k_shortest_routes",
    "load_edge_list",
    "save_edge_list",
]
