"""Synthetic city builders.

The paper evaluates on the road networks of Chengdu and Xi'an pulled from
OpenStreetMap (about 5k segments / 13k intersections each). Offline we cannot
download them, so :func:`build_grid_city` synthesizes city-like directed road
networks with comparable structure: a dense grid core with some diagonal avenues,
randomly removed blocks (so that alternative routes have different lengths),
heterogeneous speed limits, and two-way streets modelled as opposite directed
segments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import RoadNetworkConfig
from ..exceptions import RoadNetworkError
from .graph import RoadNetwork


def _add_two_way(
    network: RoadNetwork,
    next_segment_id: int,
    node_a: int,
    node_b: int,
    speed: float,
    road_type: int,
) -> int:
    """Add the two directed segments between ``node_a`` and ``node_b``."""
    network.add_segment(next_segment_id, node_a, node_b,
                        speed_limit_mps=speed, road_type=road_type)
    network.add_segment(next_segment_id + 1, node_b, node_a,
                        speed_limit_mps=speed, road_type=road_type)
    return next_segment_id + 2


def build_grid_city(config: Optional[RoadNetworkConfig] = None) -> RoadNetwork:
    """Build a grid-shaped city with diagonals and random street removals.

    The resulting network is strongly connected for any sensible removal
    fraction because every street is two-way and removals are rejected when
    they would disconnect a border node.
    """
    config = (config or RoadNetworkConfig()).validate()
    rng = np.random.default_rng(config.seed)
    network = RoadNetwork()

    rows, cols = config.grid_rows, config.grid_cols
    cell = config.cell_length_m
    low_speed, high_speed = config.speed_limit_range

    def node_id(row: int, col: int) -> int:
        return row * cols + col

    for row in range(rows):
        for col in range(cols):
            jitter_x = float(rng.uniform(-0.08, 0.08)) * cell
            jitter_y = float(rng.uniform(-0.08, 0.08)) * cell
            network.add_intersection(node_id(row, col),
                                     col * cell + jitter_x,
                                     row * cell + jitter_y)

    next_segment_id = 0
    candidate_edges = []
    for row in range(rows):
        for col in range(cols):
            if col + 1 < cols:
                candidate_edges.append((node_id(row, col), node_id(row, col + 1), 0))
            if row + 1 < rows:
                candidate_edges.append((node_id(row, col), node_id(row + 1, col), 0))

    # Randomly drop a small fraction of interior streets to make the grid less
    # regular (never drop edges touching the border so connectivity is kept).
    def touches_border(a: int, b: int) -> bool:
        for node in (a, b):
            row, col = divmod(node, cols)
            if row in (0, rows - 1) or col in (0, cols - 1):
                return True
        return False

    kept_edges = []
    for a, b, road_type in candidate_edges:
        removable = not touches_border(a, b)
        if removable and rng.random() < config.removal_fraction:
            continue
        kept_edges.append((a, b, road_type))

    # Diagonal avenues across a random subset of blocks: these create the
    # faster "popular" alternatives that normal routes tend to use.
    for row in range(rows - 1):
        for col in range(cols - 1):
            if rng.random() < config.diagonal_fraction:
                if rng.random() < 0.5:
                    kept_edges.append((node_id(row, col), node_id(row + 1, col + 1), 1))
                else:
                    kept_edges.append((node_id(row, col + 1), node_id(row + 1, col), 1))

    for a, b, road_type in kept_edges:
        speed = float(rng.uniform(low_speed, high_speed))
        if road_type == 1:
            speed *= 1.25
        next_segment_id = _add_two_way(network, next_segment_id, a, b, speed, road_type)

    if network.num_segments == 0:
        raise RoadNetworkError("generated city has no segments")
    return network
