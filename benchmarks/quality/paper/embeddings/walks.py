"""Random walks over the segment-level adjacency of a road network."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import ModelError
from repro.roadnet.graph import RoadNetwork


def generate_random_walks(
    network: RoadNetwork,
    walks_per_node: int = 4,
    walk_length: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> List[List[int]]:
    """Uniform random walks starting from every segment.

    Each walk follows successor segments; it stops early at dead ends. The
    walks play the role of Toast's trajectory corpus: segments that co-occur
    on plausible routes end up with similar embeddings.
    """
    if walks_per_node < 1 or walk_length < 2:
        raise ModelError("walks_per_node must be >= 1 and walk_length >= 2")
    rng = rng or np.random.default_rng(0)
    walks: List[List[int]] = []
    segment_ids = network.segment_ids()
    for start in segment_ids:
        for _ in range(walks_per_node):
            walk = [start]
            current = start
            for _ in range(walk_length - 1):
                successors = network.successor_segments(current)
                if not successors:
                    break
                current = int(rng.choice(successors))
                walk.append(current)
            walks.append(walk)
    return walks
