"""Traffic-context-enriched segment embeddings (the Toast substitute)."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ModelError
from repro.roadnet.graph import RoadNetwork
from .skipgram import train_skipgram
from .walks import generate_random_walks


def traffic_context_features(network: RoadNetwork,
                             ordered_segments: Sequence[int]) -> np.ndarray:
    """Per-segment traffic-context features, z-scored across the network.

    Features: segment length, free-flow speed, free-flow travel time, road
    type, in degree, out degree — the "driving speed, trip duration, road
    type" context the paper lists for the TCF embeddings.
    """
    rows = []
    for segment_id in ordered_segments:
        segment = network.segment(segment_id)
        rows.append([
            segment.length_m,
            segment.speed_limit_mps,
            segment.travel_time_s,
            float(segment.road_type),
            float(network.in_degree(segment_id)),
            float(network.out_degree(segment_id)),
        ])
    features = np.asarray(rows, dtype=np.float64)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0] = 1.0
    return (features - mean) / std


#: The walk corpus and skip-gram schedule of Table IV's embeddings.
WALKS_PER_NODE = 2
WALK_LENGTH = 12
WINDOW_SIZE = 4
NEGATIVE_SAMPLES = 4
EPOCHS = 1
LEARNING_RATE = 0.025


class ToastEmbedder:
    """Pre-trains road-segment embeddings that fuse structure and traffic context.

    The embedding of a segment is the concatenation of its skip-gram vector
    (structure learned from random walks) and an 8-wide linear projection of
    its traffic-context features, truncated to ``dimension``. The output
    initialises RSRNet's embedding layer; ``seed`` draws the walks, the
    skip-gram initialisation and the projection.
    """

    def __init__(self, network: RoadNetwork, dimension: int, seed: int):
        if dimension < 2:
            raise ConfigurationError("embedding dimension must be >= 2")
        self._network = network
        self._dimension = dimension
        self._seed = seed
        self._segment_ids: List[int] = network.segment_ids()
        self._matrix: Optional[np.ndarray] = None

    def fit(self) -> "ToastEmbedder":
        """Train the embeddings (random walks → skip-gram → context fusion)."""
        rng = np.random.default_rng(self._seed)
        structural_dim = max(2, self._dimension - 8)
        walks = generate_random_walks(self._network,
                                      walks_per_node=WALKS_PER_NODE,
                                      walk_length=WALK_LENGTH, rng=rng)
        model = train_skipgram(
            walks,
            dimension=structural_dim,
            window_size=WINDOW_SIZE,
            negative_samples=NEGATIVE_SAMPLES,
            epochs=EPOCHS,
            learning_rate=LEARNING_RATE,
            rng=rng,
        )
        structural = model.embedding_matrix(self._segment_ids)
        context = traffic_context_features(self._network, self._segment_ids)
        projection = rng.normal(0.0, 0.3, size=(context.shape[1], 8))
        matrix = np.concatenate([structural, context @ projection], axis=1)
        # Wider than requested only below dimension 10 (the structural
        # part is at least 2 wide).
        self._matrix = matrix[:, :self._dimension]
        return self

    def embedding_matrix(self) -> np.ndarray:
        """The ``(num_segments, dimension)`` embedding table (fit first)."""
        if self._matrix is None:
            raise ModelError("ToastEmbedder.fit() must be called before use")
        return self._matrix.copy()

    def vector(self, segment_id: int) -> np.ndarray:
        if self._matrix is None:
            raise ModelError("ToastEmbedder.fit() must be called before use")
        try:
            index = self._segment_ids.index(segment_id)
        except ValueError:
            raise ModelError(f"segment {segment_id} not in the embedder") from None
        return self._matrix[index]
