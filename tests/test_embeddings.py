"""Tests of the road-segment representation learning (Toast substitute)."""

import numpy as np
import pytest

from paper.embeddings import (
    ToastEmbedder,
    generate_random_walks,
    train_skipgram,
    traffic_context_features,
)
from paper.embeddings.skipgram import SkipGramModel
from repro.exceptions import ConfigurationError, ModelError


def test_random_walks_follow_adjacency(line_network):
    walks = generate_random_walks(line_network, walks_per_node=2, walk_length=4)
    assert len(walks) == 2 * line_network.num_segments
    for walk in walks:
        for previous, current in zip(walk, walk[1:]):
            assert current in line_network.successor_segments(previous)


def test_random_walks_validation(line_network):
    with pytest.raises(ModelError):
        generate_random_walks(line_network, walks_per_node=0)


def test_skipgram_vocabulary_and_vectors():
    walks = [[1, 2, 3, 4], [2, 3, 4, 5], [1, 2, 3, 5]]
    model = train_skipgram(walks, dimension=8, epochs=1,
                           rng=np.random.default_rng(0))
    assert model.vocabulary_size == 5
    assert model.vector(3).shape == (8,)
    with pytest.raises(ModelError):
        model.vector(99)
    matrix = model.embedding_matrix([1, 2, 3])
    assert matrix.shape == (3, 8)


def test_skipgram_cooccurring_tokens_more_similar():
    """Tokens that always co-occur should be closer than tokens that never do."""
    rng = np.random.default_rng(1)
    walks = [[1, 2] * 6 for _ in range(40)] + [[3, 4] * 6 for _ in range(40)]
    model = train_skipgram(walks, dimension=12, epochs=3, rng=rng)

    def cos(a, b):
        va, vb = model.vector(a), model.vector(b)
        return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

    assert cos(1, 2) > cos(1, 3)


def test_skipgram_rejects_empty():
    with pytest.raises(ModelError):
        train_skipgram([])
    with pytest.raises(ModelError):
        SkipGramModel([], 8)


def test_traffic_context_features_are_standardised(grid_network):
    ids = grid_network.segment_ids()
    features = traffic_context_features(grid_network, ids)
    assert features.shape == (len(ids), 6)
    assert np.allclose(features.mean(axis=0), 0.0, atol=1e-9)


def test_toast_embedder_shapes(grid_network):
    embedder = ToastEmbedder(grid_network, 16, seed=13).fit()
    matrix = embedder.embedding_matrix()
    assert matrix.shape == (grid_network.num_segments, 16)
    vector = embedder.vector(grid_network.segment_ids()[0])
    assert vector.shape == (16,)


def test_toast_embedder_requires_fit(grid_network):
    embedder = ToastEmbedder(grid_network, 8, seed=13)
    with pytest.raises(ModelError):
        embedder.embedding_matrix()
    with pytest.raises(ModelError):
        embedder.vector(0)


def test_toast_embedder_rejects_bad_dimension(grid_network):
    with pytest.raises(ConfigurationError):
        ToastEmbedder(grid_network, 1, seed=13)
