"""Skip-gram with negative sampling over walk corpora (word2vec-style)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.nn.functional import sigmoid


class SkipGramModel:
    """Skip-gram embeddings with negative sampling.

    ``input_vectors`` holds the embeddings used downstream; ``output_vectors``
    are the context vectors used only during training.
    """

    def __init__(self, vocabulary: Sequence[int], dimension: int,
                 rng: Optional[np.random.Generator] = None):
        if dimension < 1:
            raise ModelError("dimension must be positive")
        if not vocabulary:
            raise ModelError("vocabulary must not be empty")
        rng = rng or np.random.default_rng(0)
        self.token_to_index: Dict[int, int] = {
            token: index for index, token in enumerate(sorted(set(vocabulary)))
        }
        self.index_to_token = {index: token
                               for token, index in self.token_to_index.items()}
        size = len(self.token_to_index)
        self.dimension = dimension
        self.input_vectors = (rng.random((size, dimension)) - 0.5) / dimension
        self.output_vectors = np.zeros((size, dimension))

    @property
    def vocabulary_size(self) -> int:
        return len(self.token_to_index)

    def vector(self, token: int) -> np.ndarray:
        """The learned embedding of a token."""
        index = self.token_to_index.get(token)
        if index is None:
            raise ModelError(f"token {token} not in the skip-gram vocabulary")
        return self.input_vectors[index]

    def embedding_matrix(self, ordered_tokens: Sequence[int]) -> np.ndarray:
        """Embeddings stacked in the order of ``ordered_tokens``."""
        return np.stack([self.vector(token) for token in ordered_tokens])


def train_skipgram(
    walks: Sequence[Sequence[int]],
    dimension: int = 128,
    window_size: int = 4,
    negative_samples: int = 4,
    epochs: int = 2,
    learning_rate: float = 0.025,
    rng: Optional[np.random.Generator] = None,
) -> SkipGramModel:
    """Train skip-gram with negative sampling on a corpus of walks."""
    if not walks:
        raise ModelError("walks must not be empty")
    rng = rng or np.random.default_rng(0)
    vocabulary = sorted({token for walk in walks for token in walk})
    model = SkipGramModel(vocabulary, dimension, rng)

    # Unigram^(3/4) negative-sampling distribution, as in word2vec.
    counts = np.zeros(model.vocabulary_size)
    for walk in walks:
        for token in walk:
            counts[model.token_to_index[token]] += 1
    noise = counts ** 0.75
    noise /= noise.sum()

    indexed_walks = [
        np.array([model.token_to_index[token] for token in walk], dtype=np.int64)
        for walk in walks if len(walk) >= 2
    ]

    for epoch in range(epochs):
        lr = learning_rate * (1.0 - epoch / max(1, epochs)) + 1e-4
        order = rng.permutation(len(indexed_walks))
        for walk_index in order:
            walk = indexed_walks[walk_index]
            for position, centre in enumerate(walk):
                window = int(rng.integers(1, window_size + 1))
                start = max(0, position - window)
                end = min(len(walk), position + window + 1)
                for context_position in range(start, end):
                    if context_position == position:
                        continue
                    context = walk[context_position]
                    negatives = rng.choice(
                        model.vocabulary_size, size=negative_samples, p=noise)
                    _sgns_update(model, centre, context, negatives, lr)
    return model


def _sgns_update(model: SkipGramModel, centre: int, context: int,
                 negatives: np.ndarray, learning_rate: float) -> None:
    """One skip-gram-with-negative-sampling gradient step."""
    centre_vector = model.input_vectors[centre]
    targets = np.concatenate([[context], negatives])
    labels = np.zeros(len(targets))
    labels[0] = 1.0
    output = model.output_vectors[targets]
    scores = sigmoid(output @ centre_vector)
    errors = scores - labels
    grad_centre = errors @ output
    model.output_vectors[targets] -= learning_rate * np.outer(errors, centre_vector)
    model.input_vectors[centre] -= learning_rate * grad_centre
