"""Stateless numerical functions shared by layers, losses and models."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import ModelError


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable logistic sigmoid of any array-like, as float64.

    Branch-free, six array passes: with ``e = exp(-|x|)`` (never overflows;
    ``copysign(x, -1)`` is ``-|x|`` in one pass) the result is
    ``max(e, x >= 0) / (e + 1)`` — the numerator is 1 where ``x >= 0``
    because ``e <= 1`` there, and ``e`` elsewhere; ``maximum`` keeps a NaN.
    ``out`` may be ``x`` itself, which is how the recurrent cells activate
    their gate buffers in place.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.copysign(x, -1.0))
    return np.divide(np.maximum(e, x >= 0), e + 1.0, out=out)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def cosine_similarity_rows(a: np.ndarray, b: np.ndarray,
                           eps: float = 1e-12) -> np.ndarray:
    """Row-wise cosine similarity of two ``(N, D)`` arrays, shape ``(N,)``.

    Rows where either vector is (near) zero get similarity 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ModelError("cosine_similarity_rows requires equal (N, D) arrays")
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    valid = (norm_a >= eps) & (norm_b >= eps)
    out = np.zeros(len(a))
    if np.any(valid):
        out[valid] = (np.sum(a[valid] * b[valid], axis=1)
                      / (norm_a[valid] * norm_b[valid]))
    return out
