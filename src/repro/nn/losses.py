"""Losses and probability transforms."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..exceptions import ModelError


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def cross_entropy_from_logits(
    logits: np.ndarray, targets: Sequence[int]
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy of integer targets under softmax(logits).

    Returns ``(loss, grad_logits)`` where ``grad_logits`` is the gradient of
    the mean loss with respect to the logits (shape ``(n, classes)``).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 1:
        logits = logits[None, :]
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim == 0:
        targets = targets[None]
    if len(targets) != len(logits):
        raise ModelError("targets must align with logits")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= logits.shape[1]:
        raise ModelError("target class out of range")
    log_probs = log_softmax(logits, axis=1)
    n = len(targets)
    loss = -float(log_probs[np.arange(n), targets].mean())
    grad = softmax(logits, axis=1)
    grad[np.arange(n), targets] -= 1.0
    grad /= n
    return loss, grad


def sequence_cross_entropy_from_logits(
    logits: np.ndarray, targets: np.ndarray, lengths: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sequence mean cross-entropy over a padded (ragged) batch.

    ``logits`` has shape ``(B, T, C)``, ``targets`` shape ``(B, T)`` and
    ``lengths`` gives each sequence's true length (positions at or beyond a
    sequence's length are padding and ignored). Returns
    ``(per_sequence_losses, grad_logits)`` where ``per_sequence_losses`` has
    shape ``(B,)`` (each entry equal to :func:`cross_entropy_from_logits` of
    that sequence alone) and ``grad_logits`` is the gradient of the
    *batch-mean* of the per-sequence losses, zero at padded positions.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 3:
        raise ModelError("sequence logits must have shape (B, T, C)")
    targets = np.asarray(targets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    batch, steps, classes = logits.shape
    if targets.shape != (batch, steps):
        raise ModelError("targets must have shape (B, T)")
    if lengths.shape != (batch,) or lengths.min(initial=1) < 1:
        raise ModelError("lengths must be positive, one per sequence")
    if lengths.max(initial=0) > steps:
        raise ModelError("a sequence length exceeds the padded horizon")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= classes:
        raise ModelError("target class out of range")
    mask = np.arange(steps)[None, :] < lengths[:, None]

    log_probs = log_softmax(logits, axis=2)
    rows = np.arange(batch)[:, None]
    columns = np.arange(steps)[None, :]
    picked = log_probs[rows, columns, targets] * mask
    per_sequence = -picked.sum(axis=1) / lengths

    grad = softmax(logits, axis=2)
    grad[rows, columns, targets] -= 1.0
    grad *= mask[:, :, None]
    grad /= lengths[:, None, None] * batch
    return per_sequence, grad
