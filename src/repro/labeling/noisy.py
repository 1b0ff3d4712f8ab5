"""Noisy label construction (Step-4 of the preprocessing).

A road segment is tentatively labeled normal (0) when the transition leading
into it is travelled by more than a fraction ``alpha`` of the group's
trajectories, and anomalous (1) otherwise. The source and destination segments
are always labeled normal. These labels are noisy — they only warm-start
RSRNet and the policy; ASDNet refines them during joint training.
"""

from __future__ import annotations

from typing import List, Sequence

from ..exceptions import LabelingError
from .transitions import TransitionStatistics


def noisy_labels(
    segments: Sequence[int],
    statistics: TransitionStatistics,
    alpha: float = 0.5,
) -> List[int]:
    """Per-segment noisy labels of a route under the group's transition statistics."""
    if not segments:
        raise LabelingError("segments must not be empty")
    return labels_from_fractions(statistics.fraction_sequence(segments), alpha)


def labels_from_fractions(fractions: Sequence[float],
                          alpha: float = 0.5) -> List[int]:
    """The noisy labels of a route given its transition fractions
    (:meth:`TransitionStatistics.fraction_sequence`), for a caller that
    keeps the fractions too."""
    if not (0.0 < alpha < 1.0):
        raise LabelingError("alpha must be in (0, 1)")
    labels = [0 if fraction > alpha else 1 for fraction in fractions]
    labels[0] = 0
    labels[-1] = 0
    return labels
