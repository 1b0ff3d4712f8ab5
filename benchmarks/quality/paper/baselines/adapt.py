"""Adapting score-based detectors to the subtrajectory task.

The paper's protocol (Section V-A): baselines that output an anomaly score per
point are adapted by selecting, on a development set of 100 labeled
trajectories, the score threshold that maximises F1; segments whose score
exceeds the threshold form the detected anomalous subtrajectories.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import EvaluationError
from repro.trajectory.models import MatchedTrajectory
from repro.eval.metrics import evaluate_labelings
from .base import BaselineResult, ScoringDetector


def labels_from_scores(scores: Sequence[float], threshold: float,
                       protect_endpoints: bool = True) -> List[int]:
    """Threshold per-segment scores into 0/1 labels."""
    labels = [1 if score > threshold else 0 for score in scores]
    if protect_endpoints and labels:
        labels[0] = 0
        labels[-1] = 0
    return labels


def tune_threshold(
    scorer: ScoringDetector,
    development_set: Sequence[MatchedTrajectory],
    n_candidates: int = 30,
) -> float:
    """Pick the score threshold maximising F1 on the development set."""
    if not development_set:
        raise EvaluationError("threshold tuning requires a development set")
    for trajectory in development_set:
        if trajectory.labels is None:
            raise EvaluationError(
                "development trajectories need ground-truth labels")
    all_scores = [scorer.scores(trajectory) for trajectory in development_set]
    flat = np.concatenate([np.asarray(s, dtype=float) for s in all_scores])
    finite = flat[np.isfinite(flat)]
    if finite.size == 0:
        return 0.0
    candidates = np.unique(np.quantile(
        finite, np.linspace(0.0, 1.0, max(2, n_candidates))))
    truths = [trajectory.labels for trajectory in development_set]

    best_threshold = float(candidates[0])
    best_f1 = -1.0
    for threshold in candidates:
        predictions = [labels_from_scores(s, float(threshold)) for s in all_scores]
        report = evaluate_labelings(truths, predictions)
        if report.f1 > best_f1:
            best_f1 = report.f1
            best_threshold = float(threshold)
    return best_threshold


class ThresholdedDetector:
    """Wraps a :class:`ScoringDetector` with a (tuned) decision threshold."""

    def __init__(self, scorer: ScoringDetector, threshold: Optional[float] = None,
                 name: Optional[str] = None):
        self._scorer = scorer
        self._threshold = threshold
        self.name = name or scorer.name

    @property
    def threshold(self) -> Optional[float]:
        return self._threshold

    @property
    def scorer(self) -> ScoringDetector:
        return self._scorer

    def tune(self, development_set: Sequence[MatchedTrajectory],
             n_candidates: int = 30) -> "ThresholdedDetector":
        """Tune the threshold on a development set (returns ``self``)."""
        self._threshold = tune_threshold(self._scorer, development_set, n_candidates)
        return self

    def detect(self, trajectory: MatchedTrajectory) -> BaselineResult:
        if self._threshold is None:
            raise EvaluationError(
                f"detector {self.name} has no threshold; call tune() first "
                "or pass one explicitly")
        scores = self._scorer.scores(trajectory)
        if len(scores) != len(trajectory):
            raise EvaluationError(
                f"{self.name} produced {len(scores)} scores for a trajectory "
                f"of length {len(trajectory)}")
        return BaselineResult(
            trajectory=trajectory,
            labels=labels_from_scores(scores, self._threshold),
            scores=list(scores),
        )
