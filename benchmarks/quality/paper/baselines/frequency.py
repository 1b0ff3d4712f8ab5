"""The transition-frequency-only heuristic (ablation row "only transition frequency")."""

from __future__ import annotations

from typing import List

from repro.labeling.features import PreprocessingPipeline
from repro.trajectory.models import MatchedTrajectory
from .base import ScoringDetector


class TransitionFrequencyScorer(ScoringDetector):
    """Anomaly score = 1 − transition fraction within the SD-pair group.

    This is the simplest possible method: segments reached through rarely
    travelled transitions score high. It is both a standalone baseline and the
    "only transition frequency" row of the ablation study (Table IV).
    """

    name = "TransitionFrequency"

    def __init__(self, pipeline: PreprocessingPipeline):
        self._pipeline = pipeline

    def scores(self, trajectory: MatchedTrajectory) -> List[float]:
        statistics = self._pipeline.statistics_for(trajectory)
        fractions = statistics.fraction_sequence(trajectory.segments)
        return [1.0 - fraction for fraction in fractions]
