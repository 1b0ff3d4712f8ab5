"""DBTOD: driving-behaviour-modeling trajectory outlier detection (Wu et al. 2017).

DBTOD fits a probabilistic model of driving behaviour from historical
trajectories: the probability of the next road segment given the current one,
smoothed over the whole network, combined with cheap per-segment features
(road type and turning preference proxied by the out-degree). The anomaly
score of a segment is the negative log-likelihood of the transition that
reached it — drivers on popular manoeuvres score low, drivers on rarely taken
turns score high.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, List, Sequence

from repro.exceptions import EvaluationError
from repro.roadnet.graph import RoadNetwork
from repro.trajectory.models import MatchedTrajectory
from .base import ScoringDetector


class DBTODScorer(ScoringDetector):
    """Per-segment negative log-likelihood under a driving-behaviour model."""

    name = "DBTOD"

    def __init__(self, network: RoadNetwork,
                 historical: Sequence[MatchedTrajectory],
                 smoothing: float = 0.5):
        if not historical:
            raise EvaluationError("DBTOD needs historical trajectories")
        if smoothing <= 0:
            raise EvaluationError("smoothing must be positive")
        self._network = network
        self._smoothing = smoothing
        self._transition_counts: Dict[int, Counter] = defaultdict(Counter)
        self._segment_counts: Counter = Counter()
        for trajectory in historical:
            for previous, current in zip(trajectory.segments,
                                         trajectory.segments[1:]):
                self._transition_counts[previous][current] += 1
                self._segment_counts[previous] += 1

    def transition_log_prob(self, previous: int, current: int) -> float:
        """Smoothed log probability of moving from ``previous`` to ``current``."""
        successors = self._network.successor_segments(previous)
        n_options = max(1, len(successors))
        count = self._transition_counts[previous][current]
        total = self._segment_counts[previous]
        probability = (count + self._smoothing) / (total + self._smoothing * n_options)
        # Cheap behavioural features: sharp manoeuvres at complex junctions are
        # intrinsically slightly less likely.
        complexity_penalty = 1.0 / (1.0 + 0.05 * max(0, n_options - 1))
        return math.log(probability * complexity_penalty)

    def scores(self, trajectory: MatchedTrajectory) -> List[float]:
        segments = trajectory.segments
        scores = [0.0]
        for previous, current in zip(segments, segments[1:]):
            scores.append(-self.transition_log_prob(previous, current))
        return scores
