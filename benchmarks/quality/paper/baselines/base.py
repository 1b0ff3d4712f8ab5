"""Common interfaces of the baseline detectors."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List

from repro.trajectory.models import MatchedTrajectory
from repro.trajectory.ops import subtrajectory_spans


@dataclass
class BaselineResult:
    """Per-segment labels produced by a baseline detector."""

    trajectory: MatchedTrajectory
    labels: List[int]
    scores: List[float] = field(default_factory=list)

    @property
    def is_anomalous(self) -> bool:
        return any(label == 1 for label in self.labels)

    @property
    def spans(self):
        return subtrajectory_spans(self.labels)


class ScoringDetector(abc.ABC):
    """A detector that assigns an anomaly score to every segment.

    Scores are adapted into labels by :class:`~paper.baselines.adapt.ThresholdedDetector`,
    which mirrors how the paper adapts trajectory-level methods to the
    subtrajectory task (thresholds tuned on a development set).
    """

    name: str = "scorer"

    @abc.abstractmethod
    def scores(self, trajectory: MatchedTrajectory) -> List[float]:
        """Per-segment anomaly scores (higher means more anomalous)."""
