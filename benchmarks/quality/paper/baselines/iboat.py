"""IBOAT: isolation-based online anomalous trajectory detection (Chen et al. 2013).

IBOAT keeps an adaptive window over the latest incoming points. For every new
road segment it computes the *support* of the window's subtrajectory — the
fraction of the SD pair's historical trajectories that contain the window as a
contiguous subsequence. If the support drops below a threshold, the new
segment is labeled anomalous and the window shrinks to that segment alone;
otherwise the segment is normal and the window grows.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.exceptions import EvaluationError
from repro.labeling.features import PreprocessingPipeline
from repro.trajectory.models import MatchedTrajectory
from .base import BaselineResult


def _contains_contiguous(route: Sequence[int], window: Sequence[int]) -> bool:
    """True if ``window`` appears as a contiguous subsequence of ``route``."""
    window_length = len(window)
    if window_length == 0:
        return True
    if window_length > len(route):
        return False
    first = window[0]
    for start in range(len(route) - window_length + 1):
        if route[start] == first and list(route[start:start + window_length]) == list(window):
            return True
    return False


class IBOATDetector:
    """Isolation-based online detector, labeling segments directly."""

    name = "IBOAT"

    def __init__(self, pipeline: PreprocessingPipeline,
                 support_threshold: float = 0.2):
        if not (0.0 < support_threshold < 1.0):
            raise EvaluationError("support_threshold must be in (0, 1)")
        self._pipeline = pipeline
        self._support_threshold = support_threshold

    @property
    def support_threshold(self) -> float:
        return self._support_threshold

    def _references(self, trajectory: MatchedTrajectory) -> List[Tuple[int, ...]]:
        """Historical routes of the trajectory's SD pair."""
        group = self._pipeline.history.group_for(trajectory)
        if not group:
            return [trajectory.route_key()]
        return [t.route_key() for t in group]

    def support(self, window: Sequence[int],
                references: Sequence[Sequence[int]]) -> float:
        """Fraction of reference routes containing the window contiguously."""
        if not references:
            return 1.0
        matches = sum(1 for route in references
                      if _contains_contiguous(route, window))
        return matches / len(references)

    def detect(self, trajectory: MatchedTrajectory) -> BaselineResult:
        references = self._references(trajectory)
        segments = trajectory.segments
        labels: List[int] = []
        scores: List[float] = []
        window: List[int] = []
        for index, segment in enumerate(segments):
            window.append(segment)
            current_support = self.support(window, references)
            scores.append(1.0 - current_support)
            if index == 0 or index == len(segments) - 1:
                labels.append(0)
                continue
            if current_support < self._support_threshold:
                labels.append(1)
                window = [segment]
            else:
                labels.append(0)
        return BaselineResult(trajectory=trajectory, labels=labels, scores=scores)
