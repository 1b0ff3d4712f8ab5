"""The online detection algorithm (Algorithm 1) with RNEL and DL enhancements.

:class:`OnlineDetector` replays one completed trip: the RSRNet recurrence
over every point but the destination, one :func:`~repro.core.decision.label_route`
pass, delayed labeling. The labeling decision itself lives in
:mod:`repro.core.decision`; the per-point
online form of the same algorithm is :class:`~repro.core.stream.StreamEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ModelError
from ..trajectory.models import MatchedTrajectory, Subtrajectory
from ..trajectory.ops import split_by_labels, subtrajectory_spans
from ..labeling.features import PreprocessingPipeline
from .asdnet import ASDNet
from .decision import label_route
from .rsrnet import RSRNet

__all__ = ["DetectionResult", "OnlineDetector", "apply_delayed_labeling",
           "finish_labels"]


@dataclass
class DetectionResult:
    """Outcome of detecting one trajectory.

    ``labels`` holds the per-segment 0/1 decisions, ``subtrajectories`` the
    maximal anomalous spans, and ``is_anomalous`` says whether anything
    anomalous was found at all (the NORMAL signal of Algorithm 1 corresponds
    to ``is_anomalous == False``).
    """

    trajectory: MatchedTrajectory
    labels: List[int]
    subtrajectories: List[Subtrajectory]

    @property
    def is_anomalous(self) -> bool:
        return any(label == 1 for label in self.labels)

    @property
    def spans(self) -> List[Tuple[int, int]]:
        return subtrajectory_spans(self.labels)


def apply_delayed_labeling(labels: Sequence[int], window: int) -> List[int]:
    """Delayed Labeling: merge anomalous fragments separated by short gaps.

    When an anomalous subtrajectory ends at position ``p``, the detector scans
    up to ``window`` further segments; if another anomalous label appears at
    position ``j <= p + window`` the intermediate 0's are flipped to 1, which
    avoids reporting many short fragments for a single detour.
    """
    if window < 0:
        raise ModelError("the delayed-labeling window must be non-negative")
    labels = list(labels)
    if window == 0 or len(labels) < 3:
        return labels
    index = 0
    n = len(labels)
    while index < n:
        if labels[index] == 1:
            # Find the end of this anomalous run.
            end = index
            while end + 1 < n and labels[end + 1] == 1:
                end += 1
            # Look ahead up to `window` segments for another anomalous label.
            horizon = min(n - 1, end + window)
            rejoin = -1
            for j in range(horizon, end, -1):
                if labels[j] == 1:
                    rejoin = j
                    break
            if rejoin > end:
                for j in range(end + 1, rejoin + 1):
                    labels[j] = 1
                index = rejoin + 1
            else:
                index = end + 1
        else:
            index += 1
    return labels


def finish_labels(labels: List[int], delay_window: Optional[int]) -> List[int]:
    """Delayed labeling over a finished route (``None`` turns it off)."""
    if delay_window is None:
        return labels
    labels = apply_delayed_labeling(labels, delay_window)
    # The source and destination stay normal by definition.
    labels[0] = 0
    labels[-1] = 0
    return labels


class OnlineDetector:
    """Algorithm 1 over one completed trip: a one-stream view of the route pass.

    ``z_i = [h_i ; x^n_i]``, so the LSTM recurrence needs only the segment
    sequence: :meth:`detect` runs it over points ``0 … n-2`` from one input
    projection for the whole route, labels the route with one
    :func:`label_route` (RNEL where it is deterministic, ASDNet's policy
    otherwise) and applies delayed labeling. The per-point online form of
    the same decisions is :meth:`StreamEngine.tick
    <repro.core.stream.StreamEngine.tick>`.
    """

    def __init__(
        self,
        rsrnet: RSRNet,
        asdnet: ASDNet,
        pipeline: PreprocessingPipeline,
        use_rnel: bool = True,
        use_delayed_labeling: bool = True,
        delay_window: int = 8,
        greedy: bool = True,
        seed: int = 0,
    ):
        self._rsrnet = rsrnet
        self._asdnet = asdnet
        self._pipeline = pipeline
        self._use_rnel = use_rnel
        self._delay_window = delay_window if use_delayed_labeling else None
        self._rng = None if greedy else np.random.default_rng(seed)

    # ------------------------------------------------------------ detection
    def detect(self, trajectory: MatchedTrajectory) -> DetectionResult:
        """Label every segment of ``trajectory``."""
        segments = trajectory.segments
        n = len(segments)
        if n == 0:
            raise ModelError("cannot detect on an empty trajectory")
        allowed = self._pipeline.normal_transitions_for(trajectory)
        tokens = self._pipeline.vocabulary.tokens(segments)
        hidden = ()
        if n > 2:
            # Nothing reads the destination's hidden state (nor, on a route
            # without interior points, anyone's).
            hidden = self._rsrnet.hidden_states(tokens[:-1])
        degrees = (self._pipeline.rnel_degrees(tokens)
                   if self._use_rnel else None)
        labels = finish_labels(
            label_route(segments, hidden, allowed, degrees, self._rsrnet,
                        self._asdnet, self._rng),
            self._delay_window)
        return DetectionResult(
            trajectory=trajectory,
            labels=labels,
            subtrajectories=split_by_labels(trajectory, labels),
        )

    def detect_many(self, trajectories: Sequence[MatchedTrajectory]
                    ) -> List[DetectionResult]:
        return [self.detect(trajectory) for trajectory in trajectories]
