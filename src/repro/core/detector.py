"""The online detection algorithm (Algorithm 1) with RNEL and DL enhancements."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ModelError
from ..roadnet.graph import RoadNetwork
from ..trajectory.models import MatchedTrajectory, Subtrajectory
from ..trajectory.ops import split_by_labels, subtrajectory_spans
from ..labeling.features import PreprocessingPipeline
from .asdnet import ASDNet
from .rsrnet import RSRNet


@dataclass
class DetectionResult:
    """Outcome of detecting one trajectory.

    ``labels`` holds the per-segment 0/1 decisions, ``subtrajectories`` the
    maximal anomalous spans, ``per_point_seconds`` the wall-clock cost of each
    online step (used by the efficiency experiments), and ``is_anomalous``
    says whether anything anomalous was found at all (the NORMAL signal of
    Algorithm 1 corresponds to ``is_anomalous == False``).
    """

    trajectory: MatchedTrajectory
    labels: List[int]
    subtrajectories: List[Subtrajectory]
    per_point_seconds: List[float] = field(default_factory=list)

    @property
    def is_anomalous(self) -> bool:
        return any(label == 1 for label in self.labels)

    @property
    def spans(self) -> List[Tuple[int, int]]:
        return subtrajectory_spans(self.labels)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.per_point_seconds))


def rnel_from_degrees(out_degree: int, in_degree: int,
                      previous_label: int) -> Optional[int]:
    """The RNEL rules given precomputed degrees (see :func:`apply_rnel`).

    Split out so callers that cache road-segment degrees (the fleet stream
    engine) can apply the same rules without re-querying the road network.
    """
    if out_degree == 1 and in_degree == 1:
        return previous_label
    if out_degree == 1 and in_degree > 1 and previous_label == 0:
        return 0
    if out_degree > 1 and in_degree == 1 and previous_label == 1:
        return 1
    return None


def rnel_from_degrees_batch(out_degrees: np.ndarray, in_degrees: np.ndarray,
                            previous_labels: np.ndarray) -> np.ndarray:
    """Vectorized :func:`rnel_from_degrees` over aligned arrays.

    Returns an int array with the deterministic label where one of the three
    rules applies and ``-1`` where the policy must decide. Used by the batched
    training engine, which resolves the RNEL rules for a whole batch of
    streams in one shot.
    """
    out_degrees = np.asarray(out_degrees, dtype=np.int64)
    in_degrees = np.asarray(in_degrees, dtype=np.int64)
    previous_labels = np.asarray(previous_labels, dtype=np.int64)
    decided = np.full(out_degrees.shape, -1, dtype=np.int64)
    single_out = out_degrees == 1
    single_in = in_degrees == 1
    copy_rule = single_out & single_in
    decided[copy_rule] = previous_labels[copy_rule]
    decided[single_out & (in_degrees > 1) & (previous_labels == 0)] = 0
    decided[(out_degrees > 1) & single_in & (previous_labels == 1)] = 1
    return decided


def apply_rnel(network: RoadNetwork, previous_segment: int, current_segment: int,
               previous_label: int) -> Optional[int]:
    """Road Network Enhanced Labeling: deterministic label when a rule applies.

    Returns the deterministic label, or ``None`` when the RL policy must
    decide. The three rules follow the paper:

    1. ``e_{i-1}.out == 1`` and ``e_i.in == 1`` → copy the previous label;
    2. ``e_{i-1}.out == 1``, ``e_i.in > 1`` and previous label 0 → label 0;
    3. ``e_{i-1}.out > 1``, ``e_i.in == 1`` and previous label 1 → label 1.
    """
    return rnel_from_degrees(network.out_degree(previous_segment),
                             network.in_degree(current_segment),
                             previous_label)


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


class OnlineDetector:
    """Detects anomalous subtrajectories of an ongoing trajectory (Algorithm 1).

    The detector consumes road segments one at a time: for each new segment it
    advances RSRNet's recurrent state to obtain ``z_i``, applies the RNEL rules
    where they are deterministic and otherwise queries ASDNet's policy, and
    maintains the anomalous subtrajectory currently being formed. Delayed
    labeling is applied as a post-processing step over a small look-ahead
    window.
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
        self._network = pipeline.network
        self._use_rnel = use_rnel
        self._use_delayed_labeling = use_delayed_labeling
        self._delay_window = delay_window
        self._greedy = greedy
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------ detection
    def detect(self, trajectory: MatchedTrajectory,
               record_timing: bool = False) -> DetectionResult:
        """Label every segment of ``trajectory``, processing it online."""
        segments = trajectory.segments
        n = len(segments)
        if n == 0:
            raise ModelError("cannot detect on an empty trajectory")

        # One membership set per SD pair keeps the NRF of each new point O(1).
        allowed = self._pipeline.normal_transitions_for(trajectory)
        token_of = self._pipeline.vocabulary.token

        state = self._rsrnet.begin_sequence()
        labels: List[int] = []
        per_point: List[float] = []

        for i, segment in enumerate(segments):
            started = time.perf_counter() if record_timing else 0.0
            # Source and destination are normal by definition; in between the
            # NRF only depends on the transition into the new segment.
            endpoint = i == 0 or i == n - 1
            if endpoint or (segments[i - 1], segment) in allowed:
                nrf_value = 0
            else:
                nrf_value = 1
            z, state = self._rsrnet.step(state, token_of(segment), nrf_value)

            if endpoint:
                label = 0
            else:
                label = None
                if self._use_rnel:
                    label = apply_rnel(self._network, segments[i - 1], segment,
                                       labels[-1])
                if label is None:
                    if self._greedy:
                        label = self._asdnet.greedy_action(z, labels[-1])
                    else:
                        label, _ = self._asdnet.sample_action(z, labels[-1],
                                                              rng=self._rng)
            labels.append(label)
            if record_timing:
                per_point.append(time.perf_counter() - started)

        if self._use_delayed_labeling:
            labels = apply_delayed_labeling(labels, self._delay_window)
            # The source and destination stay normal by definition.
            labels[0] = 0
            labels[-1] = 0

        return DetectionResult(
            trajectory=trajectory,
            labels=labels,
            subtrajectories=split_by_labels(trajectory, labels),
            per_point_seconds=per_point,
        )

    def detect_many(self, trajectories: Sequence[MatchedTrajectory],
                    record_timing: bool = False) -> List[DetectionResult]:
        return [self.detect(trajectory, record_timing) for trajectory in trajectories]
