"""The online detection algorithm (Algorithm 1) with RNEL and DL enhancements.

:class:`OnlineDetector` replays one completed trip: the RSRNet recurrence
over every point but the destination (stored per route prefix), one
:func:`~repro.core.decision.label_route` pass, delayed labeling. The labeling
decision itself lives in :mod:`repro.core.decision`; the per-point online
form of the same algorithm is :class:`~repro.core.stream.StreamEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..exceptions import ModelError
from ..trajectory.models import MatchedTrajectory, Subtrajectory
from ..trajectory.ops import split_by_labels, subtrajectory_spans
from ..labeling.features import PreprocessingPipeline
from .asdnet import ASDNet
from .decision import label_route, rnel_masks
from .rsrnet import RSRNet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .stream import PrefixStates

__all__ = ["DetectionResult", "OnlineDetector", "apply_delayed_labeling",
           "finish_labels", "route_result"]


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


def route_result(trajectory_id: int, segments: List[int], start_time_s: float,
                 labels: List[int]) -> DetectionResult:
    """The result of a stream labeled online: its route and its labels.

    An engine sees raw points only, so the trajectory it reports carries
    no ground truth; everything else in the result follows from the route
    and the labels. The engine's finalize and the facade's read of a
    process shard's results bus both build the result here.
    """
    trajectory = MatchedTrajectory(trajectory_id, segments, start_time_s)
    return DetectionResult(trajectory, labels,
                           split_by_labels(trajectory, labels))


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
    if window == 0 or len(labels) < 3 or 1 not in labels:
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

    ``z_i = [h_i ; x^n_i]`` and ``h_i`` depends only on the prefix ``0 … i``:
    :meth:`detect` follows its :class:`~repro.core.stream.PrefixStates` over
    points ``0 … n-2`` and continues from the first unseen prefix with one
    input projection and :meth:`~repro.nn.recurrent.LSTM.infer`, storing each
    new state — every state comes from the same 1-D chain, bit-identical to
    a recurrence from zero. One :func:`label_route` (RNEL where it is
    deterministic, ASDNet's policy otherwise) and delayed labeling follow;
    the policy's choices are memoized in the same table per ``(row, NRF
    bit, previous label)``, so a route detected before runs no LSTM step
    and no policy row. A new ``rsrnet.weights_version`` or the row bound
    compacts the table, dropping states and choices; a new
    ``asdnet.weights_version`` drops the choices.
    The per-point online form of the same decisions is
    :meth:`StreamEngine.tick <repro.core.stream.StreamEngine.tick>`.
    """

    def __init__(
        self,
        rsrnet: RSRNet,
        asdnet: ASDNet,
        pipeline: PreprocessingPipeline,
        use_rnel: bool = True,
        delay_window: Optional[int] = 8,
    ):
        self._rsrnet = rsrnet
        self._asdnet = asdnet
        self._pipeline = pipeline
        self._rnel = rnel_masks(*pipeline.token_degrees(), enabled=use_rnel)
        self._delay_window = delay_window
        from .stream import PrefixStates  # stream.py imports this module
        self._states = PrefixStates(rsrnet.config.hidden_dim,
                                    rsrnet.weights_version)

    @property
    def pipeline(self) -> PreprocessingPipeline:
        """The preprocessing pipeline (history, vocabulary) detection reads."""
        return self._pipeline

    @property
    def states(self) -> "PrefixStates":
        return self._states

    # ------------------------------------------------------------ detection
    def detect(self, trajectory: MatchedTrajectory) -> DetectionResult:
        """Label every segment of ``trajectory``."""
        segments = trajectory.segments
        n = len(segments)
        if n == 0:
            raise ModelError("cannot detect on an empty trajectory")
        allowed = self._pipeline.normal_transitions_for(trajectory)
        tokens = self._pipeline.vocabulary.tokens(segments)
        rows = ()
        if n > 2:
            # Nothing reads the destination's hidden state (nor, on a route
            # without interior points, anyone's).
            rows = self._prefix_rows(tokens[:-1])
        labels = finish_labels(
            label_route(segments, tokens, rows, self._states, allowed,
                        self._rnel, self._rsrnet, self._asdnet),
            self._delay_window)
        return DetectionResult(
            trajectory=trajectory,
            labels=labels,
            subtrajectories=split_by_labels(trajectory, labels),
        )

    def _prefix_rows(self, tokens: List[int]) -> List[int]:
        """The table row of every prefix of ``tokens`` (at least two of
        them), computing the states of those not stored yet."""
        states, rsrnet = self._states, self._rsrnet
        if (states.version != rsrnet.weights_version
                or not states.fits(len(tokens))):
            states.compact((), rsrnet.weights_version)
        rows = states.walk(tokens)
        known, first = len(rows), len(states)
        states.hits += known
        if known < len(tokens):
            parent = rows[-1] if rows else 0
            # Two rows at least through the matmul: a one-row product takes
            # the matrix-vector kernel, which rounds otherwise.
            start = min(known, len(tokens) - 2)
            projections = rsrnet.lstm.cell.project_input(
                rsrnet.segment_embedding.vectors(tokens[start:]))
            states.append(list(zip(
                [parent, *range(first, first + len(tokens) - known - 1)],
                tokens[known:])), *rsrnet.lstm.infer(
                    projections[known - start:], states.hidden[parent],
                    states.cell[parent]))
            rows.extend(range(first, len(states)))
        return rows
