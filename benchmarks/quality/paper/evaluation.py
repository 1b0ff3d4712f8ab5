"""End-to-end evaluation of a detector against ground-truth labels, overall
and per length group (Table III, Figure 4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.eval.metrics import MetricsReport, evaluate_labelings
from repro.exceptions import EvaluationError
from repro.trajectory.models import MatchedTrajectory

LENGTH_BOUNDARIES: Tuple[int, int, int] = (15, 30, 45)
"""Group boundaries of the paper: G1 < 15 <= G2 < 30 <= G3 < 45 <= G4."""


def group_of(length: int) -> str:
    """The group name (``"G1"``..``"G4"``) of a trajectory length."""
    for index, boundary in enumerate(LENGTH_BOUNDARIES):
        if length < boundary:
            return f"G{index + 1}"
    return f"G{len(LENGTH_BOUNDARIES) + 1}"


def group_by_length(trajectories: Sequence[MatchedTrajectory]
                    ) -> Dict[str, List[MatchedTrajectory]]:
    """Partition trajectories into length groups (all groups always present)."""
    groups: Dict[str, List[MatchedTrajectory]] = {
        f"G{i + 1}": [] for i in range(len(LENGTH_BOUNDARIES) + 1)
    }
    for trajectory in trajectories:
        groups[group_of(len(trajectory))].append(trajectory)
    return groups


@dataclass
class EvaluationRun:
    """Metrics of one detector over a test set, overall and per length group."""

    detector_name: str
    overall: MetricsReport
    by_group: Dict[str, MetricsReport]


def evaluate_detector(
    detector,
    test_trajectories: Sequence[MatchedTrajectory],
    name: str = "detector",
) -> EvaluationRun:
    """Run ``detector.detect`` on every test trajectory and score the labels.

    Every test trajectory must carry ground-truth labels; the detector must
    expose ``detect(trajectory)`` returning an object with a ``labels``
    attribute aligned with the trajectory's segments.
    """
    if not test_trajectories:
        raise EvaluationError("the test set must not be empty")
    for trajectory in test_trajectories:
        if trajectory.labels is None:
            raise EvaluationError(
                "every test trajectory needs ground-truth labels")

    predictions: Dict[int, List[int]] = {}
    for trajectory in test_trajectories:
        result = detector.detect(trajectory)
        labels = list(result.labels)
        if len(labels) != len(trajectory):
            raise EvaluationError(
                f"detector {name} returned {len(labels)} labels for a "
                f"trajectory of length {len(trajectory)}")
        predictions[trajectory.trajectory_id] = labels

    overall = evaluate_labelings(
        [t.labels for t in test_trajectories],
        [predictions[t.trajectory_id] for t in test_trajectories],
    )
    by_group: Dict[str, MetricsReport] = {}
    for group, members in group_by_length(test_trajectories).items():
        if not members:
            continue
        by_group[group] = evaluate_labelings(
            [t.labels for t in members],
            [predictions[t.trajectory_id] for t in members],
        )
    return EvaluationRun(detector_name=name, overall=overall, by_group=by_group)
