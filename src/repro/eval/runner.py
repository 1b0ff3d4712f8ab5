"""End-to-end evaluation of a detector against ground-truth labels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..exceptions import EvaluationError
from ..trajectory.models import MatchedTrajectory
from .grouping import LENGTH_BOUNDARIES, group_by_length
from .metrics import MetricsReport, evaluate_labelings


@dataclass
class EvaluationRun:
    """Metrics of one detector over a test set, overall and per length group."""

    detector_name: str
    overall: MetricsReport
    by_group: Dict[str, MetricsReport]

    def row(self) -> Dict[str, float]:
        """A flat summary row (used by the experiment tables)."""
        row = {"detector": self.detector_name,
               "overall_f1": self.overall.f1,
               "overall_tf1": self.overall.t_f1}
        for group, report in self.by_group.items():
            row[f"{group}_f1"] = report.f1
            row[f"{group}_tf1"] = report.t_f1
        return row


def evaluate_detector(
    detector,
    test_trajectories: Sequence[MatchedTrajectory],
    name: str = "detector",
    phi: float = 0.5,
    boundaries: Sequence[int] = LENGTH_BOUNDARIES,
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
        phi=phi,
    )
    by_group: Dict[str, MetricsReport] = {}
    for group, members in group_by_length(test_trajectories, boundaries).items():
        if not members:
            continue
        by_group[group] = evaluate_labelings(
            [t.labels for t in members],
            [predictions[t.trajectory_id] for t in members],
            phi=phi,
        )
    return EvaluationRun(detector_name=name, overall=overall, by_group=by_group)
