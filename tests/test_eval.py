"""Tests of the evaluation metrics, grouping, timing and the runner."""

import pytest

from paper.evaluation import (
    LENGTH_BOUNDARIES,
    evaluate_detector,
    group_by_length,
    group_of,
)
from paper.shared import measure_detector
from repro.eval import MetricsReport, evaluate_labelings, span_jaccard
from repro.exceptions import EvaluationError
from repro.trajectory import MatchedTrajectory


def make(tid, n, labels=None):
    return MatchedTrajectory(trajectory_id=tid, segments=list(range(100, 100 + n)),
                             labels=labels)


class ConstantDetector:
    """Predicts a fixed label pattern (all-normal by default)."""

    def __init__(self, value=0):
        self.value = value

    def detect(self, trajectory):
        class Result:
            labels = [self.value] * len(trajectory)
        if self.value == 0:
            Result.labels = [0] * len(trajectory)
        else:
            labels = [self.value] * len(trajectory)
            labels[0] = labels[-1] = 0
            Result.labels = labels
        return Result


class OracleDetector:
    def detect(self, trajectory):
        class Result:
            labels = list(trajectory.labels)
        return Result


# ------------------------------------------------------------------- metrics
def test_span_jaccard():
    assert span_jaccard((2, 5), (2, 5)) == 1.0
    assert span_jaccard((2, 5), (4, 7)) == pytest.approx(2 / 6)
    assert span_jaccard((0, 1), (5, 6)) == 0.0


def test_perfect_predictions_score_one():
    truth = [[0, 1, 1, 0], [0, 0, 1, 0, 0]]
    report = evaluate_labelings(truth, truth)
    assert report.f1 == 1.0
    assert report.t_f1 == 1.0
    assert report.precision == report.recall == 1.0
    assert report.num_ground_truth == report.num_detected == 2


def test_all_normal_predictions_score_zero():
    truth = [[0, 1, 1, 0]]
    predictions = [[0, 0, 0, 0]]
    report = evaluate_labelings(truth, predictions)
    assert report.f1 == 0.0
    assert report.recall == 0.0


def test_partial_overlap_scores_between():
    truth = [[0, 1, 1, 1, 1, 0]]
    predictions = [[0, 0, 1, 1, 1, 0]]
    report = evaluate_labelings(truth, predictions)
    assert 0.0 < report.f1 < 1.0
    assert report.t_f1 == 1.0  # Jaccard 0.75 > phi=0.5


def test_false_positive_lowers_precision():
    truth = [[0, 0, 0, 0, 0, 0]]
    predictions = [[0, 1, 1, 0, 0, 0]]
    report = evaluate_labelings(truth, predictions)
    assert report.precision == 0.0
    assert report.num_detected == 1
    assert report.num_ground_truth == 0


def test_multiple_spans_matched_one_to_one():
    truth = [[0, 1, 1, 0, 0, 1, 1, 0]]
    predictions = [[0, 1, 1, 1, 1, 1, 1, 0]]
    report = evaluate_labelings(truth, predictions)
    # One detected span covers both ground-truth spans but can only be matched
    # to one of them.
    assert report.recall < 1.0


def test_evaluate_labelings_validation():
    with pytest.raises(EvaluationError):
        evaluate_labelings([[0, 1]], [[0, 1], [0]])
    with pytest.raises(EvaluationError):
        evaluate_labelings([[0, 1]], [[0, 1, 0]])
    with pytest.raises(EvaluationError):
        evaluate_labelings([[0, 1]], [[0, 1]], phi=0.0)


def test_metrics_report_as_dict():
    report = evaluate_labelings([[0, 1, 0]], [[0, 1, 0]])
    data = report.as_dict()
    assert data["f1"] == 1.0
    assert isinstance(report, MetricsReport)


# ------------------------------------------------------------------ grouping
def test_group_of_boundaries():
    assert group_of(5) == "G1"
    assert group_of(15) == "G2"
    assert group_of(30) == "G3"
    assert group_of(45) == "G4"
    assert group_of(200) == "G4"


def test_group_by_length_partitions_everything():
    trajectories = [make(i, n) for i, n in enumerate([5, 16, 33, 50, 12])]
    groups = group_by_length(trajectories)
    assert sum(len(v) for v in groups.values()) == 5
    assert len(groups) == len(LENGTH_BOUNDARIES) + 1
    assert [t.trajectory_id for t in groups["G1"]] == [0, 4]


def test_group_by_length_partitions_a_dataset():
    from repro.datagen import tiny_dataset

    dataset = tiny_dataset(seed=11)
    groups = group_by_length(dataset.trajectories)
    assert sum(len(g) for g in groups.values()) == len(dataset)


# -------------------------------------------------------------------- runner
def test_evaluate_detector_oracle_and_constant():
    test_set = [make(0, 8, [0, 1, 1, 0, 0, 0, 0, 0]),
                make(1, 20, [0] * 20),
                make(2, 35, [0, 0, 1, 1, 1] + [0] * 30)]
    oracle = evaluate_detector(OracleDetector(), test_set, name="oracle")
    assert oracle.overall.f1 == 1.0
    assert set(oracle.by_group) <= {"G1", "G2", "G3", "G4"}

    constant = evaluate_detector(ConstantDetector(0), test_set, name="zero")
    assert constant.overall.f1 == 0.0


def test_evaluate_detector_validation():
    with pytest.raises(EvaluationError):
        evaluate_detector(OracleDetector(), [], name="x")
    unlabeled = [make(0, 5)]
    with pytest.raises(EvaluationError):
        evaluate_detector(OracleDetector(), unlabeled, name="x")

    class WrongLength:
        def detect(self, trajectory):
            class Result:
                labels = [0]
            return Result

    with pytest.raises(EvaluationError):
        evaluate_detector(WrongLength(), [make(0, 5, [0] * 5)], name="bad")


# -------------------------------------------------------------------- timing
def test_measure_detector_reports_latency():
    test_set = [make(i, 10, [0] * 10) for i in range(5)]
    report = measure_detector(OracleDetector(), test_set, name="oracle")
    assert report.detector_name == "oracle"
    assert len(report.per_trajectory_seconds) == 5
    assert report.mean_per_point_ms >= 0.0
    assert report.mean_per_trajectory_ms >= report.mean_per_point_ms
    assert report.as_dict()["detector"] == "oracle"


def test_measure_detector_requires_workload():
    with pytest.raises(EvaluationError):
        measure_detector(OracleDetector(), [], name="oracle")
