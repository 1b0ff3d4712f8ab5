"""Evaluation metrics for anomalous subtrajectory detection (Section V-A).

The task is treated like named-entity recognition over sequences: detected
anomalous subtrajectories are compared against ground-truth ones with a
Jaccard similarity over road-segment positions, aggregated into precision,
recall and F1. ``TF1`` is the thresholded variant that only credits detections
whose Jaccard with the ground truth exceeds ``phi`` (0.5 by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..exceptions import EvaluationError
from ..trajectory.ops import subtrajectory_spans


@dataclass
class MetricsReport:
    """Precision / recall / F1 and their thresholded (TF1) variants."""

    precision: float
    recall: float
    f1: float
    t_precision: float
    t_recall: float
    t_f1: float
    num_ground_truth: int
    num_detected: int

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "t_precision": self.t_precision,
            "t_recall": self.t_recall,
            "t_f1": self.t_f1,
            "num_ground_truth": self.num_ground_truth,
            "num_detected": self.num_detected,
        }


def span_jaccard(span_a: Tuple[int, int], span_b: Tuple[int, int]) -> float:
    """Jaccard similarity of two inclusive index spans within one trajectory."""
    set_a = set(range(span_a[0], span_a[1] + 1))
    set_b = set(range(span_b[0], span_b[1] + 1))
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)


def _match_spans(
    ground_truth: List[Tuple[int, int]],
    detected: List[Tuple[int, int]],
) -> List[float]:
    """Greedy one-to-one matching of detected spans to ground-truth spans.

    Each ground-truth anomalous subtrajectory is paired with the unmatched
    detected subtrajectory of maximal Jaccard; unmatched ground truths score
    0. Returns one Jaccard value per ground-truth span.
    """
    remaining = list(range(len(detected)))
    scores: List[float] = []
    for gt_span in ground_truth:
        best_index = None
        best_score = 0.0
        for index in remaining:
            score = span_jaccard(gt_span, detected[index])
            if score > best_score:
                best_score = score
                best_index = index
        if best_index is not None:
            remaining.remove(best_index)
        scores.append(best_score)
    return scores


def evaluate_labelings(
    ground_truth_labels: Sequence[Sequence[int]],
    predicted_labels: Sequence[Sequence[int]],
    phi: float = 0.5,
) -> MetricsReport:
    """Evaluate per-segment label sequences of a set of trajectories.

    ``ground_truth_labels[i]`` and ``predicted_labels[i]`` are the 0/1 labels
    of the same trajectory; both lists must align and each pair must have the
    same length.
    """
    if len(ground_truth_labels) != len(predicted_labels):
        raise EvaluationError("ground truth and predictions must align")
    if not (0.0 < phi <= 1.0):
        raise EvaluationError("phi must be in (0, 1]")

    total_jaccard = 0.0
    total_thresholded = 0.0
    num_ground_truth = 0
    num_detected = 0

    for gt_labels, pred_labels in zip(ground_truth_labels, predicted_labels):
        if len(gt_labels) != len(pred_labels):
            raise EvaluationError(
                "each prediction must have the same length as its ground truth")
        gt_spans = subtrajectory_spans(gt_labels)
        pred_spans = subtrajectory_spans(pred_labels)
        num_ground_truth += len(gt_spans)
        num_detected += len(pred_spans)
        scores = _match_spans(gt_spans, pred_spans)
        total_jaccard += sum(scores)
        total_thresholded += sum(1.0 for score in scores if score > phi)

    precision = total_jaccard / num_detected if num_detected else 0.0
    recall = total_jaccard / num_ground_truth if num_ground_truth else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    t_precision = total_thresholded / num_detected if num_detected else 0.0
    t_recall = total_thresholded / num_ground_truth if num_ground_truth else 0.0
    t_f1 = (2 * t_precision * t_recall / (t_precision + t_recall)
            if t_precision + t_recall > 0 else 0.0)
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        t_precision=t_precision,
        t_recall=t_recall,
        t_f1=t_f1,
        num_ground_truth=num_ground_truth,
        num_detected=num_detected,
    )
