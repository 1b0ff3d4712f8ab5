"""Evaluation: NER-style F1 / TF1 metrics, length grouping, the stage
latency report."""

from .metrics import MetricsReport, evaluate_labelings, span_jaccard
from .grouping import group_by_length, LENGTH_BOUNDARIES
from .timing import LatencyReport
from .runner import EvaluationRun, evaluate_detector

__all__ = [
    "MetricsReport",
    "evaluate_labelings",
    "span_jaccard",
    "group_by_length",
    "LENGTH_BOUNDARIES",
    "LatencyReport",
    "EvaluationRun",
    "evaluate_detector",
]
