"""Evaluation: NER-style F1 / TF1 metrics, length grouping, timing harnesses."""

from .metrics import MetricsReport, evaluate_labelings, span_jaccard
from .grouping import group_by_length, LENGTH_BOUNDARIES
from .timing import LatencyReport, TimingReport, measure_detector
from .runner import EvaluationRun, evaluate_detector

__all__ = [
    "MetricsReport",
    "evaluate_labelings",
    "span_jaccard",
    "group_by_length",
    "LENGTH_BOUNDARIES",
    "TimingReport",
    "LatencyReport",
    "measure_detector",
    "EvaluationRun",
    "evaluate_detector",
]
