"""Evaluation: NER-style F1 / TF1 metrics and the stage latency report."""

from .metrics import MetricsReport, evaluate_labelings, span_jaccard
from .timing import LatencyReport

__all__ = [
    "MetricsReport",
    "evaluate_labelings",
    "span_jaccard",
    "LatencyReport",
]
