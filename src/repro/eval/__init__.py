"""Evaluation: NER-style F1 / TF1 metrics, length grouping, timing harnesses."""

from .metrics import MetricsReport, evaluate_labelings, span_jaccard
from .grouping import group_by_length, LENGTH_BOUNDARIES
from .timing import (LatencyReport, ThroughputReport, TimingReport,
                     TrainingThroughputReport, measure_detector,
                     measure_throughput, measure_training_throughput)
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
    "ThroughputReport",
    "measure_throughput",
    "TrainingThroughputReport",
    "measure_training_throughput",
    "EvaluationRun",
    "evaluate_detector",
]
