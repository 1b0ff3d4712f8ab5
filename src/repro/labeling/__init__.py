"""Data preprocessing: transition statistics, noisy labels, normal route features.

This package implements Section IV-B of the paper:

* trajectories are grouped by SD pair and time slot (done by
  :class:`~repro.history.HistorySnapshot`),
* per-group *transition fractions* measure how often each transition between
  adjacent road segments is travelled (:mod:`~repro.labeling.transitions`),
* *noisy labels* threshold those fractions at ``alpha``
  (:mod:`~repro.labeling.noisy`),
* *normal routes* are routes whose share of the group exceeds ``delta``; the
  *normal route feature* of a segment is 0 when its transition occurs on a
  normal route (:mod:`~repro.labeling.normal_routes`),
* :class:`~repro.labeling.features.PreprocessingPipeline` bundles all of the
  above behind one object the detector and trainer consume.
"""

from .transitions import TransitionStatistics
from .noisy import noisy_labels
from .normal_routes import infer_normal_routes, normal_route_features
from .features import PreprocessedTrajectory, PreprocessingPipeline, SegmentVocabulary

__all__ = [
    "TransitionStatistics",
    "noisy_labels",
    "infer_normal_routes",
    "normal_route_features",
    "SegmentVocabulary",
    "PreprocessedTrajectory",
    "PreprocessingPipeline",
]
