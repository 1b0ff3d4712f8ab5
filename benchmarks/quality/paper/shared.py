"""What the paper harnesses share beyond the library's experiment settings:
the methods of Table III, the warm-start control, the timing of Figures 3
and 4 and the table rendering."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.exceptions import EvaluationError, ReproError
from repro.experiments.common import (CitySplit, ExperimentSettings,
                                      train_rl4oasd)
from repro.labeling import PreprocessingPipeline
from repro.trajectory.models import MatchedTrajectory

from .baselines import (
    CTSSScorer,
    DBTODScorer,
    GMVSAEScorer,
    IBOATDetector,
    SAEScorer,
    SDVSAEScorer,
    ThresholdedDetector,
    TransitionFrequencyScorer,
    VSAEScorer,
)
from .baselines.vsae import AutoencoderConfig, train_autoencoder

#: The methods of Table III (and Figures 3-4), in the paper's order.
DETECTORS = ("IBOAT", "DBTOD", "GM-VSAE", "SD-VSAE", "SAE", "VSAE", "CTSS",
             "RL4OASD")

#: The VSAE family's shared autoencoder trains one epoch over at most this
#: many training trajectories.
AUTOENCODER_EPOCHS = 1
AUTOENCODER_TRAJECTORIES = 200


def build_pipeline(split: CitySplit,
                   settings: ExperimentSettings) -> PreprocessingPipeline:
    """The preprocessing pipeline over a split's training history."""
    return PreprocessingPipeline(split.dataset.network, split.train,
                                 settings.labeling_config())


def build_detectors(split: CitySplit, settings: ExperimentSettings,
                    names: Sequence[str]) -> Dict[str, object]:
    """Build, tune or train the named detectors of Table III on a split.

    ``names`` are the paper's method names (:data:`DETECTORS`, plus the
    heuristic ``"TransitionFrequency"``); the result maps each to a
    detector exposing ``detect(trajectory)``, in the order given. The
    thresholded baselines are tuned on the development set, the VSAE
    family shares one autoencoder, and ``"RL4OASD"`` is
    :func:`~repro.experiments.common.train_rl4oasd`'s model.
    """
    pipeline = build_pipeline(split, settings)
    autoencoder = None
    autoencoder_scorers = {"GM-VSAE": GMVSAEScorer, "SD-VSAE": SDVSAEScorer,
                           "SAE": SAEScorer, "VSAE": VSAEScorer}

    def thresholded(scorer) -> ThresholdedDetector:
        return ThresholdedDetector(scorer).tune(split.development)

    detectors: Dict[str, object] = {}
    for name in names:
        if name == "IBOAT":
            detectors[name] = IBOATDetector(pipeline)
        elif name == "DBTOD":
            detectors[name] = thresholded(
                DBTODScorer(split.dataset.network, split.train))
        elif name == "CTSS":
            detectors[name] = thresholded(CTSSScorer(pipeline))
        elif name == "TransitionFrequency":
            detectors[name] = thresholded(TransitionFrequencyScorer(pipeline))
        elif name == "RL4OASD":
            detectors[name] = train_rl4oasd(split, settings)[0].detector()
        elif name in autoencoder_scorers:
            if autoencoder is None:
                autoencoder = train_autoencoder(
                    pipeline.vocabulary, split.train,
                    AutoencoderConfig(epochs=AUTOENCODER_EPOCHS,
                                      seed=settings.seed + 11),
                    max_trajectories=AUTOENCODER_TRAJECTORIES,
                )
            detectors[name] = thresholded(
                autoencoder_scorers[name](autoencoder, pipeline.vocabulary))
        else:
            raise ReproError(f"unknown detector {name!r}")
    return detectors


def warm_start_agreement(detector,
                         trajectories: Sequence[MatchedTrajectory]) -> float:
    """The share of points on which an RL4OASD ``detector`` labels
    ``trajectories`` like its own pipeline's noisy labels
    (``labels_from_fractions`` at α) — the warm start RSRNet and ASDNet
    are pre-trained on. 1.0 means the trained stack adds nothing to the α
    threshold on this data."""
    agree = total = 0
    for trajectory in trajectories:
        noisy = detector.pipeline.preprocess(trajectory).noisy_labels
        labels = detector.detect(trajectory).labels
        agree += sum(int(a == b) for a, b in zip(labels, noisy))
        total += len(noisy)
    return agree / total


@dataclass
class TimingReport:
    """Latency statistics of a detector over a workload."""

    detector_name: str
    per_point_seconds: List[float]
    per_trajectory_seconds: List[float]

    @property
    def mean_per_point_ms(self) -> float:
        if not self.per_point_seconds:
            return 0.0
        return float(np.mean(self.per_point_seconds)) * 1000.0

    @property
    def mean_per_trajectory_ms(self) -> float:
        if not self.per_trajectory_seconds:
            return 0.0
        return float(np.mean(self.per_trajectory_seconds)) * 1000.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "detector": self.detector_name,
            "mean_per_point_ms": self.mean_per_point_ms,
            "mean_per_trajectory_ms": self.mean_per_trajectory_ms,
        }


def measure_detector(
    detector,
    trajectories: Sequence[MatchedTrajectory],
    name: str = "detector",
) -> TimingReport:
    """Time a detector's ``detect`` method over a set of trajectories.

    The per-point latency is the per-trajectory wall clock divided by the
    trajectory length, matching how the paper reports "average running time
    per point".
    """
    if not trajectories:
        raise EvaluationError("timing requires at least one trajectory")
    per_point: List[float] = []
    per_trajectory: List[float] = []
    for trajectory in trajectories:
        started = time.perf_counter()
        detector.detect(trajectory)
        elapsed = time.perf_counter() - started
        per_trajectory.append(elapsed)
        per_point.append(elapsed / max(1, len(trajectory)))
    return TimingReport(detector_name=name, per_point_seconds=per_point,
                        per_trajectory_seconds=per_trajectory)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render a simple aligned text table (used by every experiment printout)."""
    formatted_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[column])),
            max((len(row[column]) for row in formatted_rows), default=0))
        for column in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
