"""Baselines the paper compares against (Section V-A).

They are Table III's comparison methods, not part of the detection system,
so they live beside the paper harnesses and not in ``repro``; the VSAE
family's recurrence is the GRU of :mod:`.gru`.

Every baseline follows the same adaptation protocol as the paper: methods that
natively output an anomaly *score* per point (DBTOD, CTSS, the VSAE family,
the transition-frequency heuristic) are wrapped by
:class:`~paper.baselines.adapt.ThresholdedDetector`, whose threshold is tuned
on a small development set; IBOAT labels segments directly.

* :class:`~paper.baselines.iboat.IBOATDetector` — isolation-based online
  detection with an adaptive window (Chen et al. 2013).
* :class:`~paper.baselines.dbtod.DBTODScorer` — probabilistic driving-behaviour
  model (Wu et al. 2017).
* :class:`~paper.baselines.ctss.CTSSScorer` — continuous trajectory similarity
  (discrete Fréchet) against a reference route (Zhang et al. 2020).
* :class:`~paper.baselines.vsae.SAEScorer`, :class:`VSAEScorer`,
  :class:`GMVSAEScorer`, :class:`SDVSAEScorer` — generative sequence
  autoencoders (Liu et al. 2020) and their adaptations.
* :class:`~paper.baselines.frequency.TransitionFrequencyScorer` — the
  transition-frequency-only heuristic used in the ablation study.
"""

from .base import BaselineResult, ScoringDetector
from .adapt import ThresholdedDetector, tune_threshold
from .iboat import IBOATDetector
from .dbtod import DBTODScorer
from .ctss import CTSSScorer
from .frequency import TransitionFrequencyScorer
from .vsae import GMVSAEScorer, SAEScorer, SDVSAEScorer, VSAEScorer

__all__ = [
    "BaselineResult",
    "ScoringDetector",
    "ThresholdedDetector",
    "tune_threshold",
    "IBOATDetector",
    "DBTODScorer",
    "CTSSScorer",
    "TransitionFrequencyScorer",
    "SAEScorer",
    "VSAEScorer",
    "GMVSAEScorer",
    "SDVSAEScorer",
]
