"""The paper's primary contribution: the RL4OASD detector.

* :class:`~repro.core.rsrnet.RSRNet` — the Road Segment Representation
  Network: an LSTM over pre-trained traffic-context embeddings concatenated
  with embedded normal-route features, trained with cross-entropy against
  (noisy, later refined) labels.
* :class:`~repro.core.asdnet.ASDNet` — the Anomalous Subtrajectory Detection
  Network: a single-layer policy over MDP states ``[z_i ; v(label_{i-1})]``
  trained with REINFORCE.
* :class:`~repro.core.rl4oasd.RL4OASDTrainer` — pre-training on noisy labels
  followed by iterative joint training of the two networks, with the local
  (label-continuity) and global (RSRNet-loss) rewards computed per batch of
  episodes.
* :mod:`~repro.core.decision` — the labeling decision of Algorithm 1 (RNEL
  rules, the policy choice) per point and, as
  :func:`~repro.core.decision.label_route`, for a whole route in one pass.
* :class:`~repro.core.detector.OnlineDetector` — Algorithm 1 over one
  completed trip, with the road-network-enhanced labeling (RNEL) and
  delayed labeling (DL) enhancements: a one-stream view of the route pass.
* :class:`~repro.core.online.OnlineLearner` — the online learning strategy
  used to handle concept drift (RL4OASD-FT in the paper).
* :class:`~repro.core.stream.StreamEngine` — fleet-scale batched streaming
  detection: N concurrent vehicle streams multiplexed through one vectorized
  forward pass per tick, label-identical to :class:`OnlineDetector`.
"""

from .rsrnet import RSRNet
from .asdnet import ASDNet
from .rl4oasd import RL4OASDModel, RL4OASDTrainer, TrainingReport
from .detector import DetectionResult, OnlineDetector
from .online import OnlineLearner
from .stream import (PrefixStates, SegmentFeatureCache, StreamEngine,
                     replay_fleet)

__all__ = [
    "RSRNet",
    "ASDNet",
    "RL4OASDTrainer",
    "RL4OASDModel",
    "TrainingReport",
    "OnlineDetector",
    "DetectionResult",
    "OnlineLearner",
    "PrefixStates",
    "SegmentFeatureCache",
    "StreamEngine",
    "replay_fleet",
]
