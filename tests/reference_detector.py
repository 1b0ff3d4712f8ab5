"""Algorithm 1 as a scalar per-point loop — the tests' independent reference.

This is the detector as it ran before the route pass, over the scalar
network forms of ``tests/reference_networks.py``: one RSRNet step, one RNEL
check and one greedy ASDNet decision per point (the destination included),
nothing batched, nothing shared with :mod:`repro.core.decision`.
``OnlineDetector`` and the engine's deferred finalize now run the same
:func:`~repro.core.decision.label_route`, so comparing them with each other
proves nothing; this loop and the engine's per-point ``tick`` path are the
two anchors they are pinned against.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.detector import apply_delayed_labeling
from repro.trajectory.models import MatchedTrajectory

from reference_networks import greedy_action, rnel, rsrnet_step


def reference_labels(
    model,
    trajectory: MatchedTrajectory,
    use_rnel: bool = True,
    delay_window: Optional[int] = 8,
) -> List[int]:
    """Labels of ``trajectory`` under ``model``."""
    rsrnet, asdnet, pipeline = model.rsrnet, model.asdnet, model.pipeline
    segments = trajectory.segments
    n = len(segments)
    allowed = pipeline.normal_transitions_for(trajectory)
    h = c = np.zeros(rsrnet.config.hidden_dim)
    labels: List[int] = []
    for i, segment in enumerate(segments):
        endpoint = i == 0 or i == n - 1
        nrf = 0 if endpoint or (segments[i - 1], segment) in allowed else 1
        z, h, c = rsrnet_step(rsrnet, h, c, pipeline.vocabulary.token(segment),
                              nrf)
        if endpoint:
            label = 0
        else:
            label = None
            if use_rnel:
                label = rnel(pipeline.network, segments[i - 1], segment,
                             labels[-1])
            if label is None:
                label = greedy_action(asdnet, z, labels[-1])
        labels.append(label)
    if delay_window is not None:
        labels = apply_delayed_labeling(labels, delay_window)
        labels[0] = 0
        labels[-1] = 0
    return labels
