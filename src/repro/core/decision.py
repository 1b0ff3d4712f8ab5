"""The labeling decision of Algorithm 1, per point and per route.

A point's label is decided by the first rule that applies: source and
destination are normal by definition; Road Network Enhanced Labeling (RNEL)
fixes the label where the road network leaves no choice; otherwise ASDNet's
policy chooses given ``z_i`` and the previous label — greedily in
detection, by sampling in training. A greedy choice is a pure function of
the prefix row of ``h_i``, the NRF bit, the previous label and the weights,
so detection decides each ``(row, NRF bit, previous label)`` once
(:func:`greedy_choices`) and reads it from the
:class:`~repro.core.stream.PrefixStates` table afterwards, until the table
compacts or ``ASDNet.weights_version`` moves.
:class:`~repro.core.stream.StreamEngine` takes the decision one point per
stream and tick (:func:`rnel_from_degrees`, :func:`greedy_choices`);
:func:`label_route` takes it for a whole route at once and serves
:class:`~repro.core.detector.OnlineDetector` and the engine's deferred
streams; the training episode of
:class:`~repro.core.rl4oasd.RL4OASDTrainer` takes it one time step per batch
of trajectories (:func:`rnel_fixed_batch`, :func:`policy_choices`,
:func:`sample_labels`). There is no other softmax, argmax or sampling rule
in detection or training.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..exceptions import ModelError
from ..nn.losses import softmax
from .asdnet import ASDNet
from .rsrnet import RSRNet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .stream import PrefixStates

#: A :attr:`~repro.core.stream.PrefixStates.decisions` slot not decided yet.
UNDECIDED = 0xFF


def rnel_from_degrees(out_degree: int, in_degree: int,
                      previous_label: int) -> Optional[int]:
    """Road Network Enhanced Labeling: the deterministic label of point
    ``i`` when a rule applies, ``None`` when the policy must decide.

    ``out_degree`` is ``e_{i-1}.out`` and ``in_degree`` is ``e_i.in``; the
    three rules follow the paper:

    1. ``e_{i-1}.out == 1`` and ``e_i.in == 1`` → copy the previous label;
    2. ``e_{i-1}.out == 1``, ``e_i.in > 1`` and previous label 0 → label 0;
    3. ``e_{i-1}.out > 1``, ``e_i.in == 1`` and previous label 1 → label 1.

    Callers pass degrees they cache per road segment
    (:meth:`~repro.labeling.features.PreprocessingPipeline.token_degrees`),
    so no decision queries the road network.
    """
    if out_degree == 1 and in_degree == 1:
        return previous_label
    if out_degree == 1 and in_degree > 1 and previous_label == 0:
        return 0
    if out_degree > 1 and in_degree == 1 and previous_label == 1:
        return 1
    return None


def rnel_fixed_batch(out_degrees: np.ndarray,
                     in_degrees: np.ndarray) -> np.ndarray:
    """Vectorized :func:`rnel_from_degrees` over aligned degree arrays.

    Returns a bool array of shape ``(2,) + out_degrees.shape``: ``[p]`` is
    where a rule fixes the label after previous label ``p``. A rule that
    applies always keeps the previous label (rule 1 copies it, rule 2
    fires only after 0 and gives 0, rule 3 only after 1 and gives 1), so
    the masks are the whole decision. The training episode computes them
    once per batch of trajectories and reads one entry per decision.
    """
    out_degrees = np.asarray(out_degrees, dtype=np.int64)
    in_degrees = np.asarray(in_degrees, dtype=np.int64)
    single_out = out_degrees == 1
    single_in = in_degrees == 1
    copy_rule = single_out & single_in
    return np.stack([copy_rule | (single_out & (in_degrees > 1)),
                     copy_rule | ((out_degrees > 1) & single_in)])


def policy_choices(asdnet: ASDNet, z: np.ndarray,
                   previous_labels: Sequence[int], greedy: bool):
    """What decides the label of each MDP state ``[z ; previous label]``.

    The one policy decision rule: row-wise softmax, then — with ``greedy``,
    as detection decides — argmax over the probabilities (ties to label 0).
    Otherwise the rows are the action distributions themselves, for the
    training episode's :func:`sample_labels` to sample from.
    """
    probabilities = softmax(asdnet.policy_logits_batch(z, previous_labels),
                            axis=1)
    if greedy:
        return np.argmax(probabilities, axis=1).tolist()
    return probabilities


def greedy_choices(states: "PrefixStates", rows: Sequence[int],
                   nrf: Sequence[int], previous_labels: Sequence[int],
                   rsrnet: RSRNet, asdnet: ASDNet) -> List[int]:
    """Detection's choice for each key, decided once per key and weights.

    Key ``(rows[k], nrf[k], previous_labels[k])`` is the MDP state
    ``[h_row ; x^n(nrf) ; v(previous)]`` of a point whose prefix ends at
    that row of ``states``. A key decided before is read from its slot of
    ``states.decisions`` (slot ``4 * row + 2 * nrf + previous``); the
    missing ones, each once, go through one greedy :func:`policy_choices`
    batch and are stored. The slots are dropped first when
    ``asdnet.weights_version`` is not the one they were decided under (new
    RSRNet weights compact the table, which drops them too).
    """
    if states.decided_under != asdnet.weights_version:
        states.drop_decisions(asdnet.weights_version)
    slots = states.decisions
    keys = [4 * row + 2 * bit + previous
            for row, bit, previous in zip(rows, nrf, previous_labels)]
    choices = [slots[key] for key in keys]
    if UNDECIDED in choices:
        missing = list(dict.fromkeys(
            key for key, choice in zip(keys, choices) if choice == UNDECIDED))
        z = np.concatenate(  # z_i = [h_i ; x^n_i], NRF rows by table
            [states.hidden[[key >> 2 for key in missing]],
             rsrnet.nrf_embedding.weight.value[
                 [key >> 1 & 1 for key in missing]]], axis=1)
        for key, label in zip(missing, policy_choices(
                asdnet, z, [key & 1 for key in missing], greedy=True)):
            slots[key] = label
        choices = [slots[key] for key in keys]
    return choices


def sample_labels(probabilities: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Labels sampled from the action distributions in ``probabilities``.

    The one sampling rule of training: one uniform per row
    (``(k, 2)``, as :func:`policy_choices` returns them), drawn in row order,
    and the row's label is 1 exactly when its uniform reaches ``p[0]``. A row
    that is not finite raises :class:`~repro.exceptions.ModelError` before
    anything is drawn — a diverged policy must not pass as a label.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if not np.isfinite(probabilities).all():
        raise ModelError("action probabilities must be finite")
    return (rng.random(len(probabilities))
            >= probabilities[:, 0]).astype(np.int64)


def label_route(
    segments: Sequence[int],
    rows: Sequence[int],
    states: "PrefixStates",
    allowed: FrozenSet[Tuple[int, int]],
    degrees: Optional[Sequence[Tuple[int, int]]],
    rsrnet: RSRNet,
    asdnet: ASDNet,
) -> List[int]:
    """Algorithm 1's labels of one complete route, in one pass.

    ``rows[i]`` is the row of RSRNet's ``h_i`` in ``states`` (rows ``1 …
    n-2`` are read: the endpoints are normal by definition, so nobody needs
    the destination's), ``allowed`` the SD pair's normal transitions and
    ``degrees[i-1]`` the RNEL input ``(e_{i-1}.out, e_i.in)`` of interior
    point ``i`` (``None`` turns RNEL off). Only the previous label chains one
    point to the next, and it has two values: every interior point's choice
    under both is looked up at once (:func:`greedy_choices`, so a route
    decided before runs no policy row), and a scalar scan then walks the
    route picking, per point, the RNEL rule or the choice for the label that
    actually preceded it.
    """
    count = len(segments)
    interior = count - 2
    if interior < 1:
        return [0] * count
    rows = rows[1:count - 1]
    nrf = [0 if transition in allowed else 1
           for transition in zip(segments, segments[1:-1])]
    # Entry ``p * interior + i - 1``: point ``i`` after label ``p``.
    choices = greedy_choices(states, rows * 2, nrf * 2,
                             [0] * interior + [1] * interior, rsrnet, asdnet)
    labels = [0]
    previous = 0
    for index in range(interior):
        label = (None if degrees is None
                 else rnel_from_degrees(*degrees[index], previous))
        if label is None:
            label = choices[previous * interior + index]
        labels.append(label)
        previous = label
    labels.append(0)
    return labels
