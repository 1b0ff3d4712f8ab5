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
stream and tick: a point whose choice is known is labeled from its slot in
the tick's gathering pass, the rest through one :func:`greedy_choices`
batch. :func:`label_route` takes it for a whole route at once and serves
:class:`~repro.core.detector.OnlineDetector` and the engine's deferred
streams. Detection reads RNEL as the two per-token masks of
:func:`rnel_masks`; the training episode of
:class:`~repro.core.rl4oasd.RL4OASDTrainer` takes the decision one time step
per batch of trajectories, with the same RNEL formula over degree arrays
(:func:`rnel_fixed_batch`, :func:`policy_choices`, :func:`sample_labels`).
There is no other softmax, argmax or sampling rule in detection or
training.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..exceptions import ModelError
from ..nn.losses import softmax
from .asdnet import ASDNet
from .rsrnet import RSRNet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .stream import PrefixStates

#: A :attr:`~repro.core.stream.PrefixStates.decisions` slot not decided yet.
UNDECIDED = 0xFF


def rnel_masks(in_degrees: Sequence[int], out_degrees: Sequence[int],
               enabled: bool = True) -> Tuple[List[int], List[int]]:
    """Road Network Enhanced Labeling as two per-token bit masks
    ``(after, into)``, from the per-token degree lists of
    :meth:`~repro.labeling.features.PreprocessingPipeline.token_degrees`.

    The paper's rules: ``e_{i-1}.out == 1`` and ``e_i.in == 1`` copy the
    previous label; ``out == 1``, ``in > 1`` and previous 0 give 0;
    ``out > 1``, ``in == 1`` and previous 1 give 1. So bit ``p`` of
    ``after[e_{i-1}] & into[e_i]`` is set where they fix the label of point
    ``i`` after previous label ``p``, to ``p``: after 0 where ``out == 1``
    and ``in >= 1``, after 1 where ``in == 1`` and ``out >= 1``, as
    :func:`rnel_fixed_batch` folds them. Not ``enabled`` (RNEL off), no bit
    of ``after`` is set.
    """
    return ([(out == 1) | (out >= 1) << 1 if enabled else 0
             for out in out_degrees],
            [(into >= 1) | (into == 1) << 1 for into in in_degrees])


def rnel_fixed_batch(out_degrees: np.ndarray,
                     in_degrees: np.ndarray) -> np.ndarray:
    """RNEL over aligned ``(e_{i-1}.out, e_i.in)`` degree arrays.

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
    tokens: Sequence[int],
    rows: Sequence[int],
    states: "PrefixStates",
    allowed: FrozenSet[Tuple[int, int]],
    rnel: Tuple[List[int], List[int]],
    rsrnet: RSRNet,
    asdnet: ASDNet,
) -> List[int]:
    """Algorithm 1's labels of one complete route, in one pass.

    ``tokens`` are the segments' vocabulary tokens, ``rows[i]`` the row of
    RSRNet's ``h_i`` in ``states`` (rows ``1 … n-2`` are read: the endpoints
    are normal by definition, so nobody needs the destination's),
    ``allowed`` the SD pair's normal transitions and ``rnel`` the masks of
    :func:`rnel_masks`. Only the previous label chains one point to the
    next, and it has two values: every interior point's choice under both
    is looked up at once (:func:`greedy_choices`, so a route decided before
    runs no policy row), and a scalar scan then walks the route picking,
    per point, the RNEL label or the choice for the label that actually
    preceded it.
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
    after, into = rnel
    fixed = [after[before] & into[token]
             for before, token in zip(tokens, tokens[1:-1])]
    labels = [0]
    previous = 0
    for index in range(interior):
        if not fixed[index] >> previous & 1:
            previous = choices[previous * interior + index]
        labels.append(previous)
    labels.append(0)
    return labels
