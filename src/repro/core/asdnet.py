"""ASDNet — the Anomalous Subtrajectory Detection Network (Section IV-D).

ASDNet is the policy of the labeling MDP. The state of segment ``e_i`` is the
concatenation of RSRNet's representation ``z_i`` and the embedding of the
previous segment's label, ``s_i = [z_i ; v(e_{i-1}.l)]``. The action labels the
segment normal (0) or anomalous (1). The policy is a single-layer feed-forward
network with a softmax output, trained with REINFORCE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ASDNetConfig
from ..exceptions import ModelError
from ..nn.layers import Embedding, Linear
from ..nn.module import Module
from ..nn.optim import Adam, clip_gradients

#: Momentum of the moving-average REINFORCE baseline.
_BASELINE_MOMENTUM = 0.9


@dataclass
class BatchedEpisode:
    """Policy decisions of a whole *batch* of episodes, stored columnar.

    The trainer runs B episodes time-step-synchronously; at each step it
    appends one record covering every episode that made a stochastic (or
    forced) decision at that step: the representation ``z`` and previous
    label the decision was taken from, the action distribution and the
    action. The bookkeeping is flat numpy arrays, so the REINFORCE update
    can process the entire batch with a handful of matmuls.
    """

    num_episodes: int
    episode_indices: List[np.ndarray] = field(default_factory=list)
    representations: List[np.ndarray] = field(default_factory=list)
    actions: List[np.ndarray] = field(default_factory=list)
    probabilities: List[np.ndarray] = field(default_factory=list)
    previous_labels: List[np.ndarray] = field(default_factory=list)

    def append(self, episode_indices: np.ndarray, representations: np.ndarray,
               actions: np.ndarray, probabilities: np.ndarray,
               previous_labels: np.ndarray) -> None:
        """Record the decisions of one time step across the batch."""
        self.episode_indices.append(np.asarray(episode_indices, dtype=np.int64))
        self.representations.append(
            np.asarray(representations, dtype=np.float64))
        self.actions.append(np.asarray(actions, dtype=np.int64))
        self.probabilities.append(np.asarray(probabilities, dtype=np.float64))
        self.previous_labels.append(np.asarray(previous_labels, dtype=np.int64))

    def __len__(self) -> int:
        return int(sum(len(indices) for indices in self.episode_indices))

    def flattened(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray, np.ndarray]:
        """All decisions concatenated: (episode_idx, representations,
        actions, probs, previous_labels)."""
        if not self.episode_indices:
            raise ModelError("the batched episode recorded no decisions")
        return (np.concatenate(self.episode_indices),
                np.concatenate(self.representations, axis=0),
                np.concatenate(self.actions),
                np.concatenate(self.probabilities, axis=0),
                np.concatenate(self.previous_labels))


class ASDNet(Module):
    """The policy network of the labeling MDP."""

    NUM_ACTIONS = 2

    def __init__(self, representation_dim: int,
                 config: Optional[ASDNetConfig] = None):
        super().__init__()
        self._config = (config or ASDNetConfig()).validate()
        config = self._config
        if representation_dim < 1:
            raise ModelError("representation_dim must be positive")
        rng = np.random.default_rng(config.seed)
        self.representation_dim = representation_dim
        self.label_embedding = Embedding(2, config.label_embedding_dim, rng)
        self.policy = Linear(representation_dim + config.label_embedding_dim,
                             self.NUM_ACTIONS, rng)
        self._optimizer = Adam(self.parameters(), learning_rate=config.learning_rate)
        self._return_baseline: Optional[float] = None
        #: Bumped by every weight change; the decisions detection memoizes
        #: per prefix row compare it with the version they were made under.
        self.weights_version = 0

    @property
    def config(self) -> ASDNetConfig:
        return self._config

    def build_states_batch(self, z: np.ndarray,
                           previous_labels: Sequence[int]) -> np.ndarray:
        """MDP states ``[z_i ; v(label_{i-1})]`` for a batch of decisions.

        ``z`` holds one RSRNet representation per row (``(B, repr_dim)``) and
        ``previous_labels`` the label of each row's previous segment. The
        one state constructor of the batch forms — :meth:`policy_logits_batch`
        when a label is decided, :meth:`reinforce_update_batch` when the
        decision is learned from — so their state layouts can never diverge.
        """
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.representation_dim:
            raise ModelError(
                f"representations must have shape (B, {self.representation_dim}), "
                f"got {z.shape}")
        previous_labels = np.asarray(previous_labels, dtype=np.int64)
        if previous_labels.size and (previous_labels.min() < 0
                                     or previous_labels.max() > 1):
            raise ModelError("previous labels must be 0 or 1")
        return np.concatenate(  # table rows: the labels are checked above
            [z, self.label_embedding.weight.value[previous_labels]], axis=1)

    def policy_logits_batch(self, z: np.ndarray,
                            previous_labels: Sequence[int]) -> np.ndarray:
        """Policy logits for a batch of MDP states, shape ``(B, 2)``.

        Read through :func:`repro.core.decision.policy_choices` by detection
        and by the training episode alike; no backward caches are built.
        """
        logits, _ = self.policy(self.build_states_batch(z, previous_labels))
        return logits

    # -------------------------------------------------------------- learning
    def reinforce_update_batch(
        self,
        episode: BatchedEpisode,
        episode_returns: Sequence[float],
        use_baseline: bool = True,
    ) -> float:
        """One REINFORCE update for a whole batch of finished episodes.

        Gradients are ``-A_n * d log pi(a_i | s_i) / d theta`` summed over
        each episode's recorded decisions (Equation 4); the optimizer
        minimises, so the negative sign turns gradient ascent into descent.
        ``episode_returns`` holds ``R_n`` of each episode in the batch, and
        the advantage ``A_n`` is ``R_n`` less a moving-average baseline
        (standard variance reduction), advanced once per non-empty episode
        in batch order; ``use_baseline=False`` — the forced-action warm
        start, which behaves like weighted behaviour cloning — takes
        ``A_n = R_n``. The gradients of all episodes are accumulated into a
        *single* clipped Adam step, scaled by the *mean* over the batch's
        non-empty episodes so the gradient magnitude (and hence how often
        clipping saturates) stays batch-size-invariant, mirroring how
        :meth:`~repro.core.rsrnet.RSRNet.train_step_batch` averages its
        per-sequence losses. At batch size 1 that is the paper's update of
        one episode; at larger batch sizes it is the standard minibatch
        variant (one optimizer step per batch instead of per episode). The
        MDP states ``[z ; v(previous label)]`` are rebuilt here from what the
        episode recorded — the label embedding has not moved since the
        decisions were taken.
        Returns the mean log-probability of the taken actions.
        """
        if len(episode) == 0:
            return 0.0
        episode_returns = np.asarray(episode_returns, dtype=np.float64)
        if episode_returns.shape != (episode.num_episodes,):
            raise ModelError("need one return per episode in the batch")
        episode_idx, representations, actions, probabilities, \
            previous_labels = episode.flattened()
        states = self.build_states_batch(representations, previous_labels)
        counts = np.bincount(episode_idx, minlength=episode.num_episodes)

        advantages = np.zeros(episode.num_episodes)
        for index in range(episode.num_episodes):
            if counts[index] == 0:
                continue
            value = float(episode_returns[index])
            advantage = value
            if use_baseline:
                if self._return_baseline is None:
                    self._return_baseline = value
                advantage = value - self._return_baseline
                self._return_baseline = (
                    _BASELINE_MOMENTUM * self._return_baseline
                    + (1.0 - _BASELINE_MOMENTUM) * value)
            advantages[index] = advantage

        self.zero_grad()
        total = len(actions)
        contributing = int(np.count_nonzero(counts))
        grad_logits = probabilities.copy()
        grad_logits[np.arange(total), actions] -= 1.0
        grad_logits *= advantages[episode_idx][:, None]
        grad_logits /= contributing
        grad_states = self.policy.backward(grad_logits, {"x": states})
        self.label_embedding.backward(
            grad_states[:, self.representation_dim:],
            {"tokens": previous_labels})
        clip_gradients(self.parameters(), self._config.grad_clip)
        self._optimizer.step()
        self.weights_version += 1
        return float(np.mean(np.log(
            probabilities[np.arange(total), actions] + 1e-12)))

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self.weights_version += 1
