"""Algorithm 2 as a scalar per-trajectory loop — the tests' independent reference.

This is the trainer as it ran before Algorithm 2 had one engine, over the
scalar network forms of ``tests/reference_networks.py``: for every
trajectory one whole-trajectory RSRNet forward, one RNEL check and one
sampled (``rng.choice``) or forced ASDNet decision per interior point, the
rewards point by point, a second forward for the global reward, one
REINFORCE update and one RSRNet gradient step (a third forward). Model
selection scores the development set with the scalar detector of
``tests/reference_detector.py``. Nothing is batched and nothing is shared
with ``RL4OASDTrainer._run_episode_batch``, the batch forms of the two
networks or :mod:`repro.core.decision`; ``RL4OASDTrainer`` at
``batch_size=1`` is pinned against it (weights, losses, returns, validation F1
and the generator's end state) in ``tests/test_batched_training.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.config import TrainingConfig
from repro.core import ASDNet, RSRNet, TrainingReport
from repro.eval.metrics import evaluate_labelings
from repro.labeling.features import PreprocessedTrajectory, PreprocessingPipeline
from repro.trajectory.models import MatchedTrajectory

from reference_detector import reference_labels
from reference_networks import (ReferenceASDNet, ReferenceRSRNet,
                                episode_return, global_reward, local_reward,
                                rnel)


class ReferenceTrainer:
    """Pre-training, joint training with best-model selection, fine-tuning."""

    def __init__(self, network, historical: Sequence[MatchedTrajectory],
                 labeling_config, rsrnet_config, asdnet_config,
                 training_config: TrainingConfig,
                 development_set: Sequence[MatchedTrajectory] = (),
                 pretrained_embeddings: Optional[np.ndarray] = None):
        self.network = network
        self.historical = list(historical)
        self.development_set = list(development_set)
        self.config = training_config.validate()
        self.pipeline = PreprocessingPipeline(network, self.historical,
                                              labeling_config)
        self.rng = np.random.default_rng(self.config.seed)
        if not self.config.use_pretrained_embeddings:
            pretrained_embeddings = None
        self.rsrnet = RSRNet(len(self.pipeline.vocabulary), rsrnet_config,
                             pretrained_embeddings)
        self.asdnet = ASDNet(self.rsrnet.representation_dim, asdnet_config)
        self.scalar_rsrnet = ReferenceRSRNet(self.rsrnet)
        self.scalar_asdnet = ReferenceASDNet(self.asdnet)
        self.report = TrainingReport()

    # ------------------------------------------------------------- sampling
    def _sample(self, count: int) -> List[MatchedTrajectory]:
        count = min(count, len(self.historical))
        indices = self.rng.choice(len(self.historical), size=count,
                                  replace=False)
        return [self.historical[i] for i in indices]

    def _training_labels(self, preprocessed: PreprocessedTrajectory) -> List[int]:
        if self.config.use_noisy_labels:
            return list(preprocessed.noisy_labels)
        labels = self.rng.integers(0, 2, size=len(preprocessed)).tolist()
        labels[0] = labels[-1] = 0
        return labels

    # ------------------------------------------------------------- training
    def train(self) -> None:
        config = self.config
        sample = self._sample(config.pretrain_trajectories)
        for _ in range(config.pretrain_epochs):
            for trajectory in sample:
                preprocessed = self.pipeline.preprocess(trajectory)
                self.report.pretrain_losses.append(self.scalar_rsrnet.train_step(
                    preprocessed.tokens, preprocessed.normal_route_features,
                    self._training_labels(preprocessed)))
            if config.use_asdnet:
                for trajectory in sample:
                    preprocessed = self.pipeline.preprocess(trajectory)
                    self._episode(preprocessed,
                                  self._training_labels(preprocessed))
        if config.use_asdnet:
            self._joint_training()

    def _joint_training(self) -> None:
        config = self.config
        sample = self._sample(config.joint_trajectories)
        best_f1 = self._validation_f1()
        best_state = (self.rsrnet.state_dict(), self.asdnet.state_dict())
        self.report.validation_f1.append(best_f1)
        for index, trajectory in enumerate(sample, start=1):
            preprocessed = self.pipeline.preprocess(trajectory)
            for _ in range(config.joint_epochs):
                self._refine(preprocessed)
            if index % config.validation_interval == 0 or index == len(sample):
                score = self._validation_f1()
                self.report.validation_f1.append(score)
                if score >= best_f1:
                    best_f1 = score
                    best_state = (self.rsrnet.state_dict(),
                                  self.asdnet.state_dict())
        self.rsrnet.load_state_dict(best_state[0])
        self.asdnet.load_state_dict(best_state[1])
        self.report.best_validation_f1 = best_f1

    def fine_tune(self, new_trajectories: Sequence[MatchedTrajectory],
                  epochs: int = 1) -> None:
        self.historical.extend(new_trajectories)
        self.pipeline.extend_history(new_trajectories)
        for _ in range(epochs):
            for trajectory in new_trajectories:
                self._refine(self.pipeline.preprocess(trajectory))

    def _refine(self, preprocessed: PreprocessedTrajectory) -> None:
        """One joint step: refine the labels with ASDNet, retrain RSRNet."""
        if self.config.use_asdnet:
            labels, value = self._episode(preprocessed)
            self.report.episode_returns.append(value)
        else:
            labels = self._training_labels(preprocessed)
        self.report.joint_losses.append(self.scalar_rsrnet.train_step(
            preprocessed.tokens, preprocessed.normal_route_features, labels))

    def _validation_f1(self) -> float:
        config = self.config
        if self.development_set:
            reference = self.development_set[: config.validation_sample]
            truths = [trajectory.labels for trajectory in reference]
        else:
            reference = self.historical[: config.validation_sample]
            truths = [self.pipeline.preprocess(trajectory).noisy_labels
                      for trajectory in reference]
        window = (config.delayed_labeling_window
                  if config.use_delayed_labeling else None)
        predictions = [reference_labels(self, trajectory, config.use_rnel,
                                        window) for trajectory in reference]
        return evaluate_labelings(truths, predictions).f1

    def _episode(self, preprocessed: PreprocessedTrajectory,
                 forced_labels: Optional[Sequence[int]] = None):
        """Label one trajectory with the policy (or as forced), update ASDNet."""
        config = self.config
        tokens = preprocessed.tokens
        nrf = preprocessed.normal_route_features
        segments = preprocessed.trajectory.segments
        n = len(tokens)
        z, _, _ = self.scalar_rsrnet.forward(tokens, nrf)
        labels: List[int] = [0]
        decisions = []
        for i in range(1, n):
            if i == n - 1:
                labels.append(0)
            elif forced_labels is not None:
                action, decision = self.scalar_asdnet.decide(
                    z[i], labels[-1], action=int(forced_labels[i]))
                decisions.append(decision)
                labels.append(action)
            else:
                label = None
                if config.use_rnel:
                    label = rnel(self.network, segments[i - 1], segments[i],
                                 labels[-1])
                if label is None:
                    label, decision = self.scalar_asdnet.decide(
                        z[i], labels[-1], rng=self.rng)
                    decisions.append(decision)
                labels.append(label)
        local_rewards = [local_reward(z[i - 1], z[i], labels[i - 1], labels[i])
                         for i in range(1, n)] if config.use_local_reward else []
        global_value = (
            global_reward(self.scalar_rsrnet.loss(tokens, nrf, labels))
            if config.use_global_reward else 0.0)
        value = episode_return(local_rewards, global_value)
        # The forced-label warm start is weighted behaviour cloning: no baseline.
        self.scalar_asdnet.reinforce_update(
            decisions, value, use_baseline=forced_labels is None)
        return labels, value
