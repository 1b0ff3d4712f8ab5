"""Joint training of RSRNet and ASDNet — the RL4OASD algorithm (Section IV).

The paper trains without any manual labels: RSRNet is warm-started against
noisy labels derived from historical traffic, then ASDNet (an RL policy over
the labeling MDP) iteratively refines those labels while RSRNet is retrained
on the refinement — each network bootstrapping the other. This module holds
that whole loop:

* :class:`RL4OASDTrainer` — pre-training, joint training, and online
  fine-tuning (:meth:`RL4OASDTrainer.fine_tune`) under concept drift.
* :class:`RL4OASDModel` — the trained artifact: both networks plus the
  preprocessing pipeline, from which detectors and stream engines are built.
* :class:`TrainingReport` — losses, episode returns, validation F1 and wall
  clock collected along the way.

Algorithm 2 runs through one engine at every ``batch_size``: episodes for a
batch of trajectories run *time-step-synchronously* — one padded
:meth:`~repro.core.rsrnet.RSRNet.forward_batch_train` per batch (reused for
the episode representations, the global reward *and* the supervised gradient
step, because ASDNet's update between them leaves RSRNet untouched), one
labeling decision per time step across every trajectory still active at that
step (:mod:`repro.core.decision`; ragged batches are tail-padded and
masked), one batch-accumulated REINFORCE update
(:meth:`~repro.core.asdnet.ASDNet.reinforce_update_batch`) and one RSRNet
step (:meth:`~repro.core.rsrnet.RSRNet.train_step_batch`) per batch. At
``batch_size=1`` (the default) that *is* the paper's loop — one episode, one
REINFORCE update and one RSRNet gradient step per trajectory, in sample
order — and ``tests/reference_trainer.py``, which spells Algorithm 2 out over
the scalar forms of both networks, pins it there; larger batch sizes are the
standard minibatch variant and several times faster (``benchmarks/perf``
records fine-tuning cost as ``core.fine_tune_points_per_s``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterator, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING, Union)

import numpy as np

from ..config import (
    ASDNetConfig,
    LabelingConfig,
    RL4OASDConfig,
    RSRNetConfig,
    ServeConfig,
    TrainingConfig,
)
from ..exceptions import ModelError, NotFittedError
from ..labeling.features import PreprocessedTrajectory, PreprocessingPipeline
from ..nn.functional import cosine_similarity_rows
from ..roadnet.graph import RoadNetwork
from ..trajectory.models import MatchedTrajectory
from .asdnet import ASDNet, BatchedEpisode
from .decision import policy_choices, rnel_from_degrees_batch, sample_labels
from .detector import OnlineDetector
from .rsrnet import RSRNet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..serve.service import DetectionService


def _chunks(items: Sequence, size: int) -> Iterator[Sequence]:
    """Consecutive slices of ``items`` of at most ``size`` elements."""
    for start in range(0, len(items), size):
        yield items[start:start + size]


@dataclass
class _EpisodeBatch:
    """Padded arrays for one batch of trajectories (the episode's input).

    ``tokens`` / ``nrf`` are tail-padded ``(B, T)`` index arrays, ``lengths``
    the true lengths, and ``out_degrees`` / ``in_degrees`` hold, at middle
    position ``i``, the out-degree of segment ``i-1`` and the in-degree of
    segment ``i`` — everything the vectorized RNEL rules need.
    """

    preprocessed: List[PreprocessedTrajectory]
    tokens: np.ndarray
    nrf: np.ndarray
    lengths: np.ndarray
    out_degrees: Optional[np.ndarray] = None
    in_degrees: Optional[np.ndarray] = None

    @property
    def horizon(self) -> int:
        return int(self.tokens.shape[1])

    def __len__(self) -> int:
        return len(self.preprocessed)


@dataclass
class TrainingReport:
    """Diagnostics collected while training RL4OASD."""

    pretrain_losses: List[float] = field(default_factory=list)
    joint_losses: List[float] = field(default_factory=list)
    episode_returns: List[float] = field(default_factory=list)
    validation_f1: List[float] = field(default_factory=list)
    best_validation_f1: float = float("nan")
    pretrain_seconds: float = 0.0
    joint_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.pretrain_seconds + self.joint_seconds

    def summary(self) -> Dict[str, float]:
        """Headline numbers of a finished run, one flat dict for logging."""
        return {
            "pretrain_seconds": self.pretrain_seconds,
            "joint_seconds": self.joint_seconds,
            "final_joint_loss": self.joint_losses[-1] if self.joint_losses else float("nan"),
            "mean_episode_return": (float(np.mean(self.episode_returns))
                                    if self.episode_returns else float("nan")),
            "best_validation_f1": self.best_validation_f1,
        }


@dataclass
class RL4OASDModel:
    """A trained RL4OASD model: both networks plus the preprocessing pipeline."""

    rsrnet: RSRNet
    asdnet: ASDNet
    pipeline: PreprocessingPipeline
    training_config: TrainingConfig
    report: TrainingReport

    def detector(self, greedy: bool = True, seed: int = 0) -> OnlineDetector:
        """An online detector using this model (Algorithm 1)."""
        return OnlineDetector(
            rsrnet=self.rsrnet,
            asdnet=self.asdnet,
            pipeline=self.pipeline,
            use_rnel=self.training_config.use_rnel,
            use_delayed_labeling=self.training_config.use_delayed_labeling,
            delay_window=self.training_config.delayed_labeling_window,
            greedy=greedy,
            seed=seed,
        )

    def with_history(self, history) -> "RL4OASDModel":
        """This model viewing a different history snapshot (cheap).

        Shares both networks, the training config and the report; only the
        preprocessing pipeline is replaced by a sibling view pinned to
        ``history`` (a :class:`~repro.history.HistorySnapshot` or a
        :class:`~repro.history.RouteHistoryStore`). This is how "a service
        freshly built from snapshot S" is expressed — the differential
        anchor for :meth:`DetectionService.swap`.
        """
        return RL4OASDModel(
            rsrnet=self.rsrnet,
            asdnet=self.asdnet,
            pipeline=self.pipeline.with_history(history),
            training_config=self.training_config,
            report=self.report,
        )

    def stream_engine(self, **overrides) -> "StreamEngine":
        """A fleet-scale batched stream engine using this model.

        Produces labels identical to :meth:`detector` while multiplexing many
        concurrent vehicle streams through one batched forward pass per tick.
        """
        from .stream import StreamEngine

        return StreamEngine.from_model(self, **overrides)

    def detection_service(self, serve_config: Optional[ServeConfig] = None,
                          **overrides) -> "DetectionService":
        """A sharded detection service serving a snapshot of this model.

        Keyword arguments are those of
        :class:`~repro.serve.service.DetectionService` (``num_shards``,
        ``backend``, ``queue_depth``, ``start_method``, plus stream-engine
        overrides); a :class:`~repro.config.ServeConfig` supplies the
        defaults and explicit keywords win over it.
        """
        from ..serve.service import DetectionService

        options = {}
        if serve_config is not None:
            serve_config.validate()
            options.update(
                num_shards=serve_config.num_shards,
                backend=serve_config.backend,
                queue_depth=serve_config.queue_depth,
                start_method=serve_config.start_method,
            )
        options.update(overrides)
        return DetectionService(self, **options)

    # ----------------------------------------------------------- persistence
    def save(self, path: Union[str, Path], archive=None) -> Path:
        """Checkpoint this model to ``path`` (weights + configs + pipeline).

        The checkpoint reloads into a model that detects identically
        (:meth:`load`); training-only state (optimizer moments, REINFORCE
        baseline) is not persisted. With ``archive`` (a
        :class:`~repro.history.HistoryArchive`) the history corpus is
        stored there content-addressed and referenced by version instead of
        embedded in the checkpoint file. See :mod:`repro.serve.checkpoint`.
        """
        from ..serve.checkpoint import save_model

        return save_model(self, path, archive=archive)

    @classmethod
    def load(cls, path: Union[str, Path], archive=None) -> "RL4OASDModel":
        """Load a model previously written by :meth:`save`.

        ``archive`` is required when the checkpoint was saved in archived
        history mode (and ignored otherwise).
        """
        from ..serve.checkpoint import load_model

        return load_model(path, archive=archive)


class RL4OASDTrainer:
    """Trains RL4OASD without labeled data (noisy labels + iterative refinement).

    The trainer also exposes every ablation switch of Table IV through
    :class:`~repro.config.TrainingConfig`:

    * ``use_noisy_labels`` — replace the noisy labels with random labels,
    * ``use_pretrained_embeddings`` — replace the Toast-style embeddings with
      random initialisation,
    * ``use_rnel`` / ``use_delayed_labeling`` — disable the two enhancements,
    * ``use_local_reward`` / ``use_global_reward`` — drop one reward term,
    * ``use_asdnet`` — degrade to an ordinary classifier trained on noisy
      labels (no label refinement).
    """

    def __init__(
        self,
        network: RoadNetwork,
        historical: Sequence[MatchedTrajectory],
        labeling_config: Optional[LabelingConfig] = None,
        rsrnet_config: Optional[RSRNetConfig] = None,
        asdnet_config: Optional[ASDNetConfig] = None,
        training_config: Optional[TrainingConfig] = None,
        pretrained_embeddings: Optional[np.ndarray] = None,
        development_set: Optional[Sequence[MatchedTrajectory]] = None,
    ):
        if not historical:
            raise ModelError("training requires at least one historical trajectory")
        self._development_set = list(development_set) if development_set else []
        self._labeling_config = (labeling_config or LabelingConfig()).validate()
        self._rsrnet_config = (rsrnet_config or RSRNetConfig()).validate()
        self._asdnet_config = (asdnet_config or ASDNetConfig()).validate()
        self._training_config = (training_config or TrainingConfig()).validate()
        self._historical = list(historical)
        self._pipeline = PreprocessingPipeline(network, self._historical,
                                               self._labeling_config)
        self._rng = np.random.default_rng(self._training_config.seed)

        embeddings = pretrained_embeddings
        if not self._training_config.use_pretrained_embeddings:
            embeddings = None
        self._rsrnet = RSRNet(
            vocabulary_size=len(self._pipeline.vocabulary),
            config=self._rsrnet_config,
            pretrained_embeddings=embeddings,
        )
        self._asdnet = ASDNet(
            representation_dim=self._rsrnet.representation_dim,
            config=self._asdnet_config,
        )
        self._trained = False
        self._report = TrainingReport()

    # ------------------------------------------------------------ properties
    @property
    def pipeline(self) -> PreprocessingPipeline:
        return self._pipeline

    @property
    def rsrnet(self) -> RSRNet:
        return self._rsrnet

    @property
    def asdnet(self) -> ASDNet:
        return self._asdnet

    @property
    def training_config(self) -> TrainingConfig:
        return self._training_config

    # ------------------------------------------------------------- sampling
    def _sample_trajectories(self, count: int) -> List[MatchedTrajectory]:
        count = min(count, len(self._historical))
        indices = self._rng.choice(len(self._historical), size=count, replace=False)
        return [self._historical[i] for i in indices]

    def _training_labels(self, preprocessed: PreprocessedTrajectory) -> List[int]:
        """Noisy labels, or random labels under the "w/o noisy labels" ablation."""
        if self._training_config.use_noisy_labels:
            return list(preprocessed.noisy_labels)
        random_labels = self._rng.integers(0, 2, size=len(preprocessed)).tolist()
        random_labels[0] = 0
        random_labels[-1] = 0
        return [int(label) for label in random_labels]

    # ------------------------------------------------------------- training
    def train(self) -> RL4OASDModel:
        """Run pre-training and joint training; returns the trained model."""
        self._pretrain()
        if self._training_config.use_asdnet:
            self._joint_training()
        self._trained = True
        return RL4OASDModel(
            rsrnet=self._rsrnet,
            asdnet=self._asdnet,
            pipeline=self._pipeline,
            training_config=self._training_config,
            report=self._report,
        )

    def _pretrain(self) -> None:
        """Warm-start both networks using the noisy labels: per epoch, one
        gradient step per batch, then one forced-label episode per batch."""
        config = self._training_config
        started = time.perf_counter()
        sample = self._sample_trajectories(config.pretrain_trajectories)
        preprocessed = [self._pipeline.preprocess(t) for t in sample]
        for _ in range(config.pretrain_epochs):
            for chunk in self._training_chunks(preprocessed,
                                               config.batch_size):
                prep = self._prepare_batch(chunk, with_degrees=False)
                labels = self._pad_labels(
                    [self._training_labels(p) for p in chunk], prep.horizon)
                _, _, cache = self._rsrnet.forward_batch_train(
                    prep.tokens, prep.nrf, prep.lengths)
                losses = self._rsrnet.train_step_batch(labels, cache)
                self._report.pretrain_losses.extend(float(l) for l in losses)
            if config.use_asdnet:
                for chunk in self._training_chunks(preprocessed,
                                                   config.batch_size):
                    prep = self._prepare_batch(chunk, with_degrees=False)
                    forced = [self._training_labels(p) for p in chunk]
                    self._run_episode_batch(prep, forced_labels=forced)
        self._report.pretrain_seconds = time.perf_counter() - started

    def _joint_training(self) -> None:
        """Iteratively refine labels with ASDNet and retrain RSRNet on them.

        The paper notes that "the best model is chosen during the process":
        every ``validation_interval`` trajectories the current model is scored
        on the development set (or, when none is given, against the noisy
        labels of a held-back training sample) and the best-scoring snapshot
        is restored at the end. This guards against the degenerate fixed point
        where the policy labels everything normal and RSRNet is retrained to
        agree with it.
        """
        config = self._training_config
        started = time.perf_counter()
        sample = self._sample_trajectories(config.joint_trajectories)

        best_f1 = self._validation_f1()
        best_state = (self._rsrnet.state_dict(), self._asdnet.state_dict())
        self._report.validation_f1.append(best_f1)

        processed = 0
        for chunk in self._training_chunks(sample, config.batch_size):
            preprocessed = [self._pipeline.preprocess(t) for t in chunk]
            prep = self._prepare_batch(preprocessed,
                                       with_degrees=config.use_rnel)
            for _ in range(config.joint_epochs):
                labels, returns, cache = self._run_episode_batch(prep)
                losses = self._rsrnet.train_step_batch(labels, cache)
                self._report.joint_losses.extend(float(l) for l in losses)
                self._report.episode_returns.extend(float(r) for r in returns)
            before, processed = processed, processed + len(chunk)
            crossed = (processed // config.validation_interval
                       > before // config.validation_interval)
            if crossed or processed == len(sample):
                score = self._validation_f1()
                self._report.validation_f1.append(score)
                if score >= best_f1:
                    best_f1 = score
                    best_state = (self._rsrnet.state_dict(),
                                  self._asdnet.state_dict())

        self._rsrnet.load_state_dict(best_state[0])
        self._asdnet.load_state_dict(best_state[1])
        self._report.best_validation_f1 = best_f1
        self._report.joint_seconds = time.perf_counter() - started

    #: Concurrent streams a validation pass multiplexes through one engine.
    VALIDATION_CONCURRENCY = 64

    def _validation_f1(self) -> float:
        """F1 of the current model on the development set.

        When no development set was provided, the noisy labels of a fixed
        sample of training trajectories act as pseudo ground truth — this
        keeps model selection label-free, at the cost of a noisier signal.

        The whole reference set replays as one concurrent fleet through a
        :class:`~repro.core.stream.StreamEngine` (one batched forward pass
        per tick) instead of one trajectory at a time; the engine is pinned
        label-identical to :class:`OnlineDetector`, so the score — and
        therefore best-model selection — is unchanged, only cheaper.
        """
        from ..eval.metrics import evaluate_labelings
        from .stream import StreamEngine, replay_fleet

        config = self._training_config
        if self._development_set:
            reference = self._development_set[: config.validation_sample]
            truths = [trajectory.labels for trajectory in reference]
        else:
            reference = self._historical[: config.validation_sample]
            truths = [
                self._pipeline.preprocess(trajectory).noisy_labels
                for trajectory in reference
            ]
        engine = StreamEngine(
            rsrnet=self._rsrnet,
            asdnet=self._asdnet,
            pipeline=self._pipeline,
            use_rnel=config.use_rnel,
            use_delayed_labeling=config.use_delayed_labeling,
            delay_window=config.delayed_labeling_window,
            greedy=True,
        )
        results = replay_fleet(engine, reference,
                               concurrency=self.VALIDATION_CONCURRENCY)
        predictions = [result.labels for result in results]
        report = evaluate_labelings(truths, predictions)
        return report.f1

    # ----------------------------------------------------------- episodes
    def _training_chunks(self, items: Sequence, size: int) -> Iterator[Sequence]:
        """Assemble training batches, length-sorted when that cuts padding.

        A padded batch costs ``B * max_b(n_b)`` whatever the individual
        lengths, so mixing a 60-segment trip with 10-segment trips wastes
        most of the batch on masked positions. Above batch size 1, items are
        stably sorted by trajectory length first, so each batch spans
        near-uniform lengths. At size 1 the sample order is kept — there is
        no padding to save, and it is the order Algorithm 2 visits them in.
        """
        if size > 1:
            items = sorted(items, key=len)  # stable: ties keep sample order
        return _chunks(items, size)

    def _prepare_batch(self, preprocessed: Sequence[PreprocessedTrajectory],
                       with_degrees: bool) -> _EpisodeBatch:
        """Pad a batch of preprocessed trajectories into aligned arrays."""
        lengths = np.array([len(p) for p in preprocessed], dtype=np.int64)
        batch, horizon = len(preprocessed), int(lengths.max(initial=1))
        tokens = np.zeros((batch, horizon), dtype=np.int64)
        nrf = np.zeros((batch, horizon), dtype=np.int64)
        out_degrees = np.ones((batch, horizon), dtype=np.int64) if with_degrees else None
        in_degrees = np.ones((batch, horizon), dtype=np.int64) if with_degrees else None
        for b, item in enumerate(preprocessed):
            n = len(item)
            tokens[b, :n] = item.tokens
            nrf[b, :n] = item.normal_route_features
            if with_degrees and n > 2:
                out_degrees[b, 1:n - 1], in_degrees[b, 1:n - 1] = zip(
                    *self._pipeline.rnel_degrees(item.tokens))
        return _EpisodeBatch(preprocessed=list(preprocessed), tokens=tokens,
                             nrf=nrf, lengths=lengths,
                             out_degrees=out_degrees, in_degrees=in_degrees)

    @staticmethod
    def _pad_labels(labels: Sequence[Sequence[int]], horizon: int) -> np.ndarray:
        """Tail-pad per-trajectory label lists into a ``(B, T)`` matrix."""
        padded = np.zeros((len(labels), horizon), dtype=np.int64)
        for b, row in enumerate(labels):
            padded[b, :len(row)] = row
        return padded

    def _run_episode_batch(
        self,
        prep: _EpisodeBatch,
        forced_labels: Optional[Sequence[Sequence[int]]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, dict]:
        """Label a batch of trajectories with the current policy; update ASDNet.

        Episodes run time-step-synchronously — at step ``t`` every trajectory
        whose position ``t`` is a middle segment resolves its label by the
        rules of :mod:`repro.core.decision` (RNEL where the road network
        leaves no choice, otherwise one policy evaluation over the remaining
        rows and one sampled label each, drawn in row order from the
        trainer's generator), sources/destinations stay normal, and padded
        positions are skipped. With ``forced_labels`` (the pre-training warm
        start) the policy is updated as if it had chosen those labels.
        Rewards are computed vectorized and ASDNet takes one
        batch-accumulated REINFORCE update. Returns ``(labels, returns,
        cache)`` where ``labels`` is the padded ``(B, T)`` label matrix,
        ``returns`` the per-episode returns, and ``cache`` the RSRNet forward
        cache, reusable by :meth:`~repro.core.rsrnet.RSRNet.train_step_batch`
        because ASDNet's update leaves RSRNet's weights untouched.
        """
        config = self._training_config
        lengths = prep.lengths
        batch, horizon = prep.tokens.shape
        z, logits, cache = self._rsrnet.forward_batch_train(
            prep.tokens, prep.nrf, lengths)
        labels = np.zeros((batch, horizon), dtype=np.int64)
        episode = BatchedEpisode(num_episodes=batch)
        forced = (self._pad_labels(forced_labels, horizon)
                  if forced_labels is not None else None)

        destinations = lengths - 1
        for t in range(1, horizon - 1):
            rows = np.nonzero(t < destinations)[0]
            previous = labels[rows, t - 1]
            if forced is None and config.use_rnel:
                decided = rnel_from_degrees_batch(
                    prep.out_degrees[rows, t], prep.in_degrees[rows, t],
                    previous)
                fixed = decided >= 0
                labels[rows[fixed], t] = decided[fixed]
                rows, previous = rows[~fixed], previous[~fixed]
                if rows.size == 0:
                    continue
            representations = z[rows, t]
            probabilities = policy_choices(self._asdnet, representations,
                                           previous, greedy=False)
            actions = (forced[rows, t] if forced is not None
                       else sample_labels(probabilities, self._rng))
            episode.append(rows, representations, actions, probabilities,
                           previous)
            labels[rows, t] = actions

        if config.use_global_reward:
            sequence_losses = self._rsrnet.sequence_losses(logits, labels, lengths)
            global_values = 1.0 / (1.0 + sequence_losses)
        else:
            global_values = np.zeros(batch)
        if config.use_local_reward and horizon > 1:
            dim = z.shape[2]
            cosines = cosine_similarity_rows(
                z[:, :-1].reshape(-1, dim),
                z[:, 1:].reshape(-1, dim)).reshape(batch, horizon - 1)
            signs = np.where(labels[:, :-1] == labels[:, 1:], 1.0, -1.0)
            pair_mask = np.arange(1, horizon)[None, :] < lengths[:, None]
            pair_counts = lengths - 1
            has_pairs = pair_counts > 0
            local_means = np.zeros(batch)
            local_means[has_pairs] = (
                (cosines * signs * pair_mask).sum(axis=1)[has_pairs]
                / pair_counts[has_pairs])
            returns = np.where(has_pairs, local_means + global_values,
                               global_values)
        else:
            returns = global_values

        self._asdnet.reinforce_update_batch(
            episode, returns,
            use_baseline=None if forced_labels is None else False,
        )
        return labels, returns, cache

    # ------------------------------------------------------- online updates
    def fine_tune(self, new_trajectories: Sequence[MatchedTrajectory],
                  epochs: int = 1, batch_size: Optional[int] = None) -> None:
        """Continue training on newly recorded trajectories (concept drift).

        The new trajectories extend the historical index — the pipeline's
        :class:`~repro.history.RouteHistoryStore` mints a new snapshot
        version, copy-on-write, so the normal-route statistics shift with
        the new traffic — and both networks take additional gradient steps
        on them. Publish the refreshed history to running services via
        :meth:`DetectionService.swap` (or attach the service to an
        :class:`~repro.core.online.OnlineLearner`, which pushes weights and
        history together after every fine-tuning round). ``batch_size``
        overrides the configured batch size for this call only (``None``
        keeps it) — the knob :class:`~repro.core.online.OnlineLearner` uses
        to keep per-part fine-tuning fast without touching how the model
        was trained initially.
        """
        config = self._training_config
        if batch_size is None:
            batch_size = config.batch_size
        elif batch_size < 1:
            raise ModelError("batch_size must be >= 1")
        if not new_trajectories:
            return
        self._historical.extend(new_trajectories)
        self._pipeline.extend_history(new_trajectories)
        items = list(new_trajectories)
        for _ in range(max(1, epochs)):
            for chunk in self._training_chunks(items, batch_size):
                preprocessed = [self._pipeline.preprocess(t) for t in chunk]
                prep = self._prepare_batch(
                    preprocessed,
                    with_degrees=config.use_asdnet and config.use_rnel)
                if config.use_asdnet:
                    labels, returns, cache = self._run_episode_batch(prep)
                    self._report.episode_returns.extend(
                        float(r) for r in returns)
                else:
                    labels = self._pad_labels(
                        [self._training_labels(p) for p in preprocessed],
                        prep.horizon)
                    _, _, cache = self._rsrnet.forward_batch_train(
                        prep.tokens, prep.nrf, prep.lengths)
                losses = self._rsrnet.train_step_batch(labels, cache)
                self._report.joint_losses.extend(float(l) for l in losses)

    # ----------------------------------------------------------------- misc
    @property
    def report(self) -> TrainingReport:
        return self._report

    def model(self) -> RL4OASDModel:
        """The trained model (raises if :meth:`train` has not run yet)."""
        if not self._trained:
            raise NotFittedError("RL4OASD")
        return RL4OASDModel(
            rsrnet=self._rsrnet,
            asdnet=self._asdnet,
            pipeline=self._pipeline,
            training_config=self._training_config,
            report=self._report,
        )
