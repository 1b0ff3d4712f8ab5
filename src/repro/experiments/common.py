"""Cities, splits and trainers at the paper's scaled-down settings.

The paper harnesses under ``benchmarks/quality/paper/`` build on these, and
so do the CLI's ``serve`` / ``replay`` / ``soak`` commands and the perf
fixture. The settings are the scaled-down analogue of the paper's setup: the
same architecture and thresholds relative to the data, but smaller networks
and training schedules so every experiment runs in seconds-to-minutes on a
laptop instead of hours on a GPU server. The ``alpha``/``delta`` values are
tuned for the synthetic datasets by the parameter study
(``benchmarks/quality/paper/param_study.py``), exactly as the paper tunes
them for DiDi data (their best values were 0.5 / 0.4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..config import (
    ASDNetConfig,
    LabelingConfig,
    RSRNetConfig,
    TrainingConfig,
)
from ..core import RL4OASDModel, RL4OASDTrainer
from ..datagen import DriftSchedule, TrajectoryDataset, chengdu_like, xian_like
from ..exceptions import ReproError
from ..trajectory.models import MatchedTrajectory


@dataclass
class ExperimentSettings:
    """Knobs shared by all experiments.

    ``batch_size`` defaults to 4: the experiment harnesses train whole
    grids of models (one per city, ablation row or parameter setting), so
    they train four trajectories per step by default — the numerics are the
    standard minibatch variant, several times faster at identical
    architecture. Larger batches take fewer optimizer steps over the same
    scaled-down schedules; 4 is the value at which every reproduced quality
    floor (table 3, figure 6, the ablations and parameter studies) still
    holds. Set ``batch_size=1`` for Algorithm 2 as the paper reads, one
    trajectory per step.
    """

    scale: float = 0.35
    seed: int = 7
    dev_size: int = 100
    alpha: float = 0.35
    delta: float = 0.25
    embedding_dim: int = 64
    hidden_dim: int = 64
    nrf_dim: int = 32
    label_embedding_dim: int = 32
    asdnet_learning_rate: float = 0.01
    pretrain_trajectories: int = 200
    pretrain_epochs: int = 6
    joint_trajectories: int = 300
    joint_epochs: int = 2
    batch_size: int = 4
    validation_interval: int = 50

    def labeling_config(self, **overrides) -> LabelingConfig:
        base = LabelingConfig(alpha=self.alpha, delta=self.delta)
        return replace(base, **overrides) if overrides else base

    def rsrnet_config(self) -> RSRNetConfig:
        return RSRNetConfig(embedding_dim=self.embedding_dim,
                            hidden_dim=self.hidden_dim,
                            nrf_dim=self.nrf_dim,
                            seed=self.seed + 1)

    def asdnet_config(self) -> ASDNetConfig:
        return ASDNetConfig(label_embedding_dim=self.label_embedding_dim,
                            learning_rate=self.asdnet_learning_rate,
                            seed=self.seed + 2)

    def training_config(self, **overrides) -> TrainingConfig:
        base = TrainingConfig(
            pretrain_trajectories=self.pretrain_trajectories,
            pretrain_epochs=self.pretrain_epochs,
            joint_trajectories=self.joint_trajectories,
            joint_epochs=self.joint_epochs,
            batch_size=self.batch_size,
            validation_interval=self.validation_interval,
            seed=self.seed + 3,
        )
        return replace(base, **overrides) if overrides else base


@dataclass
class CitySplit:
    """A generated city dataset split into train / development / test sets."""

    dataset: TrajectoryDataset
    train: List[MatchedTrajectory]
    development: List[MatchedTrajectory]
    test: List[MatchedTrajectory]

    @property
    def name(self) -> str:
        return self.dataset.name


def prepare_city(
    city: str = "chengdu",
    settings: Optional[ExperimentSettings] = None,
    drift: Optional[DriftSchedule] = None,
    include_raw: bool = False,
) -> CitySplit:
    """Generate a city dataset and split it into train / dev / test."""
    settings = settings or ExperimentSettings()
    if city.lower().startswith("chengdu"):
        dataset = chengdu_like(scale=settings.scale, seed=100 + settings.seed,
                               include_raw=include_raw, drift=drift)
    elif city.lower().startswith("xian") or city.lower().startswith("xi'an"):
        dataset = xian_like(scale=settings.scale, seed=200 + settings.seed,
                            include_raw=include_raw, drift=drift)
    else:
        raise ReproError(f"unknown city {city!r}; use 'chengdu' or 'xian'")
    return split_dataset(dataset, settings)


def split_dataset(dataset: TrajectoryDataset,
                  settings: ExperimentSettings) -> CitySplit:
    """Split a dataset 75 / 25 into train and the rest; the rest's first
    ``settings.dev_size`` trips are the development set (half of it when
    that would leave no test trip)."""
    train_size = int(len(dataset) * 0.75)
    train, rest = dataset.train_test_split(train_size=train_size,
                                           seed=settings.seed)
    development = rest[: settings.dev_size]
    test = rest[settings.dev_size:]
    if not test:
        development = rest[: len(rest) // 2]
        test = rest[len(rest) // 2:]
    return CitySplit(dataset=dataset, train=train,
                     development=development, test=test)


def rl4oasd_trainer(
    split: CitySplit,
    settings: Optional[ExperimentSettings] = None,
    training_overrides: Optional[dict] = None,
    labeling_overrides: Optional[dict] = None,
    pretrained_embeddings: Optional[np.ndarray] = None,
) -> RL4OASDTrainer:
    """An untrained RL4OASD trainer over ``split.train`` with the experiment
    settings (hand it to an :class:`~repro.core.OnlineLearner`, or see
    :func:`train_rl4oasd`)."""
    settings = settings or ExperimentSettings()
    return RL4OASDTrainer(
        network=split.dataset.network,
        historical=split.train,
        labeling_config=settings.labeling_config(**(labeling_overrides or {})),
        rsrnet_config=settings.rsrnet_config(),
        asdnet_config=settings.asdnet_config(),
        training_config=settings.training_config(**(training_overrides or {})),
        pretrained_embeddings=pretrained_embeddings,
        development_set=split.development,
    )


def train_rl4oasd(
    split: CitySplit,
    settings: Optional[ExperimentSettings] = None,
    training_overrides: Optional[dict] = None,
    labeling_overrides: Optional[dict] = None,
    pretrained_embeddings: Optional[np.ndarray] = None,
) -> Tuple[RL4OASDModel, RL4OASDTrainer]:
    """Train RL4OASD on a city split with the experiment settings."""
    trainer = rl4oasd_trainer(split, settings, training_overrides,
                              labeling_overrides, pretrained_embeddings)
    model = trainer.train()
    return model, trainer


def split_by_part(split: CitySplit, n_parts: int
                  ) -> Tuple[List[List[MatchedTrajectory]],
                             List[List[MatchedTrajectory]]]:
    """Partition a split's trajectories by the part of day they start in.

    Trajectories land in part ``floor((start_time_s % 86400) / (86400 /
    n_parts))``. Returns ``(train_parts, test_parts)`` with the
    development set folded into the test side.
    """
    if n_parts < 1:
        raise ReproError("n_parts must be >= 1")

    def part_of(trajectory: MatchedTrajectory) -> int:
        return min(int((trajectory.start_time_s % 86400)
                       / (86400 / n_parts)), n_parts - 1)

    train_parts: List[List[MatchedTrajectory]] = [[] for _ in range(n_parts)]
    test_parts: List[List[MatchedTrajectory]] = [[] for _ in range(n_parts)]
    for trajectory in split.train:
        train_parts[part_of(trajectory)].append(trajectory)
    for trajectory in split.test + split.development:
        test_parts[part_of(trajectory)].append(trajectory)
    return train_parts, test_parts
