"""Shared plumbing of the experiment harnesses.

The settings below are the scaled-down analogue of the paper's setup: the same
architecture and thresholds relative to the data, but smaller networks and
training schedules so every experiment runs in seconds-to-minutes on a laptop
instead of hours on a GPU server. The ``alpha``/``delta`` values are tuned for
the synthetic datasets by the parameter study (:mod:`.param_study`), exactly
as the paper tunes them for DiDi data (their best values were 0.5 / 0.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

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
from ..labeling import PreprocessingPipeline
from ..trajectory.models import MatchedTrajectory
from ..baselines import (
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
from ..baselines.vsae import AutoencoderConfig, train_autoencoder


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
    autoencoder_epochs: int = 1
    autoencoder_max_trajectories: int = 300

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


def build_pipeline(split: CitySplit,
                   settings: Optional[ExperimentSettings] = None,
                   **labeling_overrides) -> PreprocessingPipeline:
    """The preprocessing pipeline over a split's training history."""
    settings = settings or ExperimentSettings()
    return PreprocessingPipeline(
        split.dataset.network, split.train,
        settings.labeling_config(**labeling_overrides))


def train_rl4oasd(
    split: CitySplit,
    settings: Optional[ExperimentSettings] = None,
    training_overrides: Optional[dict] = None,
    labeling_overrides: Optional[dict] = None,
    pretrained_embeddings: Optional[np.ndarray] = None,
) -> Tuple[RL4OASDModel, RL4OASDTrainer]:
    """Train RL4OASD on a city split with the experiment settings."""
    settings = settings or ExperimentSettings()
    trainer = RL4OASDTrainer(
        network=split.dataset.network,
        historical=split.train,
        labeling_config=settings.labeling_config(**(labeling_overrides or {})),
        rsrnet_config=settings.rsrnet_config(),
        asdnet_config=settings.asdnet_config(),
        training_config=settings.training_config(**(training_overrides or {})),
        pretrained_embeddings=pretrained_embeddings,
        development_set=split.development,
    )
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


def part_trainer(split: CitySplit, train_part: List[MatchedTrajectory],
                 settings: ExperimentSettings) -> RL4OASDTrainer:
    """An RL4OASD trainer whose history is one part of the day."""
    return RL4OASDTrainer(
        network=split.dataset.network,
        historical=train_part,
        labeling_config=settings.labeling_config(),
        rsrnet_config=settings.rsrnet_config(),
        asdnet_config=settings.asdnet_config(),
        training_config=settings.training_config(
            pretrain_trajectories=min(settings.pretrain_trajectories,
                                      len(train_part)),
            joint_trajectories=min(settings.joint_trajectories,
                                   len(train_part)),
        ),
        development_set=split.development,
    )


def build_baselines(
    split: CitySplit,
    pipeline: PreprocessingPipeline,
    settings: Optional[ExperimentSettings] = None,
    include: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Build and tune every baseline detector of Table III.

    Returns a mapping from the paper's baseline names to detectors exposing
    ``detect(trajectory)``. ``include`` restricts the set (useful for the
    timing figures where only a subset matters).
    """
    settings = settings or ExperimentSettings()
    wanted = set(include) if include else None

    def _wanted(name: str) -> bool:
        return wanted is None or name in wanted

    detectors: Dict[str, object] = {}
    if _wanted("IBOAT"):
        detectors["IBOAT"] = IBOATDetector(pipeline)
    if _wanted("DBTOD"):
        detectors["DBTOD"] = ThresholdedDetector(
            DBTODScorer(split.dataset.network, split.train)).tune(split.development)
    if _wanted("CTSS"):
        detectors["CTSS"] = ThresholdedDetector(
            CTSSScorer(pipeline)).tune(split.development)

    autoencoder_names = {"GM-VSAE", "SD-VSAE", "SAE", "VSAE"}
    if wanted is None or (wanted & autoencoder_names):
        autoencoder = train_autoencoder(
            pipeline.vocabulary, split.train,
            AutoencoderConfig(epochs=settings.autoencoder_epochs,
                              seed=settings.seed + 11),
            max_trajectories=settings.autoencoder_max_trajectories,
        )
        scorers = {
            "GM-VSAE": GMVSAEScorer(autoencoder, pipeline.vocabulary),
            "SD-VSAE": SDVSAEScorer(autoencoder, pipeline.vocabulary),
            "SAE": SAEScorer(autoencoder, pipeline.vocabulary),
            "VSAE": VSAEScorer(autoencoder, pipeline.vocabulary),
        }
        for name, scorer in scorers.items():
            if _wanted(name):
                detectors[name] = ThresholdedDetector(scorer).tune(split.development)
    if _wanted("TransitionFrequency"):
        detectors["TransitionFrequency"] = ThresholdedDetector(
            TransitionFrequencyScorer(pipeline)).tune(split.development)
    return detectors


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
