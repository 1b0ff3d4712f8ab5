"""Shared fixtures of the test suite.

Heavier artefacts (the tiny dataset, a preprocessing pipeline, a trained
model) are session-scoped so the suite stays fast; tests must not mutate them.

The paper harnesses are not part of the library: they live in the
``paper`` package beside their driver in ``benchmarks/quality/``, which is
put on the import path here so the tests that cover them import it as
``paper``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    ASDNetConfig,
    LabelingConfig,
    RoadNetworkConfig,
    RSRNetConfig,
    TrainingConfig,
)
from repro.core import RL4OASDTrainer
from repro.datagen import tiny_dataset
from repro.labeling import PreprocessingPipeline
from repro.roadnet import RoadNetwork, build_grid_city

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks" / "quality"))


@pytest.fixture(scope="session")
def grid_network() -> RoadNetwork:
    """A small but realistic grid city used across the suite."""
    return build_grid_city(RoadNetworkConfig(grid_rows=8, grid_cols=8, seed=1))


@pytest.fixture
def line_network() -> RoadNetwork:
    """A hand-built 4-node line network: n0 -> n1 -> n2 -> n3 plus a bypass.

    Segment ids::

        0: n0->n1   1: n1->n2   2: n2->n3
        3: n1->n4   4: n4->n2      (the bypass / possible detour)
    """
    network = RoadNetwork()
    coordinates = {0: (0, 0), 1: (100, 0), 2: (200, 0), 3: (300, 0), 4: (150, 120)}
    for node_id, (x, y) in coordinates.items():
        network.add_intersection(node_id, float(x), float(y))
    network.add_segment(0, 0, 1)
    network.add_segment(1, 1, 2)
    network.add_segment(2, 2, 3)
    network.add_segment(3, 1, 4)
    network.add_segment(4, 4, 2)
    return network


@pytest.fixture(scope="session")
def dataset():
    """The tiny synthetic dataset (240 trajectories, ground-truth labels)."""
    return tiny_dataset(seed=3)


@pytest.fixture(scope="session")
def dataset_split(dataset):
    train, rest = dataset.train_test_split(train_size=180, seed=0)
    development, test = rest[:30], rest[30:]
    return train, development, test


@pytest.fixture(scope="session")
def pipeline(dataset, dataset_split):
    train, _, _ = dataset_split
    return PreprocessingPipeline(
        dataset.network, train, LabelingConfig(alpha=0.35, delta=0.25))


@pytest.fixture(scope="session")
def trained_model(dataset, dataset_split):
    """A quickly trained RL4OASD model shared by the heavier tests."""
    train, development, _ = dataset_split
    trainer = RL4OASDTrainer(
        dataset.network, train,
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
        rsrnet_config=RSRNetConfig(embedding_dim=24, hidden_dim=24, nrf_dim=12,
                                   seed=5),
        asdnet_config=ASDNetConfig(label_embedding_dim=12, learning_rate=0.01,
                                   seed=6),
        training_config=TrainingConfig(
            pretrain_trajectories=120, pretrain_epochs=5,
            joint_trajectories=60, joint_epochs=1, validation_interval=30,
            seed=7),
        development_set=development,
    )
    model = trainer.train()
    return model


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
