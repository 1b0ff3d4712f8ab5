"""Table V — preprocessing and training time versus data size.

The paper reports, for 4k–12k raw trajectories: map-matching time, noisy
labeling time, training time and the resulting F1. Here the data sizes are
scaled down (hundreds of trajectories) and the map matcher is the Python HMM
matcher instead of the authors' C++ FMM, but the shape — every stage scales
roughly linearly with the data size and the F1 saturates — is preserved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import DataGenConfig, RoadNetworkConfig
from repro.datagen import TrajectoryGenerator
from repro.experiments.common import (ExperimentSettings, split_dataset,
                                      train_rl4oasd)
from repro.mapmatching import HMMMapMatcher
from repro.roadnet import build_grid_city

from .evaluation import evaluate_detector
from .shared import build_pipeline, format_table


@dataclass
class Table5Row:
    data_size: int
    map_matching_seconds: float
    noisy_labeling_seconds: float
    training_seconds: float
    f1: float


@dataclass
class Table5Result:
    rows: List[Table5Row]

    def format(self) -> str:
        table_rows = [
            [row.data_size, row.map_matching_seconds, row.noisy_labeling_seconds,
             row.training_seconds, row.f1]
            for row in self.rows
        ]
        return format_table(
            ["Data size", "Map matching (s)", "Noisy labeling (s)",
             "Training (s)", "F1-score"],
            table_rows,
            title="Table V — preprocessing and training time",
        )


def run_table5(
    settings: Optional[ExperimentSettings] = None,
    data_sizes: Sequence[int] = (200, 400, 600, 800),
    raw_sample_per_size: int = 40,
) -> Table5Result:
    """Measure preprocessing / training cost as the data size grows.

    ``raw_sample_per_size`` bounds how many raw GPS traces are map-matched per
    size (the per-trajectory cost is what matters; matching every trajectory
    would only multiply the same number).
    """
    settings = settings or ExperimentSettings()
    network = build_grid_city(RoadNetworkConfig(
        grid_rows=14, grid_cols=14, seed=settings.seed))
    rows: List[Table5Row] = []
    for size in data_sizes:
        pairs = max(4, size // 50)
        config = DataGenConfig(
            n_sd_pairs=pairs,
            trajectories_per_pair=max(2, size // pairs),
            anomaly_ratio=0.10,
            n_normal_routes=(1, 2),
            min_route_length=6,
            max_route_length=50,
            seed=settings.seed + size,
        )
        dataset = TrajectoryGenerator(network, config).generate(include_raw=True)

        matcher = HMMMapMatcher(network)
        raw_sample = dataset.raw_trajectories[:raw_sample_per_size]
        started = time.perf_counter()
        matcher.match_many(raw_sample)
        per_trajectory = (time.perf_counter() - started) / max(1, len(raw_sample))
        map_matching_seconds = per_trajectory * len(dataset)

        split = split_dataset(dataset, settings)

        started = time.perf_counter()
        pipeline = build_pipeline(split, settings)
        for trajectory in split.train:  # the labels resolve on first read
            pipeline.preprocess(trajectory).noisy_labels
        noisy_labeling_seconds = time.perf_counter() - started

        started = time.perf_counter()
        model, _ = train_rl4oasd(split, settings)
        training_seconds = time.perf_counter() - started

        run = evaluate_detector(model.detector(), split.test, name="RL4OASD")
        rows.append(Table5Row(
            data_size=size,
            map_matching_seconds=map_matching_seconds,
            noisy_labeling_seconds=noisy_labeling_seconds,
            training_seconds=training_seconds,
            f1=run.overall.f1,
        ))
    return Table5Result(rows=rows)
