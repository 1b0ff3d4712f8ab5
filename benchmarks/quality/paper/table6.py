"""Table VI — the cold-start problem with insufficient historical trajectories."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import (ExperimentSettings, prepare_city,
                                      train_rl4oasd)

from .evaluation import evaluate_detector
from .shared import format_table


@dataclass
class Table6Result:
    f1_by_drop_rate: Dict[float, float]

    def format(self) -> str:
        headers = ["Drop rate"] + [f"{rate:.1f}" for rate in self.f1_by_drop_rate]
        rows = [["F1-score"] + list(self.f1_by_drop_rate.values())]
        return format_table(headers, rows,
                            title="Table VI — cold-start (dropping historical data)")


def run_table6(
    settings: Optional[ExperimentSettings] = None,
    city: str = "chengdu",
    drop_rates: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8),
) -> Table6Result:
    """Drop a fraction of each SD pair's history and retrain/evaluate."""
    settings = settings or ExperimentSettings()
    base_split = prepare_city(city, settings)
    rng = np.random.default_rng(settings.seed)
    results: Dict[float, float] = {}
    for rate in drop_rates:
        if rate <= 0.0:
            train = list(base_split.train)
        else:
            # Drop `rate` of the historical trajectories per SD pair.
            by_pair: Dict[tuple, List] = {}
            for trajectory in base_split.train:
                by_pair.setdefault(trajectory.sd_pair, []).append(trajectory)
            train = []
            for group in by_pair.values():
                keep = max(1, int(round(len(group) * (1.0 - rate))))
                indices = rng.permutation(len(group))[:keep]
                train.extend(group[i] for i in indices)
        model, _ = train_rl4oasd(replace(base_split, train=train), settings)
        run = evaluate_detector(model.detector(), base_split.test,
                                name="RL4OASD")
        results[rate] = run.overall.f1
    return Table6Result(f1_by_drop_rate=results)
