"""Figure 6 — detection under varying traffic conditions (concept drift).

Two sub-experiments, following Section V-G:

* vary the number of day partitions ``xi`` and report the average F1 of the
  fine-tuned model (RL4OASD-FT) together with the average per-part training
  time (Figures 6a/6b);
* fix ``xi`` and compare RL4OASD-P1 (trained on Part 1 only) against
  RL4OASD-FT (fine-tuned part by part) on every part (Figures 6c/6d).

Both come from one pass per ``xi``: at ``xi == xi_for_parts`` the frozen
P1 model is a clone of the FT chain's initial fit, so nothing is trained
twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import OnlineLearner
from repro.datagen import DriftSchedule
from repro.experiments.common import (ExperimentSettings, prepare_city,
                                      rl4oasd_trainer, split_by_part)
from repro.serve import clone_model

from .evaluation import evaluate_detector
from .shared import format_table


@dataclass
class DriftPartResult:
    part: int
    f1_p1: float
    f1_ft: float
    fine_tune_seconds: float


@dataclass
class Fig6Result:
    f1_by_xi: Dict[int, float]
    training_time_by_xi: Dict[int, float]
    parts: List[DriftPartResult]
    xi_for_parts: int
    #: ``xi -> why`` for every requested ``xi`` that was not run.
    skipped: Dict[int, str] = field(default_factory=dict)

    def format(self) -> str:
        columns = sorted(set(self.f1_by_xi) | set(self.skipped))
        xi_rows = [["Average F1 (FT)"]
                   + [self.f1_by_xi.get(x, "skipped") for x in columns]]
        time_rows = [["Avg fine-tune time (s)"]
                     + [self.training_time_by_xi.get(x, "skipped")
                        for x in columns]]
        headers = ["xi"] + [str(x) for x in columns]
        block_a = format_table(headers, xi_rows,
                               title="Figure 6a — F1 varying xi")
        for xi, reason in sorted(self.skipped.items()):
            block_a += f"\nxi={xi} skipped: {reason}"
        block_b = format_table(headers, time_rows,
                               title="Figure 6b — training time varying xi")
        part_rows = [[f"Part {p.part + 1}", p.f1_p1, p.f1_ft, p.fine_tune_seconds]
                     for p in self.parts]
        block_c = format_table(
            ["Part", "RL4OASD-P1 F1", "RL4OASD-FT F1", "FT time (s)"],
            part_rows,
            title=f"Figure 6c/6d — per-part comparison (xi={self.xi_for_parts})")
        return "\n\n".join([block_a, block_b, block_c])


def run_fig6(
    settings: Optional[ExperimentSettings] = None,
    city: str = "chengdu",
    xi_values: Sequence[int] = (1, 2, 4, 8),
    xi_for_parts: int = 4,
    fine_tune_epochs: int = 1,
) -> Fig6Result:
    """Run both concept-drift sub-experiments."""
    settings = settings or ExperimentSettings()

    f1_by_xi: Dict[int, float] = {}
    time_by_xi: Dict[int, float] = {}
    parts_result: List[DriftPartResult] = []
    skipped: Dict[int, str] = {}

    for xi in xi_values:
        drift = DriftSchedule(n_parts=max(2, xi), rotation_per_part=1,
                              drifting_pair_fraction=0.6)
        split = prepare_city(city, settings, drift=drift)
        train_parts, test_parts = split_by_part(split, xi)
        empty = [part + 1 for part, trips in enumerate(train_parts)
                 if not trips]
        if empty:
            # Nothing to fine-tune on in those parts: say so in the table
            # instead of dropping the column.
            skipped[xi] = (f"no training trajectory starts in part(s) "
                           f"{', '.join(map(str, empty))} of {xi} "
                           f"({len(split.train)} training trajectories)")
            continue
        trainer = rl4oasd_trainer(replace(split, train=train_parts[0]),
                                  settings)
        learner = OnlineLearner(trainer, fine_tune_epochs=fine_tune_epochs)
        learner.initial_fit()
        frozen = (clone_model(learner.model).detector()
                  if xi == xi_for_parts else None)

        f1_scores: List[float] = []
        times: List[float] = []
        for part in range(xi):
            seconds = 0.0
            if part > 0:
                seconds = learner.observe_part(part, train_parts[part]).seconds
                times.append(seconds)
            if not test_parts[part]:
                continue
            f1_ft = evaluate_detector(learner.detector(), test_parts[part],
                                      name="RL4OASD-FT").overall.f1
            f1_scores.append(f1_ft)
            if frozen is not None:
                f1_p1 = evaluate_detector(frozen, test_parts[part],
                                          name="RL4OASD-P1").overall.f1
                parts_result.append(DriftPartResult(
                    part=part, f1_p1=f1_p1, f1_ft=f1_ft,
                    fine_tune_seconds=seconds))
        f1_by_xi[xi] = float(np.mean(f1_scores)) if f1_scores else float("nan")
        time_by_xi[xi] = float(np.mean(times)) if times else 0.0

    return Fig6Result(f1_by_xi=f1_by_xi, training_time_by_xi=time_by_xi,
                      parts=parts_result, xi_for_parts=xi_for_parts,
                      skipped=skipped)
