"""Figure 7 — concept-drift case study.

A drifting SD pair swaps its popular and unpopular routes between two parts of
the day. A model frozen after Part 1 (RL4OASD-P1) keeps flagging the newly
popular route as a detour (a false positive), while the fine-tuned model
(RL4OASD-FT) adapts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.core import OnlineLearner
from repro.datagen import DriftSchedule
from repro.eval.metrics import evaluate_labelings
from repro.experiments.common import (ExperimentSettings, prepare_city,
                                      rl4oasd_trainer, split_by_part)
from repro.serve import clone_model

from .shared import format_table


@dataclass
class Fig7Case:
    part: int
    sd_pair: tuple
    ground_truth: List[int]
    p1_labels: List[int]
    ft_labels: List[int]
    p1_f1: float
    ft_f1: float


@dataclass
class Fig7Result:
    cases: List[Fig7Case]

    def format(self) -> str:
        rows: List[List[object]] = []
        for case in self.cases:
            # Without a ground-truth span F1 is undefined (recall is 0/0).
            scored = any(case.ground_truth)
            rows.append([
                f"Part {case.part + 1}", str(case.sd_pair),
                "".join(map(str, case.ground_truth)),
                "".join(map(str, case.p1_labels)),
                case.p1_f1 if scored else "n/a",
                "".join(map(str, case.ft_labels)),
                case.ft_f1 if scored else "n/a",
            ])
        return format_table(
            ["Part", "SD pair", "Ground truth", "P1 labels", "P1 F1",
             "FT labels", "FT F1"],
            rows,
            title="Figure 7 — concept-drift case study",
        )


def run_fig7(settings: Optional[ExperimentSettings] = None,
             city: str = "chengdu", n_parts: int = 2,
             max_cases_per_part: int = 2) -> Fig7Result:
    """Compare the frozen and fine-tuned models on drifting SD pairs."""
    settings = settings or ExperimentSettings()
    drift = DriftSchedule(n_parts=n_parts, rotation_per_part=1,
                          drifting_pair_fraction=1.0)
    split = prepare_city(city, settings, drift=drift)
    train_parts, test_parts = split_by_part(split, n_parts)

    learner = OnlineLearner(
        rl4oasd_trainer(replace(split, train=train_parts[0]), settings))
    learner.initial_fit()
    # RL4OASD-P1 is the learner's Part-1 model, frozen before fine-tuning.
    frozen_detector = clone_model(learner.model).detector()

    cases: List[Fig7Case] = []
    for part in range(n_parts):
        if part > 0:
            learner.observe_part(part, train_parts[part])
        ft_detector = learner.detector()
        candidates = [t for t in test_parts[part]]
        # Prefer trajectories where the two models actually disagree — those
        # are the interesting drift cases the paper's figure shows.
        scored = []
        for trajectory in candidates:
            p1_labels = frozen_detector.detect(trajectory).labels
            ft_labels = ft_detector.detect(trajectory).labels
            disagreement = sum(1 for a, b in zip(p1_labels, ft_labels) if a != b)
            scored.append((disagreement, trajectory, p1_labels, ft_labels))
        scored.sort(key=lambda item: -item[0])
        for disagreement, trajectory, p1_labels, ft_labels in scored[:max_cases_per_part]:
            p1_report = evaluate_labelings([trajectory.labels], [p1_labels])
            ft_report = evaluate_labelings([trajectory.labels], [ft_labels])
            cases.append(Fig7Case(
                part=part,
                sd_pair=trajectory.sd_pair,
                ground_truth=list(trajectory.labels),
                p1_labels=p1_labels,
                ft_labels=ft_labels,
                p1_f1=p1_report.f1,
                ft_f1=ft_report.f1,
            ))
    return Fig7Result(cases=cases)
