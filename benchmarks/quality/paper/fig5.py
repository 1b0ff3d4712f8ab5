"""Figure 5 — case study: a trajectory with detours, RL4OASD vs CTSS vs ground truth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.eval.metrics import evaluate_labelings
from repro.experiments.common import ExperimentSettings, prepare_city

from .shared import build_detectors, format_table


@dataclass
class Fig5Case:
    sd_pair: tuple
    ground_truth: List[int]
    predictions: Dict[str, List[int]]
    f1: Dict[str, float]

    def format(self) -> str:
        rows: List[List[object]] = [["Ground truth",
                                     "".join(str(v) for v in self.ground_truth),
                                     1.0]]
        for name, labels in self.predictions.items():
            rows.append([name, "".join(str(v) for v in labels), self.f1[name]])
        return format_table(
            ["Method", "Per-segment labels", "F1"],
            rows,
            title=f"Figure 5 — case study on SD pair {self.sd_pair}",
        )


@dataclass
class Fig5Result:
    cases: List[Fig5Case]

    def format(self) -> str:
        return "\n\n".join(case.format() for case in self.cases)


def run_fig5(settings: Optional[ExperimentSettings] = None,
             city: str = "chengdu", max_cases: int = 3) -> Fig5Result:
    """Reproduce the detour case study: per-trajectory labels of both methods."""
    settings = settings or ExperimentSettings()
    split = prepare_city(city, settings)
    detectors = build_detectors(split, settings, ("CTSS", "RL4OASD"))

    cases: List[Fig5Case] = []
    anomalous = [t for t in split.test if t.is_anomalous]
    for trajectory in anomalous[:max_cases]:
        predictions: Dict[str, List[int]] = {}
        f1: Dict[str, float] = {}
        for name, detector in detectors.items():
            labels = detector.detect(trajectory).labels
            predictions[name] = labels
            report = evaluate_labelings([trajectory.labels], [labels])
            f1[name] = report.f1
        cases.append(Fig5Case(
            sd_pair=trajectory.sd_pair,
            ground_truth=list(trajectory.labels),
            predictions=predictions,
            f1=f1,
        ))
    return Fig5Result(cases=cases)
