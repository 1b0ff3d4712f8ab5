"""Table III — effectiveness comparison with the existing baselines.

For each city the harness trains RL4OASD, builds and tunes every baseline on
the development set, and reports F1 / TF1 per trajectory-length group (G1–G4)
and overall — the same layout as Table III of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import ExperimentSettings, prepare_city

from .evaluation import EvaluationRun, evaluate_detector
from .shared import (DETECTORS, build_detectors, format_table,
                     warm_start_agreement)


@dataclass
class Table3Result:
    runs: Dict[str, Dict[str, EvaluationRun]]
    #: Per city, the share of RL4OASD's test labels equal to its warm start.
    warm_start_agreement: Dict[str, float]

    def format(self) -> str:
        blocks = []
        for city, runs in self.runs.items():
            groups = sorted({g for run in runs.values() for g in run.by_group})
            headers = ["Method"] + [f"{g} F1" for g in groups] + [
                f"{g} TF1" for g in groups] + ["Overall F1", "Overall TF1",
                                               "Warm-start agreement"]
            rows: List[List[object]] = []
            for name, run in runs.items():
                row: List[object] = [name]
                row += [run.by_group[g].f1 if g in run.by_group else float("nan")
                        for g in groups]
                row += [run.by_group[g].t_f1 if g in run.by_group else float("nan")
                        for g in groups]
                row += [run.overall.f1, run.overall.t_f1,
                        self.warm_start_agreement[city]
                        if name == "RL4OASD" else "-"]
                rows.append(row)
            blocks.append(format_table(
                headers, rows,
                title=f"Table III — effectiveness on {city}"))
        return "\n\n".join(blocks)

    def best_baseline_f1(self, city: str) -> float:
        return max(run.overall.f1 for name, run in self.runs[city].items()
                   if name != "RL4OASD")

    def rl4oasd_f1(self, city: str) -> float:
        return self.runs[city]["RL4OASD"].overall.f1


def run_table3(
    settings: Optional[ExperimentSettings] = None,
    cities: Sequence[str] = ("chengdu", "xian"),
) -> Table3Result:
    """Run the full effectiveness comparison."""
    settings = settings or ExperimentSettings()
    runs: Dict[str, Dict[str, EvaluationRun]] = {}
    agreement: Dict[str, float] = {}
    for city in cities:
        split = prepare_city(city, settings)
        built = build_detectors(split, settings, DETECTORS)
        runs[split.dataset.name] = {
            name: evaluate_detector(detector, split.test, name=name)
            for name, detector in built.items()}
        agreement[split.dataset.name] = warm_start_agreement(
            built["RL4OASD"], split.test)
    return Table3Result(runs=runs, warm_start_agreement=agreement)
