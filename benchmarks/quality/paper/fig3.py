"""Figure 3 — overall online detection efficiency (average runtime per point)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import ExperimentSettings, prepare_city

from .shared import DETECTORS, build_detectors, format_table, measure_detector


@dataclass
class Fig3Result:
    per_point_ms: Dict[str, Dict[str, float]]

    def format(self) -> str:
        cities = list(self.per_point_ms)
        headers = ["Method"] + [f"{city} (ms/point)" for city in cities]
        methods = list(self.per_point_ms[cities[0]])
        rows: List[List[object]] = []
        for method in methods:
            rows.append([method] + [self.per_point_ms[city][method]
                                    for city in cities])
        return format_table(headers, rows,
                            title="Figure 3 — average runtime per point")


def run_fig3(
    settings: Optional[ExperimentSettings] = None,
    cities: Sequence[str] = ("chengdu", "xian"),
    max_trajectories: int = 60,
) -> Fig3Result:
    """Measure the per-point latency of every detector on both cities."""
    settings = settings or ExperimentSettings()
    per_point: Dict[str, Dict[str, float]] = {}
    for city in cities:
        split = prepare_city(city, settings)
        built = build_detectors(split, settings, DETECTORS)
        workload = split.test[:max_trajectories]
        per_point[split.dataset.name] = {
            name: measure_detector(detector, workload,
                                   name=name).mean_per_point_ms
            for name, detector in built.items()}
    return Fig3Result(per_point_ms=per_point)
