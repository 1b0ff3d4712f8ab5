"""Figure 4 — detection scalability (average runtime per trajectory by length group)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import ExperimentSettings, prepare_city

from .evaluation import group_by_length
from .shared import DETECTORS, build_detectors, format_table, measure_detector


@dataclass
class Fig4Result:
    per_trajectory_ms: Dict[str, Dict[str, Dict[str, float]]]

    def format(self) -> str:
        blocks = []
        for city, by_method in self.per_trajectory_ms.items():
            groups = sorted({g for values in by_method.values() for g in values})
            headers = ["Method"] + [f"{g} (ms/traj)" for g in groups]
            rows: List[List[object]] = []
            for method, values in by_method.items():
                rows.append([method] + [values.get(g, float("nan")) for g in groups])
            blocks.append(format_table(
                headers, rows,
                title=f"Figure 4 — runtime per trajectory by length group ({city})"))
        return "\n\n".join(blocks)


def cold_per_trajectory_ms(detector, members, name: str) -> float:
    """Mean latency of one length group's trajectories, each detected from
    an empty prefix-state table (RL4OASD's): the per-trajectory cost the
    paper plots, free of the states earlier trips left behind."""
    states = getattr(detector, "states", None)
    total = 0.0
    for trajectory in members:
        if states is not None:
            states.compact((), states.version)
        total += measure_detector(detector, [trajectory],
                                  name=name).mean_per_trajectory_ms
    return total / len(members)


def run_fig4(
    settings: Optional[ExperimentSettings] = None,
    cities: Sequence[str] = ("chengdu",),
    max_per_group: int = 25,
) -> Fig4Result:
    """Measure per-trajectory latency for every length group."""
    settings = settings or ExperimentSettings()
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for city in cities:
        split = prepare_city(city, settings)
        built = build_detectors(split, settings, DETECTORS)
        groups = {group: members[:max_per_group]
                  for group, members in group_by_length(split.test).items()
                  if members}
        results[split.dataset.name] = {
            name: {group: cold_per_trajectory_ms(detector, members, name)
                   for group, members in groups.items()}
            for name, detector in built.items()}
    return Fig4Result(per_trajectory_ms=results)
