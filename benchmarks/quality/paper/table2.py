"""Table II — dataset statistics of the two (synthetic) cities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.datagen import DatasetStatistics
from repro.experiments.common import ExperimentSettings, prepare_city

from .shared import format_table


@dataclass
class Table2Result:
    statistics: Dict[str, DatasetStatistics]

    def format(self) -> str:
        cities = list(self.statistics)
        headers = ["Statistic"] + cities
        row_labels = [label for label, _ in self.statistics[cities[0]].rows()]
        rows: List[List[object]] = []
        for index, label in enumerate(row_labels):
            row: List[object] = [label]
            for city in cities:
                row.append(self.statistics[city].rows()[index][1])
            rows.append(row)
        return format_table(headers, rows, title="Table II — dataset statistics")


def run_table2(settings: Optional[ExperimentSettings] = None) -> Table2Result:
    """Generate both city datasets and collect their statistics."""
    settings = settings or ExperimentSettings()
    statistics = {}
    for city in ("chengdu", "xian"):
        split = prepare_city(city, settings)
        statistics[split.dataset.name] = split.dataset.statistics()
    return Table2Result(statistics=statistics)
