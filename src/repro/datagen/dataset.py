"""Dataset container and statistics (the analogue of Table II)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..exceptions import DataGenerationError
from ..roadnet.graph import RoadNetwork
from ..trajectory.models import MatchedTrajectory, RawTrajectory


@dataclass
class DatasetStatistics:
    """Summary statistics of a dataset, mirroring Table II of the paper."""

    name: str
    num_trajectories: int
    num_segments: int
    num_intersections: int
    num_labeled_routes: int
    num_anomalous_routes: int
    num_anomalous_trajectories: int
    anomalous_ratio: float
    sampling_rate_s: Tuple[float, float]

    def rows(self) -> List[Tuple[str, str]]:
        """Rows of the Table II style report."""
        return [
            ("# of trajectories", f"{self.num_trajectories:,}"),
            ("# of segments", f"{self.num_segments:,}"),
            ("# of intersections", f"{self.num_intersections:,}"),
            ("# of labeled routes", f"{self.num_labeled_routes:,}"),
            ("# of anomalous routes", f"{self.num_anomalous_routes:,}"),
            ("Anomalous ratio", f"{self.anomalous_ratio:.1%}"),
            ("Sampling rate",
             f"{self.sampling_rate_s[0]:.0f}s ~ {self.sampling_rate_s[1]:.0f}s"),
        ]


@dataclass
class TrajectoryDataset:
    """A generated dataset: road network + labeled matched trajectories.

    ``trajectories`` carry ground-truth per-segment labels (from the
    generator). ``raw_trajectories`` optionally holds the corresponding noisy
    GPS traces for components that start from raw data (map matching,
    preprocessing-time benchmarks).
    """

    name: str
    network: RoadNetwork
    trajectories: List[MatchedTrajectory]
    raw_trajectories: List[RawTrajectory] = field(default_factory=list)
    sampling_rate_s: Tuple[float, float] = (2.0, 4.0)

    def __post_init__(self) -> None:
        if not self.trajectories:
            raise DataGenerationError("a dataset needs at least one trajectory")

    # ------------------------------------------------------------------ views
    def train_test_split(
        self, train_size: int, seed: int = 0
    ) -> Tuple[List[MatchedTrajectory], List[MatchedTrajectory]]:
        """Random split into ``train_size`` training trajectories and the rest."""
        if train_size < 1 or train_size >= len(self.trajectories):
            raise DataGenerationError(
                "train_size must be in [1, number of trajectories)")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.trajectories))
        train = [self.trajectories[i] for i in order[:train_size]]
        test = [self.trajectories[i] for i in order[train_size:]]
        return train, test

    # ------------------------------------------------------------- statistics
    def statistics(self) -> DatasetStatistics:
        """Dataset statistics in the shape of Table II."""
        routes = {}
        anomalous_routes = set()
        anomalous_count = 0
        for trajectory in self.trajectories:
            key = trajectory.route_key()
            routes[key] = routes.get(key, 0) + 1
            if trajectory.is_anomalous:
                anomalous_count += 1
                anomalous_routes.add(key)
        return DatasetStatistics(
            name=self.name,
            num_trajectories=len(self.trajectories),
            num_segments=self.network.num_segments,
            num_intersections=self.network.num_intersections,
            num_labeled_routes=len(routes),
            num_anomalous_routes=len(anomalous_routes),
            num_anomalous_trajectories=anomalous_count,
            anomalous_ratio=anomalous_count / len(self.trajectories),
            sampling_rate_s=self.sampling_rate_s,
        )

    def __len__(self) -> int:
        return len(self.trajectories)
