"""The trajectory generator: turns a road network into a labeled dataset."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import DataGenConfig
from ..exceptions import DataGenerationError
from ..roadnet.graph import RoadNetwork
from ..trajectory.models import GPSPoint, MatchedTrajectory, RawTrajectory
from .city import sample_sd_pairs
from .dataset import TrajectoryDataset
from .routes import PlannedPair, RoutePlanner, inject_detour
from .traffic import DriftSchedule, TrafficModel, SECONDS_PER_DAY


def sample_gps_trace(
    network: RoadNetwork,
    route: Sequence[int],
    start_time_s: float,
    rng: np.random.Generator,
    traffic: Optional[TrafficModel] = None,
    sampling_period_s: Tuple[float, float] = (2.0, 4.0),
    gps_noise_m: float = 8.0,
    trajectory_id: int = 0,
) -> RawTrajectory:
    """Simulate the GPS trace of a vehicle driving ``route``.

    The vehicle moves along each segment at the traffic-adjusted speed; a fix
    is emitted every 2–4 seconds (uniform in ``sampling_period_s``) with
    isotropic Gaussian position noise of ``gps_noise_m`` metres.
    """
    traffic = traffic or TrafficModel()
    if not route:
        raise DataGenerationError("route must not be empty")

    points: List[GPSPoint] = []
    elapsed = 0.0
    next_sample = 0.0

    def emit(x: float, y: float, t: float) -> None:
        noisy_x = x + rng.normal(0.0, gps_noise_m)
        noisy_y = y + rng.normal(0.0, gps_noise_m)
        points.append(GPSPoint(noisy_x, noisy_y, t))

    for segment_id in route:
        segment = network.segment(segment_id)
        speed = traffic.effective_speed(segment.speed_limit_mps,
                                        start_time_s + elapsed)
        duration = segment.length_m / speed
        segment_start_elapsed = elapsed
        while next_sample <= segment_start_elapsed + duration:
            fraction = (next_sample - segment_start_elapsed) / duration if duration > 0 else 0.0
            fraction = min(1.0, max(0.0, fraction))
            x, y = network.point_along_segment(segment_id, fraction)
            emit(x, y, next_sample)
            next_sample += float(rng.uniform(*sampling_period_s))
        elapsed = segment_start_elapsed + duration

    # Always include a final position well inside the last segment so the
    # destination segment is observable (emitting exactly at the end node
    # would be ambiguous between the last segment and its successors).
    end_x, end_y = network.point_along_segment(route[-1], 0.9)
    emit(end_x, end_y, elapsed)
    return RawTrajectory(trajectory_id=trajectory_id, points=points,
                         start_time_s=start_time_s)


class TrajectoryGenerator:
    """Generates labeled datasets of matched (and optionally raw) trajectories.

    For every SD pair the generator plans a handful of normal routes with
    geometric popularity weights. Each generated trajectory either follows one
    of the normal routes (label all-zero) or — with probability
    ``anomaly_ratio`` — follows a normal route with one or two injected
    detours whose segments are labeled 1.

    Concept drift is produced by rotating route popularity across parts of the
    day according to a :class:`DriftSchedule`.
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: Optional[DataGenConfig] = None,
        traffic: Optional[TrafficModel] = None,
        drift: Optional[DriftSchedule] = None,
    ):
        self._network = network
        self._config = (config or DataGenConfig()).validate()
        self._traffic = traffic or TrafficModel()
        self._drift = drift or DriftSchedule()
        self._rng = np.random.default_rng(self._config.seed)

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def config(self) -> DataGenConfig:
        return self._config

    # ----------------------------------------------------------- generation
    def generate(
        self,
        name: str = "synthetic",
        include_raw: bool = False,
    ) -> TrajectoryDataset:
        """Generate a full dataset."""
        config = self._config
        rng = self._rng
        planner = RoutePlanner(self._network, rng)

        pairs = sample_sd_pairs(
            self._network,
            config.n_sd_pairs,
            rng,
            min_route_length=config.min_route_length,
            max_route_length=config.max_route_length,
        )

        planned: List[PlannedPair] = []
        drifting: List[bool] = []
        for source, destination in pairs:
            planned.append(planner.plan_pair(
                source, destination, n_routes_range=config.n_normal_routes))
            drifting.append(bool(rng.random() < self._drift.drifting_pair_fraction))

        trajectories: List[MatchedTrajectory] = []
        raw_trajectories: List[RawTrajectory] = []
        next_id = 0
        for pair, pair_drifts in zip(planned, drifting):
            for _ in range(config.trajectories_per_pair):
                start_time = float(rng.uniform(0.0, SECONDS_PER_DAY))
                part = self._drift.part_of(start_time)
                weights = self._drift.route_weights(
                    pair.base_weights, part, pair_drifts)
                route_index = int(rng.choice(len(pair.normal_routes), p=weights))
                route = list(pair.normal_routes[route_index])
                labels = [0] * len(route)

                if rng.random() < config.anomaly_ratio:
                    detoured = self._apply_detours(route, rng)
                    if detoured is not None:
                        route, labels = detoured

                trajectory = MatchedTrajectory(
                    trajectory_id=next_id,
                    segments=route,
                    start_time_s=start_time,
                    labels=labels,
                )
                trajectories.append(trajectory)
                if include_raw:
                    raw_trajectories.append(sample_gps_trace(
                        self._network, route, start_time, rng,
                        traffic=self._traffic,
                        sampling_period_s=config.sampling_period_s,
                        gps_noise_m=config.gps_noise_m,
                        trajectory_id=next_id,
                    ))
                next_id += 1

        return TrajectoryDataset(
            name=name,
            network=self._network,
            trajectories=trajectories,
            raw_trajectories=raw_trajectories,
            sampling_rate_s=config.sampling_period_s,
        )

    # ------------------------------------------------------------- internals
    def _apply_detours(
        self, route: List[int], rng: np.random.Generator
    ) -> Optional[Tuple[List[int], List[int]]]:
        """Inject one or more detours into a normal route."""
        config = self._config
        n_detours = int(rng.integers(1, config.max_detours_per_trajectory + 1))
        current_route = list(route)
        current_labels = [0] * len(current_route)
        applied = 0
        for _ in range(n_detours):
            result = inject_detour(
                self._network, current_route, rng,
                detour_length_range=config.detour_length_range,
            )
            if result is None:
                break
            detoured_route, detour_labels = result
            # Merge: keep 1s from previous rounds by re-projecting old labels.
            merged_labels = self._merge_labels(
                current_route, current_labels, detoured_route, detour_labels)
            current_route, current_labels = detoured_route, merged_labels
            applied += 1
        if applied == 0:
            return None
        return current_route, current_labels

    @staticmethod
    def _merge_labels(
        old_route: List[int],
        old_labels: List[int],
        new_route: List[int],
        new_labels: List[int],
    ) -> List[int]:
        """Carry anomalous labels of a previous detour over to the new route.

        Segments of the new route that were already labeled anomalous keep the
        label; freshly injected segments keep theirs from ``new_labels``.
        """
        previously_anomalous = {
            segment for segment, label in zip(old_route, old_labels) if label == 1
        }
        merged = []
        for segment, label in zip(new_route, new_labels):
            if label == 1 or segment in previously_anomalous:
                merged.append(1)
            else:
                merged.append(0)
        return merged
