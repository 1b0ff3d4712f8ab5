"""Tests of the synthetic dataset generator (the DiDi-data substitute)."""

import numpy as np
import pytest

from repro.config import DataGenConfig, RoadNetworkConfig
from repro.datagen import (
    DriftSchedule,
    TrafficModel,
    TrajectoryGenerator,
    chengdu_like,
    inject_detour,
    sample_gps_trace,
    sample_sd_pairs,
    tiny_dataset,
    xian_like,
)
from repro.datagen.routes import RoutePlanner
from repro.exceptions import DataGenerationError
from repro.roadnet import build_grid_city, dijkstra_route


# ----------------------------------------------------------------- traffic
def test_traffic_model_rush_hour_slower():
    traffic = TrafficModel()
    rush = traffic.effective_speed(15.0, 8 * 3600.0)
    night = traffic.effective_speed(15.0, 3 * 3600.0)
    assert rush < night


def test_traffic_model_validates_profile():
    with pytest.raises(DataGenerationError):
        TrafficModel(hourly_speed_factor=[1.0] * 10)


def test_drift_schedule_parts_and_rotation():
    schedule = DriftSchedule(n_parts=4, rotation_per_part=1)
    assert schedule.part_of(0.0) == 0
    assert schedule.part_of(23 * 3600.0) == 3
    assert schedule.part_of(6 * 3600.0) == 1
    weights = [0.55, 0.45]
    assert schedule.route_weights(weights, 0) == [0.55, 0.45]
    assert schedule.route_weights(weights, 1) == [0.45, 0.55]
    assert schedule.route_weights(weights, 2) == [0.55, 0.45]
    assert schedule.route_weights(weights, 1, pair_drifts=False) == [0.55, 0.45]


def test_drift_schedule_validation():
    with pytest.raises(DataGenerationError):
        DriftSchedule(n_parts=0)
    with pytest.raises(DataGenerationError):
        DriftSchedule(drifting_pair_fraction=2.0)


# ----------------------------------------------------------------- SD pairs
def test_sample_sd_pairs_respects_length_bounds(grid_network, rng):
    pairs = sample_sd_pairs(grid_network, 5, rng, min_route_length=5,
                            max_route_length=20)
    assert len(pairs) == 5
    for source, destination in pairs:
        route = dijkstra_route(grid_network, source, destination)
        assert 5 <= len(route) <= 20


def test_sample_sd_pairs_unsatisfiable(grid_network, rng):
    with pytest.raises(DataGenerationError):
        sample_sd_pairs(grid_network, 3, rng, min_route_length=500,
                        max_route_length=600, max_attempts_per_pair=5)


# ------------------------------------------------------------------- routes
def test_route_planner_weight_profiles(grid_network, rng):
    planner = RoutePlanner(grid_network, rng)
    pairs = sample_sd_pairs(grid_network, 3, rng, min_route_length=6,
                            max_route_length=25)
    for source, destination in pairs:
        planned = planner.plan_pair(source, destination, n_routes_range=(2, 2))
        assert len(planned.normal_routes) <= 2
        assert sum(planned.base_weights) == pytest.approx(1.0)
        for route in planned.normal_routes:
            assert route[0] == source and route[-1] == destination


def test_inject_detour_labels_only_new_segments(grid_network, rng):
    planner = RoutePlanner(grid_network, rng)
    source, destination = sample_sd_pairs(grid_network, 1, rng,
                                          min_route_length=10,
                                          max_route_length=30)[0]
    base = planner.plan_pair(source, destination).normal_routes[0]
    result = inject_detour(grid_network, base, rng, detour_length_range=(2, 8))
    assert result is not None
    detoured, labels = result
    assert len(detoured) == len(labels)
    assert grid_network.is_route_connected(detoured)
    original = set(base)
    for segment, label in zip(detoured, labels):
        if label == 1:
            assert segment not in original
    assert labels[0] == 0 and labels[-1] == 0
    assert sum(labels) >= 2


def test_inject_detour_too_short_returns_none(grid_network, rng):
    assert inject_detour(grid_network, [0, 1, 2], rng) is None


# ---------------------------------------------------------------- generator
def test_generator_dataset_consistency():
    dataset = tiny_dataset(seed=11)
    assert len(dataset) == len(dataset.trajectories)
    for trajectory in dataset.trajectories:
        assert trajectory.labels is not None
        assert len(trajectory.labels) == len(trajectory)
        assert dataset.network.is_route_connected(trajectory.segments)
        # Source and destination are never anomalous.
        assert trajectory.labels[0] == 0
        assert trajectory.labels[-1] == 0


def test_generator_anomaly_ratio_in_expected_range():
    dataset = tiny_dataset(seed=11)
    stats = dataset.statistics()
    assert 0.02 < stats.anomalous_ratio < 0.35
    assert stats.num_anomalous_routes <= stats.num_labeled_routes


def test_generator_is_deterministic():
    a = tiny_dataset(seed=21)
    b = tiny_dataset(seed=21)
    assert [t.route_key() for t in a.trajectories] == [t.route_key() for t in b.trajectories]


def test_sample_gps_trace_covers_route(grid_network, rng):
    route = dijkstra_route(grid_network, grid_network.segment_ids()[0],
                           grid_network.segment_ids()[50])
    raw = sample_gps_trace(grid_network, route, 0.0, rng)
    assert len(raw) >= len(route) // 2
    assert raw.points[-1].t > raw.points[0].t


def test_presets_shapes():
    chengdu = chengdu_like(scale=0.15)
    xian = xian_like(scale=0.15)
    assert chengdu.statistics().num_trajectories > 0
    assert xian.statistics().num_trajectories > 0
    assert xian.statistics().anomalous_ratio > chengdu.statistics().anomalous_ratio


# ------------------------------------------------------------------ dataset
def test_train_test_split_partition():
    dataset = tiny_dataset(seed=11)
    train, test = dataset.train_test_split(train_size=100, seed=0)
    assert len(train) == 100
    assert len(train) + len(test) == len(dataset)
    train_ids = {t.trajectory_id for t in train}
    assert all(t.trajectory_id not in train_ids for t in test)


def test_train_test_split_validation():
    dataset = tiny_dataset(seed=11)
    with pytest.raises(DataGenerationError):
        dataset.train_test_split(train_size=0)
    with pytest.raises(DataGenerationError):
        dataset.train_test_split(train_size=len(dataset))

