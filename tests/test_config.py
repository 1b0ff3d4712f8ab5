"""Tests of the configuration dataclasses and their validation."""

import pytest

from repro.config import (
    ASDNetConfig,
    DataGenConfig,
    LabelingConfig,
    MapMatchingConfig,
    RoadNetworkConfig,
    RSRNetConfig,
    TrainingConfig,
)
from repro.exceptions import ConfigurationError


def test_paper_defaults():
    """The defaults mirror the paper's setting (Section V-A)."""
    labeling, training = LabelingConfig(), TrainingConfig()
    rsrnet, asdnet = RSRNetConfig(), ASDNetConfig()
    assert labeling.alpha == 0.5
    assert labeling.delta == 0.4
    assert training.delayed_labeling_window == 8
    assert labeling.time_slots_per_day == 24
    assert rsrnet.embedding_dim == 128
    assert rsrnet.hidden_dim == 128
    assert rsrnet.learning_rate == pytest.approx(0.01)
    assert asdnet.learning_rate == pytest.approx(0.001)
    assert training.pretrain_trajectories == 200
    assert training.joint_trajectories == 10000
    assert training.joint_epochs == 5


@pytest.mark.parametrize("kwargs", [
    {"grid_rows": 1},
    {"cell_length_m": 0.0},
    {"diagonal_fraction": 1.5},
    {"removal_fraction": 0.9},
])
def test_road_network_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        RoadNetworkConfig(**kwargs).validate()


@pytest.mark.parametrize("kwargs", [
    {"gps_sigma_m": 0},
    {"transition_beta": -1},
    {"candidate_radius_m": 0},
    {"max_candidates": 0},
    {"routing_max_hops": 0},
    {"routing_max_hops": -5},
])
def test_map_matching_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        MapMatchingConfig(**kwargs).validate()


def test_matcher_refuses_a_routing_budget_that_reaches_nothing(grid_network):
    """``routing_max_hops <= 0`` used to validate: the bounded Dijkstra then
    pops nothing, every network distance is ``inf`` and every session ends
    in ``MatchBreakError`` on its second fix. 1 is the smallest budget that
    reaches anything (8 pops: a segment's successors)."""
    from repro.mapmatching import HMMMapMatcher

    with pytest.raises(ConfigurationError):
        HMMMapMatcher(grid_network, MapMatchingConfig(routing_max_hops=0))
    matcher = HMMMapMatcher(grid_network, MapMatchingConfig(routing_max_hops=1))
    segment = grid_network.segment_ids()[0]
    successor = grid_network.successor_segments(segment)[0]
    assert matcher.network_distance(segment, successor) == \
        grid_network.segment(successor).length_m


@pytest.mark.parametrize("kwargs", [
    {"n_sd_pairs": 0},
    {"trajectories_per_pair": 1},
    {"anomaly_ratio": 1.5},
    {"min_route_length": 1},
])
def test_data_gen_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        DataGenConfig(**kwargs).validate()


@pytest.mark.parametrize("kwargs", [
    {"alpha": 0.0},
    {"alpha": 1.0},
    {"delta": -0.1},
    {"time_slots_per_day": 0},
    {"min_slot_group_size": 0},
])
def test_labeling_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        LabelingConfig(**kwargs).validate()


@pytest.mark.parametrize("kwargs", [
    {"embedding_dim": 0},
    {"hidden_dim": 0},
    {"learning_rate": 0.0},
])
def test_rsrnet_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        RSRNetConfig(**kwargs).validate()


@pytest.mark.parametrize("kwargs", [
    {"label_embedding_dim": 0},
    {"learning_rate": -0.1},
])
def test_asdnet_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        ASDNetConfig(**kwargs).validate()


@pytest.mark.parametrize("kwargs", [
    {"pretrain_trajectories": 0},
    {"pretrain_epochs": 0},
    {"joint_epochs": 0},
    {"delayed_labeling_window": -1},
    {"validation_interval": 0},
])
def test_training_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        TrainingConfig(**kwargs).validate()


def test_configs_are_frozen():
    config = LabelingConfig()
    with pytest.raises(Exception):
        config.alpha = 0.9
