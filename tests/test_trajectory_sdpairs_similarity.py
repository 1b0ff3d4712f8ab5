"""Tests of SD-pair grouping, time slots and the route similarity measures
the tests and the CTSS baseline compare routes with."""

import pytest

from paper.baselines.ctss import discrete_frechet_points
from repro.exceptions import TrajectoryError
from repro.history import HistorySnapshot
from repro.trajectory import MatchedTrajectory, time_slot_of

import numpy as np

from reference_matcher import jaccard_similarity


def make(tid, segments, start=0.0):
    return MatchedTrajectory(trajectory_id=tid, segments=segments,
                             start_time_s=start)


# ---------------------------------------------------------------- time slots
def test_time_slot_of_hours():
    assert time_slot_of(0.0) == 0
    assert time_slot_of(3600.0 * 9 + 10) == 9
    assert time_slot_of(3600.0 * 23.9) == 23


def test_time_slot_wraps_around_midnight():
    assert time_slot_of(86400.0 + 3600.0) == 1


def test_time_slot_custom_granularity():
    assert time_slot_of(3600.0 * 13, slots_per_day=4) == 2


def test_time_slot_rejects_bad_slots():
    with pytest.raises(TrajectoryError):
        time_slot_of(0.0, slots_per_day=0)


# ------------------------------------------------------------------ grouping
def test_snapshot_groups_by_endpoints_and_slot():
    trajectories = [
        make(1, [1, 2, 3], start=0.0),
        make(2, [1, 5, 3], start=100.0),
        make(3, [1, 2, 3], start=3600.0 * 5),
        make(4, [9, 2, 3], start=0.0),
    ]
    groups = HistorySnapshot.build(trajectories).groups()
    sizes = sorted(len(g) for g in groups.values())
    assert sizes == [1, 1, 2]


def test_sd_pair_index_queries():
    trajectories = [make(i, [1, 2, 3], start=i * 10.0) for i in range(5)]
    trajectories += [make(10 + i, [4, 2, 6], start=i * 10.0) for i in range(3)]
    index = HistorySnapshot.build(trajectories)
    assert len(index) == 8
    assert index.sd_pairs() == [(1, 3), (4, 6)]
    assert len(index.group(1, 3)) == 5
    assert index.pair_sizes()[(4, 6)] == 3
    assert len(index.group_for(trajectories[0])) == 5


# ---------------------------------------------------------------- similarity
def test_jaccard_similarity():
    assert jaccard_similarity([1, 2, 3], [1, 2, 3]) == 1.0
    assert jaccard_similarity([1, 2], [3, 4]) == 0.0
    assert jaccard_similarity([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5)


def test_discrete_frechet_points_identity_and_symmetry():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    b = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    assert discrete_frechet_points(a, a) == 0.0
    assert discrete_frechet_points(a, b) == pytest.approx(1.0)
    assert discrete_frechet_points(a, b) == pytest.approx(discrete_frechet_points(b, a))


def test_discrete_frechet_on_network_routes(line_network):
    def points(route):  # routes discretised at segment midpoints, as in CTSS
        return np.array([line_network.segment_midpoint(s) for s in route])

    direct = points([0, 1, 2])
    bypass = points([0, 3, 4, 2])
    assert discrete_frechet_points(direct, direct) == 0.0
    assert discrete_frechet_points(direct, bypass) > 0.0


def test_discrete_frechet_rejects_empty():
    with pytest.raises(TrajectoryError):
        discrete_frechet_points(np.empty((0, 2)), np.zeros((1, 2)))
