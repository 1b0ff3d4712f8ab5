"""Tests of the trajectory data model and label/span operations."""

import pytest

from repro.exceptions import EmptyTrajectoryError, TrajectoryError
from repro.trajectory import (
    GPSPoint,
    MatchedTrajectory,
    RawTrajectory,
    Subtrajectory,
    split_by_labels,
    subtrajectory_spans,
    transitions_of,
)
from repro.trajectory.ops import SOURCE_PAD, labels_from_spans


def make_matched(segments, labels=None, start=0.0):
    return MatchedTrajectory(trajectory_id=1, segments=list(segments),
                             start_time_s=start, labels=labels)


# ------------------------------------------------------------ raw trajectory
def test_raw_trajectory_basic():
    raw = RawTrajectory(1, [GPSPoint(0, 0, 0.0), GPSPoint(5, 5, 2.0)])
    assert len(raw) == 2
    assert raw.duration_s == pytest.approx(2.0)
    assert [p.t for p in raw] == [0.0, 2.0]


def test_raw_trajectory_requires_points():
    with pytest.raises(EmptyTrajectoryError):
        RawTrajectory(1, [])


def test_raw_trajectory_requires_monotone_time():
    with pytest.raises(TrajectoryError):
        RawTrajectory(1, [GPSPoint(0, 0, 5.0), GPSPoint(1, 1, 1.0)])


# -------------------------------------------------------- matched trajectory
def test_matched_trajectory_properties():
    trajectory = make_matched([4, 5, 6, 7], labels=[0, 1, 1, 0])
    assert trajectory.source == 4
    assert trajectory.destination == 7
    assert trajectory.sd_pair == (4, 7)
    assert trajectory.is_anomalous
    assert trajectory.route_key() == (4, 5, 6, 7)
    assert list(trajectory) == [4, 5, 6, 7]


def test_matched_trajectory_not_anomalous_without_ones():
    assert not make_matched([1, 2], labels=[0, 0]).is_anomalous
    assert not make_matched([1, 2]).is_anomalous


def test_matched_trajectory_validates_labels():
    with pytest.raises(TrajectoryError):
        make_matched([1, 2, 3], labels=[0, 1])
    with pytest.raises(TrajectoryError):
        make_matched([1, 2, 3], labels=[0, 2, 0])


def test_matched_trajectory_requires_segments():
    with pytest.raises(EmptyTrajectoryError):
        MatchedTrajectory(trajectory_id=1, segments=[])


def test_subtrajectory_slicing():
    trajectory = make_matched([10, 11, 12, 13, 14])
    sub = trajectory.subtrajectory(1, 3)
    assert sub.segments == [11, 12, 13]
    assert sub.span == (1, 3)
    assert len(sub) == 3


def test_subtrajectory_bounds_checked():
    trajectory = make_matched([10, 11, 12])
    with pytest.raises(TrajectoryError):
        trajectory.subtrajectory(2, 5)
    with pytest.raises(TrajectoryError):
        Subtrajectory(1, 2, 1, [])


# -------------------------------------------------------------- operations
def test_transitions_of_pads_source():
    assert transitions_of([7, 8, 9]) == [(SOURCE_PAD, 7), (7, 8), (8, 9)]


def test_transitions_of_rejects_empty():
    with pytest.raises(TrajectoryError):
        transitions_of([])


def test_subtrajectory_spans():
    assert subtrajectory_spans([0, 1, 1, 0, 1]) == [(1, 2), (4, 4)]
    assert subtrajectory_spans([1, 1, 1]) == [(0, 2)]
    assert subtrajectory_spans([0, 0]) == []
    assert subtrajectory_spans([]) == []


def test_subtrajectory_spans_rejects_bad_labels():
    with pytest.raises(TrajectoryError):
        subtrajectory_spans([0, 2, 0])


def test_split_by_labels():
    trajectory = make_matched([4, 5, 6, 7, 8])
    subs = split_by_labels(trajectory, [0, 1, 1, 0, 0])
    assert len(subs) == 1
    assert subs[0].segments == [5, 6]


def test_split_by_labels_requires_alignment():
    with pytest.raises(TrajectoryError):
        split_by_labels(make_matched([1, 2]), [0, 1, 1])


def test_labels_from_spans_round_trip():
    labels = [0, 1, 1, 0, 0, 1]
    spans = subtrajectory_spans(labels)
    assert labels_from_spans(len(labels), spans) == labels


def test_labels_from_spans_rejects_out_of_range():
    with pytest.raises(TrajectoryError):
        labels_from_spans(3, [(1, 5)])
