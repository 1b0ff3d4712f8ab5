"""Tests of the preprocessing component: transition statistics, noisy labels,
normal-route features and the pipeline."""

import pytest

from repro.config import LabelingConfig
from repro.exceptions import LabelingError
from repro.labeling import (
    PreprocessingPipeline,
    SegmentVocabulary,
    TransitionStatistics,
    infer_normal_routes,
    noisy_labels,
    normal_route_features,
)
from repro.labeling.normal_routes import normal_transitions
from repro.trajectory import MatchedTrajectory
from repro.trajectory.ops import SOURCE_PAD


def make(tid, segments, start=0.0, labels=None):
    return MatchedTrajectory(trajectory_id=tid, segments=segments,
                             start_time_s=start, labels=labels)


@pytest.fixture
def figure1_group():
    """The example of Figure 1 / Section IV-B: 5 trajectories along T1, 4
    along T2 and 1 along T3 (the detour)."""
    t1 = [1, 2, 3, 4, 10]
    t2 = [1, 2, 5, 6, 10]
    t3 = [1, 2, 4, 11, 12, 10]
    group = [make(i, list(t1)) for i in range(5)]
    group += [make(5 + i, list(t2)) for i in range(4)]
    group += [make(9, list(t3))]
    return group, t1, t2, t3


# -------------------------------------------------------------- transitions
def test_transition_fractions(figure1_group):
    group, t1, t2, t3 = figure1_group
    stats = TransitionStatistics.from_group(group)
    assert stats.group_size == 10
    assert stats.fraction((SOURCE_PAD, 1)) == 1.0
    assert stats.fraction((1, 2)) == pytest.approx(1.0)
    assert stats.fraction((2, 3)) == pytest.approx(0.5)
    assert stats.fraction((2, 5)) == pytest.approx(0.4)
    assert stats.fraction((2, 4)) == pytest.approx(0.1)
    # Transitions into the destination always count as fully supported.
    assert stats.fraction((12, 10)) == 1.0
    assert stats.fraction((99, 98)) == 0.0


def test_fraction_sequence_aligns_with_route(figure1_group):
    group, t1, _, t3 = figure1_group
    stats = TransitionStatistics.from_group(group)
    fractions = stats.fraction_sequence(t3)
    assert len(fractions) == len(t3)
    assert fractions[0] == 1.0
    assert fractions[-1] == 1.0
    assert fractions[2] == pytest.approx(0.1)


def test_transition_statistics_empty_group_rejected():
    with pytest.raises(LabelingError):
        TransitionStatistics.from_group([])


# ------------------------------------------------------------- noisy labels
def test_noisy_labels_matches_paper_example(figure1_group):
    group, _, _, t3 = figure1_group
    stats = TransitionStatistics.from_group(group)
    labels = noisy_labels(t3, stats, alpha=0.5)
    # Source, the shared prefix and the destination are normal; the detour
    # segments are anomalous.
    assert labels == [0, 0, 1, 1, 1, 0]


def test_noisy_labels_validation(figure1_group):
    group, _, _, t3 = figure1_group
    stats = TransitionStatistics.from_group(group)
    with pytest.raises(LabelingError):
        noisy_labels(t3, stats, alpha=1.5)
    with pytest.raises(LabelingError):
        noisy_labels([], stats, alpha=0.5)


# ------------------------------------------------------------ normal routes
def test_infer_normal_routes(figure1_group):
    group, t1, t2, t3 = figure1_group
    routes = infer_normal_routes(group, delta=0.3)
    assert tuple(t1) in routes
    assert tuple(t2) in routes
    assert tuple(t3) not in routes
    # Ordered by popularity.
    assert routes[0] == tuple(t1)


def test_infer_normal_routes_falls_back_to_most_popular(figure1_group):
    group, t1, _, _ = figure1_group
    routes = infer_normal_routes(group, delta=0.9)
    assert routes == [tuple(t1)]


def test_infer_normal_routes_validation():
    with pytest.raises(LabelingError):
        infer_normal_routes([], delta=0.4)


def test_normal_route_features(figure1_group):
    group, t1, t2, t3 = figure1_group
    routes = infer_normal_routes(group, delta=0.3)
    features = normal_route_features(t3, routes)
    # <1,2> occurs on a normal route, the detour transitions do not; source
    # and destination are always normal.
    assert features == [0, 0, 1, 1, 1, 0]
    assert normal_route_features(t1, routes) == [0] * len(t1)


def test_normal_route_feature_step(figure1_group):
    """A point's NRF is whether the transition into it is on a normal route."""
    group, t1, _, _ = figure1_group
    allowed = normal_transitions(infer_normal_routes(group, delta=0.3))
    assert (1, 2) in allowed
    assert (2, 4) not in allowed


def test_normal_route_features_validation(figure1_group):
    group, t1, _, _ = figure1_group
    routes = infer_normal_routes(group, delta=0.3)
    with pytest.raises(LabelingError):
        normal_route_features([], routes)
    with pytest.raises(LabelingError):
        normal_route_features(t1, [])


# -------------------------------------------------------------- vocabulary
def test_segment_vocabulary(grid_network):
    vocabulary = SegmentVocabulary.from_network(grid_network)
    assert len(vocabulary) == grid_network.num_segments
    segment = grid_network.segment_ids()[5]
    token = vocabulary.token(segment)
    assert vocabulary.segment(token) == segment
    assert vocabulary.tokens([segment]) == [token]
    with pytest.raises(LabelingError):
        vocabulary.token(10 ** 9)
    with pytest.raises(LabelingError):
        vocabulary.segment(-1)


# ----------------------------------------------------------------- pipeline
def test_pipeline_preprocess_alignment(pipeline, dataset_split):
    _, _, test = dataset_split
    trajectory = test[0]
    preprocessed = pipeline.preprocess(trajectory)
    n = len(trajectory)
    assert len(preprocessed.tokens) == n
    assert len(preprocessed.noisy_labels) == n
    assert len(preprocessed.normal_route_features) == n
    assert len(preprocessed.transition_fractions) == n
    assert preprocessed.noisy_labels[0] == 0
    assert preprocessed.noisy_labels[-1] == 0
    assert set(preprocessed.normal_route_features) <= {0, 1}


def test_pipeline_noisy_labels_track_ground_truth(pipeline, dataset_split):
    """On the synthetic data the heuristics agree with ground truth most of
    the time (they are noisy, not random)."""
    _, _, test = dataset_split
    agree = total = 0
    for trajectory in test:
        preprocessed = pipeline.preprocess(trajectory)
        for truth, noisy in zip(trajectory.labels, preprocessed.noisy_labels):
            agree += int(truth == noisy)
            total += 1
    assert agree / total > 0.8


def test_pipeline_caches_groups(pipeline, dataset_split):
    _, _, test = dataset_split
    trajectory = test[0]
    first = pipeline.statistics_for(trajectory)
    second = pipeline.statistics_for(trajectory)
    assert first is second


def test_pipeline_extend_history_invalidates_cache(dataset, dataset_split):
    train, _, test = dataset_split
    pipeline = PreprocessingPipeline(dataset.network, train[:100],
                                     LabelingConfig(alpha=0.35, delta=0.25))
    trajectory = test[0]
    before = pipeline.statistics_for(trajectory)
    pipeline.extend_history(train[100:150])
    after = pipeline.statistics_for(trajectory)
    assert before is not after
