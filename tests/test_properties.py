"""Property-based tests (hypothesis) of the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paper.baselines.ctss import discrete_frechet_points
from repro.core.detector import apply_delayed_labeling
from repro.eval.metrics import evaluate_labelings, span_jaccard
from repro.nn import softmax, log_softmax, sigmoid, cosine_similarity_rows
from repro.trajectory.ops import labels_from_spans, subtrajectory_spans

from reference_matcher import jaccard_similarity

label_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40)
routes = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=25)


@given(label_lists)
def test_spans_round_trip(labels):
    """labels -> spans -> labels is the identity."""
    spans = subtrajectory_spans(labels)
    assert labels_from_spans(len(labels), spans) == labels
    # Spans are disjoint, ordered and within range.
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        assert b1 + 1 < a2
    for a, b in spans:
        assert 0 <= a <= b < len(labels)


@given(label_lists, st.integers(min_value=0, max_value=10))
def test_delayed_labeling_only_adds_ones(labels, window):
    merged = apply_delayed_labeling(labels, window)
    assert len(merged) == len(labels)
    for original, new in zip(labels, merged):
        if original == 1:
            assert new == 1
    # The number of anomalous spans never increases.
    assert len(subtrajectory_spans(merged)) <= len(subtrajectory_spans(labels))


@given(label_lists)
def test_perfect_prediction_always_scores_perfectly(labels):
    report = evaluate_labelings([labels], [labels])
    if subtrajectory_spans(labels):
        assert report.f1 == 1.0
    else:
        assert report.num_ground_truth == 0


@given(label_lists, label_lists)
def test_metrics_are_bounded(truth, prediction):
    n = min(len(truth), len(prediction))
    report = evaluate_labelings([truth[:n]], [prediction[:n]])
    assert 0.0 <= report.precision <= 1.0
    assert 0.0 <= report.recall <= 1.0
    assert 0.0 <= report.f1 <= 1.0
    assert 0.0 <= report.t_f1 <= 1.0


@given(st.tuples(st.integers(0, 30), st.integers(0, 30)),
       st.tuples(st.integers(0, 30), st.integers(0, 30)))
def test_span_jaccard_symmetric_and_bounded(a, b):
    a = (min(a), max(a))
    b = (min(b), max(b))
    value = span_jaccard(a, b)
    assert 0.0 <= value <= 1.0
    assert value == span_jaccard(b, a)
    assert span_jaccard(a, a) == 1.0


@given(routes, routes)
def test_route_similarity_properties(route_a, route_b):
    assert jaccard_similarity(route_a, route_a) == 1.0
    assert 0.0 <= jaccard_similarity(route_a, route_b) <= 1.0
    assert jaccard_similarity(route_a, route_b) == jaccard_similarity(route_b, route_a)


@settings(max_examples=30)
@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                min_size=1, max_size=12),
       st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                min_size=1, max_size=12))
def test_frechet_properties(points_a, points_b):
    a = np.array(points_a, dtype=float)
    b = np.array(points_b, dtype=float)
    d_ab = discrete_frechet_points(a, b)
    assert d_ab >= 0.0
    assert discrete_frechet_points(a, a) == 0.0
    assert d_ab == discrete_frechet_points(b, a)


@settings(max_examples=50)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=16))
def test_softmax_properties(values):
    logits = np.array(values, dtype=float)
    probs = softmax(logits)
    assert np.isclose(probs.sum(), 1.0)
    assert np.all(probs >= 0.0)
    assert np.allclose(np.exp(log_softmax(logits)), probs)
    # Softmax is order preserving: the most likely class is (one of) the
    # largest logits. Compare values rather than indices to tolerate ties that
    # only appear after rounding.
    assert probs[int(np.argmax(logits))] == pytest.approx(float(probs.max()))


@settings(max_examples=50)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
def test_sigmoid_bounded_and_monotone(values):
    x = np.sort(np.array(values, dtype=float))
    s = sigmoid(x)
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert np.all(np.diff(s) >= -1e-12)


@settings(max_examples=50)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=16),
       st.lists(st.floats(-10, 10), min_size=2, max_size=16))
def test_cosine_similarity_bounded(a, b):
    n = min(len(a), len(b))
    a, b = np.array(a[:n]), np.array(b[:n])
    value = cosine_similarity_rows(a[None, :], b[None, :])[0]
    assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
    norms = np.linalg.norm(a) * np.linalg.norm(b)
    if min(np.linalg.norm(a), np.linalg.norm(b)) < 1e-12:
        assert value == 0.0
    else:
        assert value == pytest.approx(np.dot(a, b) / norms, rel=1e-12,
                                      abs=1e-15)
