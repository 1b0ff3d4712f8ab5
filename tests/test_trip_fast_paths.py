"""A normal trip's result skips the span scans; tokens translate in one pass.

``subtrajectory_spans`` returns at once when every label equals 0,
``apply_delayed_labeling`` returns its copy when no label equals 1, and
``SegmentVocabulary.tokens`` maps a route in one pass, falling back to
:meth:`~repro.labeling.SegmentVocabulary.token` only to name the unknown
segment. The loop forms they replaced are kept below as references.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detector import apply_delayed_labeling
from repro.exceptions import LabelingError, TrajectoryError
from repro.labeling import SegmentVocabulary
from repro.trajectory import subtrajectory_spans

FAST = settings(max_examples=300, deadline=None)


def reference_spans(labels):
    spans = []
    start = None
    for index, label in enumerate(labels):
        if label not in (0, 1):
            raise TrajectoryError("labels must be 0 or 1")
        if label == 1 and start is None:
            start = index
        elif label == 0 and start is not None:
            spans.append((start, index - 1))
            start = None
    if start is not None:
        spans.append((start, len(labels) - 1))
    return spans


def reference_delayed_labeling(labels, window):
    labels = list(labels)
    if window == 0 or len(labels) < 3:
        return labels
    index = 0
    n = len(labels)
    while index < n:
        if labels[index] == 1:
            end = index
            while end + 1 < n and labels[end + 1] == 1:
                end += 1
            horizon = min(n - 1, end + window)
            rejoin = -1
            for j in range(horizon, end, -1):
                if labels[j] == 1:
                    rejoin = j
                    break
            if rejoin > end:
                for j in range(end + 1, rejoin + 1):
                    labels[j] = 1
                index = rejoin + 1
            else:
                index = end + 1
        else:
            index += 1
    return labels


def reference_tokens(vocabulary, segments):
    return [vocabulary.token(segment) for segment in segments]


def outcome(function, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "returned", function(*args)
    except (TrajectoryError, LabelingError) as error:
        return type(error).__name__, str(error)


normal = st.sampled_from([0, 0.0, False])
anomalous = st.sampled_from([1, 1.0, True])
invalid = st.sampled_from([2, -1, 0.5])
label_lists = st.one_of(
    st.lists(normal, max_size=12),                       # a normal trip
    st.lists(st.one_of(normal, anomalous), max_size=12),
    st.lists(st.one_of(normal, anomalous, invalid), max_size=12),
    st.lists(st.one_of(normal, invalid), max_size=12),
)


@FAST
@given(labels=label_lists, as_tuple=st.booleans())
def test_spans_equal_the_loop_form(labels, as_tuple):
    labels = tuple(labels) if as_tuple else labels
    assert outcome(subtrajectory_spans, labels) == outcome(reference_spans,
                                                           labels)


def test_a_bad_label_in_a_normal_trip_still_raises():
    for labels in ([0, 2, 0], [0, -1], [0.0, False, 2], [2]):
        with pytest.raises(TrajectoryError):
            subtrajectory_spans(labels)
    assert subtrajectory_spans([0, 0.0, False]) == []


@FAST
@given(labels=label_lists, window=st.integers(0, 10))
def test_delayed_labeling_equals_the_loop_form(labels, window):
    result = apply_delayed_labeling(labels, window)
    expected = reference_delayed_labeling(labels, window)
    assert result == expected
    assert [type(label) for label in result] == [type(label)
                                                 for label in expected]
    assert result is not labels


VOCABULARY = SegmentVocabulary(range(0, 60, 3))


@FAST
@given(segments=st.lists(st.sampled_from(range(0, 60, 3)), max_size=30)
       | st.lists(st.integers(-5, 65), max_size=30))
def test_tokens_equal_the_per_segment_form(segments):
    assert (outcome(VOCABULARY.tokens, segments)
            == outcome(reference_tokens, VOCABULARY, segments))


def test_an_unknown_segment_is_named_first_come():
    with pytest.raises(LabelingError, match=r"^segment 4 not in vocabulary$"):
        VOCABULARY.tokens([0, 3, 4, 7, 6])
    assert VOCABULARY.tokens((0, 3, 57)) == [0, 1, 19]
