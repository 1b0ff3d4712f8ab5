"""The prefix-state table, checked state by state.

``h_i`` is a pure function of the weights and the route's token prefix, so
:class:`~repro.core.detector.OnlineDetector` and
:class:`~repro.core.stream.StreamEngine` keep one LSTM state per prefix seen
(:class:`~repro.core.stream.PrefixStates`) and share it across trips. The
label-identity suites cannot guard that sharing: the trained policy all but
ignores ``h`` on the tiny dataset, so a wrong state rarely moves a label.
These tests compare the states themselves:

* every row the detector stores is *bit-equal* to the chain from the zero
  state (:func:`reference_networks.hidden_states`, the whole-route pass)
  for every prefix of hypothesis-drawn routes that share prefixes and reach
  the same segments by different prefixes;
* every row a live engine stream holds, online or deferred, is within
  ``1e-12`` of the same chain advanced under the weights serving at each
  step — through ``load_weights`` mid-stream and through a compaction on
  every tick (a bound of one row);
* a detector or engine held across an in-place weight change
  (``RSRNet.load_state_dict``, ``RSRNet.train_step_batch``) serves exactly
  what a fresh one built after the change serves — and so does one held
  across a change of ASDNet alone (``ASDNet.load_state_dict``,
  ``ASDNet.reinforce_update_batch``), which leaves the rows standing but
  not the policy choices memoized beside them.

Mutants seen red here and green on the label suites (``test_stream_engine``,
``test_deferred_streams``, ``test_route_labeling``,
``test_stream_engine_state_machine``): edges keyed by the token alone,
without the parent row; either mutator not bumping ``weights_version``; a
compaction that does not remap deferred streams' rows; decision slots that
ignore ``ASDNet.weights_version``.
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference_networks import hidden_states
from test_deferred_streams import (feed, open_stream, perturbed_model,
                                  perturbed_weights, quiesce)
from test_nn import assert_bit_equal

from repro.core import replay_fleet
from repro.core import stream as stream_module
from repro.core.asdnet import BatchedEpisode
from repro.core.decision import policy_choices
from repro.serve import clone_model, weights_snapshot
from repro.trajectory import MatchedTrajectory
from repro.trajectory.ops import interleave_streams


def chain(rsrnet, tokens, h=None, c=None):
    """``(h, c)`` of every prefix of ``tokens`` continued from ``(h, c)``."""
    return rsrnet.lstm.infer(rsrnet.lstm.cell.project_input(
        rsrnet.segment_embedding.vectors(tokens)), h, c)


def stored_chain(states, tokens):
    rows = states.walk(tokens)
    assert len(rows) == len(tokens), "a prefix of a detected route is missing"
    return states.hidden[rows], states.cell[rows]


# ------------------------------------------------------------- the detector
@st.composite
def spliced_routes(draw, pool):
    """Routes over real segments, most of them a prefix of one trip spliced
    onto the tail of another: shared prefixes, and one segment reached by
    several prefixes."""
    routes = []
    for _ in range(draw(st.integers(2, 8))):
        head = draw(st.sampled_from(pool)).segments
        tail = draw(st.sampled_from(pool)).segments
        cut = draw(st.integers(1, len(head)))
        route = head[:cut] + tail[draw(st.integers(0, len(tail) - 1)):]
        if len(route) < 3:
            route = head if len(head) >= 3 else route + tail[:3]
        routes.append(route)
    order = draw(st.permutations(routes + draw(st.lists(
        st.sampled_from(routes), max_size=4))))
    return order


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_detector_rows_are_the_chain_from_zero(trained_model, dataset_split,
                                               data):
    _, development, test = dataset_split
    pool = [t for t in list(test) + list(development) if len(t) >= 2]
    routes = data.draw(spliced_routes(pool))
    rsrnet = trained_model.rsrnet
    vocabulary = trained_model.pipeline.vocabulary
    detector = trained_model.detector()
    steps = 0
    for number, route in enumerate(routes):
        detector.detect(MatchedTrajectory(number, route, start_time_s=0.0))
        steps += len(route) - 1
    states = detector.states
    prefixes = set()
    for route in routes:
        tokens = vocabulary.tokens(route)[:-1]
        hidden, cell = stored_chain(states, tokens)
        expected_cell = chain(rsrnet, tokens)[1]
        assert_bit_equal(hidden, hidden_states(rsrnet, tokens))
        assert_bit_equal(cell, expected_cell)
        prefixes.update(tuple(tokens[:k]) for k in range(1, len(tokens) + 1))
    assert states.misses == len(states) - 1 == len(prefixes)
    assert states.hits + states.misses == steps


def test_detector_compacts_at_the_bound(trained_model, dataset_split):
    """Past the bound the table restarts from the zero row: states stay the
    chain from zero, computed afresh."""
    _, _, test = dataset_split
    rsrnet = trained_model.rsrnet
    vocabulary = trained_model.pipeline.vocabulary
    trips = sorted(test, key=len)[-6:]
    detector = trained_model.detector()
    bound = max(len(t) for t in trips)
    with mock.patch.object(stream_module, "_MAX_PREFIX_ROWS", bound):
        for trip in trips + trips:
            detector.detect(trip)
            assert len(detector.states) <= bound
            tokens = vocabulary.tokens(trip.segments)[:-1]
            assert_bit_equal(stored_chain(detector.states, tokens)[0],
                             hidden_states(rsrnet, tokens))


# --------------------------------------------------------------- the engine
class Reference:
    """One stream's chain, advanced under the weights serving each step."""

    def __init__(self, hidden_dim):
        self.stepped = 0
        self.h = self.c = np.zeros(hidden_dim)
        self.hidden = np.zeros((0, hidden_dim))


def check_live_rows(engine, rsrnet, references):
    states = engine.states
    for vehicle, stream in engine._streams.items():
        reference = references.setdefault(
            vehicle, Reference(rsrnet.config.hidden_dim))
        if stream.stepped > reference.stepped:
            hidden, cell = chain(
                rsrnet, stream.tokens[reference.stepped:stream.stepped],
                reference.h, reference.c)
            reference.h, reference.c = hidden[-1], cell[-1]
            reference.hidden = np.vstack([reference.hidden, hidden])
            reference.stepped = stream.stepped
        assert stream.stepped == reference.stepped
        np.testing.assert_allclose(states.hidden[stream.row], reference.h,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(states.cell[stream.row], reference.c,
                                   rtol=0.0, atol=1e-12)
        if stream.deferred:
            np.testing.assert_allclose(states.hidden[stream.hidden_rows],
                                       reference.hidden, rtol=0.0, atol=1e-12)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1),
       bound=st.sampled_from([None, 1, 40]),
       swaps=st.lists(st.integers(0, 150), max_size=3, unique=True))
def test_engine_rows_follow_the_chain(trained_model, dataset_split, seed,
                                      bound, swaps):
    _, development, test = dataset_split
    rng = np.random.default_rng(seed)
    pool = list(test) + list(development)
    fleet = [pool[int(index)] for index in rng.integers(len(pool), size=12)]
    declared = rng.random(len(fleet)) < 0.5
    model = clone_model(trained_model)
    weights = [weights_snapshot(model), perturbed_weights(model, seed=4)]
    engine = model.stream_engine()
    references = {}
    with (mock.patch.object(stream_module, "_MAX_PREFIX_ROWS", bound)
          if bound else nullcontext()):
        for event, (index, position, segment) in enumerate(
                interleave_streams(fleet, rng)):
            if position == 0:
                open_stream(engine, index, fleet[index], declared[index])
            else:
                engine.ingest(index, segment)
            if rng.random() < 0.4:
                engine.tick()
                check_live_rows(engine, model.rsrnet, references)
            if event in swaps:
                weights.reverse()
                engine.load_weights(weights[0]["rsrnet"], weights[0]["asdnet"])
                # A deferred stream restarts under the new weights; an
                # online one keeps its state and continues under them.
                for vehicle, stream in engine._streams.items():
                    if stream.deferred:
                        references.pop(vehicle, None)
                check_live_rows(engine, model.rsrnet, references)
        quiesce(engine)
        check_live_rows(engine, model.rsrnet, references)
        engine.finalize_many(list(range(len(fleet))))
    assert len(engine.states) >= 1 and not engine.active_vehicles


# --------------------------------------------------- held across a change
def change_in_place(model, mutator, trip):
    rsrnet = model.rsrnet
    if mutator == "load_state_dict":
        rsrnet.load_state_dict(perturbed_weights(model, seed=6)["rsrnet"])
    else:
        tokens = np.array([model.pipeline.vocabulary.tokens(trip.segments)])
        _, _, cache = rsrnet.forward_batch_train(
            tokens, np.ones_like(tokens), [tokens.shape[1]])
        rsrnet.train_step_batch(np.ones_like(tokens), cache)


@pytest.mark.parametrize("mutator", ["load_state_dict", "train_step_batch"])
def test_a_held_detector_serves_the_new_weights(trained_model, dataset_split,
                                                mutator):
    _, _, test = dataset_split
    trips = sorted(test, key=len)[-8:]
    model = clone_model(trained_model)
    held = model.detector()
    for trip in trips:
        held.detect(trip)
    before = weights_snapshot(model)["rsrnet"]
    change_in_place(model, mutator, trips[0])
    assert any(not np.array_equal(before[name], value)
               for name, value in model.rsrnet.state_dict().items())
    fresh = model.detector()
    vocabulary = model.pipeline.vocabulary
    for trip in trips:
        assert held.detect(trip).labels == fresh.detect(trip).labels
    for trip in trips:
        tokens = vocabulary.tokens(trip.segments)[:-1]
        for own, theirs in zip(stored_chain(held.states, tokens),
                               stored_chain(fresh.states, tokens)):
            assert_bit_equal(own, theirs)
    assert len(held.states) == len(fresh.states)


@pytest.mark.parametrize("mutator", ["load_state_dict", "train_step_batch"])
def test_a_held_engine_serves_the_new_weights(trained_model, dataset_split,
                                              mutator):
    """Projections and states of an engine held across an in-place change
    equal those of an engine built after it — with no ``invalidate_cache``
    call."""
    _, _, test = dataset_split
    trips = sorted(test, key=len)[-8:]
    model = clone_model(trained_model)
    held = model.stream_engine()
    replay_fleet(held, trips, concurrency=4)  # fills both tables
    for index, trip in enumerate(trips):  # deferred streams, half stepped
        open_stream(held, index, trip, declare=False)
        feed(held, index, trip, 1, len(trip) // 2)
    quiesce(held)
    change_in_place(model, mutator, trips[0])
    fresh = model.stream_engine()
    for index, trip in enumerate(trips):
        open_stream(fresh, index, trip, declare=False)
        feed(fresh, index, trip, 1, len(trip) // 2)
    for engine in (held, fresh):
        for index, trip in enumerate(trips):
            feed(engine, index, trip, len(trip) // 2, None)
        quiesce(engine)
    tokens = sorted({token for trip in trips
                     for token in model.pipeline.vocabulary.tokens(
                         trip.segments)})
    assert_bit_equal(held.cache.gather(tokens), fresh.cache.gather(tokens))
    for index in range(len(trips)):
        own, theirs = held._streams[index], fresh._streams[index]
        assert own.stepped == theirs.stepped
        np.testing.assert_allclose(
            held.states.hidden[own.hidden_rows],
            fresh.states.hidden[theirs.hidden_rows], rtol=0.0, atol=1e-12)
    labels = [result.labels for result in
              held.finalize_many(list(range(len(trips))))]
    assert labels == [result.labels for result in
                      fresh.finalize_many(list(range(len(trips))))]


def change_policy_in_place(model, mutator):
    """Change ASDNet alone: RSRNet's version, hence every row, stands."""
    asdnet = model.asdnet
    version = model.rsrnet.weights_version
    if mutator == "load_state_dict":
        asdnet.load_state_dict(perturbed_weights(model, seed=6)["asdnet"])
    else:
        # One step rewarding "anomalous" on random states, taken at a rate
        # that moves the trained policy's labels.
        asdnet._optimizer.learning_rate = 1.0
        z = np.random.default_rng(6).normal(
            size=(64, asdnet.representation_dim))
        previous = np.zeros(len(z), dtype=np.int64)
        episode = BatchedEpisode(num_episodes=1)
        episode.append(previous, z, np.ones(len(z), dtype=np.int64),
                       policy_choices(asdnet, z, previous, greedy=False),
                       previous)
        asdnet.reinforce_update_batch(episode, [1.0], use_baseline=False)
    assert model.rsrnet.weights_version == version


@pytest.mark.parametrize("mutator", ["load_state_dict",
                                     "reinforce_update_batch"])
def test_a_held_detector_serves_a_new_policy(trained_model, dataset_split,
                                             mutator):
    _, development, test = dataset_split
    trips = list(test) + list(development)
    model = perturbed_model(trained_model, seed=0)  # a policy reading z
    held = model.detector()
    before = [held.detect(trip).labels for trip in trips]
    change_policy_in_place(model, mutator)
    after = [model.detector().detect(trip).labels for trip in trips]
    assert after != before, "the change must move a label"
    assert [held.detect(trip).labels for trip in trips] == after


@pytest.mark.parametrize("mutator", ["load_state_dict",
                                     "reinforce_update_batch"])
def test_a_held_engine_serves_a_new_policy(trained_model, dataset_split,
                                           mutator):
    """Online streams opened after the change and deferred streams stepped
    before it and finalized after it, with no ``invalidate_cache`` call."""
    _, development, test = dataset_split
    trips = list(test) + list(development)
    model = perturbed_model(trained_model, seed=0)  # a policy reading z
    held = model.stream_engine()
    before = [result.labels for result in replay_fleet(held, trips)]
    deferred = [("deferred", index) for index in range(len(trips))]
    for vehicle, trip in zip(deferred, trips):  # half stepped
        open_stream(held, vehicle, trip, declare=False)
        feed(held, vehicle, trip, 1, len(trip) // 2)
    quiesce(held)
    change_policy_in_place(model, mutator)
    fresh = model.stream_engine()
    after = [result.labels for result in replay_fleet(fresh, trips)]
    assert after != before, "the change must move a label"
    assert [result.labels for result in replay_fleet(held, trips)] == after
    for vehicle, trip in zip(deferred, trips):
        feed(held, vehicle, trip, len(trip) // 2, None)
        open_stream(fresh, vehicle, trip, declare=False)
        feed(fresh, vehicle, trip, 1, None)
    labels = [[result.labels for result in engine.finalize_many(deferred)]
              for engine in (held, fresh)]
    assert labels[0] == labels[1] == after
