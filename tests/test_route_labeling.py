"""The route pass against an independent reference, and what it may cost.

``OnlineDetector.detect`` and the engine's deferred finalize both run
:func:`repro.core.decision.label_route`, so they can no longer vouch for each
other. ``tests/reference_detector.py`` keeps Algorithm 1 as the scalar
per-point loop it used to be; everything here is pinned against that, and
the cost contract of the change is counted: nobody steps a destination.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_detector import reference_labels
from reference_networks import hidden_states, rsrnet_step
from test_deferred_streams import feed, open_stream, perturbed_model

from repro.core import OnlineDetector, replay_fleet
from repro.core.decision import label_route, rnel_masks
from repro.core.stream import PrefixStates
from repro.exceptions import ModelError
from repro.obs.trace import TraceContext, Tracer
from repro.serve import clone_model, weights_snapshot
from repro.trajectory import MatchedTrajectory

ROUTES = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def models(trained_model):
    """The trained model plus two whose policy visibly reads its inputs."""
    return [trained_model] + [perturbed_model(trained_model, seed)
                              for seed in (0, 1)]


def cut(trajectory, length):
    """The first ``length`` points of a trip as a route of its own."""
    if length is None:
        return trajectory
    return MatchedTrajectory(trajectory.trajectory_id,
                             list(trajectory.segments[:length]),
                             start_time_s=trajectory.start_time_s)


route_plans = st.tuples(
    st.integers(0, 2),                          # which model
    st.integers(0, 10_000),                     # which trip
    st.sampled_from([1, 2, 3, 4, None, None]),  # cut to this length
    st.booleans(),                              # RNEL
    st.sampled_from([None, 0, 2, 8]),           # delayed-labeling window
)


# ------------------------------------------------------------- equivalence
@ROUTES
@given(plan=route_plans)
def test_detect_matches_the_scalar_reference(models, dataset_split, plan):
    """Lengths 1, 2, 3 and long; RNEL and delayed labeling on and off —
    same labels."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    which, pick, length, use_rnel, window = plan
    model = models[which]
    route = cut(pool[pick % len(pool)], length)
    expected = reference_labels(model, route, use_rnel, window)

    detector = OnlineDetector(model.rsrnet, model.asdnet, model.pipeline,
                              use_rnel=use_rnel, delay_window=window)
    assert detector.detect(route).labels == expected

    # The engine reaches the same labels both ways: per point through its
    # ticks (destination declared) and through the route pass (deferred).
    for declare in (True, False):
        engine = model.stream_engine(use_rnel=use_rnel, delay_window=window)
        open_stream(engine, "cab", route, declare)
        engine.tick()
        for segment in route.segments[1:]:
            engine.ingest("cab", segment)
            engine.tick()
        assert engine.finalize("cab").labels == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_previous_label_selects_the_policy_row(trained_model, dataset_split,
                                               seed):
    """The route pass evaluates the policy under both previous labels and
    must pick the row of the label that actually preceded each point. The
    trained policy barely reads that input, so this runs on perturbed
    weights that (guarded below) do — against the scalar loop, which only
    ever evaluates the one state it is in."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    model = perturbed_model(trained_model, seed)
    expected = [reference_labels(model, t) for t in pool]
    blind = clone_model(model)
    table = blind.asdnet.label_embedding.weight.value
    table[1] = table[0]
    assert expected != [reference_labels(blind, t) for t in pool], \
        "the previous label must decide at least one point"
    detector = model.detector()
    assert [detector.detect(t).labels for t in pool] == expected


def test_one_sided_rnel_rules_match_the_reference(trained_model,
                                                  dataset_split, monkeypatch):
    """The test city is a two-way grid: ``e_{i-1}.out == e_i.in`` at every
    junction, so RNEL's two one-sided rules never fire there and swapping
    the two degrees would go unnoticed. Skewed degrees make all three rules
    fire on all three paths (detector, ticks, deferred finalize)."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    model = perturbed_model(trained_model, seed=1)
    network = model.pipeline.network
    monkeypatch.setattr(network, "out_degree", lambda segment: 1 + segment % 3)
    monkeypatch.setattr(network, "in_degree",
                        lambda segment: 1 + (segment // 3) % 3)
    expected = [reference_labels(model, t) for t in pool]
    assert expected != [reference_labels(model, t, use_rnel=False)
                        for t in pool]
    detector = model.detector()
    assert [detector.detect(t).labels for t in pool] == expected
    online = replay_fleet(model.stream_engine(), pool, concurrency=16)
    assert [result.labels for result in online] == expected
    engine = model.stream_engine()
    for index, trajectory in enumerate(pool):
        open_stream(engine, index, trajectory, declare=False)
        feed(engine, index, trajectory, 1, None)
    deferred = engine.finalize_many(list(range(len(pool))))
    assert [result.labels for result in deferred] == expected


@pytest.mark.parametrize("use_rnel", [True, False])
def test_label_route_reads_only_the_interior_states(models, dataset_split,
                                                    use_rnel):
    """``label_route`` itself, fed the way each caller feeds it: the
    detector's ``n - 1`` rows and a fully stepped stream's ``n`` — with
    garbage where nobody may look, and the same labels again once every
    choice is read from the table's slots."""
    _, _, test = dataset_split
    model = models[1]
    network, pipeline = model.pipeline.network, model.pipeline
    for trajectory in sorted(test, key=len)[-4:] + [cut(test[0], 3)]:
        segments = trajectory.segments
        n = len(segments)
        tokens = pipeline.vocabulary.tokens(segments)
        hidden = hidden_states(model.rsrnet, tokens)
        ordered = pipeline.vocabulary.ordered_segments()
        rnel = rnel_masks([network.in_degree(s) for s in ordered],
                          [network.out_degree(s) for s in ordered],
                          enabled=use_rnel)
        allowed = pipeline.normal_transitions_for(trajectory)
        expected = reference_labels(model, trajectory, use_rnel, None)
        for stepped in (n - 1, n):
            states = PrefixStates(hidden.shape[1],
                                  model.rsrnet.weights_version)
            states.append(list(zip(range(n), tokens)), hidden, hidden)
            states.hidden[1] = states.hidden[n] = np.nan
            rows = list(range(1, stepped + 1))
            for _ in range(2):
                assert label_route(segments, tokens, rows, states, allowed,
                                   rnel, model.rsrnet,
                                   model.asdnet) == expected


def test_hidden_states_match_the_step_loop(trained_model, dataset_split):
    """One projection matmul for the route sums in another order than one
    matvec per point: equal to rounding, not to the bit."""
    _, _, test = dataset_split
    rsrnet = trained_model.rsrnet
    tokens = trained_model.pipeline.vocabulary.tokens(
        max(test, key=len).segments)
    h = c = np.zeros(rsrnet.config.hidden_dim)
    stepped = []
    for token in tokens:
        _, h, c = rsrnet_step(rsrnet, h, c, token, 0)
        stepped.append(h)
    np.testing.assert_allclose(hidden_states(rsrnet, tokens),
                               np.array(stepped), rtol=0.0, atol=1e-12)
    assert hidden_states(rsrnet, []).shape == (0, rsrnet.config.hidden_dim)
    with pytest.raises(ModelError):
        rsrnet.lstm.infer(np.zeros((3, 5)))
    with pytest.raises(ModelError):
        hidden_states(rsrnet, [len(trained_model.pipeline.vocabulary)])


# ------------------------------------------------------------ cost contract
def count_work(monkeypatch, model):
    """Rows through the LSTM gate kernel and through the policy, per call."""
    cell, asdnet = model.rsrnet.lstm.cell, model.asdnet
    step, policy = cell._step, asdnet.policy_logits_batch
    lstm_rows, policy_rows = [], []

    def counting_step(input_term, h_prev, c_prev):
        lstm_rows.append(1 if input_term.ndim == 1 else len(input_term))
        return step(input_term, h_prev, c_prev)

    def counting_policy(z, previous_labels):
        policy_rows.append(len(previous_labels))
        return policy(z, previous_labels)

    monkeypatch.setattr(cell, "_step", counting_step)
    monkeypatch.setattr(asdnet, "policy_logits_batch", counting_policy)
    return lstm_rows, policy_rows


@pytest.mark.parametrize("length", [1, 2, 3, 4, None])
def test_detect_steps_every_point_but_the_destination(trained_model,
                                                      dataset_split,
                                                      monkeypatch, length):
    _, _, test = dataset_split
    model = clone_model(trained_model)
    route = cut(max(test, key=len), length)
    n = len(route)
    detector = model.detector()
    lstm_rows, policy_rows = count_work(monkeypatch, model)
    labels = detector.detect(route).labels
    if n <= 2:  # no interior point: nobody's hidden state is read
        assert lstm_rows == [] and policy_rows == []
    else:
        assert lstm_rows == [1] * (n - 1)
        assert policy_rows == [2 * (n - 2)]  # no per-point policy call
    # A route decided before is read from the table: no LSTM, no policy.
    lstm_rows.clear()
    policy_rows.clear()
    assert detector.detect(route).labels == labels
    assert lstm_rows == [] and policy_rows == []


def with_history(model, trips):
    return [t for t in trips if model.pipeline.sd_group(
        t.source, t.destination, t.start_time_s)]


def test_lockstep_fleet_steps_every_point_but_the_destinations(
        trained_model, dataset_split, monkeypatch):
    _, _, test = dataset_split
    model = clone_model(trained_model)
    fleet = with_history(model, test)[:12]  # online streams, not deferred
    assert len(fleet) >= 8
    engine = model.stream_engine()
    lstm_rows, _ = count_work(monkeypatch, model)
    results = replay_fleet(engine, fleet, concurrency=5)
    # Every point but the destination is one prefix-state lookup; the gate
    # kernel computes each distinct prefix once.
    assert (engine.states.hits + engine.states.misses
            == sum(len(t) - 1 for t in fleet))
    assert sum(lstm_rows) == engine.states.misses == len(
        {tuple(t.segments[:k]) for t in fleet for k in range(1, len(t))})
    assert engine.points_processed == sum(len(t) for t in fleet)
    for trajectory, result in zip(fleet, results):
        assert result.labels == reference_labels(model, trajectory)


def test_a_replayed_fleet_runs_no_policy_row(trained_model, dataset_split,
                                            monkeypatch):
    """The second replay of the same trips through a held engine finds
    every choice in the table."""
    _, _, test = dataset_split
    model = clone_model(trained_model)
    fleet = test[:24]
    engine = model.stream_engine()
    _, policy_rows = count_work(monkeypatch, model)
    first = [result.labels for result in replay_fleet(engine, fleet, 5)]
    assert sum(policy_rows) > 0
    policy_rows.clear()
    assert [result.labels for result in replay_fleet(engine, fleet, 5)] \
        == first
    assert policy_rows == []


def test_a_decided_deferred_route_finalizes_without_the_policy(
        trained_model, dataset_split, monkeypatch):
    _, _, test = dataset_split
    model = clone_model(trained_model)
    trajectory = max(test, key=len)
    engine = model.stream_engine()
    _, policy_rows = count_work(monkeypatch, model)
    labels = []
    for _ in range(2):
        open_stream(engine, "cab", trajectory, declare=False)
        feed(engine, "cab", trajectory, 1, None)
        while engine._ready:
            engine.tick()
        policy_rows.clear()
        labels.append(engine.finalize("cab").labels)
    assert policy_rows == []  # the second finalize
    assert labels[0] == labels[1] == reference_labels(model, trajectory)


def caught_up_stream(engine, trajectory, trace_destination=False):
    """An online stream whose every point has arrived and been ticked."""
    last = len(trajectory) - 1
    for position, segment in enumerate(trajectory.segments):
        trace = (TraceContext(7, 0.0)
                 if trace_destination and position == last else None)
        if position == 0:
            engine.ingest("cab", segment, destination=trajectory.destination,
                          start_time_s=trajectory.start_time_s, trace=trace)
        else:
            engine.ingest("cab", segment, trace=trace)
        engine.tick()
    assert not engine._streams["cab"].deferred
    assert not engine._ready


def test_caught_up_online_stream_finalizes_without_a_tick(trained_model,
                                                          dataset_split,
                                                          monkeypatch):
    """Only the destination is pending: its label is forced, so closing the
    trip costs no tick and no LSTM row — yet it counts as a labeled point and
    its ``engine_tick`` span closes, in the finalize pass."""
    _, _, test = dataset_split
    model = clone_model(trained_model)
    trajectory = max(with_history(model, test), key=len)
    engine = model.stream_engine()
    engine.tracer = Tracer()
    caught_up_stream(engine, trajectory, trace_destination=True)
    n = len(trajectory)
    assert engine.pending_points("cab") == 1
    assert engine.points_processed == n - 1
    assert engine.tracer.spans == []
    ticks = engine.ticks
    lstm_rows, policy_rows = count_work(monkeypatch, model)
    result = engine.finalize("cab")
    assert engine.ticks == ticks and lstm_rows == [] and policy_rows == []
    assert engine.points_processed == n
    assert [(span.stage, span.trace_id) for span in engine.tracer.spans
            if span.stage == "engine_tick"] == [("engine_tick", 7)]
    assert result.labels == reference_labels(model, trajectory)


@pytest.mark.parametrize("declare", [True, False])
def test_single_point_stream_finalizes_without_a_tick(trained_model,
                                                      dataset_split, declare):
    """The only point is the destination."""
    _, _, test = dataset_split
    engine = trained_model.stream_engine()
    open_stream(engine, "cab", cut(test[0], 1), declare)
    assert engine.finalize("cab").labels == [0]
    assert engine.ticks == 0 and engine.points_processed == 1
    assert not engine._ready


@pytest.mark.parametrize("deferred", [False, True])
def test_swap_before_finalize_cannot_touch_the_destination(trained_model,
                                                           dataset_split,
                                                           deferred):
    """New weights arrive after the last point and before ``finalize``. An
    online stream's earlier points keep their old-model labels and the
    destination's is forced; a deferred stream is labeled wholly by the new
    weights — neither steps the destination under them."""
    _, _, test = dataset_split
    model = clone_model(trained_model)
    swapped = perturbed_model(trained_model, seed=3)
    snapshot = weights_snapshot(swapped)
    trajectory = max(with_history(model, test), key=len)
    engine = model.stream_engine(use_rnel=False)
    if deferred:
        open_stream(engine, "cab", trajectory, declare=False)
        feed(engine, "cab", trajectory, 1, None)
        while engine._ready:
            engine.tick()
        expected = reference_labels(swapped, trajectory, use_rnel=False)
    else:
        expected = reference_labels(model, trajectory, use_rnel=False)
        caught_up_stream(engine, trajectory)
    engine.load_weights(snapshot["rsrnet"], snapshot["asdnet"])
    ticks = engine.ticks
    result = engine.finalize("cab")
    assert result.labels == expected
    assert result.labels[-1] == 0
    # The deferred stream re-steps points 0 … n-2 under the new weights.
    assert engine.ticks - ticks == (len(trajectory) - 1 if deferred else 0)

