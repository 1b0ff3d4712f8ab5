"""Deferred streams: eager recurrence, one-pass labeling at finalize.

A deferred stream (no declared destination, or an SD pair without history)
runs its LSTM steps as its points arrive and is labeled in one vectorised
pass when it finalizes. The contract is unchanged — labels identical to
:class:`OnlineDetector` — so every test here drives the engine somewhere the
eagerly computed hidden states could go stale or out of order (arbitrary
interleavings, bursts, weight swaps, history refreshes, pool growth) and
compares against the reference detector or a fresh engine.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (ASDNetConfig, LabelingConfig, RSRNetConfig,
                          TrainingConfig)
from repro.core import RL4OASDTrainer, StreamEngine
from repro.core import stream as stream_module
from repro.history import clone_snapshot
from repro.labeling import PreprocessingPipeline
from repro.labeling.normal_routes import normal_transitions
from repro.obs.trace import TraceContext, Tracer
from repro.roadnet.shortest_path import k_shortest_routes
from repro.serve import clone_model, serve_fleet, weights_snapshot
from repro.trajectory import MatchedTrajectory
from repro.trajectory.ops import interleave_streams
from repro.trajectory.sdpairs import time_slot_of

FLEETS = settings(max_examples=25, deadline=None)


def open_stream(engine, vehicle, trajectory, declare):
    engine.ingest(vehicle, trajectory.segments[0],
                  destination=trajectory.destination if declare else None,
                  start_time_s=trajectory.start_time_s,
                  trajectory_id=trajectory.trajectory_id)


def feed(engine, vehicle, trajectory, start, stop):
    for segment in trajectory.segments[start:stop]:
        engine.ingest(vehicle, segment)


def quiesce(engine):
    """Tick until nothing is left to step (labels *or* hidden states)."""
    while engine._ready:
        engine.tick()


def drive_mixed_fleet(engine, fleet, declared, seed, ticks):
    """Random interleaving of the fleet's points, ``ticks[i]`` ticks after
    the i-th event (cycled); returns the results."""
    rng = np.random.default_rng(seed)
    for event, (index, position, segment) in enumerate(
            interleave_streams(fleet, rng)):
        if position == 0:
            open_stream(engine, index, fleet[index], declared[index])
        else:
            engine.ingest(index, segment)
        for _ in range(ticks[event % len(ticks)]):
            engine.tick()
    order = [int(index) for index in rng.permutation(len(fleet))]
    results = dict(zip(order, engine.finalize_many(order)))
    return [results[index] for index in range(len(fleet))]


fleet_plans = st.tuples(
    st.lists(st.tuples(st.integers(0, 10_000), st.booleans()),
             min_size=1, max_size=12),
    st.integers(0, 2 ** 32 - 1),
    st.lists(st.integers(0, 3), min_size=1, max_size=7),
)


# ------------------------------------------------------------- equivalence
@FLEETS
@given(plan=fleet_plans)
def test_mixed_fleets_match_detector(trained_model, dataset_split, plan):
    """Online and deferred streams sharing ticks, any ingest/tick order."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    picks, seed, ticks = plan
    fleet = [pool[pick % len(pool)] for pick, _ in picks]
    declared = [declare for _, declare in picks]
    detector = trained_model.detector()
    engine = trained_model.stream_engine()
    results = drive_mixed_fleet(engine, fleet, declared, seed, ticks)
    for trajectory, result in zip(fleet, results):
        reference = detector.detect(trajectory)
        assert result.labels == reference.labels
        assert result.spans == reference.spans
    assert engine.points_processed == sum(len(t) for t in fleet)
    assert engine.total_pending_points() == 0
    assert not engine._ready


@pytest.mark.parametrize("length", [1, 2, 3])
def test_shortest_routes(trained_model, dataset_split, length):
    """No interior point, or exactly one: the endpoint rule alone decides
    (almost) everything and the policy batch is empty or two rows."""
    _, _, test = dataset_split
    for number, source in enumerate(test[:6]):
        route = MatchedTrajectory(number, list(source.segments[:length]),
                                  start_time_s=source.start_time_s)
        reference = trained_model.detector().detect(route)
        for ticking in (False, True):
            engine = trained_model.stream_engine()
            open_stream(engine, "cab", route, declare=False)
            feed(engine, "cab", route, 1, None)
            if ticking:
                quiesce(engine)
            result = engine.finalize("cab")
            assert result.labels == reference.labels
            assert len(result.labels) == length


def test_burst_ingest_then_immediate_finalize(trained_model, dataset_split):
    """Nothing stepped yet: finalize catches the recurrence up by itself."""
    _, _, test = dataset_split
    detector = trained_model.detector()
    engine = trained_model.stream_engine()
    fleet = test[:5]
    for index, trajectory in enumerate(fleet):
        open_stream(engine, index, trajectory, declare=False)
        feed(engine, index, trajectory, 1, None)
        assert engine.ticks == 0
    results = engine.finalize_many(list(range(len(fleet))))
    for trajectory, result in zip(fleet, results):
        assert result.labels == detector.detect(trajectory).labels
    # The closing streams caught up together, one shared batch per step —
    # and nobody steps a destination.
    assert engine.ticks == max(len(t) for t in fleet) - 1


# ------------------------------------------------------ stale hidden states
def perturbed_weights(model, seed):
    rng = np.random.default_rng(seed)
    snapshot = weights_snapshot(model)
    for state in snapshot.values():
        for name, value in state.items():
            state[name] = value + rng.normal(0.0, 0.3, size=value.shape)
    return snapshot


def perturbed_model(model, seed):
    snapshot = perturbed_weights(model, seed)
    model = clone_model(model)
    model.rsrnet.load_state_dict(snapshot["rsrnet"])
    model.asdnet.load_state_dict(snapshot["asdnet"])
    return model


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_previous_label_selects_the_policy_row(trained_model, dataset_split,
                                               seed):
    """The finalize pass evaluates the policy under both previous labels and
    must pick the row of the label that actually preceded each point. The
    trained policy barely reads its previous-label input, so this runs on
    perturbed weights that (guarded below) do."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    model = perturbed_model(trained_model, seed)
    expected = [model.detector().detect(t).labels for t in pool]
    blind = clone_model(model)
    table = blind.asdnet.label_embedding.weight.value
    table[1] = table[0]
    assert expected != [blind.detector().detect(t).labels for t in pool], \
        "the previous label must decide at least one point"
    engine = model.stream_engine()
    for index, trajectory in enumerate(pool):
        open_stream(engine, index, trajectory, declare=False)
        feed(engine, index, trajectory, 1, None)
        engine.tick()
    results = engine.finalize_many(list(range(len(pool))))
    assert [result.labels for result in results] == expected


def half_stepped_fleet(engine, fleet):
    """Deferred streams with some points stepped and some only buffered."""
    for index, trajectory in enumerate(fleet):
        open_stream(engine, index, trajectory, declare=False)
        feed(engine, index, trajectory, 1, len(trajectory) // 2)
    quiesce(engine)
    for index, trajectory in enumerate(fleet):
        feed(engine, index, trajectory, len(trajectory) // 2,
             len(trajectory) - 1)
    engine.tick()
    assert any(0 < stream.stepped < len(stream.segments)
               for stream in engine._streams.values())


def finish_fleet(engine, fleet):
    for index, trajectory in enumerate(fleet):
        feed(engine, index, trajectory, len(trajectory) - 1, None)
    return engine.finalize_many(list(range(len(fleet))))


def test_load_weights_restarts_half_stepped_streams(trained_model,
                                                    dataset_split):
    """A deferred stream is labeled wholly by the weights serving at its
    finalize: labels equal a fresh engine that only ever saw the new ones."""
    _, _, test = dataset_split
    fleet = sorted(test, key=len)[-6:]
    snapshot = perturbed_weights(trained_model, seed=9)
    fresh_model = perturbed_model(trained_model, seed=9)
    # Without RNEL the policy decides every interior point, so the new
    # weights visibly change labels and a stale hidden state would too.
    fresh = fresh_model.stream_engine(use_rnel=False)
    old = trained_model.stream_engine(use_rnel=False)
    for index, trajectory in enumerate(fleet):
        for engine in (fresh, old):
            open_stream(engine, index, trajectory, declare=False)
            feed(engine, index, trajectory, 1, None)
    expected = fresh.finalize_many(list(range(len(fleet))))
    stale = old.finalize_many(list(range(len(fleet))))
    assert sum(before.labels != after.labels
               for before, after in zip(stale, expected)) >= 1, \
        "the perturbed weights must visibly change the labels"

    engine = clone_model(trained_model).stream_engine(use_rnel=False)
    half_stepped_fleet(engine, fleet)
    engine.load_weights(snapshot["rsrnet"], snapshot["asdnet"])
    assert all(stream.stepped == 0 and not stream.hidden_rows
               for stream in engine._streams.values())
    results = finish_fleet(engine, fleet)
    for before, after in zip(expected, results):
        assert after.labels == before.labels


@pytest.fixture(scope="module")
def small_trainer(dataset, dataset_split):
    train, development, _ = dataset_split
    trainer = RL4OASDTrainer(
        dataset.network, train[:80],
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
        rsrnet_config=RSRNetConfig(embedding_dim=12, hidden_dim=12, nrf_dim=6,
                                   seed=5),
        asdnet_config=ASDNetConfig(label_embedding_dim=6, seed=6),
        training_config=TrainingConfig(
            pretrain_trajectories=24, pretrain_epochs=1,
            joint_trajectories=8, joint_epochs=1, validation_interval=8,
            seed=7),
        development_set=development[:8],
    )
    trainer.train()
    return trainer


def test_in_place_fine_tune_then_invalidate_cache(small_trainer,
                                                  dataset_split):
    """Fine-tuning mutates the served networks in place; after
    ``invalidate_cache`` half-stepped deferred streams re-step under the
    new weights (against the history they pinned at open)."""
    train, _, test = dataset_split
    fleet = sorted(test, key=len)[-5:]
    model = small_trainer.model()
    pinned = model.pipeline.history
    engine = model.stream_engine()
    half_stepped_fleet(engine, fleet)
    before = weights_snapshot(model)
    small_trainer.fine_tune(train[80:120], epochs=2, batch_size=8)
    after = weights_snapshot(model)
    assert any(not np.array_equal(before["rsrnet"][name], value)
               for name, value in after["rsrnet"].items())
    engine.invalidate_cache()
    results = finish_fleet(engine, fleet)

    fresh = small_trainer.model().with_history(pinned).stream_engine()
    for index, trajectory in enumerate(fleet):
        open_stream(fresh, index, trajectory, declare=False)
        feed(fresh, index, trajectory, 1, None)
    expected = fresh.finalize_many(list(range(len(fleet))))
    for before_result, after_result in zip(expected, results):
        assert after_result.labels == before_result.labels


def test_load_history_mid_stream_keeps_the_pinned_snapshot(trained_model,
                                                           dataset_split):
    """Hidden states never depend on history; the labeling pass resolves
    normal routes against the snapshot the stream pinned when it opened."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    anomalous = [t for t in pool if t.labels and any(t.labels)][:4]
    extension = [MatchedTrajectory(1_000_000 + 30 * number + copy,
                                   list(trajectory.segments),
                                   start_time_s=trajectory.start_time_s)
                 for number, trajectory in enumerate(anomalous)
                 for copy in range(30)]
    base = trained_model.pipeline.history
    refreshed = base.extended(extension, version=base.version + 1)
    fleet = anomalous + pool[:4]
    old = trained_model.detector()
    new = trained_model.with_history(refreshed).detector()
    assert any(old.detect(t).labels != new.detect(t).labels for t in fleet)

    engine = clone_model(trained_model).stream_engine()
    half_stepped_fleet(engine, fleet)
    engine.load_history(clone_snapshot(refreshed))
    for index, trajectory in enumerate(fleet):  # opened after the refresh
        open_stream(engine, f"new-{index}", trajectory, declare=False)
        feed(engine, f"new-{index}", trajectory, 1, None)
    for trajectory, result in zip(fleet, finish_fleet(engine, fleet)):
        assert result.labels == old.detect(trajectory).labels
    for index, trajectory in enumerate(fleet):
        assert (engine.finalize(f"new-{index}").labels
                == new.detect(trajectory).labels)


def test_table_growth_and_compaction_keep_stored_states(
        trained_model, dataset_split, monkeypatch):
    """The prefix-state table grows past its first 64 rows, then compacts on
    every tick, under streams that are mid-recurrence."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    fleet = [pool[index % len(pool)] for index in range(80)]
    detector = trained_model.detector()
    engine = trained_model.stream_engine()
    for index, trajectory in enumerate(fleet):
        open_stream(engine, index, trajectory, declare=index % 3 == 0)
        feed(engine, index, trajectory, 1, len(trajectory) - 3)
    quiesce(engine)
    assert len(engine.states.hidden) > 64
    monkeypatch.setattr(stream_module, "_MAX_PREFIX_ROWS", 1)
    compact, compactions = engine.states.compact, []
    monkeypatch.setattr(engine.states, "compact", lambda *args: (
        compactions.append(args) or compact(*args)))
    for index, trajectory in enumerate(fleet):
        feed(engine, index, trajectory, len(trajectory) - 3, None)
        engine.tick()
    assert len(compactions) == len(fleet)
    results = engine.finalize_many(list(range(len(fleet))))
    for trajectory, result in zip(fleet, results):
        assert result.labels == detector.detect(trajectory).labels


# ------------------------------------------------------------ cost contract
class _Untouchable(dict):
    """A stream map that fails the test if anything walks it."""

    def _touched(self, *args, **kwargs):
        raise AssertionError("an idle tick walked the open streams")

    __iter__ = keys = values = items = _touched


def test_idle_tick_touches_no_stream(trained_model, dataset_split):
    _, _, test = dataset_split
    engine = trained_model.stream_engine()
    for index, trajectory in enumerate(test[:20]):
        open_stream(engine, index, trajectory, declare=index % 2 == 0)
        feed(engine, index, trajectory, 1, len(trajectory) - 1)
    quiesce(engine)
    ticks, lookups = engine.ticks, engine.cache.hits + engine.cache.misses
    streams = engine._streams
    engine._streams = _Untouchable(streams)
    try:
        assert engine.tick() == 0
    finally:
        engine._streams = streams
    assert engine.ticks == ticks
    assert engine.cache.hits + engine.cache.misses == lookups
    # One vehicle reporting wakes exactly one stream.
    engine.ingest(1, test[1].segments[-1])
    assert list(engine._ready) == [1]


def test_finalize_labels_in_one_policy_call(trained_model, dataset_split,
                                            monkeypatch):
    """No per-point tick, no batch-1 policy call: a stepped deferred stream
    finalizes with zero LSTM steps and one policy batch over its interior
    points under both previous labels."""
    _, _, test = dataset_split
    trajectory = max(test, key=len)
    model = clone_model(trained_model)
    engine = model.stream_engine(use_rnel=False)
    open_stream(engine, "cab", trajectory, declare=False)
    feed(engine, "cab", trajectory, 1, None)
    assert engine.pending_points("cab") == len(trajectory)
    while engine._ready:
        assert engine.tick() == 0  # steps, labels nothing
    assert engine.points_processed == 0
    assert engine.pending_points("cab") == len(trajectory)

    policy_rows, steps = [], []
    policy, step = model.asdnet.policy_logits_batch, model.rsrnet.step_batch

    def counting_policy(z, previous_labels):
        policy_rows.append(len(previous_labels))
        return policy(z, previous_labels)

    def counting_step(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(model.asdnet, "policy_logits_batch", counting_policy)
    monkeypatch.setattr(model.rsrnet, "step_batch", counting_step)
    ticks = engine.ticks
    result = engine.finalize("cab")
    assert policy_rows == [2 * (len(trajectory) - 2)]
    assert steps == [] and engine.ticks == ticks
    assert engine.points_processed == len(trajectory)
    reference = clone_model(trained_model).stream_engine(use_rnel=False)
    open_stream(reference, "cab", trajectory, declare=True)
    for segment in trajectory.segments[1:]:
        reference.ingest("cab", segment)
        reference.tick()
    assert result.labels == reference.finalize("cab").labels


def test_engine_tick_spans_close_in_the_finalize_pass(trained_model,
                                                      dataset_split):
    """``engine_tick`` keeps meaning "handed to the engine → labeled"."""
    _, _, test = dataset_split
    trajectory = test[0]
    engine = trained_model.stream_engine()
    engine.tracer = Tracer()
    for position, segment in enumerate(trajectory.segments):
        engine.ingest("cab", segment,
                      trace=TraceContext(position + 1, 0.0)
                      if position % 2 == 0 else None)
        engine.tick()
    assert engine.tracer.spans == []
    engine.finalize("cab")
    ticked = [span.trace_id for span in engine.tracer.spans
              if span.stage == "engine_tick"]
    assert ticked == list(range(1, len(trajectory) + 1, 2))


# ------------------------------------------------- memoised transition set
def test_normal_transitions_for_is_memoised_beside_the_routes(
        trained_model, dataset_split):
    train, _, test = dataset_split
    pipeline = trained_model.pipeline.with_history(
        clone_snapshot(trained_model.pipeline.history))
    known = next(t for t in test if pipeline.sd_group(
        t.source, t.destination, t.start_time_s))
    allowed = pipeline.normal_transitions_for(known)
    assert isinstance(allowed, frozenset)
    assert allowed == normal_transitions(pipeline.normal_routes_for(known))
    assert pipeline.normal_transitions_for(known) is allowed
    # A no-history pair falls back to the query's own route, computed
    # from the query and stored nowhere ...
    lonely = MatchedTrajectory(7, [known.segments[1], known.segments[0]])
    assert not pipeline.sd_group(lonely.source, lonely.destination)
    cached = dict(pipeline.history._routes_cache)
    fallback = pipeline.normal_transitions_for(lonely)
    assert fallback == normal_transitions([lonely.segments])
    assert pipeline.history._routes_cache == cached
    # ... and a refresh extends every touched pair's entry, while untouched
    # pairs keep theirs (one tally is behind the routes and the set).
    other = next(t for t in train
                 if (t.source, t.destination)
                 != (known.source, known.destination))
    untouched = pipeline.normal_transitions_for(other)
    snapshot = pipeline.history
    successor = snapshot.extended([known], version=snapshot.version + 1)
    assert pipeline.normal_transitions_for(
        other, history=successor) is untouched
    assert pipeline.normal_transitions_for(
        known, history=successor) is not allowed
    assert pipeline.normal_transitions_for(
        lonely, history=successor) == fallback
    # Pinned readers of the old snapshot are unaffected.
    assert pipeline.normal_transitions_for(known, history=snapshot) is allowed


def memo_pipeline(model, min_slot_group_size):
    """A fresh pipeline over a memo-free copy of the model's history."""
    config = dataclasses.replace(model.pipeline.config,
                                 min_slot_group_size=min_slot_group_size)
    return PreprocessingPipeline(model.pipeline.network, config=config,
                                 history=clone_snapshot(model.pipeline.history))


@pytest.mark.parametrize("case", ["dense-slot", "pair-wide", "pre-refresh"])
def test_opening_by_key_leaves_the_memo_as_a_reference_open(
        trained_model, dataset_split, case):
    """A stream resolves its SD pair by key when it opens: to the very set a
    reference resolution of the trip ``[s, d]`` returns, leaving the pinned
    snapshot's memo as that resolution leaves a twin's."""
    _, _, test = dataset_split
    min_size = (1 if case == "dense-slot"
                else trained_model.pipeline.config.min_slot_group_size)
    pipeline, twin = (memo_pipeline(trained_model, min_size),
                      memo_pipeline(trained_model, min_size))
    snapshot, twin_snapshot = pipeline.history, twin.history

    def resolved_slot(trip):
        return snapshot.resolved_key(
            trip.source, trip.destination,
            time_slot_of(trip.start_time_s, snapshot.slots_per_day),
            min_size)[2]

    trip = next(t for t in test if snapshot.has_pair(t.source, t.destination)
                and (resolved_slot(t) is None) == (case != "dense-slot"))
    reference = MatchedTrajectory(-1, [trip.source, trip.destination],
                                  start_time_s=trip.start_time_s)
    engine = StreamEngine(trained_model.rsrnet, trained_model.asdnet,
                          pipeline)

    def opened_like_the_twin(vehicle, pinned, twin_pinned):
        engine.ingest(vehicle, trip.source, destination=trip.destination,
                      start_time_s=trip.start_time_s)
        stream = engine._streams[vehicle]
        assert stream.history is pinned
        expected = twin.normal_transitions_for(reference, history=twin_pinned)
        assert stream.normal_transitions is pipeline.normal_transitions_for(
            reference, history=pinned)
        assert stream.normal_transitions == expected
        assert pinned.derivations == twin_pinned.derivations
        assert pinned._routes_cache.keys() == twin_pinned._routes_cache.keys()

    opened_like_the_twin("cab", snapshot, twin_snapshot)
    assert snapshot.derivations == {"computed": 1, "extended": 0}
    if case == "pre-refresh":
        # The stream keeps the snapshot it opened on; the refresh extends
        # the entry it filled, and a stream opened after it resolves there.
        successor = snapshot.extended([trip], version=snapshot.version + 1)
        engine.load_history(successor)
        twin_successor = twin_snapshot.extended(
            [trip], version=twin_snapshot.version + 1)
        twin.load_history(twin_successor)
        assert engine._streams["cab"].history is snapshot
        assert engine._streams["cab"].normal_transitions is (
            pipeline.normal_transitions_for(reference, history=snapshot))
        opened_like_the_twin("late", successor, twin_successor)
        assert successor.derivations == {"computed": 1, "extended": 1}
        assert (engine._streams["late"].normal_transitions
                is not engine._streams["cab"].normal_transitions)


# ------------------------------------- a pair with no history has no memory
def lonely_pairs(trained_model, dataset, dataset_split, count=6):
    """``count`` SD pairs with no history, each as two trips over the pair's
    two cheapest routes: ``[a0, b0, a1, b1, ...]``."""
    _, development, test = dataset_split
    history = trained_model.pipeline.history
    trips, seen = [], set()
    for trip in list(test) + list(development):
        pair = (trip.segments[1], trip.segments[-2])
        if pair in seen or history.has_pair(*pair):
            continue
        seen.add(pair)
        routes = k_shortest_routes(dataset.network, *pair, k=2)
        if len(routes) == 2:
            trips.extend(MatchedTrajectory(len(trips) + offset, route,
                                           start_time_s=trip.start_time_s)
                         for offset, route in enumerate(routes))
        if len(trips) == 2 * count:
            return trips
    raise AssertionError("the dataset ran out of history-less pairs")


def through_detector(model, trips):
    detector = model.detector()
    return [detector.detect(trip).labels for trip in trips]


def through_engine(model, trips, declare):
    engine = model.stream_engine()
    labels = []
    for vehicle, trip in enumerate(trips):
        open_stream(engine, vehicle, trip, declare)
        feed(engine, vehicle, trip, 1, None)
        labels.append(engine.finalize(vehicle).labels)
    return labels


def through_service(model, trips):
    with model.detection_service(num_shards=2) as service:
        return [result.labels for result in serve_fleet(service, trips)]


@pytest.mark.parametrize("path", [
    through_detector,
    lambda model, trips: through_engine(model, trips, declare=True),
    lambda model, trips: through_engine(model, trips, declare=False),
    through_service,
], ids=["detector", "engine-declared", "engine-undeclared", "service"])
def test_a_history_less_trip_is_labelled_as_it_is_alone(
        trained_model, dataset, dataset_split, path):
    """Its own route is the normal route of a trip whose SD pair has no
    history — whichever trip of the pair was labelled before it."""
    trips = lonely_pairs(trained_model, dataset, dataset_split)
    alone = [through_detector(clone_model(trained_model), [trip])[0]
             for trip in trips]
    assert path(clone_model(trained_model), trips) == alone
    assert path(clone_model(trained_model), trips[::-1]) == alone[::-1]
