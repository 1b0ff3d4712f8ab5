"""Differential tests: the batched StreamEngine vs. the reference detector.

The fleet engine must be *label-identical* to :class:`OnlineDetector` — same
labels, same anomalous spans, same ``is_anomalous`` — no matter how many
streams run concurrently or how their points interleave. These tests replay
randomized fleets through both paths and compare exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import StreamEngine, replay_fleet
from test_deferred_streams import (feed, open_stream, perturbed_model,
                                   perturbed_weights)

from repro.exceptions import LabelingError, ModelError, TrajectoryError
from repro.serve import clone_model
from repro.trajectory import MatchedTrajectory
from repro.trajectory.ops import interleave_streams


def run_randomized_fleet(engine, trajectories, rng, tick_every=3):
    """Drive the engine with a random interleaving of the fleet's points."""
    events = 0
    for index, position, segment in interleave_streams(trajectories, rng):
        trajectory = trajectories[index]
        if position == 0:
            engine.ingest(index, segment,
                          destination=trajectory.destination,
                          start_time_s=trajectory.start_time_s,
                          trajectory_id=trajectory.trajectory_id)
        else:
            engine.ingest(index, segment)
        events += 1
        if events % tick_every == 0:
            engine.tick()
    return [engine.finalize(index) for index in range(len(trajectories))]


def assert_results_match(reference, result):
    assert result.labels == reference.labels
    assert result.spans == reference.spans
    assert result.is_anomalous == reference.is_anomalous
    assert len(result.labels) == len(reference.trajectory)


# ------------------------------------------------------------- equivalence
@pytest.mark.fleet
def test_matches_online_detector_on_randomized_fleets(trained_model,
                                                      dataset_split):
    """Acceptance: identical labels over >= 100 randomized interleaved streams."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    detector = trained_model.detector()
    total_streams = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        fleet = [pool[int(rng.integers(len(pool)))]
                 for _ in range(25)]
        engine = trained_model.stream_engine()
        results = run_randomized_fleet(engine, fleet, rng,
                                       tick_every=int(rng.integers(1, 7)))
        for trajectory, result in zip(fleet, results):
            assert_results_match(detector.detect(trajectory), result)
        total_streams += len(fleet)
    assert total_streams >= 100


@pytest.mark.fleet
def test_lockstep_replay_matches_detector(trained_model, dataset_split):
    _, _, test = dataset_split
    detector = trained_model.detector()
    engine = trained_model.stream_engine()
    results = replay_fleet(engine, test, concurrency=8)
    assert len(results) == len(test)
    for trajectory, result in zip(test, results):
        assert_results_match(detector.detect(trajectory), result)
        assert result.trajectory.trajectory_id == trajectory.trajectory_id


def test_single_stream_tick_per_point(trained_model, dataset_split):
    """One vehicle, one tick per ingested point — the degenerate fleet."""
    _, _, test = dataset_split
    detector = trained_model.detector()
    for trajectory in test[:5]:
        engine = trained_model.stream_engine()
        for position, segment in enumerate(trajectory.segments):
            if position == 0:
                engine.ingest("cab", segment,
                              destination=trajectory.destination,
                              start_time_s=trajectory.start_time_s)
            else:
                engine.ingest("cab", segment)
            engine.tick()
        assert_results_match(detector.detect(trajectory),
                             engine.finalize("cab"))


def test_deferred_mode_without_destination(trained_model, dataset_split):
    """Streams with undeclared destinations buffer, then match exactly."""
    _, _, test = dataset_split
    detector = trained_model.detector()
    engine = trained_model.stream_engine()
    for index, trajectory in enumerate(test[:6]):
        for position, segment in enumerate(trajectory.segments):
            if position == 0:
                engine.ingest(index, segment,
                              start_time_s=trajectory.start_time_s)
            else:
                engine.ingest(index, segment)
        assert engine.pending_points(index) == len(trajectory)
    for index, trajectory in enumerate(test[:6]):
        assert_results_match(detector.detect(trajectory),
                             engine.finalize(index))


def test_cache_eviction_does_not_change_labels(trained_model, dataset_split):
    """Projections read from the shared table yield identical labels (the
    table evicts nothing: a row is computed once and kept)."""
    _, _, test = dataset_split
    detector = trained_model.detector()
    engine = trained_model.stream_engine()
    results = replay_fleet(engine, test[:10], concurrency=5)
    for trajectory, result in zip(test[:10], results):
        assert_results_match(detector.detect(trajectory), result)
    # One prefix-state lookup per LSTM row: every point but each trip's
    # destination; one projection lookup per state computed.
    rows = sum(len(t) - 1 for t in test[:10])
    assert engine.states.hits + engine.states.misses == rows
    assert engine.cache.hits + engine.cache.misses == engine.states.misses


def test_cache_is_shared_across_the_fleet(trained_model, dataset_split):
    _, _, test = dataset_split
    engine = trained_model.stream_engine()
    trip = test[0]
    # Identical trips share every prefix state; the same road reached by
    # another prefix (the trip cut at its source) shares the projections.
    shifted = MatchedTrajectory(10 ** 6, trip.segments[1:],
                                start_time_s=trip.start_time_s)
    replay_fleet(engine, [trip] * 4, concurrency=4)
    assert engine.states.misses == len(trip) - 1
    assert engine.states.hits == 3 * (len(trip) - 1)
    assert engine.cache.hits == 0
    replay_fleet(engine, [shifted] * 2, concurrency=2)
    assert engine.cache.misses <= len(set(trip.segments))
    assert engine.cache.hits > 0
    assert 0.0 < engine.cache.hit_rate <= 1.0
    engine.invalidate_cache()
    assert len(engine.cache) == 0
    assert len(engine.states) == 1 and not engine.states.edges


# ------------------------------------------------------------- error paths
def test_finalize_unknown_vehicle_raises(trained_model):
    engine = trained_model.stream_engine()
    with pytest.raises(ModelError):
        engine.finalize("ghost")


def test_finalize_closes_the_stream(trained_model, dataset_split):
    _, _, test = dataset_split
    trajectory = test[0]
    engine = trained_model.stream_engine()
    for position, segment in enumerate(trajectory.segments):
        engine.ingest("cab", segment,
                      destination=trajectory.destination if position == 0
                      else None)
    engine.finalize("cab")
    assert engine.active_vehicles == []
    with pytest.raises(ModelError):
        engine.finalize("cab")  # the stream is gone
    # The same vehicle id can immediately start a fresh trip.
    engine.ingest("cab", trajectory.segments[0])
    assert engine.pending_points("cab") == 1


def test_destination_mismatch_raises_and_stream_survives(trained_model,
                                                         dataset_split):
    _, _, test = dataset_split
    trajectory = next(t for t in test
                      if len(t) >= 4 and t.segments[1] != t.destination)
    engine = trained_model.stream_engine()
    engine.ingest("cab", trajectory.segments[0],
                  destination=trajectory.destination)
    engine.ingest("cab", trajectory.segments[1])
    # The trip currently ends somewhere other than the declared destination.
    with pytest.raises(ModelError):
        engine.finalize("cab")
    # The trip was simply not over: keep ingesting, then finalize cleanly.
    for segment in trajectory.segments[2:]:
        engine.ingest("cab", segment)
    assert_results_match(trained_model.detector().detect(trajectory),
                         engine.finalize("cab"))


def test_destination_mismatch_raises_in_deferred_mode(trained_model,
                                                      dataset_split):
    """The declared-destination contract holds even for history-less pairs."""
    _, _, test = dataset_split
    trajectory = test[0]
    engine = trained_model.stream_engine()
    # A destination no trip ever reached: the SD pair has no history, so the
    # stream runs deferred — the mismatch must still be rejected.
    bogus_destination = trajectory.segments[1]
    engine.ingest("cab", trajectory.segments[0], destination=bogus_destination)
    engine.ingest("cab", trajectory.segments[1])
    engine.ingest("cab", trajectory.segments[2])
    with pytest.raises(ModelError):
        engine.finalize("cab")
    assert engine.active_vehicles == ["cab"]  # the stream is still open


def test_finalize_many_rejects_duplicate_vehicles(trained_model,
                                                  dataset_split):
    _, _, test = dataset_split
    trajectory = test[0]
    engine = trained_model.stream_engine()
    for position, segment in enumerate(trajectory.segments):
        engine.ingest("cab", segment,
                      destination=trajectory.destination if position == 0
                      else None)
    with pytest.raises(ModelError):
        engine.finalize_many(["cab", "cab"])
    # The stream survives the rejected call and can still be finalized.
    result = engine.finalize("cab")
    assert len(result.labels) == len(trajectory)


def test_unknown_segment_rejected_at_ingest(trained_model, dataset_split):
    """A bad fix fails fast, per stream, without poisoning the fleet."""
    from repro.exceptions import LabelingError

    _, _, test = dataset_split
    trajectory = test[0]
    engine = trained_model.stream_engine()
    engine.ingest("good", trajectory.segments[0],
                  destination=trajectory.destination)
    with pytest.raises(LabelingError):
        engine.ingest("bad", 10 ** 9)  # never opens a stream
    with pytest.raises(LabelingError):
        engine.ingest("good", 10 ** 9)  # rejected before entering the stream
    assert engine.active_vehicles == ["good"]
    assert engine.pending_points("good") == 1
    # The healthy stream is unaffected and finishes normally.
    for segment in trajectory.segments[1:]:
        engine.ingest("good", segment)
    result = engine.finalize("good")
    assert result.labels == trained_model.detector().detect(trajectory).labels
    with pytest.raises(LabelingError):
        engine.ingest("late", trajectory.segments[0], destination=10 ** 9)


def test_replay_fleet_reattaches_original_trajectories(trained_model,
                                                       dataset_split):
    _, _, test = dataset_split
    engine = trained_model.stream_engine()
    results = replay_fleet(engine, test[:5], concurrency=3)
    for trajectory, result in zip(test[:5], results):
        assert result.trajectory is trajectory  # ground-truth labels survive


def test_replay_fleet_validates_concurrency(trained_model, dataset_split):
    _, _, test = dataset_split
    engine = trained_model.stream_engine()
    with pytest.raises(ModelError):
        replay_fleet(engine, test[:2], concurrency=0)


def test_slot_pool_grows_beyond_initial_capacity(trained_model, dataset_split):
    """More concurrent streams than the initial 64-slot state pool."""
    _, _, test = dataset_split
    detector = trained_model.detector()
    fleet = [test[i % len(test)] for i in range(80)]
    engine = trained_model.stream_engine()
    results = replay_fleet(engine, fleet, concurrency=80)
    for trajectory, result in zip(fleet, results):
        assert_results_match(detector.detect(trajectory), result)


@pytest.mark.parametrize("start_time_s",
                         [float("nan"), float("inf"), "noon", None])
def test_rejected_open_takes_no_slot(trained_model, dataset_split,
                                     start_time_s):
    """Opening fields are outside input: a start time that is not a finite
    real number is refused with a typed error, and a refused open — for
    this or an unknown destination — leaves no stream and computes no
    state."""
    _, _, test = dataset_split
    trajectory = test[0]
    engine = trained_model.stream_engine()
    for _ in range(3):
        with pytest.raises(TrajectoryError):
            engine.ingest("cab", trajectory.segments[0],
                          destination=trajectory.destination,
                          start_time_s=start_time_s)
        with pytest.raises(TrajectoryError):
            engine.ingest("cab", trajectory.segments[0],
                          start_time_s=start_time_s)
        with pytest.raises(LabelingError):
            engine.ingest("cab", trajectory.segments[0], destination=10 ** 9)
        assert engine.active_vehicles == []
        assert len(engine.states) == 1 and not engine.step_waiting()
    # The same vehicle id opens normally afterwards.
    results = replay_fleet(engine, [trajectory], concurrency=1)
    assert_results_match(trained_model.detector().detect(trajectory),
                         results[0])
    assert engine.active_vehicles == []


# ------------------------------------------------------- small unit pieces
def stepped_segments(trajectories):
    """Every segment that gets an LSTM step: all but the destinations."""
    return {segment for t in trajectories for segment in t.segments[:-1]}


def test_table_rows_fill_once_per_token_per_weight_version(trained_model,
                                                           dataset_split):
    _, _, test = dataset_split
    engine = trained_model.stream_engine()
    vocabulary = trained_model.pipeline.vocabulary
    hidden_dim = trained_model.rsrnet.config.hidden_dim
    table_bytes = len(vocabulary) * 4 * hidden_dim * 8
    assert engine.cache.nbytes == table_bytes
    assert len(engine.cache) == 0
    replay_fleet(engine, test[:10], concurrency=5)
    distinct = len(stepped_segments(test[:10]))
    assert engine.cache.misses == len(engine.cache) == distinct
    prefixes = engine.states.misses
    replay_fleet(engine, test[:10], concurrency=3)  # all hits
    assert engine.cache.misses == len(engine.cache) == distinct
    assert engine.states.misses == prefixes
    # A new weight version empties the table; the same traffic fills the
    # same rows again, once each.
    engine.load_weights(trained_model.rsrnet.state_dict(),
                        trained_model.asdnet.state_dict())
    assert len(engine.cache) == 0
    replay_fleet(engine, test[:10], concurrency=5)
    assert len(engine.cache) == distinct
    assert engine.cache.misses == 2 * distinct
    # Every LSTM row is one prefix-state lookup, every state computed one
    # projection lookup.
    rows = 3 * sum(len(t) - 1 for t in test[:10])
    assert engine.states.hits + engine.states.misses == rows
    assert engine.states.misses == 2 * prefixes
    assert engine.cache.hits + engine.cache.misses == engine.states.misses
    # Fixed-size whatever the traffic.
    assert engine.cache.nbytes == table_bytes


def test_load_weights_refills_rows_of_buffered_points(trained_model,
                                                      dataset_split):
    """Points buffered but not yet stepped when the weights change are
    stepped from rows computed under the new weights, not the filled ones:
    labels equal a fresh engine that only ever saw the new weights."""
    _, _, test = dataset_split
    fleet = sorted(test, key=len)[-6:]
    snapshot = perturbed_weights(trained_model, seed=9)
    fresh_model = perturbed_model(trained_model, seed=9)

    def buffer_fleet(engine):
        for index, trajectory in enumerate(fleet):
            open_stream(engine, index, trajectory, declare=True)
            feed(engine, index, trajectory, 1, None)

    # Without RNEL the policy decides every interior point, so stale rows
    # would visibly change labels.
    fresh = fresh_model.stream_engine(use_rnel=False)
    buffer_fleet(fresh)
    expected = fresh.finalize_many(list(range(len(fleet))))
    old = trained_model.stream_engine(use_rnel=False)
    buffer_fleet(old)
    stale = old.finalize_many(list(range(len(fleet))))
    assert [r.labels for r in stale] != [r.labels for r in expected], \
        "the perturbed weights must visibly change the labels"

    engine = clone_model(trained_model).stream_engine(use_rnel=False)
    replay_fleet(engine, fleet, concurrency=3)  # fill the rows, old weights
    assert len(engine.cache) == len(stepped_segments(fleet))
    buffer_fleet(engine)
    engine.load_weights(snapshot["rsrnet"], snapshot["asdnet"])
    results = engine.finalize_many(list(range(len(fleet))))
    assert [r.labels for r in results] == [r.labels for r in expected]
    assert len(engine.cache) == len(stepped_segments(fleet))


def test_interleave_streams_round_robin_order(dataset_split):
    _, _, test = dataset_split
    fleet = test[:3]
    events = list(interleave_streams(fleet))
    assert len(events) == sum(len(t) for t in fleet)
    # The first round visits every stream once, in order.
    first_round = [index for index, _, _ in events[:len(fleet)]]
    assert first_round == [0, 1, 2]
    per_stream = {}
    for index, position, segment in events:
        assert position == per_stream.get(index, 0)
        per_stream[index] = position + 1
        assert fleet[index].segments[position] == segment


def test_interleave_streams_random_preserves_stream_order(dataset_split):
    _, _, test = dataset_split
    fleet = test[:4]
    rng = np.random.default_rng(9)
    per_stream = {}
    total = 0
    for index, position, segment in interleave_streams(fleet, rng):
        assert position == per_stream.get(index, 0)
        per_stream[index] = position + 1
        assert fleet[index].segments[position] == segment
        total += 1
    assert total == sum(len(t) for t in fleet)
    assert per_stream == {index: len(t) for index, t in enumerate(fleet)}


# ------------------------------------------------------------- weight swaps
def test_load_weights_swaps_under_active_streams(trained_model, dataset_split):
    """Reloading the engine's own weights mid-stream changes nothing; a
    mismatched snapshot is rejected atomically, leaving the engine intact."""
    _, _, test = dataset_split
    detector = trained_model.detector()
    trajectory = max(test, key=len)
    engine = trained_model.stream_engine()
    snapshot = {
        "rsrnet": trained_model.rsrnet.state_dict(),
        "asdnet": trained_model.asdnet.state_dict(),
    }
    midpoint = len(trajectory) // 2
    for position, segment in enumerate(trajectory.segments):
        if position == 0:
            engine.ingest("cab", segment,
                          destination=trajectory.destination,
                          start_time_s=trajectory.start_time_s)
        else:
            engine.ingest("cab", segment)
        engine.tick()
        if position == midpoint:
            with pytest.raises(ModelError):
                engine.load_weights({"bogus": np.zeros(2)},
                                    snapshot["asdnet"])
            # A same-weights swap is a no-op apart from the cache flush.
            engine.load_weights(snapshot["rsrnet"], snapshot["asdnet"])
            assert len(engine.cache) == 0
    assert_results_match(detector.detect(trajectory), engine.finalize("cab"))


def test_engine_lifetime_counters(trained_model, dataset_split):
    _, _, test = dataset_split
    engine = trained_model.stream_engine()
    fleet = test[:6]
    replay_fleet(engine, fleet, concurrency=3)
    assert engine.points_processed == sum(len(t) for t in fleet)
    assert engine.streams_finalized == len(fleet)
    assert 0 < engine.ticks <= engine.points_processed
    assert engine.total_pending_points() == 0
