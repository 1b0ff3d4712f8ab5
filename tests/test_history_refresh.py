"""Differential tests of the atomic fleet-wide history hot-refresh.

The acceptance bar (the tentpole's differential pin): a service whose
history was refreshed via :meth:`DetectionService.swap` to snapshot
``S`` is *label-identical* to a service freshly built from ``S`` — across
shard counts and both backends — for every stream opened after the refresh,
while streams in flight across the refresh boundary label exactly like the
pre-refresh build (each stream pins the snapshot it opened with until
finalize). Around that: the combined weights+history atomic update against a
quiesced single engine, facade validation, version/metrics surfaces, the
engine-level pinning contract, and the OnlineLearner publishing history
alongside weights.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import LabelingError, ModelError, ServiceError
from repro.history import HistorySnapshot
from repro.serve import (IngestEvent, clone_model, serve_fleet,
                         weights_snapshot)
from repro.trajectory import MatchedTrajectory


# ---------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def drift(trained_model, dataset_split):
    """A refreshed history snapshot that *visibly* shifts normal routes.

    Anomalous test trajectories are duplicated until their detour routes
    dominate their SD-pair groups, so the pre- and post-refresh models
    disagree on at least one fleet trajectory — without that guard the
    differential assertions below would be vacuous.
    """
    _, development, test = dataset_split
    pool = list(test) + list(development)
    anomalous = [t for t in pool if t.labels and any(t.labels)][:4]
    assert anomalous, "the test pool must contain anomalous trajectories"
    extension = []
    tid = 1_000_000
    for trajectory in anomalous:
        for _ in range(30):
            extension.append(MatchedTrajectory(
                tid, list(trajectory.segments),
                start_time_s=trajectory.start_time_s))
            tid += 1
    base = trained_model.pipeline.history
    refreshed = base.extended(extension, version=base.version + 1)
    fleet = pool[:12]
    # Guard: the refresh must actually change some label somewhere.
    old_detector = trained_model.detector()
    new_detector = trained_model.with_history(refreshed).detector()
    assert any(
        old_detector.detect(t).labels != new_detector.detect(t).labels
        for t in fleet + anomalous
    ), "the drifted history must change at least one detection"
    return refreshed, fleet


def open_streams(fleet, prefix, declare, ingest_many):
    """Feed every point of every trajectory; returns the stream ids."""
    ids = []
    for index, trajectory in enumerate(fleet):
        vehicle = (prefix, index)
        ids.append(vehicle)
        for position, segment in enumerate(trajectory.segments):
            if position == 0:
                ingest_many([IngestEvent(
                    vehicle, segment,
                    destination=(trajectory.destination if declare
                                 else None),
                    start_time_s=trajectory.start_time_s,
                    trajectory_id=trajectory.trajectory_id)])
            else:
                ingest_many([IngestEvent(vehicle, segment)])
    return ids


def assert_results_match(reference, result):
    assert result.labels == reference.labels
    assert result.spans == reference.spans


# ------------------------------------------------------------- equivalence
@pytest.mark.fleet
@pytest.mark.parametrize("backend,num_shards", [("inprocess", 1),
                                                ("inprocess", 3),
                                                ("process", 2)])
def test_swap_history_matches_fresh_build_with_streams_in_flight(
        trained_model, drift, backend, num_shards):
    """Acceptance: after ``swap(history=S)`` the service is label-identical
    to a fresh build from S for post-refresh streams, while streams that
    crossed the boundary in flight match the *pre*-refresh build."""
    refreshed, fleet = drift
    in_flight, after = fleet[:6], fleet[6:]

    # Reference A: the pre-refresh build (what in-flight streams must match).
    with trained_model.detection_service(
            num_shards=num_shards, backend="inprocess") as reference:
        ids = open_streams(in_flight, "a", declare=False,
                           ingest_many=reference.ingest_many)
        expected_in_flight = reference.finalize_many(ids)

    # Reference B: a service freshly built from snapshot S.
    fresh = trained_model.with_history(refreshed)
    with fresh.detection_service(
            num_shards=num_shards, backend="inprocess") as reference:
        ids = open_streams(after, "b", declare=True,
                           ingest_many=reference.ingest_many)
        expected_after = reference.finalize_many(ids)

    # The system under test: one service, hot-refreshed mid-run. The
    # in-flight streams are deferred (no declared destination), so *every*
    # one of their labels is computed at finalize — after the refresh —
    # which is exactly what the per-stream snapshot pinning must protect.
    with trained_model.detection_service(
            num_shards=num_shards, backend=backend) as service:
        assert service.history_version == trained_model.pipeline.history.version
        in_flight_ids = open_streams(in_flight, "a", declare=False,
                                     ingest_many=service.ingest_many)
        new_version = service.swap(history=refreshed)[1]
        assert new_version == refreshed.version
        after_ids = open_streams(after, "b", declare=True,
                                 ingest_many=service.ingest_many)
        results_after = service.finalize_many(after_ids)
        results_in_flight = service.finalize_many(in_flight_ids)
        metrics = service.metrics()

    for reference, result in zip(expected_in_flight, results_in_flight):
        assert_results_match(reference, result)
    for reference, result in zip(expected_after, results_after):
        assert_results_match(reference, result)
    assert metrics.history_version == refreshed.version
    assert metrics.history_refreshes == 1
    assert all(s.history_version == refreshed.version for s in metrics.shards)


@pytest.mark.fleet
@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_combined_weights_and_history_swap_is_one_atomic_boundary(
        trained_model, drift, backend):
    """``swap(weights=..., history=...)`` equals a single engine that loads
    both at one quiesced boundary — mixed in-flight declared streams keep
    their pinned history while later points get the new weights."""
    refreshed, fleet = drift
    rng = np.random.default_rng(7)
    snapshot = weights_snapshot(trained_model)
    for state in snapshot.values():
        for name, value in state.items():
            state[name] = value + rng.normal(0.0, 0.05, size=value.shape)
    half = [t for t in fleet if len(t) >= 4][:6]

    def drive(ingest, advance, finalize, swap):
        for index, trajectory in enumerate(half):
            cut = len(trajectory.segments) // 2
            ingest(index, trajectory.segments[0],
                   destination=trajectory.destination,
                   start_time_s=trajectory.start_time_s,
                   trajectory_id=trajectory.trajectory_id)
            for segment in trajectory.segments[1:cut]:
                ingest(index, segment)
        advance()
        swap()
        for index, trajectory in enumerate(half):
            cut = len(trajectory.segments) // 2
            for segment in trajectory.segments[cut:]:
                ingest(index, segment)
        advance()
        return finalize(list(range(len(half))))

    engine = clone_model(trained_model).stream_engine()

    def engine_quiesce():
        while engine.tick():
            pass

    def engine_swap():
        engine.load_weights(snapshot["rsrnet"], snapshot["asdnet"])
        engine.load_history(refreshed)

    reference = drive(engine.ingest, engine_quiesce, engine.finalize_many,
                      engine_swap)

    with trained_model.detection_service(
            num_shards=2, backend=backend) as service:
        results = drive(
            lambda vehicle, segment, **opening: service.ingest_many(
                [IngestEvent(vehicle, segment, **opening)]),
            service.drain, service.finalize_many,
                        lambda: service.swap(weights=snapshot,
                                             history=refreshed))
        assert service.model_version == 2
        assert service.history_version == refreshed.version
    for before, after in zip(reference, results):
        assert_results_match(before, after)


def test_streams_opened_after_refresh_resolve_new_normal_routes(
        trained_model, drift):
    """A declared-destination stream opened post-refresh resolves its normal
    routes from the new snapshot at open — not lazily at finalize."""
    refreshed, fleet = drift
    fresh_detector = trained_model.with_history(refreshed).detector()
    with trained_model.detection_service(num_shards=2) as service:
        service.swap(history=refreshed)
        trajectory = fleet[0]
        for position, segment in enumerate(trajectory.segments):
            if position == 0:
                service.ingest_many([IngestEvent(
                    "cab", segment, destination=trajectory.destination,
                    start_time_s=trajectory.start_time_s)])
            else:
                service.ingest_many([IngestEvent("cab", segment)])
        result = service.finalize("cab")
    assert result.labels == fresh_detector.detect(trajectory).labels


# ------------------------------------------------------------- engine unit
def test_engine_load_history_pins_in_flight_streams(trained_model, drift):
    """StreamEngine-level contract: deferred in-flight streams keep their
    open-time snapshot across load_history; new streams use the new one."""
    refreshed, fleet = drift
    baseline = clone_model(trained_model).stream_engine()
    for segment in fleet[0].segments:
        baseline.ingest("old", segment)
    expected_old = baseline.finalize("old")

    fresh_engine = trained_model.with_history(refreshed).stream_engine()
    for segment in fleet[1].segments:
        fresh_engine.ingest("new", segment)
    expected_new = fresh_engine.finalize("new")

    engine = clone_model(trained_model).stream_engine()
    assert engine.history_version == trained_model.pipeline.history.version
    for segment in fleet[0].segments:
        engine.ingest("old", segment)  # deferred: labels all at finalize
    engine.load_history(refreshed)
    assert engine.history_version == refreshed.version
    assert engine.history_refreshes == 1
    for segment in fleet[1].segments:
        engine.ingest("new", segment)
    result_new = engine.finalize("new")
    result_old = engine.finalize("old")
    assert_results_match(expected_old, result_old)
    assert_results_match(expected_new, result_new)
    with pytest.raises(ModelError):
        engine.load_history("not a snapshot")


# ---------------------------------------------------------------- validation
def test_swap_validation_and_rejection_leaves_service_intact(trained_model,
                                                             dataset_split):
    _, _, test = dataset_split
    trajectory = test[0]
    with trained_model.detection_service(num_shards=2) as service:
        service.ingest_many([IngestEvent("cab", trajectory.segments[0],
                                         destination=trajectory.destination)])
        before = service.history_version
        with pytest.raises(ServiceError):
            service.swap()  # neither weights nor history
        with pytest.raises(ServiceError):
            service.swap(history="bogus")
        mismatched = HistorySnapshot.build(test[:5], slots_per_day=12)
        with pytest.raises(ServiceError):
            service.swap(history=mismatched)
        unknown = HistorySnapshot.build(
            [MatchedTrajectory(1, [10 ** 9, 10 ** 9 + 1])], slots_per_day=24)
        with pytest.raises(LabelingError):
            service.swap(history=unknown)
        assert service.history_version == before
        assert service.metrics().history_refreshes == 0
        # The in-flight stream survived every rejected swap.
        assert service.active_vehicles == ["cab"]


def test_swap_history_coerces_model_pipeline_and_store(trained_model,
                                                       dataset_split):
    """swap(history=...) accepts the snapshot's natural carriers directly."""
    train, _, _ = dataset_split
    model = clone_model(trained_model)
    model.pipeline.extend_history(train[:20])
    expected = model.pipeline.history.version
    with trained_model.detection_service(num_shards=1) as service:
        assert service.swap(history=model)[1] == expected
        assert service.swap(history=model.pipeline)[1] == expected
        assert service.swap(history=model.pipeline.store)[1] == expected
        assert service.swap(history=model.pipeline.history)[1] == expected
        assert service.metrics().history_refreshes == 4


# ------------------------------------------------------- learner integration
def test_online_learner_publishes_history_with_weights(dataset, dataset_split):
    """observe_part pushes the extended history to attached services in the
    same atomic update as the fine-tuned weights."""
    from repro.config import (ASDNetConfig, LabelingConfig, RSRNetConfig,
                              TrainingConfig)
    from repro.core import OnlineLearner, RL4OASDTrainer

    train, development, test = dataset_split
    trainer = RL4OASDTrainer(
        dataset.network, train[:80],
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
        rsrnet_config=RSRNetConfig(embedding_dim=12, hidden_dim=12, nrf_dim=6,
                                   seed=5),
        asdnet_config=ASDNetConfig(label_embedding_dim=6, seed=6),
        training_config=TrainingConfig(
            pretrain_trajectories=20, pretrain_epochs=1,
            joint_trajectories=10, joint_epochs=1, validation_interval=10,
            seed=7),
        development_set=development[:10],
    )
    learner = OnlineLearner(trainer, batch_size=8)
    model = learner.initial_fit()
    assert model.pipeline.history.version == 1
    with learner.attach_service(
            model.detection_service(num_shards=2)) as service:
        trajectory = test[0]
        service.ingest_many([IngestEvent("inflight", trajectory.segments[0],
                                         destination=trajectory.destination)])
        learner.observe_part(1, train[80:96])
        assert model.pipeline.history.version == 2  # fine_tune extended it
        assert service.model_version == 2
        assert service.history_version == 2  # published atomically
        for segment in trajectory.segments[1:]:
            service.ingest_many([IngestEvent("inflight", segment)])
        result = service.finalize("inflight")  # survived the combined swap
        assert len(result.labels) == len(trajectory)
        # A post-refresh stream labels like a fresh build from the learner's
        # current model (weights + history), end to end.
        with clone_model(learner.model).detection_service(
                num_shards=2) as fresh_service:
            reference = serve_fleet(fresh_service, [test[1]],
                                    concurrency=1)[0]
        for position, segment in enumerate(test[1].segments):
            if position == 0:
                service.ingest_many([IngestEvent(
                    "next", segment, destination=test[1].destination,
                    start_time_s=test[1].start_time_s)])
            else:
                service.ingest_many([IngestEvent("next", segment)])
        assert_results_match(reference, service.finalize("next"))
