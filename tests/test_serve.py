"""Differential and behavioural tests of the sharded detection service.

The service must be *label-identical* to a single
:class:`~repro.core.stream.StreamEngine` (and therefore to
:class:`~repro.core.detector.OnlineDetector`, which the engine is pinned
against) — whatever the shard count, the backend, the arrival interleaving,
the backpressure stalls, and even across a mid-run model hot-swap. These
tests replay randomized fleets through both paths and compare exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (LabelingError, ModelError, ServiceError,
                              TrajectoryError)
from repro.serve import (DetectionService, IngestEvent, clone_model,
                         serve_fleet, shard_of, weights_snapshot)
from repro.trajectory.ops import interleave_streams


def run_randomized_service_fleet(service, trajectories, rng, pump_every=3):
    """Drive a service with a random interleaving of the fleet's points."""
    events = 0
    for index, position, segment in interleave_streams(trajectories, rng):
        trajectory = trajectories[index]
        if position == 0:
            service.ingest_many([IngestEvent(
                index, segment, destination=trajectory.destination,
                start_time_s=trajectory.start_time_s,
                trajectory_id=trajectory.trajectory_id)])
        else:
            service.ingest_many([IngestEvent(index, segment)])
        events += 1
        if events % pump_every == 0:
            service.pump()
    return service.finalize_many(list(range(len(trajectories))))


def assert_results_match(reference, result):
    assert result.labels == reference.labels
    assert result.spans == reference.spans
    assert result.is_anomalous == reference.is_anomalous


def perturbed_snapshot(model, scale=0.05, seed=0):
    """A weights snapshot visibly different from the model's own weights."""
    rng = np.random.default_rng(seed)
    snapshot = weights_snapshot(model)
    for state in snapshot.values():
        for name, value in state.items():
            state[name] = value + rng.normal(0.0, scale, size=value.shape)
    return snapshot


# ------------------------------------------------------------- equivalence
@pytest.mark.fleet
def test_inprocess_service_matches_detector_on_randomized_fleets(
        trained_model, dataset_split):
    """Acceptance: identical labels over >= 100 randomized interleaved
    streams, across shard counts, behind the in-process backend."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    detector = trained_model.detector()
    total_streams = 0
    for seed, num_shards in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)]:
        rng = np.random.default_rng(seed)
        fleet = [pool[int(rng.integers(len(pool)))] for _ in range(25)]
        with trained_model.detection_service(
                num_shards=num_shards, backend="inprocess",
                queue_depth=32) as service:
            results = run_randomized_service_fleet(
                service, fleet, rng, pump_every=int(rng.integers(1, 7)))
            for trajectory, result in zip(fleet, results):
                assert_results_match(detector.detect(trajectory), result)
            assert service.metrics().total_points == sum(
                len(t) for t in fleet)
        total_streams += len(fleet)
    assert total_streams >= 100


@pytest.mark.fleet
def test_process_backend_matches_detector(trained_model, dataset_split):
    """The multi-process backend is label-identical too (2 shards)."""
    _, development, test = dataset_split
    fleet = (list(test) + list(development))[:40]
    detector = trained_model.detector()
    with trained_model.detection_service(
            num_shards=2, backend="process", queue_depth=64) as service:
        results = serve_fleet(service, fleet, concurrency=16)
        metrics = service.metrics()
    for trajectory, result in zip(fleet, results):
        assert_results_match(detector.detect(trajectory), result)
        assert result.trajectory is trajectory  # originals reattached
    assert metrics.total_points == sum(len(t) for t in fleet)
    assert metrics.streams_finalized == len(fleet)
    assert {shard.backend for shard in metrics.shards} == {"process"}


@pytest.mark.fleet
@pytest.mark.parametrize("backend,num_shards", [("inprocess", 3),
                                                ("process", 2)])
def test_hot_swap_mid_run_matches_single_engine(trained_model, dataset_split,
                                                backend, num_shards):
    """Acceptance: identical labels across a mid-run model hot-swap.

    Half the fleet's points arrive, the model is swapped for perturbed
    weights, the rest arrives. The reference is one StreamEngine whose
    weights are swapped (after quiescing — the boundary the service
    guarantees) at the same point of the arrival sequence.
    """
    _, development, test = dataset_split
    fleet = (list(test) + list(development))[:12]
    snapshot = perturbed_snapshot(trained_model, seed=3)
    cut_round = max(len(t) for t in fleet) // 2

    def drive(ingest, advance, finalize, swap):
        cursors = [0] * len(fleet)
        rounds = 0
        while True:
            for vehicle, trajectory in enumerate(fleet):
                cursor = cursors[vehicle]
                if cursor >= len(trajectory.segments):
                    continue
                if cursor == 0:
                    ingest(vehicle, trajectory.segments[0],
                           destination=trajectory.destination,
                           start_time_s=trajectory.start_time_s,
                           trajectory_id=trajectory.trajectory_id)
                else:
                    ingest(vehicle, trajectory.segments[cursor])
                cursors[vehicle] = cursor + 1
            advance()
            rounds += 1
            if rounds == cut_round:
                swap()
            if all(cursors[v] >= len(fleet[v].segments)
                   for v in range(len(fleet))):
                return finalize(list(range(len(fleet))))

    engine = clone_model(trained_model).stream_engine()

    def engine_swap():
        while engine.tick():
            pass
        engine.load_weights(snapshot["rsrnet"], snapshot["asdnet"])

    reference = drive(engine.ingest, engine.tick, engine.finalize_many,
                      engine_swap)

    with trained_model.detection_service(
            num_shards=num_shards, backend=backend,
            queue_depth=64) as service:
        results = drive(
            lambda vehicle, segment, **opening: service.ingest_many(
                [IngestEvent(vehicle, segment, **opening)]),
            service.pump, service.finalize_many,
                        lambda: service.swap(weights=snapshot))
        assert service.model_version == 2
    for before, after in zip(reference, results):
        assert_results_match(before, after)
    # The swap was real: the snapshot differs from the serving weights.
    original = weights_snapshot(trained_model)
    assert any(
        not np.array_equal(original[net][name], snapshot[net][name])
        for net in original for name in original[net])


def test_swap_rejects_mismatched_snapshot(trained_model, dataset_split):
    _, _, test = dataset_split
    with trained_model.detection_service(num_shards=2) as service:
        service.ingest_many([IngestEvent("cab", test[0].segments[0],
                                         destination=test[0].destination)])
        bad = weights_snapshot(trained_model)
        bad["rsrnet"] = {"nope": np.zeros(3)}
        with pytest.raises(ModelError):
            service.swap(weights=bad)
        with pytest.raises(ServiceError):
            service.swap(weights={"rsrnet": bad["rsrnet"]})  # missing asdnet
        assert service.model_version == 1
        # The in-flight stream survived the rejected swaps.
        assert service.active_vehicles == ["cab"]


# ------------------------------------------------------------ backpressure
def test_backpressure_bounded_queue_retry_loses_nothing(trained_model,
                                                        dataset_split):
    """A full shard queue refuses a point; the retry loop pumps and sends
    it again, which delivers every point and the labels still match the
    reference."""
    _, _, test = dataset_split
    trajectory = max(test, key=len)
    detector = trained_model.detector()
    with trained_model.detection_service(
            num_shards=1, backend="inprocess", queue_depth=2) as service:
        rejected = 0
        for position, segment in enumerate(trajectory.segments):
            opening = ({"destination": trajectory.destination,
                        "start_time_s": trajectory.start_time_s}
                       if position == 0 else {})
            rejected += service.ingest_many([IngestEvent(
                trajectory.trajectory_id, segment, **opening)])
        result = service.finalize(trajectory.trajectory_id)
        metrics = service.metrics()
    # Depth 2 must have filled at least once on a longest trajectory.
    assert rejected > 0
    assert metrics.rejected_ingests == rejected
    assert metrics.accepted_ingests == len(trajectory)
    assert_results_match(detector.detect(trajectory), result)


def test_queue_depth_counts_commands_and_a_scrape_is_read_only(trained_model,
                                                                dataset_split):
    """``queue_depth`` bounds and reports *commands* — a batch is one — and
    reading the dashboard never advances an in-process shard."""
    _, _, test = dataset_split
    trajectory = max(test, key=len)
    events = [IngestEvent(trajectory.trajectory_id, segment,
                          trajectory.destination if position == 0 else None,
                          trajectory.start_time_s, None)
              for position, segment in enumerate(trajectory.segments[:10])]
    assert len(events) == 10
    with trained_model.detection_service(
            num_shards=1, backend="inprocess", queue_depth=4) as service:
        service.ingest_many(events)
        for scrape in (service.metrics, service.metrics, service.metrics_text,
                       service.metrics):
            scrape()
            shard = service.metrics().shards[0]
            assert (shard.queue_depth, shard.pending_points) == (1, 0)
        service.pump()
        shard = service.metrics().shards[0]
        assert shard.queue_depth == 0
        assert shard.pending_points + shard.points_processed == 10


@pytest.mark.parametrize("verb", ["ingest_many", "finalize_async"])
def test_delivery_loop_gives_up_on_a_stalled_queue(trained_model,
                                                   dataset_split, monkeypatch,
                                                   verb):
    """The one retry loop behind ingest_many and finalize_async: against a
    one-command queue that never drains, each raises after exactly
    ``max_retries + 1`` refusals and ``max_retries`` pumps, queues nothing,
    counts every refusal and leaves the stream bookkeeping untouched.
    ``max_retries=0`` is the non-blocking probe: one refusal, no pump."""
    _, _, test = dataset_split
    trajectory = test[0]
    with trained_model.detection_service(
            num_shards=1, backend="inprocess", queue_depth=1) as service:
        service.ingest_many([IngestEvent("open", trajectory.segments[0],
                                         destination=trajectory.destination)])
        service.pump()
        service.ingest_many([IngestEvent("filler", trajectory.segments[0])],
                            max_retries=0)
        backend = service._backend
        offers = []
        pumps = []

        def counted(send):
            def offer(shard, batch):
                offers.append(send(shard, batch))
                return offers[-1]
            return offer

        monkeypatch.setattr(backend, "ingest_batch",
                            counted(backend.ingest_batch))
        monkeypatch.setattr(backend, "finalize_async",
                            counted(backend.finalize_async))
        # The shard stalls: a pump makes no progress.
        monkeypatch.setattr(service, "pump", lambda: pumps.append(1) or 0)
        calls = {
            "ingest_many": lambda max_retries: service.ingest_many(
                [IngestEvent("cab", trajectory.segments[0],
                             trajectory.destination)],
                max_retries=max_retries, retry_wait_s=0.0),
            "finalize_async": lambda max_retries: service.finalize_async(
                ["open"], max_retries=max_retries, retry_wait_s=0.0),
        }
        for max_retries in (3, 0):
            offers.clear()
            pumps.clear()
            before = service.metrics()
            with pytest.raises(ServiceError, match=(
                    f"stayed full after {max_retries} retries")):
                calls[verb](max_retries)
            after = service.metrics()
            assert offers == [False] * (max_retries + 1)
            assert len(pumps) == max_retries
            assert (after.rejected_ingests - before.rejected_ingests
                    == len(offers))
            assert after.accepted_ingests == before.accepted_ingests
            assert after.shards[0].queue_depth == 1  # the filler, no more
            assert service.active_vehicles == ["open", "filler"]
            assert service.results_pending == 0
        # Once the shard drains again, the same call goes through.
        monkeypatch.undo()
        calls[verb](3)
        assert service.results_pending == (verb == "finalize_async")


# ------------------------------------------------------------- error paths
@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_unknown_segment_rejected_synchronously(trained_model, dataset_split,
                                                backend):
    """Bad fixes fail fast at the facade — never queued, never poisoning a
    shard — for both backends."""
    _, _, test = dataset_split
    trajectory = test[0]
    with trained_model.detection_service(
            num_shards=2, backend=backend) as service:
        service.ingest_many([IngestEvent("good", trajectory.segments[0],
                                         destination=trajectory.destination)])
        with pytest.raises(LabelingError):
            service.ingest_many([IngestEvent("bad", 10 ** 9)])
        with pytest.raises(LabelingError):
            service.ingest_many([IngestEvent("good", 10 ** 9)])
        with pytest.raises(LabelingError):
            service.ingest_many([IngestEvent("late", trajectory.segments[0],
                                             destination=10 ** 9)])
        assert service.active_vehicles == ["good"]
        for segment in trajectory.segments[1:]:
            service.ingest_many([IngestEvent("good", segment)])
        result = service.finalize("good")
    assert result.labels == trained_model.detector().detect(trajectory).labels


def opening_event(vehicle, trajectory):
    return IngestEvent(vehicle, trajectory.segments[0], trajectory.destination,
                       trajectory.start_time_s, trajectory.trajectory_id)


BAD_EVENTS = {
    # vehicle 0 is open when the bad event arrives; "new" is not.
    "unknown-segment-open": lambda trip: IngestEvent(0, 10 ** 9),
    "unknown-segment-opening": lambda trip: IngestEvent(
        "new", 10 ** 9, trip.destination, trip.start_time_s, None),
    "unknown-destination": lambda trip: IngestEvent(
        "new", trip.segments[0], 10 ** 9, trip.start_time_s, None),
    "non-finite-start": lambda trip: IngestEvent(
        "new", trip.segments[0], trip.destination, float("inf"), None),
}


@pytest.mark.parametrize("bad", sorted(BAD_EVENTS))
@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_batched_admission_matches_single_event_admission(
        trained_model, dataset_split, backend, bad):
    """A bad event anywhere in a batch mixing plain points of open streams
    and openers raises what it raises alone, and nothing of the batch is
    queued; the batch without it labels like the detector."""
    _, _, test = dataset_split
    trips = [trip for trip in test if len(trip) >= 3][:4]
    bad_event = BAD_EVENTS[bad](trips[3])
    with trained_model.detection_service(
            num_shards=2, backend=backend) as service:
        service.ingest_many([opening_event(0, trips[0]),
                             opening_event(1, trips[1])])
        batch = [IngestEvent(0, trips[0].segments[1]),
                 opening_event(2, trips[2]),
                 IngestEvent(1, trips[1].segments[1]),
                 opening_event(3, trips[3])]
        service.drain()

        def state():
            metrics = service.metrics()
            return (service.active_vehicles, metrics.accepted_ingests,
                    [shard.queue_depth for shard in metrics.shards])

        before = state()
        with pytest.raises(Exception) as alone:
            service.ingest_many([bad_event])
        assert isinstance(alone.value, (LabelingError, TrajectoryError))
        assert state() == before
        for position in (0, len(batch) // 2, len(batch)):
            with pytest.raises(type(alone.value)) as batched:
                service.ingest_many(
                    batch[:position] + [bad_event] + batch[position:])
            assert str(batched.value) == str(alone.value)
            assert state() == before
        service.ingest_many(batch)
        sent = [2, 2, 1, 1]
        for step in range(max(len(trip) for trip in trips)):
            service.ingest_many([
                IngestEvent(vehicle, trip.segments[sent[vehicle] + step])
                for vehicle, trip in enumerate(trips)
                if sent[vehicle] + step < len(trip)])
        results = service.finalize_many(list(range(len(trips))))
    detector = trained_model.detector()
    assert ([result.labels for result in results]
            == [detector.detect(trip).labels for trip in trips])


@pytest.mark.parametrize("start_time_s",
                         [float("nan"), float("inf"), "noon", None, True,
                          np.True_])
def test_bad_start_time_rejected_before_queuing(trained_model, dataset_split,
                                                start_time_s):
    """An opening ``start_time_s`` that is not a finite real number is
    refused at the facade, typed and before anything is queued — it used to
    fail shard-side on an untyped error, with the vehicle tracked as open."""
    _, _, test = dataset_split
    trajectory = test[0]
    with trained_model.detection_service(num_shards=1) as service:
        with pytest.raises(TrajectoryError):
            service.ingest_many([
                IngestEvent("other", trajectory.segments[0], None, 0.0, None),
                IngestEvent("cab", trajectory.segments[0],
                            trajectory.destination, start_time_s, None)])
        with pytest.raises(TrajectoryError):
            service.ingest_many([IngestEvent(
                "cab", trajectory.segments[0],
                destination=trajectory.destination,
                start_time_s=start_time_s)])
        assert service.active_vehicles == []
        shard = service.metrics().shards[0]
        assert (shard.queue_depth, shard.streams_open,
                shard.pending_points) == (0, 0, 0)
        assert service.metrics().accepted_ingests == 0
        # The same vehicle id opens normally afterwards.
        service.ingest_many(
            [IngestEvent("cab", trajectory.segments[0],
                         trajectory.destination, trajectory.start_time_s,
                         None)]
            + [IngestEvent("cab", segment, None, 0.0, None)
               for segment in trajectory.segments[1:]])
        result = service.finalize("cab")
    assert result.labels == trained_model.detector().detect(trajectory).labels


def test_finalize_unknown_vehicle_raises(trained_model):
    with trained_model.detection_service(num_shards=2) as service:
        with pytest.raises(ServiceError):
            service.finalize("ghost")
        with pytest.raises(ServiceError):
            service.finalize_many(["cab", "cab"])


def test_destination_mismatch_propagates_from_worker(trained_model,
                                                     dataset_split):
    """A worker-side finalize failure surfaces in the caller and leaves the
    stream open for more points (process backend)."""
    _, _, test = dataset_split
    trajectory = next(t for t in test
                      if len(t) >= 4 and t.segments[1] != t.destination)
    with trained_model.detection_service(
            num_shards=2, backend="process") as service:
        service.ingest_many([IngestEvent("cab", trajectory.segments[0],
                                         destination=trajectory.destination)])
        service.ingest_many([IngestEvent("cab", trajectory.segments[1])])
        with pytest.raises(ModelError):
            service.finalize("cab")
        assert service.active_vehicles == ["cab"]
        for segment in trajectory.segments[2:]:
            service.ingest_many([IngestEvent("cab", segment)])
        result = service.finalize("cab")
    assert_results_match(trained_model.detector().detect(trajectory), result)


def test_closed_service_refuses_work(trained_model, dataset_split):
    _, _, test = dataset_split
    service = trained_model.detection_service(num_shards=1)
    service.close()
    service.close()  # idempotent
    with pytest.raises(ServiceError):
        service.ingest_many([IngestEvent("cab", test[0].segments[0])])
    with pytest.raises(ServiceError):
        service.metrics()


def test_service_validates_construction(trained_model):
    with pytest.raises(ServiceError):
        DetectionService(trained_model, num_shards=0)
    with pytest.raises(ServiceError):
        DetectionService(trained_model, queue_depth=0)
    with pytest.raises(ServiceError):
        DetectionService(trained_model, backend="quantum")


def test_serve_fleet_validates_concurrency(trained_model, dataset_split):
    _, _, test = dataset_split
    with trained_model.detection_service(num_shards=1) as service:
        with pytest.raises(ServiceError):
            serve_fleet(service, test[:2], concurrency=0)


# ---------------------------------------------------------------- isolation
def test_service_serves_a_snapshot_not_the_live_model(trained_model,
                                                      dataset_split):
    """Mutating the caller's model after construction must not change what
    the service serves — shards run on a snapshot until an explicit swap."""
    _, _, test = dataset_split
    model = clone_model(trained_model)  # never mutate the shared fixture
    expected = [trained_model.detector().detect(t).labels for t in test[:6]]
    with model.detection_service(num_shards=2, backend="inprocess") as service:
        for parameter in model.rsrnet.parameters():
            parameter.value += 1.0  # vandalize the live model
        results = serve_fleet(service, test[:6], concurrency=3)
    assert [r.labels for r in results] == expected


# ------------------------------------------------------------------ metrics
def test_metrics_roll_up_across_shards(trained_model, dataset_split):
    _, _, test = dataset_split
    fleet = test[:10]
    with trained_model.detection_service(
            num_shards=2, backend="inprocess") as service:
        serve_fleet(service, fleet, concurrency=5)
        metrics = service.metrics()
    total_points = sum(len(t) for t in fleet)
    assert metrics.num_shards == 2
    assert metrics.total_points == total_points
    assert metrics.streams_finalized == len(fleet)
    assert metrics.streams_open == 0
    assert sum(s.points_processed for s in metrics.shards) == total_points
    assert 0.0 < metrics.cache_hit_rate <= 1.0
    assert all(s.mean_tick_batch >= 1.0 for s in metrics.shards
               if s.points_processed)
    assert "DetectionService" in metrics.format()
    assert "shard[0]" in metrics.format()


# ----------------------------------------------------------------- sharding
def test_shard_assignment_is_stable_and_covers_shards():
    assignments = [shard_of(vehicle, 4) for vehicle in range(200)]
    assert assignments == [shard_of(vehicle, 4) for vehicle in range(200)]
    assert set(assignments) == {0, 1, 2, 3}
    # Different key types never collide by representation.
    assert shard_of(1, 64) != shard_of("1", 64) or True  # both valid shards
    from repro.serve.sharding import shard_key_bytes
    assert shard_key_bytes(1) != shard_key_bytes("1")
    assert shard_key_bytes(True) != shard_key_bytes(1)
    assert shard_key_bytes(b"1") != shard_key_bytes("1")
    assert shard_key_bytes(("depot", 7)) == shard_key_bytes(("depot", 7))
    assert shard_of("anything", 1) == 0
    with pytest.raises(ServiceError):
        shard_of("cab", 0)


def test_shard_assignment_spreads_similar_keys():
    """Regression: raw CRC-32 is linear, so keys differing in one character
    — consecutive integer ids, gateway session tuples ``(vehicle, 0)`` —
    clustered onto few shards (the first 8 integer fleets all landed on one
    shard of 4). The avalanche finalizer must spread them."""
    for num_shards in (2, 3, 4, 8):
        for keys in ([(vehicle, 0) for vehicle in range(64)],
                     list(range(64)),
                     [f"cab-{vehicle}" for vehicle in range(64)]):
            used = {shard_of(key, num_shards) for key in keys}
            assert len(used) == num_shards, (num_shards, keys[:3], used)
    # The exact shape of the old failure: vehicles 0..7, first session, 4
    # shards — every one of them used to land on shard 0.
    assert len({shard_of((vehicle, 0), 4) for vehicle in range(8)}) >= 3


def test_same_vehicle_always_routes_to_same_shard(trained_model,
                                                  dataset_split):
    _, _, test = dataset_split
    with trained_model.detection_service(num_shards=4) as service:
        for vehicle in ("cab-1", "cab-2", 3, (4, "x")):
            assert service.shard_for(vehicle) == service.shard_for(vehicle)
            assert 0 <= service.shard_for(vehicle) < 4


# ------------------------------------------------------- learner integration
def test_online_learner_hot_swaps_attached_services(dataset, dataset_split):
    """OnlineLearner.observe_part pushes fresh weights into every attached
    service without dropping the in-flight stream."""
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
    with learner.attach_service(
            model.detection_service(num_shards=2)) as service:
        trajectory = test[0]
        service.ingest_many([IngestEvent("inflight", trajectory.segments[0],
                                         destination=trajectory.destination)])
        assert service.model_version == 1
        learner.observe_part(1, train[80:96])
        assert service.model_version == 2  # swapped automatically
        for segment in trajectory.segments[1:]:
            service.ingest_many([IngestEvent("inflight", segment)])
        result = service.finalize("inflight")  # the stream survived the swap
        assert len(result.labels) == len(trajectory)
        learner.detach_service(service)
        learner.detach_service(service)  # no-op when unknown
        learner.observe_part(2, train[96:112])
        assert service.model_version == 2  # no longer attached
    assert learner.model is not None


def test_rejected_swap_keeps_process_protocol_usable(trained_model,
                                                     dataset_split):
    """A swap rejected by worker-side validation must not desync the
    command/reply protocol: every shard's reply is consumed, and later
    requests (metrics, finalize) still answer correctly."""
    _, _, test = dataset_split
    trajectory = test[0]
    with trained_model.detection_service(
            num_shards=2, backend="process") as service:
        service.ingest_many([IngestEvent("cab", trajectory.segments[0],
                                         destination=trajectory.destination)])
        bad = weights_snapshot(trained_model)
        name = next(iter(bad["rsrnet"]))
        bad["rsrnet"][name] = np.zeros((1, 1))
        with pytest.raises(ModelError):
            service.swap(weights=bad)
        assert service.model_version == 1
        # The service (and every shard) still answers requests in order.
        metrics = service.metrics()
        assert metrics.num_shards == 2
        for segment in trajectory.segments[1:]:
            service.ingest_many([IngestEvent("cab", segment)])
        result = service.finalize("cab")
    assert result.labels == trained_model.detector().detect(trajectory).labels


def test_deferred_streams_across_swap_match_single_engine(trained_model,
                                                          dataset_split):
    """A deferred stream (no declared destination) buffers its points, so a
    mid-run swap means *all* its points are labeled by the new weights — on
    the service and on a single engine swapped at the same boundary alike."""
    _, _, test = dataset_split
    fleet = test[:5]
    snapshot = perturbed_snapshot(trained_model, seed=9)

    engine = clone_model(trained_model).stream_engine()
    for index, trajectory in enumerate(fleet):
        for segment in trajectory.segments:
            engine.ingest(index, segment)  # deferred: destination undeclared
    while engine.tick():
        pass
    engine.load_weights(snapshot["rsrnet"], snapshot["asdnet"])
    reference = engine.finalize_many(list(range(len(fleet))))

    with trained_model.detection_service(num_shards=3) as service:
        for index, trajectory in enumerate(fleet):
            for segment in trajectory.segments:
                service.ingest_many([IngestEvent(index, segment)])
        service.drain()
        service.swap(weights=snapshot)
        results = service.finalize_many(list(range(len(fleet))))
    for before, after in zip(reference, results):
        assert_results_match(before, after)


def test_learner_skips_closed_services(dataset, dataset_split):
    """observe_part never crashes on (and auto-detaches) a closed service,
    and still pushes the update to the remaining attached ones."""
    from repro.config import (ASDNetConfig, LabelingConfig, RSRNetConfig,
                              TrainingConfig)
    from repro.core import OnlineLearner, RL4OASDTrainer

    train, development, _ = dataset_split
    trainer = RL4OASDTrainer(
        dataset.network, train[:60],
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
        rsrnet_config=RSRNetConfig(embedding_dim=12, hidden_dim=12, nrf_dim=6,
                                   seed=5),
        asdnet_config=ASDNetConfig(label_embedding_dim=6, seed=6),
        training_config=TrainingConfig(
            pretrain_trajectories=16, pretrain_epochs=1,
            joint_trajectories=8, joint_epochs=1, validation_interval=8,
            seed=7),
        development_set=development[:8],
    )
    learner = OnlineLearner(trainer, batch_size=8)
    model = learner.initial_fit()
    abandoned = learner.attach_service(model.detection_service(num_shards=1))
    kept = learner.attach_service(model.detection_service(num_shards=2))
    abandoned.close()
    learner.observe_part(1, train[60:72])
    assert kept.model_version == 2  # the live service still got the update
    kept.close()


# ------------------------------------------------------------- results bus
@pytest.mark.fleet
@pytest.mark.parametrize("num_shards,backend", [(1, "inprocess"),
                                                (3, "inprocess"),
                                                (2, "process")])
def test_async_driver_matches_synchronous_path(trained_model, dataset_split,
                                               num_shards, backend):
    """The fleet driver — batched ingest, bus-closed streams — is
    label-identical to the per-point ingest_many / finalize_many path,
    across shard counts and both backends."""
    _, development, test = dataset_split
    fleet = (list(test) + list(development))[:16]
    rng = np.random.default_rng(num_shards)
    with trained_model.detection_service(
            num_shards=num_shards, backend=backend,
            queue_depth=64) as service:
        reference = run_randomized_service_fleet(service, fleet, rng)
    with trained_model.detection_service(
            num_shards=num_shards, backend=backend,
            queue_depth=64) as service:
        results = serve_fleet(service, fleet, concurrency=8)
        metrics = service.metrics()
    for before, after in zip(reference, results):
        assert_results_match(before, after)
    assert [r.trajectory for r in results] == fleet  # originals reattached
    # The run really went through the bus, and the bus came out clean.
    assert metrics.async_finalizes >= 1
    assert metrics.results_delivered == len(fleet)
    assert metrics.results_pending == 0
    assert metrics.results_duplicates == 0
    assert metrics.bus_lag == 0
    assert sum(stats.published for stats in metrics.bus) == len(fleet)
