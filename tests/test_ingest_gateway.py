"""Differential and edge-case tests of the raw-GPS ingest gateway.

The acceptance bar: on clean (noise-free-ish, in-order, gap-free) fleets,
``GpsGateway -> DetectionService`` produces *label-identical* detections to
the offline pipeline ``HMMMapMatcher.match -> DetectionService`` — across
shard counts and both backends — because the online matcher commits exactly
the offline route and both sides run the same deferred SD-pair streams.
Around that, the messy-input scenarios the gateway exists for: out-of-order
fixes inside and beyond the reorder window, duplicated timestamps, fixes
nowhere near a road, and long time gaps splitting a trip into sessions.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.config import GatewayConfig
from repro.datagen import sample_gps_trace
from repro.eval import LatencyReport
from repro.exceptions import ConfigurationError, GatewayError, ServiceError
from repro.ingest import GpsGateway, serve_raw_fleet
from repro.mapmatching import HMMMapMatcher, OnlineMapMatcher
from repro.serve import IngestEvent
from repro.trajectory import GPSPoint, RawTrajectory


@pytest.fixture(scope="module")
def offline_matcher(dataset):
    return HMMMapMatcher(dataset.network)


def clean_raws(dataset, trajectories, seed=0, noise=1.0):
    """Raw GPS traces of ground-truth routes, mild noise, in order."""
    rng = np.random.default_rng(seed)
    return [sample_gps_trace(dataset.network, truth.segments,
                             truth.start_time_s, rng, gps_noise_m=noise,
                             trajectory_id=truth.trajectory_id)
            for truth in trajectories]


def offline_reference(model, matcher, raws, **service_kwargs):
    """The offline pipeline: whole-trajectory match -> deferred streams."""
    matches = [matcher.match(raw) for raw in raws]
    assert all(match.succeeded for match in matches)
    results = []
    with model.detection_service(**service_kwargs) as service:
        for index, match in enumerate(matches):
            matched = match.matched
            for position, segment in enumerate(matched.segments):
                if position == 0:
                    service.ingest_many([IngestEvent(
                        index, segment, start_time_s=matched.start_time_s)])
                else:
                    service.ingest_many([IngestEvent(index, segment)])
            results.append(service.finalize(index))
    return results


def run_gateway(model, matcher, raws, config=None, **service_kwargs):
    with model.detection_service(**service_kwargs) as service:
        gateway = GpsGateway(service, matcher, config)
        outputs = serve_raw_fleet(gateway, raws, concurrency=8)
        stats = gateway.stats()
    return outputs, stats


def assert_single_sessions_match(reference, outputs):
    for expected, sessions in zip(reference, outputs):
        assert len(sessions) == 1
        result = sessions[0]
        assert result.labels == expected.labels
        assert result.spans == expected.spans
        assert result.trajectory.segments == expected.trajectory.segments


# ------------------------------------------------------------- equivalence
@pytest.mark.fleet
@pytest.mark.parametrize("num_shards,backend,config", [
    pytest.param(1, "inprocess", None, id="1-inprocess"),
    pytest.param(2, "inprocess", None, id="2-inprocess"),
    pytest.param(3, "inprocess", None, id="3-inprocess"),
    pytest.param(2, "process", None, id="2-process"),
    pytest.param(2, "inprocess", GatewayConfig(ingest_batch=1),
                 id="2-inprocess-batch1")])
def test_gateway_matches_offline_pipeline_on_clean_fleets(
        trained_model, dataset, dataset_split, offline_matcher,
        num_shards, backend, config):
    """Acceptance: gateway->service label-identical to offline-match->service
    on clean fleets, across shard counts and both backends — and with every
    committed segment flushed as a batch of one."""
    _, development, test = dataset_split
    fleet = (list(test) + list(development))[:12]
    raws = clean_raws(dataset, fleet, seed=num_shards)
    reference = offline_reference(trained_model, offline_matcher, raws,
                                  num_shards=num_shards, backend=backend)
    outputs, stats = run_gateway(trained_model, offline_matcher, raws, config,
                                 num_shards=num_shards, backend=backend)
    assert_single_sessions_match(reference, outputs)
    assert stats.sessions_closed == len(fleet)
    assert (stats.late_dropped, stats.duplicates_dropped,
            stats.unmatched_dropped) == (0, 0, 0)
    assert stats.sessions_broken == 0


@pytest.mark.fleet
def test_gateway_batched_and_per_point_ingest_agree(trained_model, dataset,
                                                    dataset_split,
                                                    offline_matcher):
    """ingest_batch=N and ingest_batch=1 deliver identical labels through
    the same batched service commands; at 1 every batch is one segment."""
    _, _, test = dataset_split
    raws = clean_raws(dataset, test[:8], seed=11)
    per_point_results = None
    for batch in (1, 16):
        with trained_model.detection_service(num_shards=2) as service:
            gateway = GpsGateway(service, offline_matcher,
                                 GatewayConfig(ingest_batch=batch))
            outputs = serve_raw_fleet(gateway, raws, concurrency=4)
            metrics = gateway.metrics()
        labels = [[session.labels for session in sessions]
                  for sessions in outputs]
        if batch == 1:
            per_point_results = labels
            assert metrics.batched_ingests == metrics.accepted_ingests > 0
        else:
            assert labels == per_point_results
            assert metrics.batched_ingests > 0
            assert metrics.gateway is not None
            assert metrics.gateway.batched_flushes > 0
            assert "GpsGateway" in metrics.format()


# ------------------------------------------------------------ out of order
def test_out_of_order_within_window_is_repaired(trained_model, dataset,
                                                dataset_split,
                                                offline_matcher):
    """Swapping adjacent fixes (displacement 1 <= reorder_window) must give
    exactly the in-order results."""
    _, _, test = dataset_split
    raws = clean_raws(dataset, test[:4], seed=21)
    config = GatewayConfig(reorder_window=4, ingest_batch=8)
    reference, _ = run_gateway(trained_model, offline_matcher, raws,
                               config=config, num_shards=2)
    shuffled = []
    for raw in raws:
        points = list(raw.points)
        for i in range(0, len(points) - 1, 2):
            points[i], points[i + 1] = points[i + 1], points[i]
        shuffled.append(points)
    with trained_model.detection_service(num_shards=2) as service:
        gateway = GpsGateway(service, offline_matcher, config)
        outputs = []
        for vehicle, points in enumerate(shuffled):
            sessions = []
            for position, point in enumerate(points):
                sessions.extend(gateway.push_point(
                    vehicle, point,
                    start_time_s=raws[vehicle].start_time_s
                    if position == 0 else None))
            sessions.extend(gateway.end(vehicle))
            outputs.append([s.result for s in sessions])
        stats = gateway.stats()
    assert stats.late_dropped == 0 and stats.duplicates_dropped == 0
    for expected_sessions, got_sessions in zip(reference, outputs):
        assert [r.labels for r in expected_sessions] == \
            [r.labels for r in got_sessions]


def test_point_beyond_reorder_window_is_dropped(trained_model, dataset,
                                                dataset_split,
                                                offline_matcher):
    """A fix delayed past the reorder window is dropped (counted), and the
    results equal a run on the trace without that fix."""
    _, _, test = dataset_split
    raw = clean_raws(dataset, [max(test, key=len)], seed=22)[0]
    victim = len(raw.points) // 2
    without = RawTrajectory(raw.trajectory_id,
                            [p for i, p in enumerate(raw.points)
                             if i != victim],
                            start_time_s=raw.start_time_s)
    config = GatewayConfig(reorder_window=3, ingest_batch=8)
    reference, reference_stats = run_gateway(
        trained_model, offline_matcher, [without], config=config,
        num_shards=1)
    assert reference_stats.late_dropped == 0
    delayed = [p for i, p in enumerate(raw.points) if i != victim]
    delayed.append(raw.points[victim])  # arrives after the whole trip
    with trained_model.detection_service(num_shards=1) as service:
        gateway = GpsGateway(service, offline_matcher, config)
        sessions = []
        for position, point in enumerate(delayed):
            sessions.extend(gateway.push_point(
                0, point,
                start_time_s=raw.start_time_s if position == 0 else None))
        sessions.extend(gateway.end(0))
        stats = gateway.stats()
    assert stats.late_dropped == 1
    assert [r.labels for r in reference[0]] == \
        [s.result.labels for s in sessions]


def test_duplicate_timestamps_are_dropped(trained_model, dataset,
                                          dataset_split, offline_matcher):
    _, _, test = dataset_split
    raw = clean_raws(dataset, [test[0]], seed=23)[0]
    config = GatewayConfig(reorder_window=2, ingest_batch=8)
    reference, _ = run_gateway(trained_model, offline_matcher, [raw],
                               config=config, num_shards=1)
    with trained_model.detection_service(num_shards=1) as service:
        gateway = GpsGateway(service, offline_matcher, config)
        sessions = []
        for position, point in enumerate(raw.points):
            sessions.extend(gateway.push_point(
                0, point,
                start_time_s=raw.start_time_s if position == 0 else None))
            # Same timestamp, slightly different fix: still a duplicate.
            sessions.extend(gateway.push_point(
                0, GPSPoint(point.x + 1.0, point.y - 1.0, point.t)))
        sessions.extend(gateway.end(0))
        stats = gateway.stats()
    assert stats.duplicates_dropped == len(raw.points)
    assert [r.labels for r in reference[0]] == \
        [s.result.labels for s in sessions]


# --------------------------------------------------------------- sessions
def test_all_points_unmatchable_drops_the_session(trained_model, dataset,
                                                  dataset_split,
                                                  offline_matcher):
    _, _, test = dataset_split
    raw = clean_raws(dataset, [test[1]], seed=24)[0]
    nowhere = RawTrajectory(
        raw.trajectory_id,
        [GPSPoint(p.x + 1e7, p.y + 1e7, p.t) for p in raw.points],
        start_time_s=raw.start_time_s)
    with trained_model.detection_service(num_shards=1) as service:
        gateway = GpsGateway(service, offline_matcher,
                             GatewayConfig(reorder_window=2))
        outputs = serve_raw_fleet(gateway, [nowhere], concurrency=1)
        stats = gateway.stats()
        assert service.active_vehicles == []  # no stream was ever opened
    assert outputs == [[]]
    assert stats.unmatched_dropped == len(nowhere.points)
    assert stats.sessions_dropped == 1
    assert stats.sessions_closed == 0
    assert stats.segments_emitted == 0


def test_time_gap_splits_a_trip_into_sessions(trained_model, dataset,
                                              dataset_split,
                                              offline_matcher):
    """A long silence splits one vehicle's stream into two SD-pair sessions,
    each labeled like the offline pipeline on its own half."""
    _, _, test = dataset_split
    first, second = test[2], test[3]
    raw_first = clean_raws(dataset, [first], seed=25)[0]
    gap_s = 900.0
    shift = raw_first.points[-1].t + gap_s + 60.0
    raw_second_base = clean_raws(dataset, [second], seed=26)[0]
    raw_second = RawTrajectory(
        second.trajectory_id,
        [GPSPoint(p.x, p.y, p.t + shift) for p in raw_second_base.points],
        start_time_s=raw_first.start_time_s + shift)
    stitched = RawTrajectory(
        first.trajectory_id,
        list(raw_first.points) + list(raw_second.points),
        start_time_s=raw_first.start_time_s)

    reference = offline_reference(
        trained_model, offline_matcher,
        [raw_first,
         RawTrajectory(second.trajectory_id, raw_second_base.points,
                       start_time_s=raw_second.start_time_s)],
        num_shards=2)

    config = GatewayConfig(reorder_window=2, session_gap_s=300.0,
                           ingest_batch=8)
    outputs, stats = run_gateway(trained_model, offline_matcher, [stitched],
                                 config=config, num_shards=2)
    assert stats.gap_splits == 1
    assert stats.sessions_closed == 2
    assert len(outputs[0]) == 2
    for expected, got in zip(reference, outputs[0]):
        assert got.labels == expected.labels
        assert got.trajectory.segments == expected.trajectory.segments


# ------------------------------------------------------------- error paths
def test_gateway_validates_inputs(trained_model, dataset, offline_matcher):
    with trained_model.detection_service(num_shards=1) as service:
        with pytest.raises(GatewayError):
            GpsGateway(service, dataset.network)  # not a matcher
        gateway = GpsGateway(service, offline_matcher)
        with pytest.raises(GatewayError):
            gateway.end("ghost")
        with pytest.raises(GatewayError):
            serve_raw_fleet(gateway, [], concurrency=0)
        # An OnlineMapMatcher is accepted as-is (window preconfigured).
        online = OnlineMapMatcher(offline_matcher, max_pending=16)
        assert GpsGateway(service, online).matcher is online
    with pytest.raises(ConfigurationError):
        GatewayConfig(reorder_window=-1).validate()
    with pytest.raises(ConfigurationError):
        GatewayConfig(session_gap_s=0.0).validate()
    with pytest.raises(ConfigurationError):
        GatewayConfig(max_pending_points=1).validate()
    with pytest.raises(ConfigurationError):
        GatewayConfig(ingest_batch=0).validate()
    # Regression: an explicit 0.0 used to silently fall back to
    # session_gap_s (`or` treats 0.0 as unset); now it is rejected outright.
    with pytest.raises(ConfigurationError):
        GatewayConfig(session_timeout_s=0.0).validate()


def test_gateway_latency_report(trained_model, dataset, dataset_split,
                                offline_matcher):
    _, _, test = dataset_split
    raws = clean_raws(dataset, test[:3], seed=27)
    with trained_model.detection_service(num_shards=1) as service:
        gateway = GpsGateway(service, offline_matcher)
        serve_raw_fleet(gateway, raws, concurrency=3)
        report = LatencyReport(
            name="GpsGateway",
            samples=list(gateway.matcher.commit_lag_samples))
    assert report.count == sum(len(raw.points) for raw in raws)
    assert report.maximum >= report.p95 >= report.p50 >= 0
    assert "commit lag" in report.format()


# -------------------------------------------------- service batched ingest
@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_service_ingest_many_matches_per_point(trained_model, dataset_split,
                                               backend):
    """DetectionService.ingest_many (one batched command per shard) labels
    exactly like the detector, including streams opened mid-batch."""
    _, _, test = dataset_split
    fleet = test[:6]
    detector = trained_model.detector()
    events = []
    for vehicle, trajectory in enumerate(fleet):
        for position, segment in enumerate(trajectory.segments):
            if position == 0:
                events.append(IngestEvent(vehicle, segment,
                                          trajectory.destination,
                                          trajectory.start_time_s,
                                          trajectory.trajectory_id))
            else:
                events.append(IngestEvent(vehicle, segment, None, 0.0, None))
    with trained_model.detection_service(
            num_shards=2, backend=backend) as service:
        service.ingest_many(events)
        results = service.finalize_many(list(range(len(fleet))))
        metrics = service.metrics()
    assert metrics.batched_ingests >= 1
    assert metrics.accepted_ingests == len(events)
    for trajectory, result in zip(fleet, results):
        assert result.labels == detector.detect(trajectory).labels


def test_service_ingest_many_rides_out_backpressure(trained_model,
                                                    dataset_split):
    """Tiny queue depth: batched ingest retries (counted as rejections) but
    delivers everything in order."""
    _, _, test = dataset_split
    trajectory = max(test, key=len)
    detector = trained_model.detector()
    with trained_model.detection_service(
            num_shards=1, backend="inprocess", queue_depth=2) as service:
        retries = 0
        for position, segment in enumerate(trajectory.segments):
            if position == 0:
                event = IngestEvent("cab", segment, trajectory.destination,
                                    trajectory.start_time_s, None)
            else:
                event = IngestEvent("cab", segment, None, 0.0, None)
            retries += service.ingest_many([event])
        result = service.finalize("cab")
        metrics = service.metrics()
    assert retries > 0
    assert metrics.rejected_ingests == retries
    assert result.labels == detector.detect(trajectory).labels


def test_service_ingest_many_validates_segments(trained_model, dataset_split):
    from repro.exceptions import LabelingError

    _, _, test = dataset_split
    with trained_model.detection_service(num_shards=1) as service:
        with pytest.raises(LabelingError):
            service.ingest_many([IngestEvent("cab", 10 ** 9, None, 0.0, None)])
        assert service.ingest_many([]) == 0
        assert service.active_vehicles == []
        service.close()
        with pytest.raises(ServiceError):
            service.ingest_many(
                [IngestEvent("cab", test[0].segments[0], None, 0.0, None)])


# ----------------------------------------------- wall-clock session timeouts
def test_advance_clock_closes_idle_sessions(trained_model, dataset,
                                            dataset_split, offline_matcher):
    """A vehicle that simply stops reporting is closed by the wall clock —
    no later fix, no explicit end — and labels exactly like an ended one."""
    _, _, test = dataset_split
    raw = clean_raws(dataset, [test[0]], seed=31)[0]
    config = GatewayConfig(reorder_window=0, session_timeout_s=120.0,
                           ingest_batch=4)

    reference, _ = run_gateway(trained_model, offline_matcher, [raw],
                               config=config, num_shards=1)

    with trained_model.detection_service(num_shards=1) as service:
        gateway = GpsGateway(service, offline_matcher, config)
        for position, point in enumerate(raw.points):
            assert gateway.push_point(
                0, point,
                start_time_s=raw.start_time_s if position == 0 else None) == []
        last_abs = raw.start_time_s + raw.points[-1].t
        # Within the timeout: nothing closes.
        assert gateway.advance_clock(last_abs + 60.0) == []
        assert gateway.active_vehicles == [0]
        sessions = gateway.advance_clock(last_abs + 121.0)
        stats = gateway.stats()
    assert [s.result.labels for s in sessions] == \
        [r.labels for r in reference[0]]
    assert stats.session_timeouts == 1
    assert stats.sessions_closed == 1
    assert gateway.active_vehicles == []  # the vehicle was forgotten


def test_advance_clock_defaults_timeout_to_session_gap(trained_model, dataset,
                                                       dataset_split,
                                                       offline_matcher):
    _, _, test = dataset_split
    raw = clean_raws(dataset, [test[1]], seed=32)[0]
    config = GatewayConfig(reorder_window=0, session_gap_s=300.0,
                           ingest_batch=4)
    with trained_model.detection_service(num_shards=1) as service:
        gateway = GpsGateway(service, offline_matcher, config)
        for position, point in enumerate(raw.points):
            gateway.push_point(
                0, point,
                start_time_s=raw.start_time_s if position == 0 else None)
        last_abs = raw.start_time_s + raw.points[-1].t
        assert gateway.advance_clock(last_abs + 299.0) == []
        sessions = gateway.advance_clock(last_abs + 301.0)
        assert len(sessions) == 1
        assert gateway.stats().session_timeouts == 1
    with pytest.raises(ConfigurationError):
        GatewayConfig(session_timeout_s=-1.0).validate()


def test_advance_clock_flushes_the_reorder_buffer(trained_model, dataset,
                                                  dataset_split,
                                                  offline_matcher):
    """Fixes still sitting in the reorder buffer at timeout are delivered
    before the session closes — the timeout loses no data."""
    _, _, test = dataset_split
    raw = clean_raws(dataset, [test[2]], seed=33)[0]
    config = GatewayConfig(reorder_window=6, session_timeout_s=60.0,
                           ingest_batch=4)
    reference, _ = run_gateway(trained_model, offline_matcher, [raw],
                               config=config, num_shards=1)
    with trained_model.detection_service(num_shards=1) as service:
        gateway = GpsGateway(service, offline_matcher, config)
        for position, point in enumerate(raw.points):
            gateway.push_point(
                0, point,
                start_time_s=raw.start_time_s if position == 0 else None)
        assert gateway.stats().reorder_buffered > 0
        last_abs = raw.start_time_s + raw.points[-1].t
        sessions = gateway.advance_clock(last_abs + 61.0)
    assert [s.result.labels for s in sessions] == \
        [r.labels for r in reference[0]]


# --------------------------------------------------- vehicle-state eviction
def test_max_vehicles_evicts_least_recently_active(trained_model, dataset,
                                                   dataset_split,
                                                   offline_matcher):
    """The vehicle bound closes the least recently active vehicle to admit a
    new one — its session result surfaces instead of being dropped — and
    bounds the matcher's session map with it."""
    _, _, test = dataset_split
    raws = clean_raws(dataset, test[:3], seed=34)
    config = GatewayConfig(reorder_window=0, max_vehicles=2, ingest_batch=4)
    reference, _ = run_gateway(trained_model, offline_matcher, [raws[0]],
                               config=config, num_shards=1)
    with trained_model.detection_service(num_shards=1) as service:
        gateway = GpsGateway(service, offline_matcher, config)
        for vehicle, raw in enumerate(raws[:2]):
            for position, point in enumerate(raw.points):
                # Interleave-free: vehicle 0 finishes first => least recent.
                gateway.push_point(
                    vehicle, point,
                    start_time_s=raw.start_time_s if position == 0 else None)
        assert sorted(gateway.active_vehicles) == [0, 1]
        evicted = gateway.push_point(2, raws[2].points[0],
                                     start_time_s=raws[2].start_time_s)
        stats = gateway.stats()
        assert stats.vehicles_evicted == 1
        assert sorted(gateway.active_vehicles) == [1, 2]
        assert len(gateway.matcher.active_sessions) <= 2
        for vehicle in gateway.active_vehicles:
            gateway.end(vehicle)
    assert [s.result.labels for s in evicted] == \
        [r.labels for r in reference[0]]
    with pytest.raises(ConfigurationError):
        GatewayConfig(max_vehicles=-1).validate()


def test_unbounded_gateway_never_evicts(trained_model, dataset, dataset_split,
                                        offline_matcher):
    _, _, test = dataset_split
    raws = clean_raws(dataset, test[:6], seed=35)
    outputs, stats = run_gateway(trained_model, offline_matcher, raws,
                                 num_shards=1)
    assert stats.vehicles_evicted == 0
    assert stats.session_timeouts == 0
    assert "vehicles evicted" in stats.format()


def test_fleet_replay_keeps_results_of_first_push_evictions(
        trained_model, dataset, dataset_split, offline_matcher):
    """Regression: with more vehicles in flight than ``max_vehicles``, a new
    vehicle's *first* push evicts the least recently active one — and
    ``serve_raw_fleet`` used to discard the evictee's finished sessions
    returned by that push. Every closed session must surface in the
    evictee's own slot."""
    _, _, test = dataset_split
    raws = clean_raws(dataset, test[:6], seed=37)
    config = GatewayConfig(reorder_window=0, max_vehicles=2, ingest_batch=4)
    outputs, stats = run_gateway(trained_model, offline_matcher, raws,
                                 config=config, num_shards=2)
    assert stats.vehicles_evicted > 0  # the scenario actually bites
    assert all(len(sessions) > 0 for sessions in outputs)
    assert sum(len(sessions) for sessions in outputs) == stats.sessions_closed
    # Same fleet, no vehicle bound: every point of every trace is covered.
    # With the bound, eviction truncates sessions but never loses one.
    unbounded, unbounded_stats = run_gateway(
        trained_model, offline_matcher, raws, num_shards=2)
    assert stats.matched_points == unbounded_stats.matched_points


# ------------------------------------------------- map-matching confidence
def test_session_results_carry_match_confidence(trained_model, dataset,
                                                dataset_split,
                                                offline_matcher):
    """Clean sessions score a usable confidence in (0, 1]; the noisier the
    trace, the lower the score — the filtering signal downstream wants."""
    _, _, test = dataset_split
    trajectory = max(test, key=len)
    clean = clean_raws(dataset, [trajectory], seed=36, noise=0.5)
    noisy = clean_raws(dataset, [trajectory], seed=36, noise=20.0)
    confidences = {}
    for name, raws in (("clean", clean), ("noisy", noisy)):
        with trained_model.detection_service(num_shards=1) as service:
            gateway = GpsGateway(service, offline_matcher)
            outputs = []
            for position, point in enumerate(raws[0].points):
                outputs.extend(gateway.push_point(
                    0, point,
                    start_time_s=raws[0].start_time_s if position == 0
                    else None))
            outputs.extend(gateway.end(0))
            confidences[name] = [s.confidence for s in outputs]
    assert all(0.0 < c <= 1.0 for c in confidences["clean"])
    assert max(confidences["noisy"]) < max(confidences["clean"])
    # The session result mirrors the match summary exactly.
    with trained_model.detection_service(num_shards=1) as service:
        gateway = GpsGateway(service, offline_matcher)
        sessions = []
        for position, point in enumerate(clean[0].points):
            sessions.extend(gateway.push_point(
                0, point,
                start_time_s=clean[0].start_time_s if position == 0 else None))
        sessions.extend(gateway.end(0))
    (session,) = sessions
    assert session.confidence == session.match.confidence


def test_confidence_is_normalized_against_the_perfect_decode(
        dataset, offline_matcher):
    """A near-noiseless trace scores close to 1 (not a sliver above 0 — the
    ceiling normalization cancels the Gaussian constants), a broken or
    empty session scores exactly 0."""
    from repro.mapmatching import OnlineMapMatcher
    from repro.mapmatching.online import OnlineMatchResult
    from repro.datagen import sample_gps_trace

    rng = np.random.default_rng(40)
    truth = dataset.trajectories[0]
    raw = sample_gps_trace(dataset.network, truth.segments,
                           truth.start_time_s, rng, gps_noise_m=0.1)
    online = OnlineMapMatcher(offline_matcher, max_pending=64)
    for point in raw.points:
        online.push("s", point)
    match = online.finish("s")
    assert match.succeeded
    assert match.confidence > 0.5  # near-perfect fixes -> near-ceiling score
    broken = OnlineMatchResult(route=[1, 2], log_likelihood=-10.0,
                               points_matched=2, forced_commits=0,
                               max_commit_lag=0, broken=True)
    assert broken.confidence == 0.0  # finish() never scores a broken decode
    empty = OnlineMatchResult(route=[], log_likelihood=-10.0,
                              points_matched=0, forced_commits=0,
                              max_commit_lag=0)
    assert empty.confidence == 0.0


# ----------------------------------------------------------- session closes
FUNNEL = ("raw_points", "matched_points", "segments_emitted",
          "late_dropped", "duplicates_dropped", "unmatched_dropped",
          "sessions_opened", "sessions_closed", "sessions_dropped",
          "sessions_broken", "gap_splits", "commits", "forced_commits",
          "max_commit_lag")


@pytest.mark.fleet
@pytest.mark.parametrize("num_shards,backend", [(1, "inprocess"),
                                                (2, "process")])
def test_async_sessions_label_and_funnel_identical(
        trained_model, dataset, dataset_split, offline_matcher,
        num_shards, backend):
    """Sessions close asynchronously, through the results bus, on every
    backend: eight vehicles in flight, their sessions collected from the
    closing calls, the polls and the final drain, are label- and
    funnel-identical to one vehicle at a time on a 1-shard in-process
    service, where each session comes back from its own closing call — and
    neither run leaves a result behind."""
    _, development, test = dataset_split
    fleet = (list(test) + list(development))[:8]
    raws = clean_raws(dataset, fleet, seed=num_shards + 80)

    def run(num_shards, backend, concurrency):
        with trained_model.detection_service(
                num_shards=num_shards, backend=backend) as service:
            gateway = GpsGateway(service, offline_matcher,
                                 GatewayConfig(ingest_batch=8))
            outputs = serve_raw_fleet(gateway, raws, concurrency=concurrency)
            return outputs, gateway.stats(), gateway.metrics()

    ref_out, ref_stats, ref_metrics = run(1, "inprocess", 1)
    async_out, async_stats, async_metrics = run(num_shards, backend, 8)
    assert ([[result.labels for result in sessions] for sessions in async_out]
            == [[result.labels for result in sessions]
                for sessions in ref_out])
    for name in FUNNEL:
        assert getattr(ref_stats, name) == getattr(async_stats, name), name
    assert ref_stats.mean_commit_lag == \
        pytest.approx(async_stats.mean_commit_lag)
    for stats, metrics in ((ref_stats, ref_metrics),
                           (async_stats, async_metrics)):
        assert stats.sessions_closed == len(fleet)
        assert metrics.results_pending == 0
        assert metrics.results_duplicates == 0


def test_sessions_poll_and_drain_explicitly(trained_model, dataset,
                                            dataset_split, offline_matcher):
    """The poll/drain surface on a process shard held still: closes return
    nothing, sessions stay pending until the bus delivers them, and a
    stream finalized around the gateway is rejected loudly instead of
    misattributed."""
    _, _, test = dataset_split
    raws = clean_raws(dataset, test[:2], seed=9)
    reference = offline_reference(trained_model, offline_matcher, raws,
                                  num_shards=1)
    with trained_model.detection_service(num_shards=1,
                                         backend="process") as service:
        gateway = GpsGateway(service, offline_matcher)
        for vehicle, raw in enumerate(raws):
            for position, point in enumerate(raw.points):
                assert gateway.push_point(
                    vehicle, point,
                    start_time_s=(raw.start_time_s if position == 0
                                  else None)) == []
        pid = service._backend._shards[0].process.pid
        os.kill(pid, signal.SIGSTOP)
        try:
            for vehicle in gateway.active_vehicles:
                assert gateway.end(vehicle) == []
            assert gateway.pending_sessions == len(raws)
            assert gateway.poll_sessions() == []
        finally:
            os.kill(pid, signal.SIGCONT)
        sessions = gateway.drain_sessions()
        assert gateway.pending_sessions == 0
        by_vehicle = {session.session_key[0]: session for session in sessions}
        for vehicle, expected in enumerate(reference):
            session = by_vehicle[vehicle]
            assert session.result.labels == expected.labels
            assert session.match is not None
            assert session.confidence == session.match.confidence
        # Someone else finalizing through the gateway's service poisons the
        # shared bus; the gateway refuses to guess whose result that is.
        service.ingest_many([IngestEvent("interloper", test[0].segments[0])])
        service.finalize_async(["interloper"])
        with pytest.raises(GatewayError):
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline:
                gateway.pump()
                gateway.poll_sessions()
                time.sleep(0.001)


def test_drain_sessions_gives_up_when_results_stop_arriving(
        trained_model, dataset, dataset_split, offline_matcher, monkeypatch):
    """A closed session whose result never reaches the bus (a worker
    swallows it) ends the drain with GatewayError after the no-progress
    deadline instead of spinning forever."""
    _, _, test = dataset_split
    raw = clean_raws(dataset, test[:1], seed=11)[0]
    with trained_model.detection_service(num_shards=1) as service:
        gateway = GpsGateway(service, offline_matcher)
        gateway.push_point(0, raw.points[0], start_time_s=raw.start_time_s)
        for point in raw.points[1:]:
            gateway.push_point(0, point)
        monkeypatch.setattr(service, "poll_results",
                            lambda max_items=None: [])
        assert gateway.end(0) == []
        with pytest.raises(GatewayError, match="did not arrive"):
            gateway.drain_sessions(timeout_s=0.05)
        assert gateway.pending_sessions == 1
