"""Fuzz, fault-injection, backpressure and soak tests of the results bus.

The bus contract under test (``repro/serve/resultbus.py`` plus the backend
plumbing behind :meth:`DetectionService.finalize_async` /
:meth:`poll_results`): delivery is **at-least-once** — lost drains are
recovered by ``replay`` — while acceptance is **exactly-once and in
per-shard sequence order**, so no interleaving of publishes, drains, acks,
replays and hot-swaps may ever lose a result, deliver one twice to the
caller, or invert a vehicle's order. The unit fuzz drives the raw
``ShardResultBus`` / ``BusCollector`` protocol through hundreds of
randomized schedules; the service fuzz replays randomized fleets through
``finalize_async`` on both backends; around them sit the backpressure
retry-discipline tests (the ``ingest_many`` sleep path, a storm of
process-backend refusals) and a ``slow``-marked gateway→service→bus
soak that pins queue depth, bus lag and per-vehicle state as bounded.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GatewayConfig
from repro.core import replay_fleet
from repro.core.detector import route_result
from repro.datagen import sample_gps_trace
from repro.exceptions import GatewayError, ModelError, ServiceError
from repro.ingest import GpsGateway
from repro.mapmatching import HMMMapMatcher
from repro.obs.trace import TraceContext
from repro.serve import (BusCollector, IngestEvent, ResultEnvelope,
                         ShardResultBus, clone_model, weights_snapshot)
from repro.serve.resultbus import pack_frame, unpack_frame


def assert_results_match(reference, result):
    assert result.labels == reference.labels
    assert result.spans == reference.spans
    assert result.is_anomalous == reference.is_anomalous


# ===================================================== unit-level protocol
def run_bus_protocol_trial(rng, num_shards):
    """One randomized publish/drain/ack/replay schedule, checked exactly.

    Models the real facade protocol plus its two failure modes: a drained
    batch may be *lost in flight* (never reaches the collector), or the
    batch arrives but the *acknowledgement* is lost — in either case the
    next drain replays the unacknowledged window first, the way
    :meth:`DetectionService.replay_results` recovers a lost poll. A lost
    ack forces genuine redelivery of accepted envelopes, which the
    watermark must drop as duplicates. Spurious replays (nothing was lost)
    are thrown in too.
    """
    buses = [ShardResultBus(shard) for shard in range(num_shards)]
    collector = BusCollector(num_shards)
    published = [[] for _ in range(num_shards)]
    accepted = [[] for _ in range(num_shards)]
    lost_drain = [False] * num_shards
    stamp = 0

    def drain(shard, may_lose):
        if lost_drain[shard]:
            buses[shard].replay()
            lost_drain[shard] = False
        batch = buses[shard].take(int(rng.integers(1, 6)))
        if batch and may_lose and rng.random() < 0.25:
            lost_drain[shard] = True  # the batch never reaches the collector
            return
        fresh = collector.offer(batch)
        for envelope in fresh:
            accepted[envelope.shard_id].append((envelope.seq,
                                                envelope.payload))
        if batch and may_lose and rng.random() < 0.25:
            lost_drain[shard] = True  # the *ack* is lost instead
            return
        buses[shard].ack(collector.watermark(shard))

    for _ in range(int(rng.integers(40, 140))):
        shard = int(rng.integers(num_shards))
        roll = rng.random()
        if roll < 0.45:
            for _ in range(int(rng.integers(1, 4))):
                payload = f"payload-{stamp}"
                stamp += 1
                seq = buses[shard].publish("result", f"v{stamp}", payload)
                published[shard].append((seq, payload))
        elif roll < 0.85:
            drain(shard, may_lose=True)
        else:
            buses[shard].replay()  # spurious: redelivers acked-nothing

    # Final settlement: recover every lost drain and empty every bus.
    for shard in range(num_shards):
        while (lost_drain[shard] or buses[shard].depth
               or buses[shard].stats().unacked):
            if buses[shard].stats().unacked and not lost_drain[shard]:
                buses[shard].replay()
            drain(shard, may_lose=False)

    assert collector.gaps == 0, "an envelope was lost"
    for shard in range(num_shards):
        # Zero loss, exactly-once acceptance, publish order preserved.
        assert accepted[shard] == published[shard]
        seqs = [seq for seq, _ in accepted[shard]]
        assert seqs == sorted(seqs)
        stats = buses[shard].stats()
        assert stats.published == len(published[shard])
        # Redelivery bounds the extra takes — an ack may trim a replayed
        # envelope out of the outbox before it is ever re-taken.
        assert stats.published <= stats.delivered <= \
            stats.published + stats.redelivered
        assert stats.depth == 0 and stats.unacked == 0
        assert stats.acked_seq == (seqs[-1] if seqs else 0)
        assert collector.watermark(shard) == stats.acked_seq
    # Lost batches were taken but never offered: received <= delivered.
    assert collector.received <= sum(b.stats().delivered for b in buses)
    assert collector.accepted == sum(b.stats().published for b in buses)
    assert collector.duplicates == collector.received - collector.accepted


@pytest.mark.parametrize("seed", range(8))
def test_bus_protocol_fuzz(seed):
    """200 randomized schedules (25 per seed), 1-4 shards each: at-least-once
    delivery in, exactly-once in-order acceptance out, zero loss."""
    for trial in range(25):
        rng = np.random.default_rng(seed * 1000 + trial)
        run_bus_protocol_trial(rng, num_shards=int(rng.integers(1, 5)))


def test_bus_take_ack_lifecycle():
    bus = ShardResultBus(0)
    assert [bus.publish("result", v, v) for v in "abc"] == [1, 2, 3]
    assert bus.depth == 3 and bus.stats().unacked == 0
    batch = bus.take(2)
    assert [e.seq for e in batch] == [1, 2]
    assert (bus.depth, bus.stats().unacked) == (1, 2)
    bus.ack(1)
    assert bus.stats().unacked == 1
    bus.ack(2)
    assert bus.stats().unacked == 0
    assert [e.seq for e in bus.take()] == [3]
    bus.ack(3)
    stats = bus.stats()
    assert stats.delivered == 3 and stats.acked_seq == 3
    assert stats.lag == 0


def test_replay_preserves_sequence_order():
    bus = ShardResultBus(2)
    for v in range(5):
        bus.publish("result", v, v)
    bus.take(3)  # seqs 1-3 in flight
    assert bus.replay() == 3
    # Replayed envelopes come back *in front of* the fresher outbox.
    assert [e.seq for e in bus.take()] == [1, 2, 3, 4, 5]
    assert bus.stats().redelivered == 3
    assert bus.replay() == 5  # everything is unacked again


def test_ack_trims_replayed_outbox_duplicates():
    bus = ShardResultBus(0)
    for v in range(3):
        bus.publish("result", v, v)
    bus.take()
    bus.replay()  # the whole window is queued for redelivery
    bus.ack(3)    # ...but the subscriber had accepted it all along
    assert bus.depth == 0 and bus.stats().unacked == 0


def test_collector_dedups_and_counts_gaps():
    bus = ShardResultBus(0)
    collector = BusCollector(1)
    first = [bus.publish("result", v, v) for v in range(4)]
    assert first == [1, 2, 3, 4]
    batch = bus.take()
    assert len(collector.offer(batch)) == 4
    assert [e.seq for e in collector.offer(batch)] == []  # pure redelivery
    assert collector.duplicates == 4
    assert collector.gaps == 0
    # A gap — only possible if an envelope is truly lost — is *counted*.
    bus.publish("result", "x", "x")
    bus.publish("result", "y", "y")
    lost_then_next = bus.take()[1:]  # seq 5 vanishes
    assert [e.seq for e in collector.offer(lost_then_next)] == [6]
    assert collector.gaps == 1


# ========================================================= the bus frame
def comparable(envelope):
    """An envelope with its exception (which compares by identity) read as
    type and arguments, and every field's type beside it."""
    payload = envelope.payload
    if isinstance(payload, BaseException):
        payload = (type(payload), payload.args)
    fields = (*envelope[:4], payload, envelope.trace)
    return fields, [type(field) for field in (envelope, *fields)]


def assert_frame_round_trips(shard_id, batch):
    again = unpack_frame(shard_id, pack_frame(batch))
    assert [comparable(e) for e in again] == [comparable(e) for e in batch]
    for got, sent in zip(again, batch):
        if sent.kind == "result":  # its == reads route, labels and spans
            assert [type(got.payload.trajectory.trajectory_id),
                    type(got.payload.trajectory.start_time_s)] == [
                type(sent.payload.trajectory.trajectory_id),
                type(sent.payload.trajectory.start_time_s)]


labels_of = st.lists(st.integers(0, 1), min_size=1, max_size=30)
traces = st.none() | st.builds(
    TraceContext, st.integers(0, 2 ** 63 - 1),
    st.floats(0.0, 1e9, allow_nan=False))
vehicle_ids = st.integers(-5, 10 ** 9) | st.text(max_size=6)


@st.composite
def frame_batches(draw):
    """A taken batch: results (anomalous or not, traced or not) and error
    envelopes, in any mix, under consecutive sequence numbers."""
    shard_id = draw(st.integers(0, 7))
    seq = draw(st.integers(1, 10 ** 6))
    batch = []
    for offset, kind in enumerate(draw(st.lists(
            st.sampled_from(["result", "error"]), max_size=8))):
        if kind == "result":
            labels = draw(labels_of)
            segments = draw(st.lists(st.integers(0, 10 ** 6),
                                     min_size=len(labels),
                                     max_size=len(labels)))
            payload = route_result(draw(st.integers(0, 10 ** 9)), segments,
                                   draw(st.floats(0.0, 1e7, allow_nan=False)),
                                   labels)
            key = draw(vehicle_ids)
        else:
            key = tuple(draw(st.lists(vehicle_ids, min_size=1, max_size=3)))
            payload = ModelError(draw(st.text(max_size=20)))
        batch.append(ResultEnvelope(shard_id, seq + offset, kind, key,
                                    payload, draw(traces)))
    return shard_id, batch


@settings(max_examples=200, deadline=None)
@given(frame_batches())
def test_a_frame_unpacks_to_the_batch_it_packed(case):
    assert_frame_round_trips(*case)


def test_every_frame_form_round_trips():
    plain = route_result(7, [4, 5, 6, 7], 30.0, [0, 0, 0, 0])
    detour = route_result(8, [4, 9, 10, 11, 7], 0.0, [0, 1, 1, 0, 0])
    failure = ModelError("vehicle 'cab' has not reached its destination")
    batch = [
        ResultEnvelope(2, 11, "result", "cab", plain, None),
        ResultEnvelope(2, 12, "result", 3, detour, TraceContext(1001, 5.5)),
        ResultEnvelope(2, 13, "error", ("cab", 3), failure, None),
    ]
    assert detour.subtrajectories and not plain.subtrajectories
    assert_frame_round_trips(2, batch)
    assert_frame_round_trips(2, [])
    # The shard id is the reader's: the pipe it read names the shard.
    (envelope,) = unpack_frame(5, pack_frame(batch[:1]))
    assert envelope.shard_id == 5


def test_a_frame_ships_results_as_route_and_labels(trained_model,
                                                   dataset_split):
    """A batch of five real results packs into at most half the bytes of
    the same envelopes under the ``multiprocessing`` pickler."""
    _, _, test = dataset_split
    trips = list(test)[:5]
    with trained_model.detection_service(num_shards=1) as service:
        service.ingest_many([IngestEvent(
            vehicle, segment,
            trip.destination if position == 0 else None,
            trip.start_time_s if position == 0 else 0.0,
            trip.trajectory_id if position == 0 else None)
            for vehicle, trip in enumerate(trips)
            for position, segment in enumerate(trip.segments)])
        service.finalize_async(list(range(len(trips))))
        batch = service.drain_results()
    assert [e.kind for e in batch] == ["result"] * len(trips)
    assert_frame_round_trips(0, batch)
    assert len(pack_frame(batch)) * 2 <= len(ForkingPickler.dumps(batch))


# ================================================== service-level fuzzing
def _references(model, pool, cache={}):
    detector = model.detector()
    for trajectory in pool:
        if id(trajectory) not in cache:
            cache[id(trajectory)] = detector.detect(trajectory)
    return cache


def run_async_finalize_trial(service, model, pool, references, rng, base,
                             last_seq):
    """One fuzz trial: a random interleaving of ingest (per-point and
    batched), pumps, polls, spurious replays and identical-weights hot-swaps,
    with every stream closed through ``finalize_async`` and collected off
    the bus. Asserts per-shard sequence monotonicity (``last_seq`` persists
    across the service's whole lifetime), exactly-once acceptance and
    label identity with the offline detector."""
    fleet = [pool[int(rng.integers(len(pool)))]
             for _ in range(int(rng.integers(2, 5)))]
    vehicles = [f"{base}/{i}" for i in range(len(fleet))]
    cursors = [0] * len(fleet)
    results = {}

    def absorb(envelopes):
        for envelope in envelopes:
            assert envelope.seq > last_seq.get(envelope.shard_id, 0), \
                "per-shard sequence order violated"
            last_seq[envelope.shard_id] = envelope.seq
            if envelope.kind == "error":
                raise envelope.payload
            assert envelope.kind == "result"
            assert envelope.key not in results, "result accepted twice"
            results[envelope.key] = envelope.payload

    while any(c < len(t.segments) for c, t in zip(cursors, fleet)):
        live = [i for i in range(len(fleet))
                if cursors[i] < len(fleet[i].segments)]
        chosen = [i for i in live if rng.random() < 0.7] or [live[0]]
        events = []
        for i in chosen:
            trajectory, cursor = fleet[i], cursors[i]
            opener = cursor == 0
            events.append(IngestEvent(
                vehicles[i], trajectory.segments[cursor],
                trajectory.destination if opener else None,
                trajectory.start_time_s if opener else 0.0,
                trajectory.trajectory_id if opener else None))
            cursors[i] = cursor + 1
        if rng.random() < 0.5:
            service.ingest_many(events)
        else:
            for event in events:
                service.ingest_many([event])
        finished = [i for i in chosen
                    if cursors[i] == len(fleet[i].segments)]
        if finished:
            service.finalize_async([vehicles[i] for i in finished])
        if rng.random() < 0.4:
            service.pump()
        if rng.random() < 0.1:
            service.replay_results()  # at-least-once: must change nothing
        if rng.random() < 0.05:
            service.swap(weights=weights_snapshot(model))  # identical weights
        if rng.random() < 0.3:
            absorb(service.poll_results())
    absorb(service.drain_results())

    assert set(results) == set(vehicles)
    assert service.results_pending == 0
    for i, vehicle in enumerate(vehicles):
        assert_results_match(references[id(fleet[i])], results[vehicle])


TRIALS = {"inprocess": 100, "process": 16}


@pytest.mark.fleet
@pytest.mark.parametrize("backend,num_shards", [("inprocess", 2),
                                                ("process", 2)])
def test_finalize_async_fuzz_preserves_labels_and_order(
        trained_model, dataset_split, backend, num_shards):
    """Satellite acceptance: seeded randomized interleavings on one
    long-lived service per backend (100 in-process + 16 process trials) —
    per-shard sequence monotonicity, dedup by sequence number, zero loss,
    labels pinned to the offline detector throughout."""
    _, development, test = dataset_split
    pool = sorted(list(test) + list(development), key=len)[:20]
    references = _references(trained_model, pool)
    last_seq = {}
    with trained_model.detection_service(
            num_shards=num_shards, backend=backend,
            queue_depth=32) as service:
        for trial in range(TRIALS[backend]):
            rng = np.random.default_rng(9000 + trial)
            run_async_finalize_trial(service, trained_model, pool,
                                     references, rng, f"t{trial}", last_seq)
        metrics = service.metrics()
    assert metrics.results_pending == 0
    assert metrics.results_delivered >= 2 * TRIALS[backend]
    assert metrics.async_finalizes >= TRIALS[backend]
    assert sum(stats.published for stats in metrics.bus) == \
        metrics.results_delivered
    assert "results bus:" in metrics.format()


@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_replay_after_lost_drain_redelivers_everything(
        trained_model, dataset_split, backend):
    """Fault injection: a drain that never reaches the collector (taken off
    the backend, dropped on the floor) is fully recovered by
    ``replay_results`` — zero loss, zero double-acceptance."""
    _, _, test = dataset_split
    fleet = test[:4]
    detector = trained_model.detector()
    with trained_model.detection_service(
            num_shards=2, backend=backend) as service:
        for index, trajectory in enumerate(fleet):
            service.ingest_many([IngestEvent(
                index, segment,
                trajectory.destination if position == 0 else None,
                trajectory.start_time_s if position == 0 else 0.0,
                trajectory.trajectory_id if position == 0 else None)
                for position, segment in enumerate(trajectory.segments)])
        service.finalize_async(range(len(fleet)))
        lost = []
        deadline = time.perf_counter() + 30.0
        while len(lost) < len(fleet):
            service.pump()
            lost.extend(service._backend.take_results())
            assert time.perf_counter() < deadline, "bus never published"
        assert service.results_pending == len(fleet)
        replayed = service.replay_results()
        assert replayed == len(fleet)
        envelopes = service.drain_results()
        metrics = service.metrics()
    assert sorted(e.key for e in envelopes) == list(range(len(fleet)))
    for envelope in envelopes:
        assert_results_match(detector.detect(fleet[envelope.key]),
                             envelope.payload)
    assert metrics.bus_redelivered == replayed
    assert metrics.results_duplicates == 0  # nothing was accepted twice
    assert metrics.results_pending == 0


@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_error_envelope_carries_shard_failure(trained_model, dataset_split,
                                              backend):
    """A shard-side async-finalize failure (declared destination never
    reached) arrives as one ``"error"`` envelope instead of vanishing."""
    _, _, test = dataset_split
    trajectory = next(t for t in test
                      if len(t) >= 3 and t.segments[1] != t.destination)
    with trained_model.detection_service(
            num_shards=1, backend=backend) as service:
        service.ingest_many([IngestEvent("cab", trajectory.segments[0],
                                         destination=trajectory.destination)])
        service.ingest_many([IngestEvent("cab", trajectory.segments[1])])
        service.finalize_async(["cab"])
        envelopes = service.drain_results()
        assert [e.kind for e in envelopes] == ["error"]
        assert envelopes[0].key == ("cab",)
        assert isinstance(envelopes[0].payload, ModelError)
        assert service.results_pending == 0


@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_failed_async_finalize_still_closes_the_streams(
        trained_model, dataset_split, backend):
    """An async close that fails shard-side (declared destination not yet
    reached) drops the stream there too, so the next trip under the same
    vehicle id opens afresh instead of extending the stale stream."""
    _, _, test = dataset_split
    trajectory = next(t for t in test
                      if len(t) >= 3 and t.segments[1] != t.destination)
    with trained_model.detection_service(
            num_shards=1, backend=backend) as service:
        service.ingest_many([IngestEvent("cab", trajectory.segments[0],
                                         destination=trajectory.destination)])
        service.ingest_many([IngestEvent("cab", trajectory.segments[1])])
        service.finalize_async(["cab"])
        envelopes = service.drain_results()
        assert [e.kind for e in envelopes] == ["error"]
        assert isinstance(envelopes[0].payload, ModelError)
        assert service.metrics().streams_open == 0
        service.ingest_many([IngestEvent(
            "cab", segment,
            trajectory.destination if position == 0 else None,
            trajectory.start_time_s if position == 0 else 0.0,
            trajectory.trajectory_id if position == 0 else None)
            for position, segment in enumerate(trajectory.segments)])
        service.finalize_async(["cab"])
        envelopes = service.drain_results()
    assert [e.kind for e in envelopes] == ["result"]
    single = replay_fleet(clone_model(trained_model).stream_engine(),
                          [trajectory])[0]
    assert envelopes[0].payload.labels == single.labels


def test_finalize_async_validates_synchronously(trained_model, dataset_split):
    _, _, test = dataset_split
    with trained_model.detection_service(num_shards=1) as service:
        assert service.finalize_async([]) == 0
        with pytest.raises(ServiceError):
            service.finalize_async(["ghost"])
        service.ingest_many([IngestEvent("cab", test[0].segments[0])])
        with pytest.raises(ServiceError):
            service.finalize_async(["cab", "cab"])
        assert service.poll_results() == []
        assert service.drain_results() == []  # nothing pending: no-op
        assert service.results_pending == 0
        assert service.active_vehicles == ["cab"]  # validation queued nothing


# ============================================================ backpressure
def test_inprocess_retry_sleeps_when_pump_makes_no_progress(
        trained_model, dataset_split, monkeypatch):
    """The ``ingest_many`` sleep path: deferred streams (undeclared
    destination) make every pump label nothing, so each of the 100+
    rejections must fall through to the retry sleep — and the retried
    points still lose nothing against a reference engine."""
    _, development, test = dataset_split
    fleet = sorted(list(test) + list(development), key=len, reverse=True)[:12]
    assert sum(len(t) for t in fleet) > 110

    engine = clone_model(trained_model).stream_engine()
    cursors = [0] * len(fleet)
    while any(c < len(t.segments) for c, t in zip(cursors, fleet)):
        for index, trajectory in enumerate(fleet):
            if cursors[index] < len(trajectory.segments):
                engine.ingest(index, trajectory.segments[cursors[index]],
                              start_time_s=(trajectory.start_time_s
                                            if cursors[index] == 0 else 0.0))
                cursors[index] += 1
    reference = engine.finalize_many(range(len(fleet)))

    sleeps = 0

    def counting_sleep(seconds):
        nonlocal sleeps
        sleeps += 1

    monkeypatch.setattr("repro.serve.service.time.sleep", counting_sleep)
    with trained_model.detection_service(
            num_shards=1, backend="inprocess", queue_depth=1) as service:
        cursors = [0] * len(fleet)
        while any(c < len(t.segments) for c, t in zip(cursors, fleet)):
            for index, trajectory in enumerate(fleet):
                if cursors[index] < len(trajectory.segments):
                    kwargs = ({"start_time_s": trajectory.start_time_s}
                              if cursors[index] == 0 else {})
                    service.ingest_many([IngestEvent(
                        index, trajectory.segments[cursors[index]],
                        **kwargs)])
                    cursors[index] += 1
        metrics = service.metrics()
        results = service.finalize_many(range(len(fleet)))
    assert metrics.rejected_ingests >= 100
    assert sleeps >= 100  # every retry pumped 0 points and hit the sleep
    assert metrics.accepted_ingests == sum(len(t) for t in fleet)
    for expected, result in zip(reference, results):
        assert_results_match(expected, result)


def stall_worker(service, shard, seconds):
    """Stop one process shard's worker now; a timer continues it."""
    pid = service._backend._shards[shard].process.pid
    os.kill(pid, signal.SIGSTOP)
    threading.Timer(seconds, os.kill, (pid, signal.SIGCONT)).start()


@pytest.mark.fleet
def test_process_backend_rides_out_retry_later_storm(trained_model,
                                                     dataset_split):
    """A stalled worker turns a bounded command queue into a storm of
    refusals; ``ingest_many`` rides out well over 100 of them on one stream
    and the labels come out untouched."""
    _, _, test = dataset_split
    trajectory = max(test, key=len)
    reference = trained_model.detector().detect(trajectory)
    with trained_model.detection_service(
            num_shards=1, backend="process", queue_depth=4) as service:
        service.ingest_many([IngestEvent(
            "cab", trajectory.segments[0], destination=trajectory.destination,
            start_time_s=trajectory.start_time_s)])
        service.drain()
        stall_worker(service, 0, 1.0)
        storm = 0
        for segment in trajectory.segments[1:]:
            storm += service.ingest_many([IngestEvent("cab", segment)],
                                         retry_wait_s=0.001)
        assert storm >= 100
        metrics = service.metrics()
        assert metrics.rejected_ingests == storm
        result = service.finalize("cab")
    assert_results_match(reference, result)


# ==================================================================== soak
@pytest.mark.slow
@pytest.mark.fleet
def test_soak_gateway_to_bus_stays_bounded(trained_model, dataset,
                                           dataset_split):
    """Mini-soak: ~50k synthetic GPS fixes through gateway → service → bus
    with vehicle turnover and LRU eviction. Queue depth,
    bus lag, pending sessions and per-vehicle state must stay bounded, the
    second half must not collapse below half the first half's throughput,
    and not one session may be lost."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    rng = np.random.default_rng(7)
    traces = [sample_gps_trace(dataset.network, truth.segments,
                               truth.start_time_s, rng, gps_noise_m=1.5,
                               trajectory_id=truth.trajectory_id)
              for truth in pool[:40]]
    matcher = HMMMapMatcher(dataset.network)
    target = 50_000
    slots = 24
    config = GatewayConfig(max_vehicles=28, ingest_batch=32,
                           session_gap_s=1e9)
    queue_depth = 256
    with trained_model.detection_service(
            num_shards=1, backend="inprocess",
            queue_depth=queue_depth) as service:
        gateway = GpsGateway(service, matcher, config)
        next_vehicle = 0
        next_trace = 0

        def fresh_slot():
            nonlocal next_vehicle, next_trace
            slot = (next_vehicle, traces[next_trace % len(traces)], 0)
            next_vehicle += 1
            next_trace += 1
            return slot

        active = [fresh_slot() for _ in range(slots)]
        pushed = 0
        collected = 0
        rounds = 0
        started = time.perf_counter()
        half_elapsed = None
        while pushed < target:
            for index, (vehicle, trace, cursor) in enumerate(active):
                if cursor >= len(trace.points):
                    # Abandon the finished vehicle: LRU eviction (not an
                    # explicit end) must close its session over the bus.
                    active[index] = fresh_slot()
                    vehicle, trace, cursor = active[index]
                point = trace.points[cursor]
                collected += len(gateway.push_point(
                    vehicle, point,
                    start_time_s=(trace.start_time_s if cursor == 0
                                  else None)))
                active[index] = (vehicle, trace, cursor + 1)
                pushed += 1
            gateway.pump()
            collected += len(gateway.poll_sessions())
            rounds += 1
            if half_elapsed is None and pushed >= target // 2:
                half_elapsed = time.perf_counter() - started
            if rounds % 64 == 0:
                metrics = service.metrics()
                assert all(s.queue_depth <= queue_depth
                           for s in metrics.shards)
                assert metrics.bus_lag <= 1024, "bus backlog unbounded"
                assert len(gateway.active_vehicles) <= config.max_vehicles
                assert gateway.pending_sessions <= 4 * slots
        full_elapsed = time.perf_counter() - started
        for vehicle in gateway.active_vehicles:
            collected += len(gateway.end(vehicle))
        collected += len(gateway.drain_sessions())
        stats = gateway.stats()
        assert service._collector.gaps == 0
        assert service.results_pending == 0
    assert gateway.pending_sessions == 0
    assert stats.raw_points == pushed >= target
    # Zero loss: every opened session is accounted for — closed sessions
    # all produced a collected result, the rest were (counted) no-match
    # drops; nothing is left open or in flight.
    assert collected == stats.sessions_closed
    assert stats.sessions_opened == stats.sessions_closed + \
        stats.sessions_dropped
    assert stats.vehicles_evicted > 0, "the soak never exercised eviction"
    # Memory-flat proxy: throughput must not degrade as vehicles turn over
    # (a leaking cache or vehicle table would slow the second half down).
    second_half = full_elapsed - half_elapsed
    assert second_half < 2.5 * half_elapsed, (
        f"throughput degraded: first half {half_elapsed:.2f}s, "
        f"second half {second_half:.2f}s")
