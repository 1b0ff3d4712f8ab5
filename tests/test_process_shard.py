"""The process shard's data plane: scheduling, backpressure, bus pipe, wire.

What ``serve/backends.py`` promises about a process shard beyond label
identity (which ``test_serve.py`` and ``test_result_bus.py`` pin):

* the worker steps a round before it buffers the next — driven here against
  the worker's command interpreter directly, no process, no timing;
* a full command queue is therefore the *only* place a fast producer's lead
  can pile up (``RETRY_LATER``), never the engine's per-stream buffers;
* the results bus is a pipe the worker writes synchronously, so a facade
  that does not poll must still never wedge it;
* ``ingest_batch`` travels as columns and applies exactly like the events;
* a dead worker surfaces at the data plane at once;
* both transports carry the same commands to the same ``ShardCore``: one
  scripted sequence yields the same envelopes and the same ``ShardStats``
  through either, a stashed failure surfaces once through either, and the
  in-process queue is the FIFO (and the bound) the process queue is.
"""

from __future__ import annotations

import dataclasses
import queue
import time

import pytest

from repro.exceptions import LabelingError, ServiceError
from repro.obs.trace import TraceContext
from repro.serve import (ControlUpdate, IngestEvent, InProcessBackend,
                         ProcessBackend, clone_model, model_to_bytes,
                         weights_snapshot)
from repro.serve.backends import ShardCore, _pack_events

from test_result_bus import stall_worker
from test_serve import perturbed_snapshot

UNKNOWN_SEGMENT = 10 ** 9


def apply_event(engine, event):
    """Feed one event into an engine: the reference the columns are held to."""
    engine.ingest(event.vehicle_id, event.segment,
                  destination=event.destination,
                  start_time_s=event.start_time_s,
                  trajectory_id=event.trajectory_id,
                  trace=event.trace)


def trip_events(vehicle, trajectory, trace_at=None):
    """One trip as the events a facade would queue for ``vehicle``."""
    return [IngestEvent(
        vehicle, segment,
        trajectory.destination if position == 0 else None,
        trajectory.start_time_s if position == 0 else 0.0,
        trajectory.trajectory_id if position == 0 else None,
        TraceContext(1000 + vehicle, 0.0) if position == trace_at else None)
        for position, segment in enumerate(trajectory.segments)]


@pytest.fixture(scope="module")
def online_trips(trained_model, dataset_split):
    """Trips the engine labels point by point (their SD pair has history).

    A deferred stream steps ahead of its labels and would blur every count
    below; it is told apart by what a tick leaves pending.
    """
    _, development, test = dataset_split
    engine = trained_model.stream_engine()
    trips = []
    for index, trip in enumerate(list(test) + list(development)):
        for event in trip_events(index, trip)[:2]:
            apply_event(engine, event)
        engine.tick()
        if engine.pending_points(index) == 1:
            trips.append(trip)
    assert len(trips) >= 16
    return trips


class Harness:
    """A ``ShardCore`` on a private model, with every tick's batch width
    and everything it sends or replies recorded."""

    def __init__(self, model):
        model = clone_model(model)
        self.engine = model.stream_engine()
        self.widths = []
        step_batch = model.rsrnet.step_batch

        def recording_step(hidden, *args):
            self.widths.append(len(hidden))
            return step_batch(hidden, *args)

        model.rsrnet.step_batch = recording_step
        self.sent, self.replies = [], []
        self.worker = ShardCore(0, self.engine, "harness", queue.Queue().qsize,
                                self.replies.append, self.sent.append)

    def handle(self, *command):
        """Handle one command; returns the batch widths of its ticks."""
        before = len(self.widths)
        assert self.worker.handle(command)
        return self.widths[before:]

    def ingest_batch(self, events):
        return self.handle("ingest_batch", *_pack_events(events))

    def request(self, *command):
        self.handle(*command)
        return self.replies.pop()


# ------------------------------------------------------- the scheduling rule
def test_step_waiting_says_what_the_next_tick_would_step(trained_model,
                                                         online_trips):
    engine = trained_model.stream_engine()
    online, deferred = (trip_events(vehicle, online_trips[0])
                        for vehicle in ("online", "deferred"))
    deferred[0] = deferred[0]._replace(destination=None)
    assert not engine.step_waiting()
    assert not engine.step_waiting(["online", "nobody"])
    apply_event(engine, online[0])
    # A lone point may be the destination: it awaits its successor.
    assert not engine.step_waiting()
    apply_event(engine, deferred[0])
    # A deferred stream steps every buffered point (no label needs it).
    assert engine.step_waiting()
    assert engine.step_waiting(["deferred"])
    assert not engine.step_waiting(["online"])
    apply_event(engine, online[1])
    assert engine.step_waiting(iter(["nobody", "online"]))
    ticks = engine.ticks
    assert engine.step_waiting() and engine.ticks == ticks  # read-only
    engine.tick()
    assert not engine.step_waiting()
    assert not engine.step_waiting(["online", "deferred"])


def test_lockstep_batches_tick_once_per_round_at_full_width(
        trained_model, online_trips):
    trips = online_trips[:12]
    events = [trip_events(vehicle, trip)
              for vehicle, trip in enumerate(trips)]
    harness = Harness(trained_model)
    for round_index in range(max(len(trip) for trip in trips) + 1):
        batch = [own[round_index] for own in events
                 if round_index < len(own)]
        if batch:
            # Every stream fed last round has a point to step now.
            fed_last_round = sum(len(trip) >= round_index for trip in trips)
            assert harness.ingest_batch(batch) == (
                [fed_last_round] if round_index >= 2 else []), round_index
        closing = [vehicle for vehicle, trip in enumerate(trips)
                   if len(trip) == round_index]
        if closing:
            # Caught up by this round's tick, closing costs none (only the
            # last round, which feeds nobody, leaves the step to finalize),
            # and the results are sent before the next command is taken.
            assert harness.handle("finalize_async", closing) == (
                [] if batch else [len(closing)])
            assert [e.key for e in harness.sent.pop()] == closing
    assert harness.sent == []
    assert harness.engine.active_vehicles == []


def test_single_ingest_commands_still_tick_fleet_wide(trained_model,
                                                      online_trips):
    fleet = 64
    harness = Harness(trained_model)
    events = [trip_events(vehicle, online_trips[vehicle % len(online_trips)])
              for vehicle in range(fleet)]
    ticks = []
    for round_index in range(5):
        ticks.append([
            width for own in events
            for width in harness.ingest_batch([own[round_index]])])
    # 64 commands a round, one tick a round, at batch 64.
    assert ticks == [[], [], [fleet], [fleet], [fleet]]


def test_idle_worker_steps_the_waiting_round_then_blocks(trained_model,
                                                         online_trips):
    harness = Harness(trained_model)
    events = [trip_events(vehicle, trip)
              for vehicle, trip in enumerate(online_trips[:4])]
    harness.ingest_batch([own[0] for own in events])
    assert not harness.worker.idle()  # lone points await their successors
    harness.ingest_batch([own[1] for own in events])
    assert harness.worker.idle()
    assert harness.widths == [4]
    assert not harness.worker.idle()
    assert harness.widths == [4]


def test_stacked_points_are_stepped_out_before_the_streams_next_command(
        trained_model, online_trips):
    first, second = online_trips[0], online_trips[1]
    own, other = trip_events("a", first), trip_events("b", second)
    harness = Harness(trained_model)
    # One batch may stack points (it is one command): 4 of "a", 1 of "b".
    assert harness.ingest_batch(own[:4] + other[:1]) == []
    # "b" has nothing waiting, so its next point needs no tick ...
    assert harness.ingest_batch(other[1:2]) == []
    assert harness.engine.pending_points("a") == 4
    # ... but "a" is stepped out (3 ticks; "b" rides the first) before its
    # next point is buffered: newest-before plus the new one stay pending.
    assert harness.ingest_batch(own[4:5]) == [2, 1, 1]
    assert harness.engine.pending_points("a") == 2
    assert harness.ingest_batch([own[5]]) == [1]
    assert harness.engine.pending_points("a") == 2


def test_finalize_async_of_caught_up_streams_ticks_nothing_and_flushes(
        trained_model, online_trips):
    trips = online_trips[:3]
    harness = Harness(trained_model)
    for vehicle, trip in enumerate(trips):
        harness.ingest_batch(trip_events(vehicle, trip))
    while harness.worker.idle():
        pass
    ticks = harness.engine.ticks
    assert harness.handle("finalize_async", [0, 1, 2]) == []
    assert harness.engine.ticks == ticks
    (batch,) = harness.sent
    assert [(e.seq, e.kind, e.key) for e in batch] == [
        (1, "result", 0), (2, "result", 1), (3, "result", 2)]
    detector = trained_model.detector()
    for envelope, trip in zip(batch, trips):
        assert envelope.payload.labels == detector.detect(trip).labels


# ------------------------------------------------------------ the wire shape
def test_columns_apply_exactly_like_the_events(trained_model, dataset_split):
    _, development, test = dataset_split
    trips = list(test)[:6]
    # Openers of declared and undeclared (deferred) streams, stacked
    # mid-stream points, sampled traces on an opener and on a later point.
    per_vehicle = [trip_events(vehicle, trip,
                               trace_at={0: 0, 3: 2}.get(vehicle))
                   for vehicle, trip in enumerate(trips)]
    per_vehicle[1][0] = per_vehicle[1][0]._replace(destination=None)
    events = [own[position] for position in range(14)
              for own in per_vehicle if position < len(own)]
    vehicle_ids, segments, extras = _pack_events(events)
    assert vehicle_ids == [e.vehicle_id for e in events]
    assert segments == [e.segment for e in events]
    # Sparse: the 6 openers plus the one traced mid-stream point.
    assert sorted(extras) == [0, 1, 2, 3, 4, 5, 15]
    assert extras[15] == (None, 0.0, None, TraceContext(1003, 0.0))

    harness = Harness(trained_model)
    harness.ingest_batch(events)
    reference = clone_model(trained_model).stream_engine()
    for event in events:
        apply_event(reference, event)
    vehicles = list(range(len(trips)))
    assert harness.engine.active_vehicles == reference.active_vehicles
    assert ([harness.engine.pending_points(v) for v in vehicles]
            == [reference.pending_points(v) for v in vehicles])
    kind, results = harness.request("finalize", vehicles)
    assert kind == "finalized"
    for got, want in zip(results, reference.finalize_many(vehicles)):
        assert got.labels == want.labels
        assert got.trajectory.segments == want.trajectory.segments
        assert got.trajectory.trajectory_id == want.trajectory.trajectory_id
        assert got.trajectory.start_time_s == want.trajectory.start_time_s
    # The traces rode along: each was observed at the queue boundary, and
    # each traced point's tick span closed.
    _, (_, spans) = harness.request("obs")
    assert sorted((s.trace_id, s.stage) for s in spans
                  if s.stage in ("shard_queue", "engine_tick")) == [
        (1000, "engine_tick"), (1000, "shard_queue"),
        (1003, "engine_tick"), (1003, "shard_queue")]


def test_unknown_segment_in_columns_is_stashed_like_an_ingest_failure(
        trained_model, dataset_split):
    _, _, test = dataset_split
    events = trip_events(0, test[0])[:3] + trip_events(1, test[1])[:3]
    events[4] = events[4]._replace(segment=UNKNOWN_SEGMENT)
    harness = Harness(trained_model)
    harness.ingest_batch(events)
    reference = clone_model(trained_model).stream_engine()
    with pytest.raises(LabelingError):
        for event in events:
            apply_event(reference, event)
    # Same prefix applied, same suffix dropped ...
    assert harness.engine.active_vehicles == reference.active_vehicles
    for vehicle in (0, 1):
        assert (harness.engine.pending_points(vehicle)
                == reference.pending_points(vehicle))
    # ... and the error preempts the next replied command, once.
    kind, error = harness.request("stats")
    assert kind == "error" and isinstance(error, LabelingError)
    kind, stats = harness.request("stats")
    assert kind == "stats" and stats.streams_open == 2


# ------------------------------------------------------ backpressure binds
def lockstep_rounds(trips, fleet):
    """``(batch, closing)`` per round of ``fleet`` vehicles replaying
    ``trips`` one point a round; a freed slot starts the next trip."""
    backlog = [iter(trip_events(vehicle, trip))
               for vehicle, trip in enumerate(trips)]
    backlog.reverse()
    active = {}
    opened = 0
    rounds = []
    while backlog or active:
        while backlog and len(active) < fleet:
            active[opened] = backlog.pop()
            opened += 1
        batch, closing = [], []
        for vehicle, remaining in list(active.items()):
            event = next(remaining, None)
            if event is None:
                closing.append(vehicle)
                del active[vehicle]
            else:
                batch.append(event)
        rounds.append((batch, closing))
    return rounds


def test_a_full_queue_is_where_a_fast_producer_waits(trained_model,
                                                     online_trips):
    """A producer that runs ahead of the shard (here: while the worker
    is stopped) is refused at ``queue_depth=4``, and what it did get queued is
    stepped round by round: whenever a ``stats`` request is answered, an
    online stream holds at most its newest point (awaiting its successor)
    and one waiting step. (The rule's third term, the command in hand, is
    zero while a replied command is being answered.)"""
    fleet = 64
    trips = [online_trips[i % len(online_trips)] for i in range(4 * fleet)]
    rounds = lockstep_rounds(trips, fleet)
    with trained_model.detection_service(
            num_shards=1, backend="process", queue_depth=4) as service:
        busiest = refused = 0
        for index, (batch, closing) in enumerate(rounds):
            if index % 10 in (2, 5):
                stall_worker(service, 0, 0.1)
                refused_before = refused
            if batch:
                refused += service.ingest_many(batch)
            if closing:
                refused += service.finalize_async(closing)
            if index % 10 == 4:
                # Three rounds and this request queued up during the stall.
                # The worker wakes to all of them, and still steps each
                # round before it buffers the next.
                shard = service.metrics().shards[0]
                assert shard.pending_points <= 2 * shard.streams_open, index
                busiest = max(busiest, shard.streams_open)
            if index % 10 == 9:
                # Five rounds were offered to a queue of four: the lead
                # stayed in the queue, as refusals.
                assert refused > refused_before, index
        envelopes = service.drain_results()
        metrics = service.metrics()
    assert busiest > fleet // 2
    assert metrics.rejected_ingests >= refused > 0
    assert metrics.results_gaps == 0
    assert sorted(e.key for e in envelopes) == list(range(len(trips)))


# ------------------------------------------------------- the unpolled bus
def test_unpolled_bus_never_wedges_the_worker(trained_model, online_trips):
    """Far more results than the 64 KiB pipe holds are published with no
    poll at all: the facade reads the pipe wherever it waits on the
    worker, so finalizes, replied commands and a swap all go through, and
    everything is then delivered in publish order."""
    trips = 1500
    detector = trained_model.detector()
    expected = [detector.detect(trip).labels for trip in online_trips]
    with trained_model.detection_service(
            num_shards=1, backend="process", queue_depth=16) as service:
        for vehicle in range(trips):
            service.ingest_many(trip_events(
                vehicle, online_trips[vehicle % len(online_trips)]))
            service.finalize_async([vehicle])
        metrics = service.metrics()
        assert metrics.results_pending == trips
        assert metrics.results_delivered == 0
        service.swap(weights=weights_snapshot(trained_model))
        service.drain()
        # Every finalize ran before the drain's sync (one FIFO) and was
        # flushed when it ran, so all results are now on this side.
        first = service.poll_results(max_items=7)
        assert [e.key for e in first] == list(range(7))
        second = service.poll_results(max_items=1)
        assert [e.key for e in second] == [7]
        rest = service.drain_results()
        metrics = service.metrics()
    envelopes = first + second + rest
    assert [e.key for e in envelopes] == list(range(trips))
    assert [e.seq for e in envelopes] == list(range(1, trips + 1))
    for envelope in envelopes[::97]:
        assert (envelope.payload.labels
                == expected[envelope.key % len(online_trips)])
    assert metrics.results_gaps == 0
    assert metrics.results_pending == 0
    assert metrics.results_duplicates == 0


# ----------------------------------------------------------- a dead worker
@pytest.mark.parametrize("command", ["ingest", "ingest_many",
                                     "finalize_async"])
def test_dead_worker_surfaces_at_the_data_plane_at_once(
        trained_model, online_trips, command):
    events = trip_events("cab", online_trips[0])
    with trained_model.detection_service(
            num_shards=2, backend="process", queue_depth=3) as service:
        shard = service.shard_for("cab")
        service.ingest_blocking("cab", events[0].segment,
                                destination=events[0].destination)
        service.drain()
        process = service._backend._shards[shard].process
        process.kill()
        process.join(timeout=10.0)
        assert not process.is_alive()
        started = time.perf_counter()
        with pytest.raises(ServiceError) as failure:
            # The queue of a dead worker takes queue_depth commands, then
            # refuses; a refusal checks the worker instead of retrying.
            for event in events[1:]:
                if command == "ingest":
                    service.ingest("cab", event.segment)
                elif command == "ingest_many":
                    service.ingest_many([event])
                else:
                    service.finalize_async(["cab"])
                    service.ingest("cab", event.segment,
                                   destination=events[0].destination)
        assert time.perf_counter() - started < 1.0
        assert f"shard {shard} worker died" in str(failure.value)
        with pytest.raises(ServiceError, match="worker died"):
            service.metrics()


# ------------------------------------------- one interpreter, two transports
TRANSPORTS = ["inprocess", "process"]


def one_shard_backend(transport, model, queue_depth):
    if transport == "inprocess":
        return InProcessBackend(clone_model(model), 1, queue_depth)
    return ProcessBackend(model_to_bytes(model), 1, queue_depth)


def run_script(transport, model, trips):
    """One fixed command sequence against one shard, below the facade:
    what came over the bus, and the shard's counters at three boundaries."""
    events = [trip_events(vehicle, trip, trace_at=2 if vehicle == 1 else None)
              for vehicle, trip in enumerate(trips)]
    rounds = [[own[index] for own in events if index < len(own)]
              for index in range(max(len(own) for own in events))]
    vehicles = list(range(len(trips)))
    backend = one_shard_backend(transport, model, queue_depth=64)
    snapshots = []

    def snapshot():
        backend.drain()
        (shard,), (bus,) = backend.stats(), backend.bus_stats()
        counters = dataclasses.asdict(shard)
        assert counters.pop("backend") == transport
        del counters["busy_seconds"]  # the one timing among them
        snapshots.append((counters, bus))

    def take():
        return [(e.kind, e.key, e.seq, tuple(e.payload.labels))
                for e in backend.take_results()]

    try:
        for batch in rounds[:4]:  # the openers, then mid-stream rounds
            assert backend.ingest_batch(0, _pack_events(batch))
        snapshot()
        backend.swap(ControlUpdate(weights=perturbed_snapshot(model)))
        for batch in rounds[4:]:
            assert backend.ingest_batch(0, _pack_events(batch))
        assert backend.finalize_async(0, vehicles[1:])
        labels = backend.finalize(0, vehicles[:1])[0].labels
        snapshot()
        first = take()
        assert backend.replay_results() == len(first)  # nothing acked yet
        backend.drain()
        again = take()
        backend.ack_results(0, again[-1][2])
        snapshot()
        _, spans = backend.obs_snapshot()[0]
    finally:
        backend.close()
    stages = sorted(span.stage for span in spans if span.trace_id == 1001)
    return first, again, labels, snapshots, stages


@pytest.mark.fleet
def test_one_script_reads_the_same_through_either_transport(trained_model,
                                                            online_trips):
    trips = sorted(online_trips[:6], key=len)
    assert len(trips[0]) > 4
    inproc, process = (run_script(transport, trained_model, trips)
                       for transport in TRANSPORTS)
    assert inproc == process
    first, again, _, snapshots, stages = inproc
    assert [(kind, key, seq) for kind, key, seq, _ in first] == [
        ("result", vehicle, vehicle) for vehicle in range(1, len(trips))]
    assert again == first  # the replay redelivers the unacked window
    (_, _), (closed, _), (_, bus) = snapshots
    assert closed["queue_depth"] == 0 and closed["swaps"] == 1
    assert closed["streams_finalized"] == len(trips)
    assert (bus.redelivered, bus.acked_seq, bus.lag) == (
        len(first), len(first), 0)
    # The traced point's stages, shard side (published once per delivery).
    assert stages == ["bus_publish", "bus_publish", "engine_tick", "finalize",
                      "shard_queue"]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_failure_below_the_facade_surfaces_once_at_the_next_replied_command(
        trained_model, dataset_split, transport):
    """The core-level stash test, lifted to the transports: the facade's
    vocabulary check is what normally keeps this from happening."""
    _, _, test = dataset_split
    events = trip_events(0, test[0])[:3] + trip_events(1, test[1])[:3]
    events[4] = events[4]._replace(segment=UNKNOWN_SEGMENT)
    backend = one_shard_backend(transport, trained_model, queue_depth=4)
    try:
        assert backend.ingest_batch(0, _pack_events(events))
        with pytest.raises(LabelingError):
            backend.drain()
        backend.drain()  # once
        (shard,) = backend.stats()
    finally:
        backend.close()
    # The batch's prefix is applied: three points of 0, the opener of 1.
    assert shard.streams_open == 2
    assert shard.points_processed + shard.pending_points == 4


def test_inprocess_queue_is_one_fifo_for_ingest_and_finalize_commands(
        trained_model, online_trips):
    backend = InProcessBackend(clone_model(trained_model), 1, queue_depth=2)
    whole_trip = _pack_events(trip_events(0, online_trips[0]))
    opener = _pack_events(trip_events(1, online_trips[1])[:1])
    assert backend.ingest_batch(0, whole_trip)
    assert backend.finalize_async(0, [0])
    # The bound counts commands, whatever their kind, and refuses the third.
    assert not backend.finalize_async(0, [0])
    assert not backend.ingest_batch(0, opener)
    (shard,) = backend.stats()
    assert (shard.queue_depth, shard.streams_open) == (2, 0)
    assert backend.take_results() == []
    backend.pump()
    # Handled behind the batch queued before it: the finalize closed the
    # whole trip.
    (envelope,) = backend.take_results()
    assert (envelope.kind, envelope.key) == ("result", 0)
    assert (envelope.payload.labels
            == trained_model.detector().detect(online_trips[0]).labels)
    assert backend.ingest_batch(0, opener)
    (shard,) = backend.stats()
    assert (shard.queue_depth, shard.streams_open) == (1, 0)
    backend.close()
