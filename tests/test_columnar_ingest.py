"""Columns ≡ points: ``StreamEngine.ingest_many`` vs. per-point ``ingest``.

``ingest_many`` takes the columns of the serving layer's ``ingest_batch``
command and is the engine's one ingest implementation; ``ingest`` is its
batch of one. These tests pin that how points are cut into batches is
invisible — same results, same counters — what a failing row leaves behind,
and that the shard core hands a command's columns to the engine in one call.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import LabelingError, ModelError
from repro.obs.trace import TraceContext, Tracer
from repro.serve.backends import IngestEvent, ShardCore
from repro.trajectory.ops import interleave_streams

from ingest_columns import pack_events

FLEETS = settings(max_examples=25, deadline=None)

batch_plans = st.tuples(
    # Per stream: which trip, destination declared?, explicit trajectory id?
    st.lists(st.tuples(st.integers(0, 10_000), st.booleans(), st.booleans()),
             min_size=1, max_size=10),
    st.integers(0, 2 ** 32 - 1),                           # interleaving seed
    st.lists(st.integers(1, 9), min_size=1, max_size=8),   # batch sizes
    st.lists(st.integers(0, 2), min_size=1, max_size=5),   # ticks per batch
    st.integers(0, 4),                                     # trace every k-th
)


def cut_into_batches(fleet, plan, seed, sizes, trace_every):
    """The fleet's points, randomly interleaved, as ``ingest_batch`` columns
    ``(vehicle_ids, segments, extras)`` of the cycled ``sizes``."""
    events = list(interleave_streams(fleet, np.random.default_rng(seed)))
    batches, cursor = [], 0
    while cursor < len(events):
        size = sizes[len(batches) % len(sizes)]
        vehicle_ids, segments, extras = [], [], {}
        for number, (index, position, segment) in enumerate(
                events[cursor:cursor + size], start=cursor):
            trace = (TraceContext(number + 1, 0.0)
                     if trace_every and number % trace_every == 0 else None)
            if position == 0:
                trajectory = fleet[index]
                _, declared, explicit_id = plan[index]
                extras[len(segments)] = (
                    trajectory.destination if declared else None,
                    trajectory.start_time_s,
                    1000 + index if explicit_id else None, trace)
            elif trace is not None:
                extras[len(segments)] = (None, 0.0, None, trace)
            vehicle_ids.append(index)
            segments.append(segment)
        batches.append((vehicle_ids, segments, extras))
        cursor += size
    return batches


def ingest_by_columns(engine, vehicle_ids, segments, extras):
    engine.ingest_many(vehicle_ids, segments, extras)


def ingest_by_points(engine, vehicle_ids, segments, extras):
    for row, (vehicle_id, segment) in enumerate(zip(vehicle_ids, segments)):
        if row in extras:
            destination, start_time_s, trajectory_id, trace = extras[row]
            engine.ingest(vehicle_id, segment, destination=destination,
                          start_time_s=start_time_s,
                          trajectory_id=trajectory_id, trace=trace)
        else:
            engine.ingest(vehicle_id, segment)


def drive(engine, ingest, fleet, batches, ticks):
    """Feed the batches, ``ticks[i]`` ticks after the i-th (cycled), closing
    every stream as soon as its last point is in; what the engine showed."""
    engine.tracer = Tracer()
    remaining = {index: len(t) for index, t in enumerate(fleet)}
    results = {}
    for number, (vehicle_ids, segments, extras) in enumerate(batches):
        ingest(engine, vehicle_ids, segments, extras)
        for _ in range(ticks[number % len(ticks)]):
            engine.tick()
        for index in vehicle_ids:
            remaining[index] -= 1
        closing = [index for index in dict.fromkeys(vehicle_ids)
                   if remaining[index] == 0]
        results.update(zip(closing, engine.finalize_many(closing)))
    assert not engine.active_vehicles
    return {
        "results": [(results[index].trajectory.trajectory_id,
                     results[index].trajectory.segments,
                     results[index].trajectory.start_time_s,
                     results[index].labels)
                    for index in range(len(fleet))],
        "points_processed": engine.points_processed,
        "ticks": engine.ticks,
        "lookups": engine.cache.hits + engine.cache.misses,
        "spans": sorted((span.trace_id, span.stage)
                        for span in engine.tracer.spans),
    }


@FLEETS
@given(plan=batch_plans)
def test_columns_equal_points(trained_model, dataset_split, plan):
    """Opening rows (declared or not, explicit ids or not), mid-stream rows
    and traced rows in any interleaving, cut into any batches with ticks and
    finalizes between them: the batch boundaries are invisible."""
    _, development, test = dataset_split
    pool = list(test) + list(development)
    streams, seed, sizes, ticks, trace_every = plan
    fleet = [pool[pick % len(pool)] for pick, _, _ in streams]
    batches = cut_into_batches(fleet, streams, seed, sizes, trace_every)
    by_columns = drive(trained_model.stream_engine(), ingest_by_columns,
                       fleet, batches, ticks)
    by_points = drive(trained_model.stream_engine(), ingest_by_points,
                      fleet, batches, ticks)
    assert by_columns == by_points
    assert by_columns["points_processed"] == sum(len(t) for t in fleet)


# ------------------------------------------------------------ a failing row
def open_fleet(engine, trips):
    engine.ingest_many(
        list(range(len(trips))), [t.segments[0] for t in trips],
        {row: (t.destination, t.start_time_s, None, None)
         for row, t in enumerate(trips)})


def test_an_unknown_segment_splits_the_batch(trained_model, dataset_split):
    """Rows before the failing one are buffered, rows from it on are not."""
    _, _, test = dataset_split
    trips = test[:4]
    engine = trained_model.stream_engine()
    open_fleet(engine, trips)
    segments = [t.segments[1] for t in trips]
    segments[2] = -1
    with pytest.raises(LabelingError):
        engine.ingest_many([0, 1, 2, 3], segments)
    assert [engine.pending_points(v) for v in range(4)] == [2, 2, 1, 1]
    # An opening row that fails opens nothing, whichever field failed it.
    with pytest.raises(LabelingError):
        engine.ingest_many(["new", "late"], [trips[0].segments[0]] * 2,
                           {0: (-1, 0.0, None, None)})
    assert engine.active_vehicles == [0, 1, 2, 3]
    # The engine is intact: the rest of the fleet's points still apply.
    engine.ingest_many([2, 3], [t.segments[1] for t in trips[2:]])
    for vehicle, trajectory in enumerate(trips):
        engine.ingest_many([vehicle] * (len(trajectory) - 2),
                           trajectory.segments[2:])
    detector = trained_model.detector()
    for trajectory, result in zip(trips, engine.finalize_many([0, 1, 2, 3])):
        assert result.labels == detector.detect(trajectory).labels


def test_a_finalized_stream_splits_the_batch(trained_model, dataset_split,
                                             monkeypatch):
    _, _, test = dataset_split
    trips = test[:3]
    engine = trained_model.stream_engine()
    open_fleet(engine, trips)
    for vehicle, trajectory in enumerate(trips):
        engine.ingest_many([vehicle] * (len(trajectory) - 1),
                           trajectory.segments[1:])

    def broken_tick():
        raise RuntimeError("tick failed mid-drain")

    # A finalize that dies in its drain leaves the stream closed to ingest.
    with monkeypatch.context() as patch:
        patch.setattr(engine, "tick", broken_tick)
        with pytest.raises(RuntimeError):
            engine.finalize(1)
    pending = [engine.pending_points(v) for v in range(3)]
    with pytest.raises(ModelError, match="finalized"):
        engine.ingest_many([0, 1, 2], [t.segments[-1] for t in trips])
    assert [engine.pending_points(v) for v in range(3)] == [
        pending[0] + 1, pending[1], pending[2]]


# ----------------------------------------------------------- the shard core
def test_shard_core_makes_one_engine_call_per_command(trained_model,
                                                      dataset_split,
                                                      monkeypatch):
    """An ``ingest_batch`` command reaches the engine as its columns, in one
    call, with ``shard_queue`` observed once per traced row."""
    _, _, test = dataset_split
    trips = test[:5]
    engine = trained_model.stream_engine()
    calls = []
    ingest_many = engine.ingest_many

    def counting_ingest_many(vehicle_ids, segments, extras=None):
        calls.append(len(vehicle_ids))
        return ingest_many(vehicle_ids, segments, extras)

    def no_point_ingest(*args, **kwargs):
        raise AssertionError("the shard core ingests by columns")

    monkeypatch.setattr(engine, "ingest_many", counting_ingest_many)
    monkeypatch.setattr(engine, "ingest", no_point_ingest)
    replies = []
    core = ShardCore(0, engine, "harness", lambda: 0, replies.append,
                     lambda envelopes: None)
    sent = time.perf_counter()
    rounds = [
        [IngestEvent(vehicle, t.segments[0], t.destination, t.start_time_s,
                     None, TraceContext(vehicle + 1, sent)
                     if vehicle % 2 == 0 else None)
         for vehicle, t in enumerate(trips)],
        [IngestEvent(vehicle, t.segments[1], None, 0.0, None,
                     TraceContext(100 + vehicle, sent)
                     if vehicle == 1 else None)
         for vehicle, t in enumerate(trips)],
        [IngestEvent(vehicle, t.segments[2], None, 0.0, None)
         for vehicle, t in enumerate(trips)],
    ]
    for events in rounds:
        assert core.handle(("ingest_batch", *pack_events(events)))
    assert calls == [len(trips)] * len(rounds)
    assert [engine.pending_points(v) + len(engine._streams[v].labels)
            for v in range(len(trips))] == [3] * len(trips)
    while engine.tick():
        pass
    core.handle(("obs",))
    _, (_, spans) = replies.pop()
    # Stamped once each on the way in, and the re-stamped contexts went on
    # riding their rows: the tick that labels a row closes its span.
    for stage in ("shard_queue", "engine_tick"):
        assert sorted(span.trace_id for span in spans
                      if span.stage == stage) == [1, 3, 5, 101]
