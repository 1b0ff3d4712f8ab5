"""Shard execution backends of the detection service.

Both backends run one :class:`~repro.core.stream.StreamEngine` per shard and
feed it through a bounded per-shard ingest queue — a full queue is the
backpressure signal the service surfaces to callers. They differ in *where*
the engine runs:

* :class:`InProcessBackend` — every shard engine lives in the calling
  process, events sit in plain deques, and nothing advances until the caller
  pumps. Fully deterministic and debuggable; this is the backend the
  differential tests drive, and the right choice when the caller is itself a
  batch job.
* :class:`ProcessBackend` — one OS process per shard, fed through bounded
  ``multiprocessing`` queues from a pickled model blob
  (:func:`~repro.serve.checkpoint.model_to_bytes`). Workers take one
  command at a time and tick on their own clock, so shard compute overlaps
  with the caller's ingest loop and with every other shard — this is where
  multi-core throughput comes from.

Label equivalence holds for both: a stream's labels never depend on how
ticks interleave with arrivals (each stream advances at most one point per
tick, and per-stream state is self-contained), so sharding a fleet across
engines — in whatever process — yields exactly the labels of one big engine.

Worker protocol (process backend): commands are tuples ``(kind, ...)`` on
the bounded command queue; ``ingest`` and ``ingest_batch`` (one command
carrying many points — the IPC-amortized path behind
:meth:`DetectionService.ingest_many`) are fire-and-forget, while ``sync`` /
``finalize`` / ``stats`` / ``swap`` / ``obs`` / ``stop`` each produce
exactly one reply ``(kind, payload)`` on the result queue (``obs`` ships the
shard's cumulative metrics registry home by pickle and drains its trace
spans — the observability plane of :mod:`repro.obs`). An ``ingest_batch``
travels as columns, ``("ingest_batch", vehicle_ids, segments, extras,
sent_at)``: two flat lists plus a sparse ``{index: (destination,
start_time_s, trajectory_id, trace)}`` for the few events that open a
stream or carry a trace (:func:`_pack_events`). :class:`IngestEvent` stays
the type callers hand in, and the single ``ingest`` command carries one.

**Scheduling: a round at a time.** The worker (:class:`_ShardWorker`) takes
one command at a time and never stacks a stream's next point on one that
has not been stepped. Before it applies an ``ingest`` / ``ingest_batch``
touching a stream with a step waiting (:meth:`StreamEngine.step_waiting`)
it ticks until that is no longer so — one fleet-wide tick for a lockstep
round, whether the round came as one batch or as one ``ingest`` per vehicle
— and an opaque ``plane`` / ``plane_batch`` command counts as touching
every stream (one tick if anything waits). On an empty queue it ticks if
anything waits and blocks otherwise. What a command publishes to the
results bus (``finalize_async``, a publishing plane command) leaves for the
facade before the next command is taken. So the points a shard holds
un-ticked are at most one steppable point per stream, the command in hand
and ``queue_depth`` queued commands: a producer that outruns the engine
fills the *queue*, and sees ``RETRY_LATER``, instead of growing the
engine's per-stream buffers.

**Results bus.** On top of the request/reply protocol both backends run a
push-based result plane (:mod:`repro.serve.resultbus`): a ``finalize_async``
command is fire-and-forget — the shard finalizes the streams on its own
clock and *publishes* each :class:`~repro.core.detector.DetectionResult`
(or, on failure, one error envelope) to its :class:`~repro.serve.resultbus.
ShardResultBus`. The process backend ships published envelopes over a
dedicated per-shard one-way pipe, one message per batch (never the reply
queue, whose one-reply-per-request pairing must stay undisturbed), which
the worker writes synchronously from its only thread — a queue's feeder
thread would share the worker's core and interpreter lock with the engine.
A full pipe (64 KiB) therefore blocks the worker, and only the facade can
unblock it: it reads the pipe into a per-shard buffer wherever it waits on
a worker — ``take_results``, ``pump`` (which every retry loop of the
service calls), the put-and-wait loops of replied commands and ``swap``,
and ``close``. The in-process backend hands envelopes over directly at
``take_results``. Envelopes stay in the shard's unacked window until the
facade acknowledges its watermark (``bus_ack``, fire-and-forget);
``bus_replay`` / ``bus_stats`` are replied. Planes participate too: a
plane exposing a ``bind_bus(publish)`` method is handed the shard bus's
``publish`` at install time, which is how gateway sessions complete through
the bus (:class:`~repro.ingest.shardmatch.MatchFinishAsync`). Because
``finalize_async`` rides the same FIFO as ingest, every point queued before
it is applied before the finalize — the exact boundary the synchronous
``finalize`` observes.

**Work planes.** Either backend can additionally host one *plane* per
shard: an opaque work object built next to the shard's engine by a
caller-supplied picklable factory (``factory(shard_id, engine) -> plane``)
and driven through the same per-shard FIFO as ingest. The backend knows
nothing about what a plane does — it only routes commands to the plane's
``handle(command)`` (fire-and-forget, like ``ingest``), ``request(command)``
(one reply) and ``stats()`` duck-typed methods. This is how the raw-GPS
gateway pushes online map matching into the shard workers
(:class:`~repro.ingest.shardmatch.ShardMatcherPlane`): matching runs on the
shard's core and its committed segments flow straight into the colocated
engine, instead of round-tripping through the facade. Plane commands add
the worker kinds ``install_plane`` / ``plane_request`` / ``plane_stats``
(replied) and ``plane`` / ``plane_batch`` (fire-and-forget, errors stashed
like an ``ingest`` failure). The single-caller service
never pipelines two replied commands at once, so replies cannot interleave.
Because the queue is FIFO, every point that is *eligible for labeling* by
the time a ``swap`` command (a :class:`ControlUpdate` carrying new weights,
a new history snapshot, or both) arrives is labeled by the old
weights/history — the worker applies all earlier ingests and quiesces the
engine before loading the update — which is what makes hot-swaps
deterministic and testable. (Points that only become labelable later — a
stream's latest point awaiting its successor, or any point of a deferred
stream, which is labeled wholly at finalize — get whatever weights are
serving then, exactly like a single engine whose weights were swapped at
the same quiescent boundary. A deferred stream's LSTM steps do run ahead of
its labels, as its points arrive; ``load_weights`` therefore drops the
hidden states it has stored and the stream re-steps from its first buffered
point under the new weights. History goes one step further: each *stream*
pins the snapshot it opened with, so even a deferred stream finalized after
a history refresh is labeled by its pre-refresh history — hidden states
never depend on history, so a refresh discards nothing.)
"""

from __future__ import annotations

import pickle
import queue as queue_module
import time
from collections import deque
from typing import Deque, Hashable, List, NamedTuple, Optional, Sequence

from ..core.detector import DetectionResult
from ..core.stream import StreamEngine
from ..exceptions import ServiceError
from ..history import (HistoryDelta, HistorySnapshot,
                       apply_delta as apply_history_delta, clone_delta,
                       clone_snapshot)
from ..obs.registry import MetricsRegistry, Reservoir
from ..obs.trace import TraceContext, Tracer, timestamp as obs_timestamp
from .checkpoint import WeightsSnapshot, model_from_bytes
from .metrics import BusStats, ShardStats
from .resultbus import ResultEnvelope, ShardResultBus

#: Seconds the service waits for a worker reply before declaring it dead.
_REQUEST_TIMEOUT_S = 120.0
#: Seconds between two looks at a worker the facade is waiting on (its
#: command queue is full, or its reply is still to come); at each look the
#: facade reads the shard's bus pipe and checks the worker is alive.
_WAIT_SLICE_S = 0.002
#: ``close``: seconds to get ``stop`` into a full queue, then to see the
#: worker exit, before it is terminated.
_STOP_TIMEOUT_S = 1.0
_JOIN_TIMEOUT_S = 5.0


class IngestEvent(NamedTuple):
    """One map-matched point of one vehicle stream, as queued to a shard."""

    vehicle_id: Hashable
    segment: int
    destination: Optional[int]
    start_time_s: float
    trajectory_id: Optional[int]
    #: Sampled trace context riding this event (``None`` almost always).
    #: Stamped where the event is created; the shard observes the
    #: ``shard_queue`` stage when it dequeues the event.
    trace: Optional[TraceContext] = None


def _shard_tracer(shard_id: int, obs_options: Optional[dict]) -> Tracer:
    """The observe-only tracer living next to one shard engine.

    Rate 0 — shards never *originate* traces, they only observe contexts
    that arrive on events — so a service with tracing off pays nothing
    here beyond the objects' existence.
    """
    options = obs_options or {}
    return Tracer(MetricsRegistry(), sample_rate=0.0,
                  site=f"shard-{shard_id}",
                  keep_spans=options.get("keep_spans", True),
                  max_spans=options.get("max_spans", 10_000))


def _queue_wait_reservoir(obs_options: Optional[dict]) -> Reservoir:
    """The seeded enqueue→dequeue wait sampler of one shard queue."""
    return Reservoir((obs_options or {}).get("queue_wait_cap", 4096))


class ControlUpdate(NamedTuple):
    """One atomic control-plane update broadcast to every shard.

    Carries new network weights, a new history — as a full snapshot *or*
    as a version-keyed :class:`~repro.history.HistoryDelta` of only the
    touched groups — or both weights and history; everything is applied at
    a single quiescent boundary per shard, so "new model + new history"
    can never be observed half-applied. At most one of ``history`` /
    ``history_delta`` is set: the facade (:meth:`DetectionService.swap`)
    chooses the delta form when every shard is known to hold the delta's
    base version, and falls back to the full snapshot otherwise.
    """

    weights: Optional[WeightsSnapshot] = None
    history: Optional[HistorySnapshot] = None
    history_delta: Optional[HistoryDelta] = None


def apply_update(engine: StreamEngine, update: ControlUpdate) -> None:
    """Apply one control update to a quiesced shard engine.

    Weights first — ``load_weights`` validates both state dicts before
    mutating anything, so a bad snapshot leaves the engine fully on the old
    weights *and* the old history. ``load_history`` is an infallible
    reference swap after facade-side validation, so the pair is atomic.
    A delta-form history is applied to the engine's *current* snapshot;
    :func:`~repro.history.apply_delta` rejects a base-version mismatch (a
    gapped, out-of-order or misrouted delta) before the engine repins to
    anything, so a bad delta leaves the shard fully on its old history and
    surfaces as this call's exception.
    """
    if update.weights is not None:
        engine.load_weights(update.weights["rsrnet"],
                            update.weights["asdnet"])
    if update.history is not None:
        engine.load_history(update.history)
    elif update.history_delta is not None:
        engine.load_history(
            apply_history_delta(engine.history_snapshot,
                                update.history_delta))


def apply_event(engine: StreamEngine, event: IngestEvent) -> None:
    """Feed one queued event into a shard's engine."""
    engine.ingest(event.vehicle_id, event.segment,
                  destination=event.destination,
                  start_time_s=event.start_time_s,
                  trajectory_id=event.trajectory_id,
                  trace=event.trace)


class ServiceBackend:
    """Interface both shard backends implement (see module docstring)."""

    name = "abstract"

    @property
    def num_shards(self) -> int:
        raise NotImplementedError

    def ingest(self, shard: int, event: IngestEvent) -> bool:
        """Queue one event to a shard; ``False`` means the queue is full."""
        raise NotImplementedError

    def ingest_batch(self, shard: int, events: Sequence[IngestEvent]) -> bool:
        """Queue several events to a shard as one command, all-or-nothing.

        A batch occupies a *single* slot of the shard's bounded queue — on
        the process backend that is one IPC put instead of ``len(events)``,
        which is where the multi-shard ingest amortization comes from. The
        queue-depth bound therefore counts commands, not points; callers
        bound their batch size (:class:`~repro.config.GatewayConfig.
        ingest_batch`) to keep worst-case buffering proportional.
        ``False`` means the shard queue is full and *nothing* was queued.
        """
        raise NotImplementedError

    def pump(self) -> int:
        """Advance queued work opportunistically; returns points labeled.

        The process backend's workers advance themselves, so its ``pump``
        returns 0; what it does is read the shards' bus pipes, so that a
        caller waiting out backpressure never leaves a worker blocked on a
        full one.
        """
        raise NotImplementedError

    def drain(self) -> None:
        """Block until every queued event is applied and no point is eligible.

        Deferred streams (undeclared destinations) keep their buffered points
        — those are only labelable at finalize — so "drained" means *no shard
        can label anything more*, not "no state is pending". (Their LSTM
        steps ride the ticks a drain runs, but a drain does not wait for
        them: whatever is still un-stepped catches up at finalize.)
        """
        raise NotImplementedError

    def finalize(self, shard: int,
                 vehicle_ids: Sequence[Hashable]) -> List[DetectionResult]:
        raise NotImplementedError

    # ------------------------------------------------------------ results bus
    def finalize_async(self, shard: int,
                       vehicle_ids: Sequence[Hashable]) -> bool:
        """Queue a fire-and-forget finalize; results arrive over the bus.

        One command (one queue slot / one IPC put) per per-shard batch,
        like :meth:`ingest_batch` — ``False`` means the shard queue is full
        and nothing was queued. The shard publishes one ``"result"``
        envelope per vehicle (input order) or a single ``"error"`` envelope
        for the whole batch to its :class:`~repro.serve.resultbus.
        ShardResultBus`.
        """
        raise NotImplementedError

    def take_results(self,
                     max_items: Optional[int] = None) -> List[ResultEnvelope]:
        """Drain published envelopes from every shard's bus, batched.

        At-least-once: a replay can hand the caller envelopes it has seen
        before, so consumers dedup through a :class:`~repro.serve.resultbus.
        BusCollector`. At most ``max_items`` are handed out; the rest wait
        for the next call.
        """
        raise NotImplementedError

    def ack_results(self, shard: int, up_to_seq: int) -> None:
        """Acknowledge one shard's envelopes up to a sequence watermark.

        Best-effort and fire-and-forget: an ack that cannot be sent right
        now (full command queue) is retried on the next
        :meth:`take_results`; until then the shard just retains a slightly
        longer unacked window.
        """
        raise NotImplementedError

    def replay_results(self) -> int:
        """Re-queue every shard's unacked window; returns envelopes re-queued.

        The fault-injection/recovery lever of the at-least-once contract —
        after this, :meth:`take_results` redelivers everything not yet
        acknowledged (subscribers drop what they already accepted).
        """
        raise NotImplementedError

    def bus_stats(self) -> List[BusStats]:
        """Every shard bus's counters, in shard order."""
        raise NotImplementedError

    def swap(self, update: ControlUpdate) -> None:
        raise NotImplementedError

    def stats(self) -> List[ShardStats]:
        raise NotImplementedError

    # -------------------------------------------------------- observability
    def obs_snapshot(self) -> List[tuple]:
        """Every shard's ``(registry, spans)``, in shard order.

        The registry is the shard tracer's cumulative metrics (a
        point-in-time pickle copy on the process backend); the spans are
        *drained* — each recorded span is returned exactly once across
        repeated calls.
        """
        raise NotImplementedError

    # ----------------------------------------------------------- work planes
    def install_plane(self, factory) -> None:
        """Build one plane per shard: ``factory(shard_id, engine) -> plane``.

        The factory must be picklable for the process backend (each worker
        calls it beside its own engine). See the module docstring for the
        plane contract.
        """
        raise NotImplementedError

    def plane_send(self, shard: int, command) -> bool:
        """Route one fire-and-forget command to a shard's plane.

        ``False`` means the shard's queue is full and nothing was sent (the
        in-process backend executes synchronously and never refuses).
        """
        raise NotImplementedError

    def plane_send_batch(self, shard: int, commands: Sequence) -> bool:
        """Several plane commands as one queued command, all-or-nothing."""
        raise NotImplementedError

    def plane_request(self, shard: int, command):
        """Send one replied command to a shard's plane, return its answer."""
        raise NotImplementedError

    def plane_stats(self) -> List:
        """Every shard plane's ``stats()`` snapshot, in shard order."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# --------------------------------------------------------------- in-process
class _InProcessShard:
    def __init__(self, shard_id: int, engine: StreamEngine, queue_depth: int,
                 obs_options: Optional[dict] = None):
        self.shard_id = shard_id
        self.engine = engine
        self.queue_depth = queue_depth
        # IngestEvent entries interleaved with ("finalize_async", ids)
        # markers — FIFO, so an async finalize sees exactly the points
        # queued before it, like the worker protocol's command order.
        self.queue: Deque = deque()
        self.bus = ShardResultBus(shard_id)
        self.busy_seconds = 0.0
        self.swaps = 0
        self.plane = None
        self.tracer = _shard_tracer(shard_id, obs_options)
        self.engine.tracer = self.tracer
        self.bus.tracer = self.tracer
        self.queue_wait = _queue_wait_reservoir(obs_options)
        # Queue-wait marks live *beside* the queue (never in it — the
        # queue's length is the backpressure signal and must count only
        # real commands): each enqueue appends (cumulative items enqueued,
        # timestamp); dispatch fires a mark once it has popped that many.
        self._wait_marks: Deque = deque()
        self._enqueued = 0
        self._dispatched = 0

    def note_enqueue(self, items: int) -> None:
        if items <= 0:
            return
        self._enqueued += items
        self._wait_marks.append((self._enqueued, obs_timestamp()))

    def dispatch(self) -> None:
        """Apply every queued event to the engine (cheap: just buffering)."""
        started = time.perf_counter()
        queue = self.queue
        engine = self.engine
        marks = self._wait_marks
        while queue:
            item = queue.popleft()
            if item.__class__ is IngestEvent:
                trace = item.trace
                if trace is None:
                    engine.ingest(item.vehicle_id, item.segment,
                                  destination=item.destination,
                                  start_time_s=item.start_time_s,
                                  trajectory_id=item.trajectory_id)
                else:
                    trace = self.tracer.observe("shard_queue", trace,
                                                obs_timestamp())
                    engine.ingest(item.vehicle_id, item.segment,
                                  destination=item.destination,
                                  start_time_s=item.start_time_s,
                                  trajectory_id=item.trajectory_id,
                                  trace=trace)
            else:
                self._finalize_to_bus(item[1])
            self._dispatched += 1
            while marks and marks[0][0] <= self._dispatched:
                _, enqueue_t = marks.popleft()
                self.queue_wait.add(obs_timestamp() - enqueue_t)
        self.busy_seconds += time.perf_counter() - started

    def _finalize_to_bus(self, vehicle_ids: Sequence[Hashable]) -> None:
        """Run one queued async finalize; publish results (or the error)."""
        try:
            results = self.engine.finalize_many(vehicle_ids)
        except BaseException as error:
            self.bus.publish("error", tuple(vehicle_ids), error)
            return
        traced = self.engine.pop_finalize_traced()
        if not traced:
            for vehicle_id, result in zip(vehicle_ids, results):
                self.bus.publish("result", vehicle_id, result)
            return
        now = obs_timestamp()
        for vehicle_id, result in zip(vehicle_ids, results):
            trace_id = traced.get(vehicle_id)
            self.bus.publish(
                "result", vehicle_id, result,
                None if trace_id is None else TraceContext(trace_id, now))

    def tick(self) -> int:
        started = time.perf_counter()
        advanced = self.engine.tick()
        self.busy_seconds += time.perf_counter() - started
        return advanced


class InProcessBackend(ServiceBackend):
    """All shards in the calling process; deterministic, pump-driven."""

    name = "inprocess"

    def __init__(self, model, num_shards: int, queue_depth: int,
                 engine_overrides: Optional[dict] = None,
                 obs_options: Optional[dict] = None):
        overrides = dict(engine_overrides or {})
        self._shards = [
            _InProcessShard(shard_id, model.stream_engine(**overrides),
                            queue_depth, obs_options)
            for shard_id in range(num_shards)
        ]

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def ingest(self, shard: int, event: IngestEvent) -> bool:
        state = self._shards[shard]
        if len(state.queue) >= state.queue_depth:
            return False
        state.queue.append(event)
        state.note_enqueue(1)
        return True

    def ingest_batch(self, shard: int, events: Sequence[IngestEvent]) -> bool:
        # Mirror the process backend's accounting: the depth bound counts
        # commands, and a batch is one command (here: one free slot admits
        # the whole batch).
        state = self._shards[shard]
        if len(state.queue) >= state.queue_depth:
            return False
        state.queue.extend(events)
        state.note_enqueue(len(events))
        return True

    def pump(self) -> int:
        advanced = 0
        for state in self._shards:
            state.dispatch()
            advanced += state.tick()
        return advanced

    def drain(self) -> None:
        while self.pump() > 0:
            pass

    def finalize(self, shard: int,
                 vehicle_ids: Sequence[Hashable]) -> List[DetectionResult]:
        state = self._shards[shard]
        state.dispatch()
        started = time.perf_counter()
        try:
            return state.engine.finalize_many(vehicle_ids)
        finally:
            state.busy_seconds += time.perf_counter() - started
            # Synchronous results never ride the bus, so their finalize
            # traces end here — drain them lest a later async finalize of
            # a reused vehicle id stamps a stale trace.
            state.engine.pop_finalize_traced()

    # ------------------------------------------------------------ results bus
    def finalize_async(self, shard: int,
                       vehicle_ids: Sequence[Hashable]) -> bool:
        state = self._shards[shard]
        if len(state.queue) >= state.queue_depth:
            return False
        state.queue.append(("finalize_async", list(vehicle_ids)))
        state.note_enqueue(1)
        return True

    def take_results(self,
                     max_items: Optional[int] = None) -> List[ResultEnvelope]:
        envelopes: List[ResultEnvelope] = []
        for state in self._shards:
            if state.bus.depth:
                budget = (None if max_items is None
                          else max_items - len(envelopes))
                if budget is not None and budget <= 0:
                    break
                envelopes.extend(state.bus.take(budget))
        return envelopes

    def ack_results(self, shard: int, up_to_seq: int) -> None:
        self._shards[shard].bus.ack(up_to_seq)

    def replay_results(self) -> int:
        return sum(state.bus.replay() for state in self._shards)

    def bus_stats(self) -> List[BusStats]:
        return [state.bus.stats() for state in self._shards]

    def swap(self, update: ControlUpdate) -> None:
        # Quiesce first so every point already accepted is labeled by the old
        # weights/history — the same boundary the process backend's FIFO
        # guarantees. The history snapshot is cloned once for the whole
        # backend: in-process shard engines share a single pipeline (they
        # were built from one clone_model), so one clone both isolates the
        # backend from the caller's live snapshot (whose memo caches would
        # otherwise leak into serving, and vice versa) and keeps every
        # shard on the same object, exactly like at construction.
        # A delta-form update gets the same isolation per shard: each shard
        # applies its own clone of the delta to the snapshot it currently
        # serves (they all read it *before* anyone repins, since the shared
        # pipeline means the first repin changes every engine's current
        # snapshot) — so the caller's trajectory objects riding in the
        # delta never alias serving state, and a base-version mismatch is
        # rejected before any engine has repinned.
        self.drain()
        if update.history is not None:
            update = update._replace(history=clone_snapshot(update.history))
        successors: Optional[List[HistorySnapshot]] = None
        if update.history_delta is not None:
            successors = [
                apply_history_delta(state.engine.history_snapshot,
                                    clone_delta(update.history_delta))
                for state in self._shards]
            update = update._replace(history_delta=None)
        for index, state in enumerate(self._shards):
            shard_update = (update if successors is None
                            else update._replace(history=successors[index]))
            apply_update(state.engine, shard_update)
            if update.weights is not None:
                state.swaps += 1

    def stats(self) -> List[ShardStats]:
        snapshots = []
        for state in self._shards:
            engine = state.engine
            snapshots.append(ShardStats(
                shard_id=state.shard_id,
                backend=self.name,
                points_processed=engine.points_processed,
                ticks=engine.ticks,
                busy_seconds=state.busy_seconds,
                queue_depth=len(state.queue),
                pending_points=engine.total_pending_points(),
                streams_open=len(engine.active_vehicles),
                streams_finalized=engine.streams_finalized,
                cache_hits=engine.cache.hits,
                cache_misses=engine.cache.misses,
                swaps=state.swaps,
                history_version=engine.history_version,
                history_refreshes=engine.history_refreshes,
                queue_wait_samples=list(state.queue_wait.samples),
            ))
        return snapshots

    # -------------------------------------------------------- observability
    def obs_snapshot(self) -> List[tuple]:
        return [(state.tracer.registry, state.tracer.take_spans())
                for state in self._shards]

    # ----------------------------------------------------------- work planes
    def install_plane(self, factory) -> None:
        for state in self._shards:
            state.plane = factory(state.shard_id, state.engine)
            if hasattr(state.plane, "bind_bus"):
                state.plane.bind_bus(state.bus.publish)

    def _plane(self, shard: int):
        plane = self._shards[shard].plane
        if plane is None:
            raise ServiceError(f"no plane installed on shard {shard}")
        return plane

    def plane_send(self, shard: int, command) -> bool:
        # The in-process backend has no worker to defer to: the command runs
        # right here (on the shard's busy clock) and can never be refused.
        state = self._shards[shard]
        plane = self._plane(shard)
        started = time.perf_counter()
        try:
            plane.handle(command)
        finally:
            state.busy_seconds += time.perf_counter() - started
        return True

    def plane_send_batch(self, shard: int, commands: Sequence) -> bool:
        state = self._shards[shard]
        plane = self._plane(shard)
        started = time.perf_counter()
        try:
            for command in commands:
                plane.handle(command)
        finally:
            state.busy_seconds += time.perf_counter() - started
        return True

    def plane_request(self, shard: int, command):
        state = self._shards[shard]
        plane = self._plane(shard)
        started = time.perf_counter()
        try:
            return plane.request(command)
        finally:
            state.busy_seconds += time.perf_counter() - started

    def plane_stats(self) -> List:
        return [self._plane(shard).stats()
                for shard in range(len(self._shards))]

    def close(self) -> None:
        self._shards = []


# ------------------------------------------------------------ multi-process
#: What a mid-stream point leaves of an event after ``(vehicle_id,
#: segment)``; only events that differ ride ``ingest_batch``'s sparse map.
_PLAIN_EVENT = (None, 0.0, None, None)


def _pack_events(events: Sequence[IngestEvent]) -> tuple:
    """``events`` as the columns of one ``ingest_batch`` command.

    ``(vehicle_ids, segments, extras)``: two flat lists pickle an order of
    magnitude smaller and faster than a list of namedtuples, and nearly
    every event of a running fleet is a bare ``(vehicle, segment)``. The
    few that open a stream or carry a trace keep their other fields in
    ``extras``, ``{index: (destination, start_time_s, trajectory_id,
    trace)}``.
    """
    return ([event[0] for event in events], [event[1] for event in events],
            {index: event[2:] for index, event in enumerate(events)
             if event[2:] != _PLAIN_EVENT})


class _ShardWorker:
    """The command interpreter of one process shard, beside its engine.

    ``run`` is the worker's main loop; ``handle`` and ``idle`` are its two
    moves (a command was taken / the queue is empty), which is all a test
    needs to drive the scheduling rule of the module docstring without a
    process. ``reply`` and ``send_bus`` are the two ways out: the reply
    queue's ``put`` and the bus pipe's ``send``, the latter called from
    this one thread and therefore allowed to block on a full pipe.
    """

    def __init__(self, shard_id: int, engine: StreamEngine, commands,
                 reply, send_bus, obs_options: Optional[dict] = None):
        self.shard_id = shard_id
        self.engine = engine
        self.bus = ShardResultBus(shard_id)
        self._commands = commands
        self._reply = reply
        self._send_bus = send_bus
        self._busy_seconds = 0.0
        self._swaps = 0
        self._plane = None
        self._pending_error: Optional[BaseException] = None
        self._tracer = _shard_tracer(shard_id, obs_options)
        engine.tracer = self._tracer
        self.bus.tracer = self._tracer
        self._queue_wait = _queue_wait_reservoir(obs_options)
        self._fire_and_forget = {"ingest": self._ingest,
                                 "ingest_batch": self._ingest_batch,
                                 "plane": self._plane_commands,
                                 "plane_batch": self._plane_commands}

    # ------------------------------------------------------------ scheduling
    def run(self) -> None:
        """Serve commands until ``stop``, one at a time."""
        commands = self._commands
        while True:
            try:
                command = commands.get_nowait()
            except queue_module.Empty:
                if self.idle():
                    continue
                command = commands.get()
            if not self.handle(command):
                return

    def idle(self) -> bool:
        """The queue is empty: step the waiting round, if there is one.

        ``False`` means nothing is waiting either, and the caller may block
        on the queue.
        """
        if not self.engine.step_waiting():
            return False
        self._tick()
        return True

    def handle(self, command: tuple) -> bool:
        """Apply one command; ``False`` once the worker must stop.

        Whatever the command published is on its way to the facade before
        the next command is taken: a result never waits for the queue to
        run dry.
        """
        running = self._answer(command)
        if self.bus.depth:
            self._send_bus(self.bus.take())
        return running

    def _tick(self) -> int:
        started = time.perf_counter()
        advanced = self.engine.tick()
        self._busy_seconds += time.perf_counter() - started
        return advanced

    def _quiesce(self) -> None:
        while self._tick() > 0:
            pass

    # ------------------------------------------------------- fire and forget
    def _ingest(self, command: tuple, received: float) -> None:
        _, event, sent = command
        self._queue_wait.add(received - sent)
        self._step_out((event.vehicle_id,))
        self._apply(event, received)

    def _ingest_batch(self, command: tuple, received: float) -> None:
        _, vehicle_ids, segments, extras, sent = command
        self._queue_wait.add(received - sent)
        self._step_out(vehicle_ids)
        ingest = self.engine.ingest
        if not extras:
            for vehicle_id, segment in zip(vehicle_ids, segments):
                ingest(vehicle_id, segment)
            return
        for index, vehicle_id in enumerate(vehicle_ids):
            extra = extras.get(index)
            if extra is None:
                ingest(vehicle_id, segments[index])
            else:
                self._apply(IngestEvent(vehicle_id, segments[index], *extra),
                            received)

    def _step_out(self, vehicle_ids) -> None:
        """Tick until none of these streams has a step waiting, so that the
        points about to be buffered stack on nothing un-stepped."""
        engine = self.engine
        while engine.step_waiting(vehicle_ids):
            engine.tick()

    def _apply(self, event: IngestEvent, received: float) -> None:
        if event.trace is not None:
            event = event._replace(trace=self._tracer.observe(
                "shard_queue", event.trace, received))
        apply_event(self.engine, event)

    def _plane_commands(self, command: tuple, received: float) -> None:
        if self._plane is None:
            raise ServiceError("no plane installed on this shard")
        # Opaque to the backend, so it counts as touching every stream.
        if self.engine.step_waiting():
            self.engine.tick()
        kind, payload = command
        for item in (payload if kind == "plane_batch" else (payload,)):
            self._plane.handle(item)

    def _finalize_async(self, vehicle_ids: Sequence[Hashable]) -> None:
        """Close streams on the shard's clock; publish results or the error."""
        started = time.perf_counter()
        engine, bus = self.engine, self.bus
        try:
            results = engine.finalize_many(vehicle_ids)
        except BaseException as error:
            bus.publish("error", tuple(vehicle_ids), error)
        else:
            traced = engine.pop_finalize_traced()
            now = obs_timestamp() if traced else 0.0
            for vehicle_id, result in zip(vehicle_ids, results):
                trace_id = traced.get(vehicle_id)
                bus.publish("result", vehicle_id, result,
                            None if trace_id is None
                            else TraceContext(trace_id, now))
        self._busy_seconds += time.perf_counter() - started

    # --------------------------------------------------------------- replied
    def _answer(self, command: tuple) -> bool:
        """Interpret one command; returns False when the worker must stop.

        An error stashed by an earlier fire-and-forget command preempts the
        reply of the next replied command, so failures surface at the
        caller instead of silently desynchronizing the shard.
        """
        kind = command[0]
        apply = self._fire_and_forget.get(kind)
        if apply is not None:
            # The clock starts at receipt and covers the ticks the command
            # had to wait for (they run on engine.tick, not _tick).
            received = time.perf_counter()
            try:
                apply(command, received)
            except BaseException as error:  # surfaced at the next request
                self._pending_error = error
            self._busy_seconds += time.perf_counter() - received
            return True
        if kind == "finalize_async":
            self._finalize_async(command[1])
            return True
        if kind == "bus_ack":
            self.bus.ack(command[1])
            return True
        if kind == "stop":
            self._reply(("stopped", None))
            return False
        if self._pending_error is not None:
            error, self._pending_error = self._pending_error, None
            self._reply(("error", error))
            return True
        try:
            self._reply(self._replied(kind, command))
        except BaseException as error:
            self._reply(("error", error))
        return True

    def _replied(self, kind: str, command: tuple) -> tuple:
        """The ``(kind, payload)`` reply of one replied command."""
        engine = self.engine
        if kind == "sync":
            self._quiesce()
            return "synced", None
        if kind == "finalize":
            started = time.perf_counter()
            value = engine.finalize_many(command[1])
            self._busy_seconds += time.perf_counter() - started
            engine.pop_finalize_traced()  # sync results skip the bus
            return "finalized", value
        if kind == "swap":
            self._quiesce()
            update = command[1]
            if isinstance(update, bytes):
                # The facade pre-pickled the update once for the whole
                # broadcast (a delta or a full snapshot alike); each worker
                # unpickles its own copy, which doubles as the per-shard
                # isolation the in-process backend gets from
                # clone_snapshot/clone_delta.
                update = pickle.loads(update)
            apply_update(engine, update)
            if update.weights is not None:
                self._swaps += 1
            return "swapped", None
        if kind == "install_plane":
            self._plane = command[1](self.shard_id, engine)
            if hasattr(self._plane, "bind_bus"):
                self._plane.bind_bus(self.bus.publish)
            return "plane_installed", None
        if kind == "bus_replay":
            return "bus_replayed", self.bus.replay()
        if kind == "bus_stats":
            return "bus_stats", self.bus.stats()
        if kind == "obs":
            # Registry rides home by pickle (cumulative — the facade merges
            # into a fresh registry per call); spans drain.
            return "obs", (self._tracer.registry, self._tracer.take_spans())
        if kind in ("plane_request", "plane_stats"):
            if self._plane is None:
                raise ServiceError("no plane installed on this shard")
            if kind == "plane_stats":
                return "plane_stats", self._plane.stats()
            started = time.perf_counter()
            value = self._plane.request(command[1])
            self._busy_seconds += time.perf_counter() - started
            return "plane_reply", value
        if kind == "stats":
            return "stats", ShardStats(
                shard_id=self.shard_id,
                backend="process",
                points_processed=engine.points_processed,
                ticks=engine.ticks,
                busy_seconds=self._busy_seconds,
                queue_depth=_safe_qsize(self._commands),
                pending_points=engine.total_pending_points(),
                streams_open=len(engine.active_vehicles),
                streams_finalized=engine.streams_finalized,
                cache_hits=engine.cache.hits,
                cache_misses=engine.cache.misses,
                swaps=self._swaps,
                history_version=engine.history_version,
                history_refreshes=engine.history_refreshes,
                queue_wait_samples=list(self._queue_wait.samples),
            )
        return "error", ServiceError(f"unknown command {kind!r}")


def _shard_worker(shard_id: int, blob: bytes, engine_overrides: dict,
                  commands, results, bus_writer,
                  obs_options: Optional[dict] = None) -> None:
    """Worker process main: rebuild the model from its pickled snapshot and
    serve commands until ``stop`` (see the module docstring)."""
    engine = model_from_bytes(blob).stream_engine(**engine_overrides)
    _ShardWorker(shard_id, engine, commands, results.put, bus_writer.send,
                 obs_options).run()


def _safe_qsize(q) -> int:
    try:
        return q.qsize()
    except NotImplementedError:  # pragma: no cover - macOS
        return 0


class _ProcessShard:
    """The facade's end of one shard worker: its process and channels."""

    def __init__(self, shard_id: int, context, blob: bytes,
                 engine_overrides: dict, queue_depth: int,
                 obs_options: Optional[dict] = None):
        self.shard_id = shard_id
        self.commands = context.Queue(maxsize=queue_depth)
        self.results = context.Queue()
        # The results *bus* channel: a one-way pipe the worker writes
        # envelope batches into from its only thread. Deliberately separate
        # from `results`, whose strict one-reply-per-request pairing pushed
        # publications would desync. `arrived` holds what has been read off
        # the pipe and not yet handed out.
        self.bus, bus_writer = context.Pipe(duplex=False)
        self.arrived: Deque[ResultEnvelope] = deque()
        self.pending_ack = 0   # highest watermark the facade wants acked
        self.sent_ack = 0      # highest watermark actually sent to the worker
        self.process = context.Process(
            target=_shard_worker,
            args=(shard_id, blob, engine_overrides, self.commands,
                  self.results, bus_writer, obs_options),
            daemon=True,
            name=f"repro-serve-shard-{shard_id}",
        )
        self.process.start()
        # The worker now holds the only write end: its death reads as EOF.
        bus_writer.close()

    def read_bus(self) -> None:
        """Move every batch the worker has written into ``arrived``.

        Never waits on an empty pipe. The pipe holds 64 KiB and the worker
        blocks on a full one, so every loop that waits on the worker calls
        this between attempts.
        """
        try:
            while self.bus.poll():
                self.arrived.extend(self.bus.recv())
        except (EOFError, OSError):
            pass  # worker gone or pipe closed: the liveness checks say so


class ProcessBackend(ServiceBackend):
    """One OS process per shard, spawned from a pickled model snapshot."""

    name = "process"

    def __init__(self, blob: bytes, num_shards: int, queue_depth: int,
                 engine_overrides: Optional[dict] = None,
                 start_method: Optional[str] = None,
                 request_timeout_s: float = _REQUEST_TIMEOUT_S,
                 obs_options: Optional[dict] = None):
        import multiprocessing

        context = multiprocessing.get_context(start_method)
        self._request_timeout_s = request_timeout_s
        self._shards = [
            _ProcessShard(shard_id, context, blob, dict(engine_overrides or {}),
                          queue_depth, obs_options)
            for shard_id in range(num_shards)
        ]
        self._closed = False

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    # ------------------------------------------------- waiting on a worker
    def _require_alive(self, shard: "_ProcessShard") -> None:
        if not shard.process.is_alive():
            raise ServiceError(
                f"shard {shard.shard_id} worker died; the service must be "
                "rebuilt (in-flight streams of that shard are lost)")

    def _attend(self, shard: "_ProcessShard", deadline: float,
                what: str) -> None:
        """One turn of a loop that waits on a worker.

        Reads the shard's bus pipe — a worker blocked writing results into
        it would never get to what the loop waits for — then fails fast on
        a dead worker or a passed deadline.
        """
        shard.read_bus()
        self._require_alive(shard)
        if time.monotonic() > deadline:
            raise ServiceError(f"shard {shard.shard_id} did not {what}")

    def _put(self, shard: "_ProcessShard", command: tuple,
             timeout_s: float) -> None:
        """Queue one command that must not be refused, riding out a full
        queue (never a blocking ``put``: see :meth:`_attend`)."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                shard.commands.put_nowait(command)
                return
            except queue_module.Full:
                self._attend(shard, deadline,
                             f"take a {command[0]!r} command within "
                             f"{timeout_s:.0f}s")
            time.sleep(_WAIT_SLICE_S)

    def _reply(self, shard: "_ProcessShard", what: str) -> tuple:
        """Wait for a shard's next ``(kind, payload)`` reply."""
        deadline = time.monotonic() + self._request_timeout_s
        while True:
            try:
                return shard.results.get(timeout=_WAIT_SLICE_S)
            except queue_module.Empty:
                self._attend(shard, deadline,
                             f"{what} within {self._request_timeout_s:.0f}s")

    def _request(self, shard: "_ProcessShard", command: tuple, expect: str):
        """Send one replied command and wait for its (only) reply."""
        if self._closed:
            raise ServiceError("the detection service is closed")
        self._put(shard, command, self._request_timeout_s)
        kind, payload = self._reply(shard,
                                    f"answer a {command[0]!r} request")
        if kind == "error":
            raise payload
        if kind != expect:  # pragma: no cover - protocol bug guard
            raise ServiceError(
                f"shard {shard.shard_id} answered {kind!r} to {command[0]!r}")
        return payload

    def _offer(self, shard: int, command: tuple) -> bool:
        """Queue one fire-and-forget command unless the queue is full.

        A refusal from a dead worker's queue is an error, not backpressure:
        nothing will ever drain it.
        """
        state = self._shards[shard]
        try:
            state.commands.put_nowait(command)
        except queue_module.Full:
            self._require_alive(state)
            return False
        return True

    # -------------------------------------------------------------- ingest
    def ingest(self, shard: int, event: IngestEvent) -> bool:
        # The trailing timestamp is the queue-wait mark: perf_counter is
        # CLOCK_MONOTONIC on Linux, comparable across this process and the
        # worker, which subtracts it at receipt.
        return self._offer(shard, ("ingest", event, obs_timestamp()))

    def ingest_batch(self, shard: int, events: Sequence[IngestEvent]) -> bool:
        return self._offer(shard, ("ingest_batch", *_pack_events(events),
                                   obs_timestamp()))

    def pump(self) -> int:
        # Workers tick themselves; what a waiting caller owes them is an
        # emptied bus pipe.
        for shard in self._shards:
            shard.read_bus()
        return 0

    def drain(self) -> None:
        for shard in self._shards:
            self._request(shard, ("sync",), "synced")

    def finalize(self, shard: int,
                 vehicle_ids: Sequence[Hashable]) -> List[DetectionResult]:
        return self._request(self._shards[shard],
                             ("finalize", list(vehicle_ids)), "finalized")

    # ------------------------------------------------------------ results bus
    def finalize_async(self, shard: int,
                       vehicle_ids: Sequence[Hashable]) -> bool:
        return self._offer(shard, ("finalize_async", list(vehicle_ids)))

    def take_results(self,
                     max_items: Optional[int] = None) -> List[ResultEnvelope]:
        envelopes: List[ResultEnvelope] = []
        for shard in self._shards:
            self._send_ack(shard)  # retry an ack an earlier full queue refused
            shard.read_bus()
            arrived = shard.arrived
            if max_items is None:
                envelopes.extend(arrived)
                arrived.clear()
            else:
                while arrived and len(envelopes) < max_items:
                    envelopes.append(arrived.popleft())
        return envelopes

    def ack_results(self, shard: int, up_to_seq: int) -> None:
        state = self._shards[shard]
        if up_to_seq > state.pending_ack:
            state.pending_ack = up_to_seq
        self._send_ack(state)

    def _send_ack(self, state: "_ProcessShard") -> None:
        if state.pending_ack <= state.sent_ack:
            return
        try:
            state.commands.put_nowait(("bus_ack", state.pending_ack))
        except queue_module.Full:
            return  # retried on the next take_results
        state.sent_ack = state.pending_ack

    def replay_results(self) -> int:
        return sum(self._request(shard, ("bus_replay",), "bus_replayed")
                   for shard in self._shards)

    def bus_stats(self) -> List[BusStats]:
        return [self._request(shard, ("bus_stats",), "bus_stats")
                for shard in self._shards]

    def swap(self, update: ControlUpdate) -> None:
        # Broadcast first so shards swap concurrently, then await each ack.
        # Per-shard FIFO still guarantees every already-eligible point is
        # labeled by the old weights/history (the worker quiesces before
        # loading). Every shard's reply is consumed before any error is
        # raised — an unread reply would answer that shard's *next* request
        # and desync the whole protocol. The update is pickled ONCE here
        # and shipped as bytes: mp.Queue would otherwise re-pickle the
        # whole payload per shard, which is exactly the O(shards × corpus)
        # cost that made full-snapshot history refreshes collapse at four
        # process shards (benchmarks/results/history_refresh.txt).
        blob = pickle.dumps(update, protocol=pickle.HIGHEST_PROTOCOL)
        first_error: Optional[BaseException] = None
        sent = []
        for shard in self._shards:
            try:
                self._put(shard, ("swap", blob), self._request_timeout_s)
            except ServiceError as error:  # dead or wedged: nothing to await
                first_error = first_error or error
            else:
                sent.append(shard)
        for shard in sent:
            try:
                kind, payload = self._reply(shard,
                                            "acknowledge a weight swap")
            except ServiceError as error:
                first_error = first_error or error
                continue
            if kind == "error":
                first_error = first_error or payload
            elif kind != "swapped":  # pragma: no cover - protocol bug guard
                first_error = first_error or ServiceError(
                    f"shard {shard.shard_id} answered {kind!r} to a swap")
        if first_error is not None:
            raise first_error

    def stats(self) -> List[ShardStats]:
        return [self._request(shard, ("stats",), "stats")
                for shard in self._shards]

    # -------------------------------------------------------- observability
    def obs_snapshot(self) -> List[tuple]:
        return [self._request(shard, ("obs",), "obs")
                for shard in self._shards]

    # ----------------------------------------------------------- work planes
    def install_plane(self, factory) -> None:
        # Replied per shard, so the caller knows every worker built its
        # plane (and a factory that cannot be rebuilt worker-side fails
        # loudly here, not at the first routed command).
        for shard in self._shards:
            self._request(shard, ("install_plane", factory), "plane_installed")

    def plane_send(self, shard: int, command) -> bool:
        return self._offer(shard, ("plane", command))

    def plane_send_batch(self, shard: int, commands: Sequence) -> bool:
        return self._offer(shard, ("plane_batch", list(commands)))

    def plane_request(self, shard: int, command):
        return self._request(self._shards[shard],
                             ("plane_request", command), "plane_reply")

    def plane_stats(self) -> List:
        return [self._request(shard, ("plane_stats",), "plane_stats")
                for shard in self._shards]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            try:
                self._put(shard, ("stop",), _STOP_TIMEOUT_S)
            except ServiceError:  # dead or wedged: terminated below
                pass
        for shard in self._shards:
            # The worker's last flush must find room in the pipe, so keep
            # reading it until the process is gone.
            deadline = time.monotonic() + _JOIN_TIMEOUT_S
            while shard.process.is_alive() and time.monotonic() < deadline:
                shard.read_bus()
                shard.process.join(timeout=_WAIT_SLICE_S)
            if shard.process.is_alive():  # pragma: no cover - wedged worker
                shard.process.terminate()
                shard.process.join(timeout=_JOIN_TIMEOUT_S)
            shard.commands.close()
            shard.results.close()
            shard.bus.close()
