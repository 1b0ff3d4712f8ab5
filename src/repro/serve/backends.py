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
  (:func:`~repro.serve.checkpoint.model_to_bytes`). Workers drain their
  queue and tick continuously, so shard compute overlaps with the caller's
  ingest loop and with every other shard — this is where multi-core
  throughput comes from.

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
spans — the observability plane of :mod:`repro.obs`).

**Results bus.** On top of the request/reply protocol both backends run a
push-based result plane (:mod:`repro.serve.resultbus`): a ``finalize_async``
command is fire-and-forget — the shard finalizes the streams on its own
clock and *publishes* each :class:`~repro.core.detector.DetectionResult`
(or, on failure, one error envelope) to its :class:`~repro.serve.resultbus.
ShardResultBus`. The process backend ships published envelopes over a
dedicated per-shard bus queue, one message per batch (never the reply
queue, whose one-reply-per-request pairing must stay undisturbed); the
in-process backend hands them over directly at ``take_results``. Envelopes
stay in the shard's unacked window until the facade acknowledges its
watermark (``bus_ack``, fire-and-forget); ``bus_replay`` / ``bus_stats``
are replied. Planes participate too: a plane exposing a ``bind_bus(publish)``
method is handed the shard bus's ``publish`` at install time, which is how
gateway sessions complete through the bus (:class:`~repro.ingest.shardmatch.
MatchFinishAsync`). Because ``finalize_async`` rides the same FIFO as
ingest, every point queued before it is applied before the finalize — the
exact boundary the synchronous ``finalize`` observes.

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

#: Seconds a worker sleeps on its command queue when fully idle.
_IDLE_WAIT_S = 0.05
#: Seconds the service waits for a worker reply before declaring it dead.
_REQUEST_TIMEOUT_S = 120.0


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

        The process backend's workers advance themselves, so its ``pump`` is
        a no-op returning 0.
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
        BusCollector`. ``max_items`` is a soft bound (whole batches are
        taken).
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
def _shard_worker(shard_id: int, blob: bytes, engine_overrides: dict,
                  commands, results, bus_queue,
                  obs_options: Optional[dict] = None) -> None:
    """Worker main loop: rebuild the model from its pickled snapshot, then
    serve commands forever (see the module docstring for the protocol)."""
    model = model_from_bytes(blob)
    engine = model.stream_engine(**engine_overrides)
    bus = ShardResultBus(shard_id)
    # Unflushed bus batches must never block this process's exit (the
    # facade stops reading at close; whatever is still buffered then is as
    # lost as any other in-flight work).
    bus_queue.cancel_join_thread()
    busy_seconds = 0.0
    swaps = 0
    plane = None
    pending_error: Optional[BaseException] = None
    tracer = _shard_tracer(shard_id, obs_options)
    engine.tracer = tracer
    bus.tracer = tracer
    queue_wait = _queue_wait_reservoir(obs_options)

    def flush_bus() -> None:
        """Ship the outbox toward the facade: one message per batch."""
        if bus.depth:
            bus_queue.put(bus.take())

    def timed_tick() -> int:
        nonlocal busy_seconds
        started = time.perf_counter()
        advanced = engine.tick()
        busy_seconds += time.perf_counter() - started
        return advanced

    def quiesce() -> None:
        while timed_tick() > 0:
            pass

    def reply(kind: str, payload=None) -> None:
        results.put((kind, payload))

    def answer(command) -> bool:
        """Handle one command; returns False when the worker must stop.

        An error stashed by an earlier fire-and-forget ``ingest`` preempts
        the reply of the next replied command, so failures surface at the
        caller instead of silently desynchronizing the shard.
        """
        nonlocal busy_seconds, swaps, plane, pending_error
        kind = command[0]
        if kind == "stop":
            flush_bus()
            reply("stopped")
            return False
        if kind == "finalize_async":
            started = time.perf_counter()
            try:
                value = engine.finalize_many(command[1])
            except BaseException as error:
                bus.publish("error", tuple(command[1]), error)
            else:
                traced = engine.pop_finalize_traced()
                if not traced:
                    for vehicle_id, result in zip(command[1], value):
                        bus.publish("result", vehicle_id, result)
                else:
                    now = obs_timestamp()
                    for vehicle_id, result in zip(command[1], value):
                        trace_id = traced.get(vehicle_id)
                        bus.publish(
                            "result", vehicle_id, result,
                            None if trace_id is None
                            else TraceContext(trace_id, now))
            busy_seconds += time.perf_counter() - started
            return True
        if kind == "bus_ack":
            bus.ack(command[1])
            return True
        if kind == "ingest":
            started = time.perf_counter()
            if len(command) > 2:  # enqueue timestamp (same monotonic clock)
                queue_wait.add(started - command[2])
            try:
                event = command[1]
                if event.trace is not None:
                    event = event._replace(trace=tracer.observe(
                        "shard_queue", event.trace, started))
                apply_event(engine, event)
            except BaseException as error:  # surfaced at the next request
                pending_error = error
            busy_seconds += time.perf_counter() - started
            return True
        if kind == "ingest_batch":
            started = time.perf_counter()
            if len(command) > 2:
                queue_wait.add(started - command[2])
            try:
                for event in command[1]:
                    if event.trace is not None:
                        event = event._replace(trace=tracer.observe(
                            "shard_queue", event.trace, started))
                    apply_event(engine, event)
            except BaseException as error:  # surfaced at the next request
                pending_error = error
            busy_seconds += time.perf_counter() - started
            return True
        if kind == "plane":
            started = time.perf_counter()
            try:
                if plane is None:
                    raise ServiceError("no plane installed on this shard")
                plane.handle(command[1])
            except BaseException as error:  # surfaced at the next request
                pending_error = error
            busy_seconds += time.perf_counter() - started
            return True
        if kind == "plane_batch":
            started = time.perf_counter()
            try:
                if plane is None:
                    raise ServiceError("no plane installed on this shard")
                for item in command[1]:
                    plane.handle(item)
            except BaseException as error:  # surfaced at the next request
                pending_error = error
            busy_seconds += time.perf_counter() - started
            return True
        if pending_error is not None:
            error, pending_error = pending_error, None
            reply("error", error)
            return True
        try:
            if kind == "sync":
                quiesce()
                reply("synced")
            elif kind == "finalize":
                started = time.perf_counter()
                value = engine.finalize_many(command[1])
                busy_seconds += time.perf_counter() - started
                engine.pop_finalize_traced()  # sync results skip the bus
                reply("finalized", value)
            elif kind == "swap":
                quiesce()
                update = command[1]
                if isinstance(update, bytes):
                    # The facade pre-pickled the update once for the whole
                    # broadcast (a delta or a full snapshot alike); each
                    # worker unpickles its own copy, which doubles as the
                    # per-shard isolation the in-process backend gets from
                    # clone_snapshot/clone_delta.
                    update = pickle.loads(update)
                apply_update(engine, update)
                if update.weights is not None:
                    swaps += 1
                reply("swapped")
            elif kind == "install_plane":
                plane = command[1](shard_id, engine)
                if hasattr(plane, "bind_bus"):
                    plane.bind_bus(bus.publish)
                reply("plane_installed")
            elif kind == "bus_replay":
                reply("bus_replayed", bus.replay())
            elif kind == "bus_stats":
                reply("bus_stats", bus.stats())
            elif kind == "obs":
                # Registry rides home by pickle (cumulative — the facade
                # merges into a fresh registry per call); spans drain.
                reply("obs", (tracer.registry, tracer.take_spans()))
            elif kind == "plane_request":
                if plane is None:
                    raise ServiceError("no plane installed on this shard")
                started = time.perf_counter()
                value = plane.request(command[1])
                busy_seconds += time.perf_counter() - started
                reply("plane_reply", value)
            elif kind == "plane_stats":
                if plane is None:
                    raise ServiceError("no plane installed on this shard")
                reply("plane_stats", plane.stats())
            elif kind == "stats":
                reply("stats", ShardStats(
                    shard_id=shard_id,
                    backend="process",
                    points_processed=engine.points_processed,
                    ticks=engine.ticks,
                    busy_seconds=busy_seconds,
                    queue_depth=_safe_qsize(commands),
                    pending_points=engine.total_pending_points(),
                    streams_open=len(engine.active_vehicles),
                    streams_finalized=engine.streams_finalized,
                    cache_hits=engine.cache.hits,
                    cache_misses=engine.cache.misses,
                    swaps=swaps,
                    history_version=engine.history_version,
                    history_refreshes=engine.history_refreshes,
                    queue_wait_samples=list(queue_wait.samples),
                ))
            else:
                reply("error", ServiceError(f"unknown command {kind!r}"))
        except BaseException as error:
            reply("error", error)
        return True

    running = True
    while running:
        handled = 0
        while running:
            try:
                command = commands.get_nowait()
            except queue_module.Empty:
                break
            handled += 1
            running = answer(command)
        if not running:
            break
        advanced = timed_tick()
        flush_bus()
        if handled == 0 and advanced == 0:
            # Fully idle: block (briefly) instead of spinning.
            try:
                command = commands.get(timeout=_IDLE_WAIT_S)
            except queue_module.Empty:
                continue
            running = answer(command)


def _safe_qsize(q) -> int:
    try:
        return q.qsize()
    except NotImplementedError:  # pragma: no cover - macOS
        return 0


class _ProcessShard:
    def __init__(self, shard_id: int, context, blob: bytes,
                 engine_overrides: dict, queue_depth: int,
                 obs_options: Optional[dict] = None):
        self.shard_id = shard_id
        self.commands = context.Queue(maxsize=queue_depth)
        self.results = context.Queue()
        # The results *bus* channel: worker-published envelope batches, one
        # message each. Deliberately separate from `results`, whose strict
        # one-reply-per-request pairing pushed publications would desync.
        self.bus = context.Queue()
        self.pending_ack = 0   # highest watermark the facade wants acked
        self.sent_ack = 0      # highest watermark actually sent to the worker
        self.process = context.Process(
            target=_shard_worker,
            args=(shard_id, blob, engine_overrides, self.commands,
                  self.results, self.bus, obs_options),
            daemon=True,
            name=f"repro-serve-shard-{shard_id}",
        )
        self.process.start()


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

    def _request(self, shard: "_ProcessShard", command: tuple, expect: str):
        """Send one replied command and wait for its (only) reply."""
        if self._closed:
            raise ServiceError("the detection service is closed")
        if not shard.process.is_alive():
            raise ServiceError(
                f"shard {shard.shard_id} worker died; the service must be "
                "rebuilt (in-flight streams of that shard are lost)")
        shard.commands.put(command)
        try:
            kind, payload = shard.results.get(timeout=self._request_timeout_s)
        except queue_module.Empty:
            raise ServiceError(
                f"shard {shard.shard_id} did not answer a {command[0]!r} "
                f"request within {self._request_timeout_s:.0f}s") from None
        if kind == "error":
            raise payload
        if kind != expect:  # pragma: no cover - protocol bug guard
            raise ServiceError(
                f"shard {shard.shard_id} answered {kind!r} to {command[0]!r}")
        return payload

    def ingest(self, shard: int, event: IngestEvent) -> bool:
        # The trailing timestamp is the queue-wait mark: perf_counter is
        # CLOCK_MONOTONIC on Linux, comparable across this process and the
        # worker, which subtracts it at receipt.
        try:
            self._shards[shard].commands.put_nowait(
                ("ingest", event, obs_timestamp()))
        except queue_module.Full:
            return False
        return True

    def ingest_batch(self, shard: int, events: Sequence[IngestEvent]) -> bool:
        try:
            self._shards[shard].commands.put_nowait(
                ("ingest_batch", list(events), obs_timestamp()))
        except queue_module.Full:
            return False
        return True

    def pump(self) -> int:
        return 0  # workers drain and tick themselves

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
        try:
            self._shards[shard].commands.put_nowait(
                ("finalize_async", list(vehicle_ids)))
        except queue_module.Full:
            return False
        return True

    def take_results(self,
                     max_items: Optional[int] = None) -> List[ResultEnvelope]:
        envelopes: List[ResultEnvelope] = []
        for shard in self._shards:
            self._send_ack(shard)  # retry an ack an earlier full queue refused
            while max_items is None or len(envelopes) < max_items:
                try:
                    envelopes.extend(shard.bus.get_nowait())
                except queue_module.Empty:
                    break
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
        for shard in self._shards:
            shard.commands.put(("swap", blob))
        first_error: Optional[BaseException] = None
        for shard in self._shards:
            try:
                kind, payload = shard.results.get(
                    timeout=self._request_timeout_s)
            except queue_module.Empty:
                first_error = first_error or ServiceError(
                    f"shard {shard.shard_id} did not acknowledge a weight "
                    f"swap within {self._request_timeout_s:.0f}s")
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
        try:
            self._shards[shard].commands.put_nowait(("plane", command))
        except queue_module.Full:
            return False
        return True

    def plane_send_batch(self, shard: int, commands: Sequence) -> bool:
        try:
            self._shards[shard].commands.put_nowait(
                ("plane_batch", list(commands)))
        except queue_module.Full:
            return False
        return True

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
            if shard.process.is_alive():
                try:
                    shard.commands.put(("stop",), timeout=1.0)
                except queue_module.Full:  # pragma: no cover - wedged worker
                    pass
        for shard in self._shards:
            # Drain straggler bus batches so the worker's queue feeder
            # thread cannot wedge its exit on an unread pipe.
            while True:
                try:
                    shard.bus.get_nowait()
                except (queue_module.Empty, OSError, ValueError):
                    break
            shard.process.join(timeout=5.0)
            if shard.process.is_alive():  # pragma: no cover - wedged worker
                shard.process.terminate()
                shard.process.join(timeout=5.0)
            shard.commands.close()
            shard.results.close()
            shard.bus.close()
