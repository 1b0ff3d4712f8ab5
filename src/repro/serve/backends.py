"""Shard execution backends of the detection service: one core, two transports.

A shard is a :class:`ShardCore` — one
:class:`~repro.core.stream.StreamEngine`, its results bus, an observe-only
tracer and the counters behind
:class:`~repro.serve.metrics.ShardStats` — and the core is the *only* place
a shard command is interpreted: ``handle(command)`` applies one command,
``idle()`` is the move for an empty queue. A backend
(:class:`ServiceBackend`) is a *transport*: it carries command tuples to its
cores through one bounded FIFO per shard — a full queue is the backpressure
signal the service surfaces to callers — and carries replies and published
results back. Every protocol method is written once, on
:class:`ServiceBackend`, over three primitives a transport supplies:
``_offer`` (queue a fire-and-forget command unless the queue is full),
``_request`` (send a replied command, return its answer) and ``_read_bus``
(fetch what the shard has published). The transports differ in *where* the
core runs:

* :class:`InProcessBackend` — every core lives in the calling process beside
  a plain deque of command tuples, and nothing advances until the caller
  pumps or sends a replied command. Fully deterministic and debuggable;
  this is the backend the differential tests drive, and the right choice
  when the caller is itself a batch job.
* :class:`ProcessBackend` — one OS process per shard, built from a pickled
  model blob (:func:`~repro.serve.checkpoint.model_to_bytes`) and fed
  through bounded ``multiprocessing`` queues. Each worker runs its core on
  its own clock, so shard compute overlaps with the caller's ingest loop
  and with every other shard — this is where multi-core throughput comes
  from.

Label equivalence holds for both: a stream's labels never depend on how
ticks interleave with arrivals (each stream advances at most one point per
tick, and per-stream state is self-contained), so sharding a fleet across
engines — in whatever process — yields exactly the labels of one big engine.

**Shard protocol.** Commands are tuples ``(kind, ...)``, handled strictly in
the order they were queued::

    kind            carries                                     reply
    --------------  ------------------------------------------  ---------------
    ingest_batch    vehicle_ids, segments, extras               -
    finalize_async  vehicle ids                                 - (results bus)
    bus_ack         a sequence watermark                        -
    sync                                                        synced
    finalize        vehicle ids                                 finalized
    swap            a ControlUpdate, or its pickle              swapped
    stats                                                       stats
    bus_stats                                                   bus_stats
    bus_replay                                                  bus_replayed
    obs                                                         obs
    stop                                                        stopped

The first three are fire-and-forget; every other command produces exactly one
reply ``(kind, payload)``, and the single-caller service never pipelines two
replied commands, so replies cannot interleave. A fire-and-forget command
cannot answer, so when an ``ingest_batch`` fails the core stashes the
exception (the batch's prefix stays applied) and answers the *next* replied
command ``("error", exception)`` instead, once — failures surface at the
caller instead of silently desynchronizing the shard. (The
facade validates segments against the vocabulary before it queues anything,
so no engine-side ingest failure is reachable through it.) ``obs`` ships the
shard's cumulative metrics registry home and drains its trace spans — the
observability plane of :mod:`repro.obs`. One point is a batch of one: there
is no single-event command. An ``ingest_batch`` travels as columns — two
flat lists plus a sparse ``{index: (destination, start_time_s,
trajectory_id, trace)}`` for the few events that open a stream or carry a
trace (:func:`append_event`; :class:`IngestEvent` stays the type callers
hand the facade).

**Scheduling: a round at a time.** The core takes one command at a time and
never stacks a stream's next point on one that has not been stepped. Before
it applies an ``ingest_batch`` touching a stream with a step waiting
(:meth:`StreamEngine.step_waiting`) it ticks until that is no longer so —
one fleet-wide tick for a lockstep round, whether the round came as one
batch or as one batch per vehicle. On an empty queue
(:meth:`ShardCore.idle`) it ticks if anything waits; a worker process then
blocks on its queue, an in-process ``pump`` returns. What a
``finalize_async`` publishes to the results bus leaves for the facade
before the next command is taken. So the points a shard holds un-ticked
are at most one steppable point per stream,
the command in hand and ``queue_depth`` queued commands: a producer that
outruns the engine fills the *queue*, and sees ``RETRY_LATER``, instead of
growing the engine's per-stream buffers. The rule paces both transports, so
how many ticks a given ``pump()`` runs is a transport detail; labels never
depend on it.

**Results bus.** On top of the request/reply protocol every shard runs a
push-based result plane (:mod:`repro.serve.resultbus`): a ``finalize_async``
command is fire-and-forget — the shard finalizes the streams on its own
clock and *publishes* each :class:`~repro.core.detector.DetectionResult`
(or, on failure, one error envelope) to its :class:`~repro.serve.resultbus.
ShardResultBus`, and the core hands what was published to the transport
(``send_bus``) before it takes the next command. The in-process transport
appends it straight to the facade-side ``arrived`` buffer that
``take_results`` hands out from. The process transport ships it over a
dedicated per-shard one-way pipe, one message per batch (never the reply
queue, whose one-reply-per-request pairing must stay undisturbed), which
the worker writes synchronously from its only thread — a queue's feeder
thread would share the worker's core and interpreter lock with the engine.
A full pipe (64 KiB) therefore blocks the worker, and only the facade can
unblock it: it reads the pipe into ``arrived`` wherever it waits on a
worker — ``take_results``, ``pump`` (which every retry loop of the service
calls), the put-and-wait loops of replied commands and ``swap``, and
``close``. Envelopes stay in the shard's unacked window until the facade
acknowledges its watermark (``bus_ack``). Because ``finalize_async`` rides
the same FIFO as ingest, every point queued before it is applied before
the finalize — the exact boundary the synchronous ``finalize`` observes.

**Hot swap.** Because the queue is FIFO, every point that is *eligible for
labeling* by the time a ``swap`` command (a :class:`ControlUpdate` carrying
new weights, a new history snapshot, or both) arrives is labeled by the old
weights/history — the core applies all earlier ingests and quiesces the
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
never depend on history, so a refresh discards nothing.) Isolating a shard
from the caller's payload is the transport's half: a clone in process, a
pickle across processes.

**What only the in-process transport decides.** Its shards advance only
inside the caller's calls, so it settles two things a worker's own clock
would: the read-only commands of a scrape (``stats``, ``bus_stats``,
``obs``) are answered *beside* the queue — ``metrics()`` never advances a
shard, and ``queue_depth`` reads what is really queued — while every other
replied command runs the queue first (FIFO); and a ``bus_ack`` is applied
at once (an ack needs no place in the FIFO).
"""

from __future__ import annotations

import pickle
import queue as queue_module
import time
from collections import deque
from typing import Deque, Hashable, List, NamedTuple, Optional, Sequence

from ..core.detector import DetectionResult
from ..core.stream import PLAIN_ROW, StreamEngine
from ..exceptions import ServiceError
from ..history import (HistoryDelta, HistorySnapshot,
                       apply_delta as apply_history_delta,
                       clone_snapshot)
from ..obs.registry import MetricsRegistry
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
    destination: Optional[int] = None
    start_time_s: float = 0.0
    trajectory_id: Optional[int] = None
    #: Sampled trace context riding this event (``None`` almost always).
    #: Stamped where the event is created; the shard observes the
    #: ``shard_queue`` stage when it dequeues the event.
    trace: Optional[TraceContext] = None


class ControlUpdate(NamedTuple):
    """One atomic control-plane update broadcast to every shard.

    Carries new network weights, a new history — as a full snapshot *or*
    as a version-keyed :class:`~repro.history.HistoryDelta` of only the
    appended trajectories — or both weights and history; everything is
    applied at a single quiescent boundary per shard, so "new model + new
    history" can never be observed half-applied. At most one of ``history`` /
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


class ServiceBackend:
    """The shard protocol, written once over a transport's primitives.

    A transport supplies :meth:`_offer`, :meth:`_request`, :meth:`_read_bus`,
    :meth:`pump`, :meth:`swap` and :meth:`close` (see the module docstring).
    """

    name = "abstract"

    def __init__(self, num_shards: int):
        # Per shard: the envelopes published and not yet handed out by
        # take_results; the highest watermark the facade wants
        # acknowledged, and the highest actually sent.
        self._arrived: List[Deque[ResultEnvelope]] = [
            deque() for _ in range(num_shards)]
        self._pending_ack = [0] * num_shards
        self._sent_ack = [0] * num_shards

    @property
    def num_shards(self) -> int:
        return len(self._arrived)

    # ------------------------------------------------------------ transport
    def _offer(self, shard: int, command: tuple) -> bool:
        """Queue one fire-and-forget command; ``False`` on a full queue."""
        raise NotImplementedError

    def _request(self, shard: int, command: tuple, expect: str):
        """Send one replied command; returns the payload of its ``expect``
        reply, raises the payload of an ``"error"`` one."""
        raise NotImplementedError

    def _read_bus(self, shard: int) -> None:
        """Move what the shard has published into ``arrived``, without
        waiting (a no-op where the core's ``send_bus`` put it there)."""

    def _payload(self, shard: int, command: tuple, reply: tuple, expect: str):
        kind, payload = reply
        if kind == "error":
            raise payload
        if kind != expect:  # pragma: no cover - protocol bug guard
            raise ServiceError(
                f"shard {shard} answered {kind!r} to {command[0]!r}")
        return payload

    def _broadcast(self, command: tuple, expect: str) -> list:
        return [self._request(shard, command, expect)
                for shard in range(self.num_shards)]

    # -------------------------------------------------------------- ingest
    def ingest_batch(self, shard: int, columns: tuple) -> bool:
        """Queue several events to a shard as one command, all-or-nothing.

        ``columns`` is the ``(vehicle_ids, segments, extras)`` triple
        :func:`append_event` builds. A batch occupies a *single* slot of
        the shard's bounded queue — on the process backend that is one IPC
        put instead of one per event, which is where the multi-shard ingest
        amortization comes from. The queue-depth bound therefore counts
        commands, not points; callers bound their batch size
        (:class:`~repro.config.GatewayConfig.ingest_batch`) to keep
        worst-case buffering proportional. ``False`` means the shard queue
        is full and *nothing* was queued.
        """
        return self._offer(shard, ("ingest_batch", *columns))

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
        self._broadcast(("sync",), "synced")

    def finalize(self, shard: int,
                 vehicle_ids: Sequence[Hashable]) -> List[DetectionResult]:
        return self._request(shard, ("finalize", list(vehicle_ids)),
                             "finalized")

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
        return self._offer(shard, ("finalize_async", list(vehicle_ids)))

    def take_results(self,
                     max_items: Optional[int] = None) -> List[ResultEnvelope]:
        """Drain published envelopes from every shard's bus, batched.

        At-least-once: a replay can hand the caller envelopes it has seen
        before, so consumers dedup through a :class:`~repro.serve.resultbus.
        BusCollector`. At most ``max_items`` are handed out; the rest wait
        for the next call.
        """
        envelopes: List[ResultEnvelope] = []
        for shard, arrived in enumerate(self._arrived):
            self._send_ack(shard)  # retry an ack an earlier full queue refused
            self._read_bus(shard)
            if max_items is None:
                envelopes.extend(arrived)
                arrived.clear()
            else:
                while arrived and len(envelopes) < max_items:
                    envelopes.append(arrived.popleft())
        return envelopes

    def ack_results(self, shard: int, up_to_seq: int) -> None:
        """Acknowledge one shard's envelopes up to a sequence watermark.

        Best-effort and fire-and-forget: an ack that cannot be sent right
        now (full command queue) is retried on the next
        :meth:`take_results`; until then the shard just retains a slightly
        longer unacked window.
        """
        if up_to_seq > self._pending_ack[shard]:
            self._pending_ack[shard] = up_to_seq
        self._send_ack(shard)

    def _send_ack(self, shard: int) -> None:
        pending = self._pending_ack[shard]
        if pending > self._sent_ack[shard] and self._offer(
                shard, ("bus_ack", pending)):
            self._sent_ack[shard] = pending

    def replay_results(self) -> int:
        """Re-queue every shard's unacked window; returns envelopes re-queued.

        The fault-injection/recovery lever of the at-least-once contract —
        after this, :meth:`take_results` redelivers everything not yet
        acknowledged (subscribers drop what they already accepted).
        """
        return sum(self._broadcast(("bus_replay",), "bus_replayed"))

    def bus_stats(self) -> List[BusStats]:
        """Every shard bus's counters, in shard order."""
        return self._broadcast(("bus_stats",), "bus_stats")

    def swap(self, update: ControlUpdate) -> None:
        raise NotImplementedError

    def stats(self) -> List[ShardStats]:
        return self._broadcast(("stats",), "stats")

    # -------------------------------------------------------- observability
    def obs_snapshot(self) -> List[tuple]:
        """Every shard's ``(registry, spans)``, in shard order.

        The registry is the shard tracer's cumulative metrics (a
        point-in-time pickle copy on the process backend); the spans are
        *drained* — each recorded span is returned exactly once across
        repeated calls.
        """
        return self._broadcast(("obs",), "obs")

    def close(self) -> None:
        raise NotImplementedError


# --------------------------------------------------------------- the core
def append_event(columns: tuple, event: IngestEvent) -> None:
    """Add one event to the columns of an ``ingest_batch`` command.

    ``columns`` is ``(vehicle_ids, segments, extras)``, started as
    ``([], [], {})``: two flat lists pickle an order of magnitude smaller
    and faster than a list of namedtuples, and nearly every event of a
    running fleet is a bare ``(vehicle, segment)``. The few that open a
    stream or carry a trace keep their other fields in ``extras``,
    ``{index: (destination, start_time_s, trajectory_id, trace)}`` — the
    columns :meth:`StreamEngine.ingest_many` takes.
    """
    vehicle_ids, segments, extras = columns
    if event[2:] != PLAIN_ROW:
        extras[len(segments)] = event[2:]
    vehicle_ids.append(event[0])
    segments.append(event[1])


def _pack_events(events: Sequence[IngestEvent]) -> tuple:
    """``events`` as the columns of one ``ingest_batch`` command."""
    columns: tuple = ([], [], {})
    for event in events:
        append_event(columns, event)
    return columns


class ShardCore:
    """One shard — engine, bus, tracer, counters — and the only
    interpreter of shard commands.

    ``handle`` and ``idle`` are its two moves (a command was taken / the
    queue is empty), which is all a test needs to drive the scheduling rule
    of the module docstring without a transport. ``reply`` and ``send_bus``
    are the two ways out: a worker's reply queue ``put`` and bus pipe
    ``send`` (called from its one thread and therefore allowed to block on
    a full pipe), or an in-process list's ``append`` and the ``arrived``
    buffer's ``extend``. ``backend`` names the transport in
    :class:`ShardStats`; ``queued()`` reads its queue's length for them.
    """

    def __init__(self, shard_id: int, engine: StreamEngine, backend: str,
                 queued, reply, send_bus, obs_options: Optional[dict] = None):
        self.shard_id = shard_id
        self.engine = engine
        self.bus = ShardResultBus(shard_id)
        self._backend = backend
        self._queued = queued
        self._reply = reply
        self._send_bus = send_bus
        self._busy_seconds = 0.0
        self._swaps = 0
        self._pending_error: Optional[BaseException] = None
        options = obs_options or {}
        # Rate 0 — shards never *originate* traces, they only observe
        # contexts that arrive on events — so a service with tracing off
        # pays nothing here beyond the objects' existence.
        self._tracer = Tracer(MetricsRegistry(), sample_rate=0.0,
                              site=f"shard-{shard_id}",
                              keep_spans=options.get("keep_spans", True),
                              max_spans=options.get("max_spans", 10_000))
        engine.tracer = self._tracer
        self.bus.tracer = self._tracer

    # ------------------------------------------------------------ scheduling
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
        """Apply one command; ``False`` once the shard must stop.

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
    def _ingest_batch(self, command: tuple, received: float) -> None:
        _, vehicle_ids, segments, extras = command
        # Tick until none of these streams has a step waiting, so that the
        # points about to be buffered stack on nothing un-stepped.
        engine = self.engine
        while engine.step_waiting(vehicle_ids):
            engine.tick()
        if extras:
            # Traced rows go on re-stamped at their dequeue; everything else
            # reaches the engine as the columns the facade planned.
            observe = self._tracer.observe
            extras = {
                row: extra if extra[3] is None else
                (*extra[:3], observe("shard_queue", extra[3], received))
                for row, extra in extras.items()}
        engine.ingest_many(vehicle_ids, segments, extras)

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
        """Interpret one command; returns False when the shard must stop.

        An error stashed by an earlier fire-and-forget command preempts the
        reply of the next replied command, so failures surface at the
        caller instead of silently desynchronizing the shard.
        """
        kind = command[0]
        if kind == "ingest_batch":
            # The clock starts at receipt and covers the ticks the command
            # had to wait for (they run on engine.tick, not _tick).
            received = time.perf_counter()
            try:
                self._ingest_batch(command, received)
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
            # Synchronous results never ride the bus, so their finalize
            # traces end here — drained lest a later async finalize of a
            # reused vehicle id stamps a stale trace.
            engine.pop_finalize_traced()
            return "finalized", value
        if kind == "swap":
            self._quiesce()
            update = command[1]
            if isinstance(update, bytes):
                # The process facade pre-pickled the update once for the
                # whole broadcast (a delta or a full snapshot alike); each
                # worker unpickles its own copy, which doubles as the
                # per-shard isolation the in-process backend gets from
                # clone_snapshot.
                update = pickle.loads(update)
            apply_update(engine, update)
            if update.weights is not None:
                self._swaps += 1
            return "swapped", None
        if kind == "bus_replay":
            return "bus_replayed", self.bus.replay()
        if kind == "bus_stats":
            return "bus_stats", self.bus.stats()
        if kind == "obs":
            # Cumulative registry (the facade merges into a fresh registry
            # per call; a worker's rides home by pickle); spans drain.
            return "obs", (self._tracer.registry, self._tracer.take_spans())
        if kind == "stats":
            derivations = engine.history_snapshot.derivations
            return "stats", ShardStats(
                shard_id=self.shard_id,
                backend=self._backend,
                points_processed=engine.points_processed,
                ticks=engine.ticks,
                busy_seconds=self._busy_seconds,
                queue_depth=self._queued(),
                pending_points=engine.total_pending_points(),
                streams_open=len(engine.active_vehicles),
                streams_finalized=engine.streams_finalized,
                cache_hits=engine.cache.hits,
                cache_misses=engine.cache.misses,
                swaps=self._swaps,
                history_version=engine.history_version,
                history_refreshes=engine.history_refreshes,
                history_computed=derivations["computed"],
                history_extended=derivations["extended"],
            )
        return "error", ServiceError(f"unknown command {kind!r}")


# --------------------------------------------------------------- in-process
#: Replied commands that only read: the in-process transport answers them
#: beside the queue, so a scrape neither advances a shard nor empties the
#: queue whose depth it came to read.
_READ_ONLY = frozenset({"stats", "bus_stats", "obs"})


class InProcessBackend(ServiceBackend):
    """All shards in the calling process; deterministic, pump-driven.

    Per shard, a deque of command tuples beside a :class:`ShardCore` that
    replies into one list and publishes straight into ``arrived``.
    """

    name = "inprocess"

    def __init__(self, model, num_shards: int, queue_depth: int,
                 engine_overrides: Optional[dict] = None,
                 obs_options: Optional[dict] = None):
        super().__init__(num_shards)
        overrides = dict(engine_overrides or {})
        self._queue_depth = queue_depth
        self._replies: List[tuple] = []
        self._queues: List[Deque[tuple]] = [deque() for _ in range(num_shards)]
        self._cores = [
            ShardCore(shard_id, model.stream_engine(**overrides), self.name,
                      queue.__len__, self._replies.append,
                      self._arrived[shard_id].extend, obs_options)
            for shard_id, queue in enumerate(self._queues)]

    def _offer(self, shard: int, command: tuple) -> bool:
        queue = self._queues[shard]
        if len(queue) >= self._queue_depth:
            return False
        queue.append(command)
        return True

    def _run(self, shard: int) -> None:
        """Hand the shard's core everything queued, in order."""
        queue, handle = self._queues[shard], self._cores[shard].handle
        while queue:
            handle(queue.popleft())

    def _request(self, shard: int, command: tuple, expect: str):
        if command[0] not in _READ_ONLY:
            self._run(shard)
        self._cores[shard].handle(command)
        return self._payload(shard, command, self._replies.pop(), expect)

    def ack_results(self, shard: int, up_to_seq: int) -> None:
        # At once, not through the queue: see the module docstring.
        self._cores[shard].handle(("bus_ack", up_to_seq))

    def pump(self) -> int:
        advanced = 0
        for shard, core in enumerate(self._cores):
            before = core.engine.points_processed
            self._run(shard)
            core.idle()
            advanced += core.engine.points_processed - before
        return advanced

    def swap(self, update: ControlUpdate) -> None:
        # Quiesce first so every point already accepted is labeled by the old
        # weights/history — the same boundary the process backend's FIFO
        # guarantees. The history snapshot is cloned once for the whole
        # backend: in-process shard engines share a single pipeline (they
        # were built from one clone_model), so one clone both isolates the
        # backend from the caller's live snapshot (whose memo caches would
        # otherwise leak into serving, and vice versa) and keeps every
        # shard on the same object, exactly like at construction.
        # A delta-form update is applied once, to the snapshot that one
        # pipeline serves, for the same reason; a base-version mismatch is
        # rejected before any engine has repinned. Either form keeps the
        # one promise made here — serving shares no group map and no memo
        # with the caller: the successor's are the backend's own. The
        # appended trajectories are the caller's objects, shared the way
        # successive versions of the caller's history share them; no
        # history copies or mutates a trajectory, so a clone of the delta
        # would buy a second copy of each and nothing else (the full form's
        # copies are a by-product of stripping the memo by pickle).
        self.drain()
        if update.history is not None:
            update = update._replace(history=clone_snapshot(update.history))
        elif update.history_delta is not None:
            update = update._replace(
                history=apply_history_delta(
                    self._cores[0].engine.history_snapshot,
                    update.history_delta),
                history_delta=None)
        for shard in range(self.num_shards):
            self._request(shard, ("swap", update), "swapped")

    def close(self) -> None:
        self._cores = []
        self._queues = []


# ------------------------------------------------------------ multi-process
def _shard_worker(shard_id: int, blob: bytes, engine_overrides: dict,
                  commands, results, bus_writer,
                  obs_options: Optional[dict] = None) -> None:
    """Worker process main: rebuild the model from its pickled snapshot and
    run its :class:`ShardCore` until ``stop``, one command at a time."""
    engine = model_from_bytes(blob).stream_engine(**engine_overrides)
    core = ShardCore(shard_id, engine, ProcessBackend.name,
                     lambda: _safe_qsize(commands), results.put,
                     bus_writer.send, obs_options)
    while True:
        try:
            command = commands.get_nowait()
        except queue_module.Empty:
            if core.idle():
                continue
            command = commands.get()
        if not core.handle(command):
            return


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
        # publications would desync.
        self.bus, bus_writer = context.Pipe(duplex=False)
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


class ProcessBackend(ServiceBackend):
    """One OS process per shard, spawned from a pickled model snapshot."""

    name = "process"

    def __init__(self, blob: bytes, num_shards: int, queue_depth: int,
                 engine_overrides: Optional[dict] = None,
                 start_method: Optional[str] = None,
                 request_timeout_s: float = _REQUEST_TIMEOUT_S,
                 obs_options: Optional[dict] = None):
        import multiprocessing

        super().__init__(num_shards)
        context = multiprocessing.get_context(start_method)
        self._request_timeout_s = request_timeout_s
        self._shards = [
            _ProcessShard(shard_id, context, blob, dict(engine_overrides or {}),
                          queue_depth, obs_options)
            for shard_id in range(num_shards)
        ]
        self._closed = False

    # ------------------------------------------------- waiting on a worker
    def _read_bus(self, shard: int) -> None:
        """Move every batch the worker has written into ``arrived``.

        Never waits on an empty pipe. The pipe holds 64 KiB and the worker
        blocks on a full one, so every loop that waits on the worker calls
        this between attempts.
        """
        bus, arrived = self._shards[shard].bus, self._arrived[shard]
        try:
            while bus.poll():
                arrived.extend(bus.recv())
        except (EOFError, OSError):
            pass  # worker gone or pipe closed: the liveness checks say so

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
        self._read_bus(shard.shard_id)
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

    def _request(self, shard: int, command: tuple, expect: str):
        if self._closed:
            raise ServiceError("the detection service is closed")
        state = self._shards[shard]
        self._put(state, command, self._request_timeout_s)
        reply = self._reply(state, f"answer a {command[0]!r} request")
        return self._payload(shard, command, reply, expect)

    def _offer(self, shard: int, command: tuple) -> bool:
        # A refusal from a dead worker's queue is an error, not
        # backpressure: nothing will ever drain it.
        state = self._shards[shard]
        try:
            state.commands.put_nowait(command)
        except queue_module.Full:
            self._require_alive(state)
            return False
        return True

    def pump(self) -> int:
        # Workers tick themselves; what a waiting caller owes them is an
        # emptied bus pipe.
        for shard in range(self.num_shards):
            self._read_bus(shard)
        return 0

    def swap(self, update: ControlUpdate) -> None:
        # Broadcast first so shards swap concurrently, then await each ack.
        # Per-shard FIFO still guarantees every already-eligible point is
        # labeled by the old weights/history (the core quiesces before
        # loading). Every shard's reply is consumed before any error is
        # raised — an unread reply would answer that shard's *next* request
        # and desync the whole protocol. The update is pickled ONCE here
        # and shipped as bytes: mp.Queue would otherwise re-pickle the
        # whole payload per shard, which is exactly the O(shards × corpus)
        # cost that made full-snapshot history refreshes collapse at four
        # process shards.
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
                self._read_bus(shard.shard_id)
                shard.process.join(timeout=_WAIT_SLICE_S)
            if shard.process.is_alive():  # pragma: no cover - wedged worker
                shard.process.terminate()
                shard.process.join(timeout=_JOIN_TIMEOUT_S)
            shard.commands.close()
            shard.results.close()
            shard.bus.close()
