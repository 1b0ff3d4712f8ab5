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
  model blob (:func:`~repro.serve.checkpoint.model_to_bytes`) and joined to
  the facade by three one-way pipes, each with a single writer and no
  feeder thread: commands (the facade writes), replies and the results bus
  (the worker writes). A command is one length-prefixed plain-pickle frame
  (:func:`command_frame`), and a semaphore of ``queue_depth`` slots is the
  bound: the facade takes a slot without waiting — a refused slot is the
  backpressure, and a caller riding it out waits on the slots
  (:meth:`~ServiceBackend.wait_for_room`) — and writes the frame from its
  own thread into a non-blocking end; the worker's :class:`CommandReader`
  reads whatever the pipe holds in one go and frees a slot per command it
  takes. Each worker runs its core on its own clock, so shard compute
  overlaps with the caller's ingest loop and with every other shard —
  this is where multi-core throughput comes from.

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
flat lists, which pickle an order of magnitude smaller and faster than a
list of namedtuples, plus a sparse ``{index: (destination, start_time_s,
trajectory_id, trace)}`` for the few events that open a stream or carry a
trace (the facade's ``_plan_ingest`` builds them; :class:`IngestEvent`
stays the type callers hand the facade).

**Scheduling: a round at a time.** The core takes one command at a time and
never stacks a stream's next point on one that has not been stepped. Before
it applies an ``ingest_batch`` touching a stream with a step waiting
(:meth:`StreamEngine.step_waiting`) it ticks until that is no longer so —
one fleet-wide tick for a lockstep round, whether the round came as one
batch or as one batch per vehicle. On an empty queue
(:meth:`ShardCore.idle`) it ticks if anything waits; a worker process then
blocks reading its command pipe, an in-process ``pump`` returns. A worker
tells an empty queue from the count of taken slots (the one
``ShardStats.queue_depth`` reads: commands written or being written and
not yet taken, those read ahead included), not from the pipe, and takes a
counted command with :meth:`CommandReader.take`, which blocks until the
command's frame is whole: a command counted but still in flight is waited
for, not ticked past, which moves no label. What a
``finalize_async`` publishes to the results bus leaves for the facade
before the next command is taken. So the points a shard holds un-ticked
are at most one steppable point per stream,
the command in hand and ``queue_depth`` queued commands: a producer that
outruns the engine fills the *queue*, and has its batch refused (the
facade retries it), instead of growing the engine's per-stream buffers.
The rule paces both transports, so how many ticks a given ``pump()`` runs
is a transport detail; labels never depend on it.

**Results bus.** On top of the request/reply protocol every shard runs a
push-based result plane (:mod:`repro.serve.resultbus`): a ``finalize_async``
command is fire-and-forget — the shard finalizes the streams on its own
clock and *publishes* each :class:`~repro.core.detector.DetectionResult`
(or, on failure, one error envelope) to its :class:`~repro.serve.resultbus.
ShardResultBus`, and the core hands what was published to the transport
(``send_bus``) before it takes the next command. The in-process transport
appends its envelopes straight to the facade-side ``arrived`` buffer that
``take_results`` hands out from. The process transport ships it over a
dedicated per-shard one-way pipe, one message per batch (never the reply
pipe, whose one-reply-per-request pairing must stay undisturbed), which
the worker writes synchronously from its only thread, as it writes its
replies — a feeder thread would share the worker's core and interpreter
lock with the engine.
A message is one frame of :func:`~repro.serve.resultbus.pack_frame`, a
plain pickle in which a result is its route and its labels (seq, vehicle
id, trajectory id, segments, start time, labels, trace) and an error
envelope is itself; the facade's :func:`~repro.serve.resultbus.
unpack_frame` rebuilds each :class:`~repro.core.detector.DetectionResult`
with :func:`~repro.core.detector.route_result`, as the engine built it.
A full pipe (64 KiB) therefore blocks the worker, and only the facade can
unblock it: it reads the pipe into ``arrived`` wherever it waits on a
worker — ``take_results``, ``pump`` (which every retry loop of the service
calls), the wait for a slot, for a reply and between the partial writes of
a frame the command pipe cannot take whole (a full-history ``swap``, or
any command behind a full pipe), and ``close``. So the worker can never
stay blocked on a full bus pipe while the facade waits to write to it: a
command pipe is written into only by a facade that keeps reading the bus.
Envelopes stay in the shard's unacked window until the facade
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

import os
import pickle
import select
import struct
import time
from collections import deque
from typing import Deque, Hashable, List, NamedTuple, Optional, Sequence

from ..core.detector import DetectionResult
from ..core.stream import StreamEngine
from ..exceptions import ServiceError
from ..history import (HistoryDelta, HistorySnapshot,
                       apply_delta as apply_history_delta,
                       clone_snapshot)
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceContext, Tracer, timestamp as obs_timestamp
from .checkpoint import WeightsSnapshot, model_from_bytes
from .metrics import BusStats, ShardStats
from .resultbus import ResultEnvelope, ShardResultBus, pack_frame, unpack_frame

#: Seconds the service waits for a worker reply before declaring it dead.
_REQUEST_TIMEOUT_S = 120.0
#: Seconds between two looks at a worker the facade is waiting on (its
#: command slots are all taken, its command pipe is full, or its reply is
#: still to come); at each look the facade reads the shard's bus pipe and
#: checks the worker is alive.
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

    def wait_for_room(self, shard: int, timeout_s: float) -> None:
        """After a refusal a pump could not relieve: wait up to
        ``timeout_s`` for room in the shard's queue.

        Where only the caller's pumping frees room this is a plain sleep.
        """
        time.sleep(timeout_s)

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

        ``columns`` is the ``(vehicle_ids, segments, extras)`` triple of
        the module docstring. A batch occupies a *single* slot of
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
        for shard in range(self.num_shards):
            self._send_ack(shard)  # retry an ack an earlier full queue refused
            self._read_bus(shard)
        # Read all first: a dead worker's error then loses no envelope.
        envelopes: List[ResultEnvelope] = []
        for arrived in self._arrived:
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
class ShardCore:
    """One shard — engine, bus, tracer, counters — and the only
    interpreter of shard commands.

    ``handle`` and ``idle`` are its two moves (a command was taken / the
    queue is empty), which is all a test needs to drive the scheduling rule
    of the module docstring without a transport. ``reply`` and ``send_bus``
    are the two ways out: a worker's ``send_bytes`` of a pickled reply into
    its reply pipe and of a packed frame into its bus pipe (called from its
    one thread and therefore allowed to block on a full pipe), or an
    in-process list's ``append`` and the ``arrived`` buffer's ``extend``.
    ``backend`` names the transport in :class:`ShardStats`; ``queued()``
    reads its queue's length for them.
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
            # The facade let these vehicles go when it queued the close, so
            # the close must not leave their streams open here.
            engine.discard(vehicle_ids)
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
                cache_hits=engine.states.hits,
                cache_misses=engine.states.misses,
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
                 obs_options: Optional[dict] = None):
        super().__init__(num_shards)
        self._queue_depth = queue_depth
        self._replies: List[tuple] = []
        self._queues: List[Deque[tuple]] = [deque() for _ in range(num_shards)]
        self._cores = [
            ShardCore(shard_id, model.stream_engine(), self.name,
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


# ---------------------------------------------------------- the command pipe
#: A command frame's length prefix: the one ``Connection.recv_bytes`` reads.
_FRAME_HEADER = struct.Struct("!i")
#: Bytes one read of a command pipe asks for: a default pipe's capacity.
_READ_SIZE = 1 << 16


def command_frame(command: tuple) -> bytes:
    """One command as one frame of a shard's command pipe: a length prefix
    and a plain pickle."""
    body = pickle.dumps(command, pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(body)) + body


def write_frame(fd: int, frame: bytes, attend) -> None:
    """Write one whole frame into a non-blocking pipe.

    What does not fit is written as the reader empties the pipe; between
    attempts ``attend()`` runs (and may raise), so the writer keeps serving
    the reader it waits on. A pipe with no reader raises
    ``BrokenPipeError``.
    """
    view = memoryview(frame)
    writable = None
    while True:
        try:
            view = view[os.write(fd, view):]
        except BlockingIOError:
            pass
        if not view:
            return
        attend()
        if writable is None:
            writable = select.poll()
            writable.register(fd, select.POLLOUT)
        writable.poll(_WAIT_SLICE_S * 1e3)


class CommandReader:
    """The worker's end of a shard's command pipe and of its slots.

    ``take`` hands out one command at a time. With none read ahead it calls
    ``read``: one ``os.read`` of whatever the pipe holds, every complete
    frame decoded into a FIFO, a partial frame kept until its rest
    arrives. Each command taken frees the slot the facade took for it (one
    of ``depth``), so ``queued`` counts the commands written, or being
    written, and not yet taken — those read ahead included.
    """

    def __init__(self, connection, slots, depth: int):
        self._connection = connection  # owns the descriptor
        self._fd = connection.fileno()
        self._slots = slots
        self._depth = depth
        self._ahead: Deque[tuple] = deque()
        self._partial = bytearray()

    def queued(self) -> int:
        try:
            return self._depth - self._slots.get_value()
        except NotImplementedError:  # pragma: no cover - macOS
            return len(self._ahead)

    def take(self) -> tuple:
        """The next command, waited for if none is read ahead."""
        while not self._ahead:
            self.read()
        self._slots.release()
        return self._ahead.popleft()

    def read(self) -> None:
        """Read what the pipe holds (waiting for a first byte) and decode
        every frame it completes."""
        chunk = os.read(self._fd, _READ_SIZE)
        if not chunk:
            raise EOFError("the command pipe has no writer")
        buffer = self._partial
        buffer += chunk
        offset, end = 0, len(buffer)
        while end - offset >= _FRAME_HEADER.size:
            (size,) = _FRAME_HEADER.unpack_from(buffer, offset)
            start = offset + _FRAME_HEADER.size
            if start + size > end:
                break  # the rest of this frame is still on its way
            self._ahead.append(pickle.loads(buffer[start:start + size]))
            offset = start + size
        del buffer[:offset]


# ------------------------------------------------------------ multi-process
def _shard_worker(shard_id: int, blob: bytes, commands, slots,
                  queue_depth: int, replies, bus_writer,
                  obs_options: Optional[dict] = None) -> None:
    """Worker process main: rebuild the model from its pickled snapshot and
    run its :class:`ShardCore` until ``stop``, one command at a time."""
    engine = model_from_bytes(blob).stream_engine()
    reader = CommandReader(commands, slots, queue_depth)
    core = ShardCore(
        shard_id, engine, ProcessBackend.name, reader.queued,
        lambda reply: replies.send_bytes(
            pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)),
        lambda batch: bus_writer.send_bytes(pack_frame(batch)),
        obs_options)
    while True:
        # The count, not the pipe: a command counted but still on its way
        # is waited for, not ticked past.
        if not reader.queued() and core.idle():
            continue
        if not core.handle(reader.take()):
            return


def _worker_died(shard_id: int) -> ServiceError:
    return ServiceError(
        f"shard {shard_id} worker died; the service must be rebuilt "
        "(in-flight streams of that shard are lost)")


class _ProcessShard:
    """The facade's end of one shard worker: its process and its three
    one-way pipes, each with one writer."""

    def __init__(self, shard_id: int, context, blob: bytes, queue_depth: int,
                 obs_options: Optional[dict] = None):
        self.shard_id = shard_id
        # Commands: frames the facade writes from its own thread into a
        # non-blocking end, one of queue_depth slots taken per command.
        command_reader, self.commands = context.Pipe(duplex=False)
        os.set_blocking(self.commands.fileno(), False)
        self.slots = context.BoundedSemaphore(queue_depth)
        self.depth = queue_depth
        # Replies and the results *bus*: pipes the worker writes from its
        # only thread. Separate, because pushed publications would desync
        # the strict one-reply-per-request pairing of `replies`.
        self.replies, reply_writer = context.Pipe(duplex=False)
        self.bus, bus_writer = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_shard_worker,
            args=(shard_id, blob, command_reader, self.slots, queue_depth,
                  reply_writer, bus_writer, obs_options),
            daemon=True,
            name=f"repro-serve-shard-{shard_id}",
        )
        self.process.start()
        # The worker now holds the only read end of its commands and the
        # only write ends of the rest: its death reads as EPIPE or EOF.
        for end in (command_reader, reply_writer, bus_writer):
            end.close()


class ProcessBackend(ServiceBackend):
    """One OS process per shard, spawned from a pickled model snapshot."""

    name = "process"

    def __init__(self, blob: bytes, num_shards: int, queue_depth: int,
                 start_method: Optional[str] = None,
                 obs_options: Optional[dict] = None):
        import multiprocessing

        super().__init__(num_shards)
        context = multiprocessing.get_context(start_method)
        self._shards: List[_ProcessShard] = []
        self._closed = False
        try:
            for shard_id in range(num_shards):
                self._shards.append(_ProcessShard(
                    shard_id, context, blob, queue_depth, obs_options))
        except BaseException:
            # The workers already started each hold a model: stop them
            # rather than leave them to this process's exit.
            self.close()
            raise

    # ------------------------------------------------- waiting on a worker
    def _read_bus(self, shard: int) -> None:
        """Move every batch the worker has written into ``arrived``.

        Never waits on an empty pipe. The pipe holds 64 KiB and the worker
        blocks on a full one, so every loop that waits on the worker calls
        this between attempts. The worker holds the only write end: an end
        of file before :meth:`close` raises its death, after what it sent.
        """
        bus, arrived = self._shards[shard].bus, self._arrived[shard]
        try:
            while bus.poll():
                arrived.extend(unpack_frame(shard, bus.recv_bytes()))
        except (EOFError, OSError):
            if not self._closed:
                raise _worker_died(shard) from None

    def _require_alive(self, shard: "_ProcessShard") -> None:
        if not shard.process.is_alive():
            raise _worker_died(shard.shard_id)

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

    def _write(self, shard: "_ProcessShard", frame: bytes, kind: str,
               timeout_s: float) -> None:
        """Write one command frame into the shard's pipe, a slot taken.

        A pipe too full for the whole frame is waited out turn by turn (see
        :meth:`_attend`). A frame once started is finished, or the worker
        is ended: a frame cut short at the deadline would leave the pipe
        unreadable, so whatever follows reads as the worker's death.
        """
        deadline = time.monotonic() + timeout_s
        try:
            write_frame(shard.commands.fileno(), frame, lambda: self._attend(
                shard, deadline,
                f"read a {kind!r} command within {timeout_s:.0f}s"))
        except BrokenPipeError:
            raise _worker_died(shard.shard_id) from None
        except ServiceError:
            shard.process.kill()
            raise

    def _put(self, shard: "_ProcessShard", frame: bytes, kind: str,
             timeout_s: float) -> None:
        """Queue one command frame that must not be refused, riding out a
        full queue (never a blocking wait: see :meth:`_attend`)."""
        deadline = time.monotonic() + timeout_s
        while not shard.slots.acquire(timeout=_WAIT_SLICE_S):
            self._attend(shard, deadline,
                         f"take a {kind!r} command within {timeout_s:.0f}s")
        self._write(shard, frame, kind, timeout_s)

    def _reply(self, shard: "_ProcessShard", what: str) -> tuple:
        """Wait for a shard's next ``(kind, payload)`` reply; the worker
        holds the only write end, so an end of file is its death."""
        deadline = time.monotonic() + _REQUEST_TIMEOUT_S
        while not shard.replies.poll(_WAIT_SLICE_S):
            self._attend(shard, deadline,
                         f"{what} within {_REQUEST_TIMEOUT_S:.0f}s")
        try:
            return pickle.loads(shard.replies.recv_bytes())
        except (EOFError, OSError):
            raise _worker_died(shard.shard_id) from None

    def _request(self, shard: int, command: tuple, expect: str):
        if self._closed:
            raise ServiceError("the detection service is closed")
        state = self._shards[shard]
        self._put(state, command_frame(command), command[0],
                  _REQUEST_TIMEOUT_S)
        reply = self._reply(state, f"answer a {command[0]!r} request")
        return self._payload(shard, command, reply, expect)

    def _offer(self, shard: int, command: tuple) -> bool:
        # A refusal from a dead worker's slots is an error, not
        # backpressure: nothing will ever free one.
        state = self._shards[shard]
        if not state.slots.acquire(False):
            self._require_alive(state)
            return False
        self._write(state, command_frame(command), command[0],
                    _REQUEST_TIMEOUT_S)
        return True

    def wait_for_room(self, shard: int, timeout_s: float) -> None:
        # Woken by the worker, not by a clock, once it has taken half the
        # queue: the half still queued keeps it busy (a fixed sleep can
        # outlast the whole queue and idle it), and the half taken is
        # backlog the results queued behind it no longer wait out (a
        # producer let in at the first free slot keeps the queue full).
        state = self._shards[shard]
        deadline = time.monotonic() + timeout_s
        taken = 0
        while taken < max(1, state.depth // 2) and state.slots.acquire(
                True, max(0.0, deadline - time.monotonic())):
            taken += 1
        for _ in range(taken):
            state.slots.release()

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
        # and desync the whole protocol. The command is framed ONCE here and
        # the same bytes go to every shard: a frame per shard would pickle
        # the whole payload per shard, the O(shards × corpus) cost that made
        # full-snapshot history refreshes collapse at four process shards.
        # Each worker unpickles its own copy, the per-shard isolation the
        # in-process backend gets from clone_snapshot.
        frame = command_frame(("swap", update))
        first_error: Optional[BaseException] = None
        sent = []
        for shard in self._shards:
            try:
                self._put(shard, frame, "swap", _REQUEST_TIMEOUT_S)
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
        stop = command_frame(("stop",))
        for shard in self._shards:
            try:
                self._put(shard, stop, "stop", _STOP_TIMEOUT_S)
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
            shard.replies.close()
            shard.bus.close()
