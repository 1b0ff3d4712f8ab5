"""The sharded multi-worker detection service.

:class:`DetectionService` is the layer above
:class:`~repro.core.stream.StreamEngine`: where the engine multiplexes N
streams through one process's batched ticks, the service shards a whole
fleet across several engines — optionally one OS process each — behind a
single ingest facade:

* **Sharding.** Every vehicle id maps to a fixed shard
  (:func:`~repro.serve.sharding.shard_of`), so a stream's points always
  reach the same engine, in order. Labels are identical to one big engine
  (and therefore to :class:`~repro.core.detector.OnlineDetector`) no matter
  the shard count or backend — pinned by ``tests/test_serve.py``.
* **Backpressure-aware ingest.** Each shard's queue is bounded, in
  commands, and :meth:`DetectionService.ingest_many` is the one way in: it
  queues one batch per shard and never drops — a full queue is retried
  after :meth:`pump` (or a moment later, for the process backend whose
  workers run on their own clock) within a ``max_retries`` budget;
  ``max_retries=0`` is a non-blocking probe that refuses once. On either
  backend the queue is all the lead a producer can build: a shard steps a
  round before it buffers the next. :meth:`ingest_many` and
  :meth:`finalize_async` share that retry loop.
* **Snapshot isolation + hot-swap.** The service serves a *snapshot* of the
  model taken at construction (a deep clone in process memory, or a pickled
  blob shipped to worker processes). Callers keep fine-tuning their own
  model freely; :meth:`swap` pushes one atomic control-plane update — new
  weights, a new versioned normal-route history snapshot, or both — to
  every shard at a deterministic boundary, without dropping a single
  in-flight stream. Each
  point accepted before the swap is labeled by the old weights against the
  old history; streams opened after a history refresh label exactly like a
  service freshly built from the new snapshot, while streams in flight keep
  the snapshot they opened with until finalize.
* **Metrics.** :meth:`metrics` returns the fleet dashboard
  (:class:`~repro.serve.metrics.ServiceMetrics`): per-shard throughput,
  queue depth, prefix-state hit rate, swap counts.

* **Async result plane.** Beyond the synchronous request/reply calls, the
  service runs a push-based results bus (:mod:`repro.serve.resultbus`):
  :meth:`finalize_async` queues a fire-and-forget finalize marker on the
  stream's shard FIFO, the shard publishes the
  :class:`~repro.core.detector.DetectionResult` (sequence-numbered,
  at-least-once) and :meth:`poll_results` drains whole batches of finished
  work — no per-result round trip. This is what lets one driver multiplex
  thousands of sessions: :func:`serve_fleet` ingests per-round batches
  through :meth:`ingest_many` and collects completions off the bus.

:func:`serve_fleet` replays a trajectory workload through a service the way
:func:`~repro.core.stream.replay_fleet` replays it through one engine —
including the retry-on-backpressure discipline — and is what the
differential tests drive; it is label-identical to the
round-trip-per-call driver it replaced.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..config import ObsConfig
from ..core.detector import DetectionResult
from ..core.rl4oasd import RL4OASDModel
from ..core.stream import PLAIN_ROW
from ..exceptions import ServiceError
from ..history import (HistoryDelta, HistorySnapshot, RouteHistoryStore,
                       delta_to_bytes, merge_deltas, snapshot_to_bytes)
from ..labeling.features import PreprocessingPipeline
from ..obs.exposition import (MetricsServer, add_process_metrics,
                              render_prometheus)
from ..obs.registry import MetricsRegistry
from ..obs.trace import (STAGES, STAGE_LATENCY_METRIC, Span, Tracer,
                         timestamp as obs_timestamp)
from ..trajectory.models import MatchedTrajectory
from ..trajectory.sdpairs import check_start_time
from .backends import (ControlUpdate, IngestEvent, InProcessBackend,
                       ProcessBackend, ServiceBackend)
from .checkpoint import (WeightsSnapshot, clone_model, model_to_bytes,
                         weights_snapshot)
from .metrics import BusStats, ServiceMetrics, metrics_to_registry
from .resultbus import BusCollector, ResultEnvelope
from .sharding import shard_of


class DetectionService:
    """Shard a fleet of vehicle streams across worker detection engines."""

    def __init__(
        self,
        model: RL4OASDModel,
        num_shards: int = 2,
        backend: str = "inprocess",
        queue_depth: int = 256,
        start_method: Optional[str] = None,
        obs: Optional[ObsConfig] = None,
    ):
        if num_shards < 1:
            raise ServiceError("num_shards must be >= 1")
        if queue_depth < 1:
            raise ServiceError("queue_depth must be >= 1")
        # The caller's model is only read here (vocabulary checks at ingest,
        # architecture/shape checks before a swap is broadcast); the shards
        # serve an isolated snapshot taken right now.
        self._vocabulary = model.pipeline.vocabulary
        self._segment_tokens = self._vocabulary.segment_tokens
        self._labeling_config = model.pipeline.config
        self._rsrnet_template = model.rsrnet
        self._asdnet_template = model.asdnet
        self._num_shards = num_shards
        self._open: Dict[Hashable, int] = {}
        self._pending_results: Dict[Hashable, int] = {}  # vehicle -> shard
        self._collector = BusCollector(num_shards)
        # The facade's own counters; metrics() adds the shard and bus views.
        self._stats = ServiceMetrics(
            model_version=1, history_version=model.pipeline.history.version)
        # Delta control plane state: the last history version each shard
        # acknowledged (all shards start on the construction snapshot) and
        # the segments already proven to be in the serving vocabulary — the
        # vocabulary is immutable for the service's lifetime, so a segment
        # validated once never needs re-checking and a delta swap validates
        # only the segments the delta introduces.
        self._shard_history_acks: List[Optional[int]] = (
            [self._stats.history_version] * num_shards)
        self._validated_segments: set = set()
        self._closed = False
        # Observability is strictly opt-in: with no ObsConfig the facade
        # has no tracer and the ingest hot path pays a single `is None`
        # check. With one, the facade tracer *originates* sampled trace
        # contexts (shard tracers only observe) and the shard workers get
        # the span sizing via a plain picklable dict.
        self._obs = obs.validate() if obs is not None else None
        if self._obs is not None:
            self._tracer: Optional[Tracer] = Tracer(
                MetricsRegistry(),
                sample_rate=self._obs.trace_sample_rate, site="facade",
                keep_spans=self._obs.keep_spans,
                max_spans=self._obs.max_spans)
            obs_options = {"keep_spans": self._obs.keep_spans,
                           "max_spans": self._obs.max_spans}
        else:
            self._tracer = None
            obs_options = None
        self._span_buffer: List[Span] = []
        self._metrics_servers: List[MetricsServer] = []
        if backend == "inprocess":
            self._backend: ServiceBackend = InProcessBackend(
                clone_model(model), num_shards, queue_depth,
                obs_options=obs_options)
        elif backend == "process":
            self._backend = ProcessBackend(
                model_to_bytes(model), num_shards, queue_depth,
                start_method=start_method, obs_options=obs_options)
        else:
            raise ServiceError(
                f"unknown backend {backend!r}; use 'inprocess' or 'process'")

    # ------------------------------------------------------------ properties
    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def active_vehicles(self) -> List[Hashable]:
        return list(self._open)

    @property
    def model_version(self) -> int:
        """Bumped by every successful swap carrying weights."""
        return self._stats.model_version

    @property
    def history_version(self) -> int:
        """Version of the history snapshot the shards currently serve.

        The snapshot's own :attr:`~repro.history.HistorySnapshot.version`
        (it came out of the producer's
        :class:`~repro.history.RouteHistoryStore`), initially the version
        pinned by the model at construction and updated by every successful
        swap carrying history.
        """
        return self._stats.history_version

    @property
    def closed(self) -> bool:
        return self._closed

    def shard_for(self, vehicle_id: Hashable) -> int:
        # Hashing a vehicle id costs more than this branch; a single-shard
        # service (the common dev/bench shape) skips it entirely.
        if self._num_shards == 1:
            return 0
        return shard_of(vehicle_id, self._num_shards)

    # -------------------------------------------------------------- ingest
    def ingest_many(
        self,
        requests: Sequence[IngestEvent],
        max_retries: int = 10000,
        retry_wait_s: float = 0.0005,
    ) -> int:
        """Queue points as per-shard batches, riding out backpressure.

        The facade's one admission. ``requests`` are
        :class:`~repro.serve.backends.IngestEvent` tuples; as in
        :meth:`StreamEngine.ingest <repro.core.stream.StreamEngine.ingest>`
        the first event of a vehicle opens its stream and only its opening
        fields are read (later events of the same vehicle — even inside the
        same call — have them ignored). Events are validated up front
        (``LabelingError`` / ``TrajectoryError`` before anything is queued),
        grouped by shard *preserving per-vehicle order*, and each shard's
        group is queued as **one** batched command — on the process backend
        one IPC put per shard instead of one per point, which is what lets
        multi-shard ingest keep up with a fast producer (the raw-GPS
        gateway). A full shard queue is ridden out by :meth:`_deliver`, each
        shard getting its own ``max_retries`` budget; ``max_retries=0`` is
        the non-blocking probe (a full queue refuses once, nothing is queued
        or pumped). A shard's batch is all-or-nothing, so no partial
        delivery can reorder a stream. If a shard exhausts its budget a
        ``ServiceError`` is raised, but batches already queued to earlier
        shards *stay delivered* (their streams are tracked) — do not
        resubmit those events. Returns total retries used.
        """
        self._require_open_service()
        if not requests:
            return 0
        by_shard, openers = self._plan_ingest(requests)

        def delivered(shard: int, columns: tuple) -> None:
            self._stats.accepted_ingests += len(columns[0])
            self._stats.batched_ingests += 1
            # Track this shard's new streams immediately, so a failure on a
            # *later* shard cannot leave delivered streams untracked.
            for vehicle_id in openers.get(shard, ()):
                self._open[vehicle_id] = shard

        return self._deliver(
            by_shard, self._backend.ingest_batch, delivered, max_retries,
            retry_wait_s, "a batched ingest")

    def _plan_ingest(
        self, requests: Sequence[IngestEvent]
    ) -> Tuple[Dict[int, tuple], Dict[int, List[Hashable]]]:
        """The one admission of the facade: validate events (raising before
        anything is queued) and group them per shard, in stream order, as
        ``ingest_batch`` columns. The next point of an open stream — no
        trace, no opening fields, no tracer — is admitted inline by a
        membership test of its segment (the engine translates it); any
        other event goes through :meth:`_admit`."""
        segment_tokens = self._segment_tokens
        sampling = self._tracer is not None
        shard_of_open = self._open.get
        opening: Dict[Hashable, int] = {}
        by_shard: Dict[int, tuple] = {}
        openers: Dict[int, List[Hashable]] = {}
        for request in requests:
            if request.__class__ is not IngestEvent:
                request = IngestEvent(*request)
            (vehicle_id, segment, destination, start_time_s, trajectory_id,
             trace) = request
            shard = shard_of_open(vehicle_id)
            if shard is None:
                shard = opening.get(vehicle_id)
            extra = None
            if (shard is not None and destination is None and trace is None
                    and trajectory_id is None and start_time_s == 0.0
                    and not sampling):
                if segment not in segment_tokens:
                    self._vocabulary.token(segment)  # raises LabelingError
            else:
                request = self._admit(request, shard is None)
                if shard is None:
                    shard = opening[vehicle_id] = self.shard_for(vehicle_id)
                    openers.setdefault(shard, []).append(vehicle_id)
                extra = request[2:]
            columns = by_shard.get(shard)
            if columns is None:
                columns = by_shard[shard] = ([], [], {})
            if extra is not None and extra != PLAIN_ROW:
                columns[2][len(columns[1])] = extra
            columns[0].append(vehicle_id)
            columns[1].append(segment)
        return by_shard, openers

    def _deliver(self, by_shard: Dict[int, object], send, delivered,
                 max_retries: int, retry_wait_s: float, what: str) -> int:
        """Send each shard's batch all-or-nothing, riding out backpressure.

        The one retry loop of the facade. A refusal is counted
        (``rejected_ingests``); past ``max_retries`` refusals of one shard
        a ``ServiceError`` is raised, otherwise the service is pumped (which
        is what relieves an in-process queue) and, when pumping made no
        progress — the process backend drains on its own clock — the caller
        waits up to ``retry_wait_s`` for room
        (:meth:`~repro.serve.backends.ServiceBackend.wait_for_room`: a
        process shard wakes it once its worker has taken half the queue).
        A shard's batch is delivered exactly once; ``delivered`` runs right
        after each delivery, before any later shard can fail. Returns the
        refusals ridden out.
        """
        stats = self._stats
        rejected_before = stats.rejected_ingests
        for shard, batch in by_shard.items():
            refusals = 0
            while not send(shard, batch):
                stats.rejected_ingests += 1
                refusals += 1
                if refusals > max_retries:
                    raise ServiceError(
                        f"shard {shard} queue stayed full after "
                        f"{max_retries} retries of {what}")
                if self.pump() == 0:
                    self._backend.wait_for_room(shard, retry_wait_s)
            delivered(shard, batch)
        return stats.rejected_ingests - rejected_before

    def _admit(self, request: IngestEvent, opens: bool) -> IngestEvent:
        """Validate one point and normalize it to its queued event: the
        branch of :meth:`_plan_ingest` for an event that opens a stream
        (``opens``), carries a trace or opening fields, or meets a sampling
        tracer. An already-open stream's opening fields are stripped."""
        if request.segment not in self._segment_tokens:
            self._vocabulary.token(request.segment)  # raises LabelingError
        trace = request.trace
        if self._tracer is not None and trace is None:
            # Originate a sampled trace here (a gateway-stamped event keeps
            # its own): the shard measures `shard_queue` from this stamp.
            trace = self._tracer.sample(obs_timestamp())
        if not opens:
            if (request.destination is None and request.start_time_s == 0.0
                    and request.trajectory_id is None
                    and request.trace is trace):
                return request  # already normalized
            return IngestEvent(request.vehicle_id, request.segment,
                               None, 0.0, None, trace)
        if request.destination is not None:
            self._vocabulary.token(request.destination)
        check_start_time(request.start_time_s)  # TrajectoryError, likewise
        if trace is not request.trace:
            request = request._replace(trace=trace)
        return request

    # ------------------------------------------------------------- progress
    def pump(self) -> int:
        """Advance queued work opportunistically; returns points labeled.

        In-process shards only make progress inside ``pump`` (or ahead of
        a replied call — ``finalize``, ``drain``, ``swap`` — never inside
        :meth:`metrics`); process shards run continuously and report 0 here
        — for them a pump reads the result pipes, so that a caller riding
        out backpressure never leaves a worker blocked on a full one.
        """
        self._require_open_service()
        return self._backend.pump()

    def drain(self) -> None:
        """Block until every accepted point that *can* be labeled has been.

        Points of deferred streams (undeclared destination / no SD-pair
        history) stay unlabeled — they are only labelable at finalize. Their
        recurrence runs ahead in the same ticks (each buffered point keeps
        its LSTM hidden state), so finalize is left with one vectorised
        labeling pass; ``drain`` neither counts nor waits for those steps.
        """
        self._require_open_service()
        self._backend.drain()

    # ------------------------------------------------------------- finalize
    def finalize(self, vehicle_id: Hashable) -> DetectionResult:
        """Close one stream and return its detection result."""
        return self.finalize_many([vehicle_id])[0]

    def finalize_many(
        self, vehicle_ids: Sequence[Hashable]
    ) -> List[DetectionResult]:
        """Close several streams; results come back in the input order.

        Vehicles are grouped per shard so co-located streams drain through
        shared batched ticks. A failure (say, a declared destination the trip
        never reached) leaves that shard's streams open and untouched;
        streams of shards already processed *are* finalized — retry the
        failing vehicles individually after fixing the cause.
        """
        self._require_open_service()
        results: Dict[Hashable, DetectionResult] = {}
        for shard, vehicles in self._plan_close(
                vehicle_ids, "finalize_many").items():
            for vehicle_id, result in zip(
                    vehicles, self._backend.finalize(shard, vehicles)):
                results[vehicle_id] = result
                del self._open[vehicle_id]
        return [results[vehicle_id] for vehicle_id in vehicle_ids]

    # ---------------------------------------------------------- results bus
    def finalize_async(self, vehicle_ids: Sequence[Hashable],
                       max_retries: int = 10000,
                       retry_wait_s: float = 0.0005) -> int:
        """Queue stream closes fire-and-forget; results arrive over the bus.

        The push-based twin of :meth:`finalize_many`: instead of one
        blocking round trip per shard, each shard gets **one** queued
        finalize marker (FIFO with its pending ingest, so the close sees
        exactly the points queued before it — the same boundary the
        synchronous call observes) and publishes the
        :class:`~repro.core.detector.DetectionResult` of every stream to
        its results bus. Collect them with :meth:`poll_results` /
        :meth:`drain_results`. Validation (duplicates, unknown vehicles)
        happens here, synchronously; a shard-side failure — say a declared
        destination the trip never reached — arrives as one ``"error"``
        envelope carrying the exception, and the shard drops that batch's
        streams: unlike :meth:`finalize_many`, an async close always
        closes, so a later trip under the same id opens a fresh stream.
        The vehicles move from *open* to *pending* immediately
        (:attr:`results_pending`); a full shard queue is ridden out by
        :meth:`_deliver`, as for :meth:`ingest_many`. Returns retries used.
        """
        self._require_open_service()
        by_shard = self._plan_close(vehicle_ids, "finalize_async")

        def delivered(shard: int, ids: List[Hashable]) -> None:
            self._stats.async_finalizes += 1
            for vehicle_id in ids:
                del self._open[vehicle_id]
                self._pending_results[vehicle_id] = shard

        return self._deliver(
            by_shard, self._backend.finalize_async, delivered,
            max_retries, retry_wait_s, "an async finalize")

    def _plan_close(self, vehicle_ids: Sequence[Hashable],
                    verb: str) -> Dict[int, List[Hashable]]:
        """Validate streams to close and group them per shard, in order.

        Shared by :meth:`finalize_many` and :meth:`finalize_async`, whose
        name ``verb`` puts in the error text: duplicate ids and vehicles
        without an open stream are refused before anything is sent.
        """
        if len(set(vehicle_ids)) != len(vehicle_ids):
            raise ServiceError(f"{verb} got duplicate vehicle ids")
        unknown = [v for v in vehicle_ids if v not in self._open]
        if unknown:
            raise ServiceError(f"no active stream for vehicles {unknown!r}")
        by_shard: Dict[int, List[Hashable]] = {}
        for vehicle_id in vehicle_ids:
            by_shard.setdefault(self._open[vehicle_id], []).append(vehicle_id)
        return by_shard

    @property
    def results_pending(self) -> int:
        """Streams finalized asynchronously whose result has not arrived."""
        return len(self._pending_results)

    def poll_results(self,
                     max_items: Optional[int] = None) -> List[ResultEnvelope]:
        """Drain the results bus once, without blocking.

        Returns the *newly accepted* envelopes, in per-shard sequence order
        — at-least-once redeliveries are dropped here (dedup by sequence
        number), and each shard's retention window is acknowledged up to
        the highest sequence accepted, so the bus backlog stays bounded by
        what is genuinely in flight. ``"result"`` envelopes carry one
        :class:`~repro.core.detector.DetectionResult` keyed by vehicle id;
        ``"error"`` envelopes carry a shard-side exception (the caller
        decides whether to raise). At most ``max_items`` envelopes are
        handed out; the rest keep, in order, for the next call. In-process
        shards only publish while pumped — call :meth:`pump` (or let the
        driver) before polling.
        """
        self._require_open_service()
        accepted = self._collector.offer(self._backend.take_results(max_items))
        if not accepted:
            return accepted
        if self._tracer is not None:
            now = obs_timestamp()
            for envelope in accepted:
                if envelope.trace is not None:
                    self._tracer.observe("bus_drain", envelope.trace, now)
        acks: Dict[int, int] = {}
        for envelope in accepted:
            if envelope.kind == "result":
                self._pending_results.pop(envelope.key, None)
            elif envelope.kind == "error":
                for vehicle_id in envelope.key:
                    self._pending_results.pop(vehicle_id, None)
            acks[envelope.shard_id] = envelope.seq
        for shard, seq in acks.items():
            self._backend.ack_results(shard, seq)
        return accepted

    def drain_results(self, timeout_s: float = 120.0,
                      poll_wait_s: float = 0.0005) -> List[ResultEnvelope]:
        """Pump and poll until every pending async finalize has reported.

        Returns every envelope accepted along the way. Raises
        :class:`ServiceError` if results stop arriving before ``timeout_s``
        of no progress.
        """
        self._require_open_service()
        collected = list(self.poll_results())
        deadline = time.perf_counter() + timeout_s
        while self._pending_results:
            self.pump()
            arrived = self.poll_results()
            if arrived:
                collected.extend(arrived)
                deadline = time.perf_counter() + timeout_s
                continue
            if time.perf_counter() > deadline:
                raise ServiceError(
                    f"{len(self._pending_results)} async finalize result(s) "
                    f"did not arrive within {timeout_s:.0f}s")
            time.sleep(poll_wait_s)
        return collected

    def replay_results(self) -> int:
        """Force redelivery of every unacknowledged envelope (all shards).

        The at-least-once recovery lever (and the fault-injection hook the
        fuzz suite leans on): whatever was taken off a shard bus but never
        acknowledged is re-queued and will be handed out again by the next
        :meth:`poll_results` — which drops the copies it already accepted.
        Returns the number of envelopes re-queued.
        """
        self._require_open_service()
        return self._backend.replay_results()

    def bus_stats(self) -> List[BusStats]:
        """Every shard's results-bus counters, in shard order."""
        self._require_open_service()
        return self._backend.bus_stats()

    # ------------------------------------------------------------- hot swap
    def swap(
        self,
        weights: Optional[Union[RL4OASDModel, WeightsSnapshot]] = None,
        history: Optional[Union[RL4OASDModel, PreprocessingPipeline,
                                RouteHistoryStore, HistorySnapshot]] = None,
    ) -> Tuple[int, int]:
        """One atomic control-plane update: new weights, new history, or both.

        Everything is validated at this facade *before* anything is
        broadcast, so a mismatched payload cannot leave the fleet on mixed
        state; each shard then applies the whole update at one quiescent
        boundary — every point already eligible for labeling when this is
        called is labeled by the old weights against the old history, and
        "new weights + new history" can never be observed half-applied.
        In-flight streams survive both halves: recurrent state and emitted
        labels carry across a weight swap, and each stream keeps the history
        snapshot it *opened* with until it finalizes (so a deferred stream
        finalized after a refresh still labels exactly like the pre-refresh
        service — the quiesce discipline of the weight hot-swap, extended to
        history).

        ``weights`` accepts a fine-tuned :class:`RL4OASDModel` or a prebuilt
        :func:`~repro.serve.checkpoint.weights_snapshot`; ``history``
        accepts a :class:`~repro.history.HistorySnapshot`, the
        :class:`~repro.history.RouteHistoryStore` / pipeline / model that
        holds one. Returns ``(model_version, history_version)`` after the
        update.

        **Delta form.** When every shard is known to hold the delta's base
        version — tracked per shard across successful swaps — and the
        producer's store (pass the store / pipeline / model, not a bare
        snapshot) still holds a contiguous delta chain from that base, the
        history rides as a :class:`~repro.history.HistoryDelta` of only the
        appended trajectories instead of the full corpus. Any gap
        (restarted producer, rebuilt history, a shard that missed a swap,
        an earlier failed broadcast) silently falls back to the
        full-snapshot form — the delta plane is an optimization, never a
        correctness dependency. :meth:`metrics` counts the chosen form
        (``delta_swaps`` / ``full_swaps``) and the serialized history
        payload bytes (``swap_payload_bytes``).
        """
        self._require_open_service()
        if weights is None and history is None:
            raise ServiceError("swap needs new weights, new history, or both")
        snapshot: Optional[WeightsSnapshot] = None
        if weights is not None:
            snapshot = (weights_snapshot(weights)
                        if isinstance(weights, RL4OASDModel) else weights)
            if set(snapshot) != {"rsrnet", "asdnet"}:
                raise ServiceError(
                    "a weights snapshot needs exactly the keys "
                    "'rsrnet' and 'asdnet'")
            # Shape-check against the serving architecture before
            # broadcasting: a worker-side rejection after a partial
            # broadcast is exactly the mixed-weights hazard this call
            # promises to avoid.
            self._rsrnet_template.validate_state_dict(snapshot["rsrnet"])
            self._asdnet_template.validate_state_dict(snapshot["asdnet"])
        history_snapshot: Optional[HistorySnapshot] = None
        delta: Optional[HistoryDelta] = None
        if history is not None:
            history_snapshot, store = self._coerce_history(history)
            delta = self._plan_history_delta(history_snapshot, store)
            self._validate_history_segments(history_snapshot, delta)
        update = ControlUpdate(
            weights=snapshot,
            history=None if delta is not None else history_snapshot,
            history_delta=delta)
        try:
            self._backend.swap(update)
        except BaseException:
            if history_snapshot is not None:
                # The broadcast may have landed on some shards and not
                # others; until a full-snapshot swap succeeds again we no
                # longer know what any shard serves, so the delta path
                # must stay off.
                self._shard_history_acks = [None] * self._num_shards
            raise
        stats = self._stats
        if snapshot is not None:
            stats.model_version += 1
        if history_snapshot is not None:
            stats.history_version = history_snapshot.version
            stats.history_refreshes += 1
            self._shard_history_acks = (
                [history_snapshot.version] * self._num_shards)
            if delta is not None:
                stats.delta_swaps += 1
                stats.swap_payload_bytes += len(delta_to_bytes(delta))
            else:
                stats.full_swaps += 1
                stats.swap_payload_bytes += len(
                    snapshot_to_bytes(history_snapshot))
        return stats.model_version, stats.history_version

    def _coerce_history(
        self, history
    ) -> Tuple[HistorySnapshot, Optional[RouteHistoryStore]]:
        """Resolve a swap's history argument to ``(snapshot, store)``.

        The store (when the caller passed one, directly or via a model /
        pipeline) is what the delta planner asks for a chain from the
        shards' acked base; a bare snapshot has no store, so it can at
        best ride its own single-step ``origin_delta``.
        """
        store: Optional[RouteHistoryStore] = None
        if isinstance(history, RL4OASDModel):
            history = history.pipeline
        if isinstance(history, PreprocessingPipeline):
            store = history.store
            history = history.history
        if isinstance(history, RouteHistoryStore):
            store = history
            history = history.current()
        if not isinstance(history, HistorySnapshot):
            raise ServiceError(
                "history must be a HistorySnapshot (or a model / pipeline / "
                f"RouteHistoryStore holding one), got {type(history).__name__}")
        if history.slots_per_day != self._labeling_config.time_slots_per_day:
            raise ServiceError(
                f"history snapshot uses {history.slots_per_day} time slots "
                f"per day but the service was built for "
                f"{self._labeling_config.time_slots_per_day}")
        return history, store

    def _plan_history_delta(
        self, snapshot: HistorySnapshot,
        store: Optional[RouteHistoryStore]
    ) -> Optional[HistoryDelta]:
        """The delta to broadcast instead of ``snapshot``, if one is safe.

        Safe means: every shard acknowledged the *same* base version (a
        ``None`` ack — a failed earlier broadcast — disqualifies the whole
        fleet), the base precedes the target, and a contiguous chain from
        base to target still exists — in the producer's store log or, for
        a store-less snapshot one step ahead, as its own
        :attr:`~repro.history.HistorySnapshot.origin_delta`. Returns
        ``None`` otherwise: the caller falls back to the full snapshot.
        """
        acks = set(self._shard_history_acks)
        if len(acks) != 1:
            return None
        base = acks.pop()
        if base is None or base >= snapshot.version:
            return None
        if store is not None:
            chain = store.delta_chain(base, snapshot.version)
            if chain:
                return chain[0] if len(chain) == 1 else merge_deltas(chain)
        origin = snapshot.origin_delta
        if origin is not None and origin.base_version == base:
            return origin
        return None

    def _validate_history_segments(
        self, snapshot: HistorySnapshot,
        delta: Optional[HistoryDelta]
    ) -> None:
        """Fail fast on segments the serving vocabulary cannot express: a
        worker would only trip over them lazily, at some later stream's
        normal-route resolution — long after a partial broadcast. Validated
        segments are cached (the vocabulary never changes), so a delta swap
        checks only the segments of the trajectories it appends instead of
        walking the whole corpus — the O(corpus) scan that used to dominate
        small refreshes.
        """
        universe = (delta.segment_universe() if delta is not None
                    else snapshot.segment_universe())
        fresh = universe - self._validated_segments
        for segment in fresh:
            self._vocabulary.token(segment)
        self._validated_segments |= fresh

    # -------------------------------------------------------------- metrics
    def metrics(self) -> ServiceMetrics:
        """A point-in-time fleet dashboard (see :class:`ServiceMetrics`)."""
        self._require_open_service()
        return dataclasses.replace(
            self._stats,
            shards=self._backend.stats(),
            bus=self._backend.bus_stats(),
            results_delivered=self._collector.accepted,
            results_duplicates=self._collector.duplicates,
            results_pending=len(self._pending_results),
            results_gaps=self._collector.gaps)

    # -------------------------------------------------------- observability
    @property
    def tracer(self) -> Optional[Tracer]:
        """The facade's trace sampler (``None`` when built without obs).

        Shared with a :class:`~repro.ingest.GpsGateway` fronting this
        service, so one sampling decision covers a fix's whole journey.
        """
        return self._tracer

    def obs_registry(self) -> MetricsRegistry:
        """Stage-latency metrics merged across the facade and every shard.

        A *fresh* registry per call (merging two snapshots of the same
        live registry would double-count), holding the
        ``repro_stage_latency_seconds`` histograms and whatever else the
        tracers recorded. Spans drained from the shards along the way are
        retained for the next :meth:`drain_spans`.
        """
        self._require_open_service()
        merged = MetricsRegistry()
        if self._tracer is not None:
            merged.merge(self._tracer.registry)
        for registry, spans in self._backend.obs_snapshot():
            merged.merge(registry)
            if spans:
                self._span_buffer.extend(spans)
        limit = self._obs.max_spans if self._obs is not None else 10_000
        if len(self._span_buffer) > limit:
            del self._span_buffer[:len(self._span_buffer) - limit]
        return merged

    def stage_latency(self, stage: str):
        """One pipeline stage's latency as an :class:`~repro.eval.timing.
        LatencyReport` (histogram-backed: p50/p95/p99 are conservative
        bucket bounds, mean and max exact)."""
        from ..eval.timing import LatencyReport

        if stage not in STAGES:
            raise ServiceError(
                f"unknown stage {stage!r}; stages are {', '.join(STAGES)}")
        histogram = self.obs_registry().histogram(STAGE_LATENCY_METRIC,
                                                 {"stage": stage})
        return LatencyReport.from_histogram(f"{stage} latency", histogram,
                                            unit="s")

    def drain_spans(self) -> List[Span]:
        """Every recorded trace span (facade + shards), drained.

        Each span is returned exactly once across repeated calls; pair
        with :func:`repro.obs.write_spans_jsonl`.
        """
        self._require_open_service()
        spans = self._span_buffer
        self._span_buffer = []
        if self._tracer is not None:
            spans.extend(self._tracer.take_spans())
        for _, shard_spans in self._backend.obs_snapshot():
            spans.extend(shard_spans)
        return spans

    def metrics_text(self) -> str:
        """The whole dashboard in Prometheus text exposition format.

        Stage-latency histograms from :meth:`obs_registry` plus a
        registry view of :meth:`metrics` (same counters the ``format()``
        report prints, so the two can never disagree). Works with or
        without an :class:`~repro.config.ObsConfig` — without one the
        histograms are simply absent.
        """
        registry = self.obs_registry()
        metrics_to_registry(self.metrics(), registry)
        add_process_metrics(registry)
        return render_prometheus(registry)

    def start_metrics_server(self, host: str = "127.0.0.1",
                             port: int = 0) -> MetricsServer:
        """Serve :meth:`metrics_text` on an HTTP ``/metrics`` endpoint.

        Port 0 picks a free port (read it back from ``.port``). The
        server is closed with the service; close it earlier via its own
        ``close()`` / context manager if you prefer.
        """
        self._require_open_service()
        server = MetricsServer(self.metrics_text, host=host, port=port)
        self._metrics_servers.append(server)
        return server

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut the backend down; idempotent. In-flight streams are lost."""
        if not self._closed:
            self._closed = True
            for server in self._metrics_servers:
                server.close()
            self._metrics_servers = []
            self._backend.close()

    def __enter__(self) -> "DetectionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open_service(self) -> None:
        if self._closed:
            raise ServiceError("the detection service is closed")


def serve_fleet(
    service: DetectionService,
    trajectories: Sequence[MatchedTrajectory],
    concurrency: int = 64,
    max_retries: int = 10000,
) -> List[DetectionResult]:
    """Replay trajectories through a service as one fleet driver.

    The service-side twin of :func:`~repro.core.stream.replay_fleet`, built
    on the amortized paths end to end: up to ``concurrency`` trips in
    flight, each round's points (openers included) delivered as **one**
    :meth:`~DetectionService.ingest_many` call — per-shard batches, one
    queue/IPC message each — finished trips closed fire-and-forget
    through :meth:`~DetectionService.finalize_async`, and completions
    collected off the results bus with :meth:`~DetectionService.
    poll_results`, so no finalize ever blocks the ingest loop. Backpressure
    is ridden out with the shared retry discipline; a bounded queue slows
    the replay down but never loses a stream. Results arrive in input
    order (label-identical to the engine replay) and carry the caller's
    original trajectory objects; a shard-side finalize failure is raised
    here.
    """
    if concurrency < 1:
        raise ServiceError("concurrency must be positive")
    results: List[Optional[DetectionResult]] = [None] * len(trajectories)
    backlog = list(enumerate(trajectories))
    backlog.reverse()  # pop() from the end preserves input order
    active: Dict[int, Tuple[int, int]] = {}  # vehicle -> (result index, cursor)
    owner: Dict[int, int] = {}               # vehicle -> index, until result
    outstanding = 0
    next_vehicle = 0
    while backlog or active or outstanding:
        events: List[IngestEvent] = []
        while backlog and len(active) < concurrency:
            index, trajectory = backlog.pop()
            vehicle = next_vehicle
            next_vehicle += 1
            events.append(IngestEvent(
                vehicle, trajectory.segments[0], trajectory.destination,
                trajectory.start_time_s, trajectory.trajectory_id))
            active[vehicle] = (index, 1)
            owner[vehicle] = index
        finished: List[int] = []
        for vehicle, (index, cursor) in active.items():
            segments = trajectories[index].segments
            if cursor < len(segments):
                events.append(IngestEvent(vehicle, segments[cursor]))
                active[vehicle] = (index, cursor + 1)
            else:
                finished.append(vehicle)
        if events:
            service.ingest_many(events, max_retries=max_retries)
        if finished:
            for vehicle in finished:
                del active[vehicle]
            service.finalize_async(finished, max_retries=max_retries)
            outstanding += len(finished)
        service.pump()
        arrived = service.poll_results()
        for envelope in arrived:
            if envelope.kind == "error":
                raise envelope.payload
            index = owner.pop(envelope.key)
            result: DetectionResult = envelope.payload
            result.trajectory = trajectories[index]
            results[index] = result
            outstanding -= 1
        if not (events or arrived):
            # Only waiting on shards (process backend workers finalize on
            # their own clock): idle briefly instead of spinning the poll.
            time.sleep(0.0005)
    return results  # type: ignore[return-value]
