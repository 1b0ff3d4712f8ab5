"""Fleet-scale batched streaming detection.

:class:`OnlineDetector` replays one completed trip at a time — no use for
the paper's motivating scenario of a ride-hailing platform watching an
entire fleet while it drives. :class:`StreamEngine` is the online form of
Algorithm 1: it multiplexes N concurrent vehicle streams over one RL4OASD
model, one point per stream and tick:

* **Batching tick.** Every stream buffers its newest GPS-matched segment;
  :meth:`StreamEngine.tick` gathers the pending next point of every active
  stream and pushes them through a *single* vectorized RSRNet + ASDNet
  forward pass (:meth:`RSRNet.step_batch` / :meth:`ASDNet.policy_logits_batch`),
  so the two LSTM matmuls and the policy matmul run once per tick instead of
  once per vehicle.
* **Per-stream state.** Each stream keeps exactly what Algorithm 1 needs
  incrementally: the LSTM hidden/cell state, the labels emitted so far (for
  RNEL and the policy's previous-label input), and the SD pair's normal-route
  transition set. Delayed labeling runs at :meth:`finalize`, through the
  detector's own :func:`~repro.core.detector.finish_labels`.
* **Work-proportional ticks.** The engine keeps the set of streams that have
  a point to step; a tick walks only that set, so an idle tick costs O(1)
  however many streams are open.
* **Segment features by token.** A segment id is translated to its
  vocabulary token once, at ingest — the translation *is* the check that
  rejects an unknown segment — and kept beside the segment. Everything per
  road segment after that is a table row by token: the LSTM input projection
  ``x_e @ W_in``, a function of the weights only, in a dense matrix sized by
  the vocabulary whose rows are computed on first touch and shared across
  the fleet (:class:`SegmentFeatureCache`; a tick gathers its batch with one
  fancy index), RNEL's in/out degrees in the pipeline's per-token lists.

**Label equivalence.** The engine is differential-tested to produce labels
identical to :class:`OnlineDetector`; both take every decision through
:mod:`repro.core.decision`. Two details make that possible:

1. A point is stepped and labeled only once the *next* point of its stream
   has arrived, which proves it is not the trip's destination — exactly the
   information Algorithm 1 consumes. The destination itself is never
   stepped: the endpoint rule forces its label and nothing reads its hidden
   state, so :meth:`finalize` labels it without a tick.
2. Normal routes are per SD pair, so the destination must be declared when
   the stream opens (in ride hailing it is: the rider entered it). Streams
   whose SD pair has no history — where the reference detector falls back to
   treating the trajectory's own route as normal — degrade to *deferred*
   mode, which splits the work where the model splits it. In
   ``z_i = [h_i ; x^n_i]`` the LSTM state ``h_i`` depends only on the road
   segments seen so far, so the *recurrence* of a deferred stream runs
   eagerly: its points ride the same batched ticks as everyone else's (LSTM
   step only) and each ``h_i`` is kept beside its buffered point. The
   *labeling* waits for :meth:`finalize`, when the full route — hence the
   normal routes, the NRFs and which point is the destination — is known,
   and is then one :func:`~repro.core.decision.label_route` over the stored
   states (the pass :class:`OnlineDetector` runs) instead of one tick per
   point.

A stream whose destination is *not* declared up front always runs deferred.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, List,
                    Mapping, Optional, Sequence, Set, Tuple, TYPE_CHECKING)

import numpy as np

from ..exceptions import ModelError
from ..history import HistorySnapshot
from ..labeling.features import PreprocessingPipeline
from ..obs.trace import TraceContext, timestamp as obs_timestamp
from ..trajectory.models import MatchedTrajectory
from ..trajectory.ops import split_by_labels
from ..trajectory.sdpairs import check_start_time
from .asdnet import ASDNet
from .decision import choose, label_route, policy_choices, rnel_from_degrees
from .detector import DetectionResult, finish_labels
from .rsrnet import RSRNet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .rl4oasd import RL4OASDModel


class SegmentFeatureCache:
    """The LSTM input projection of every road segment, one row per token.

    A dense ``(len(vocabulary), 4H)`` matrix — :attr:`nbytes` whatever the
    traffic, allocated zeroed so that a row no stream has crossed is never
    resident — filled on first touch: a row is computed the first time a
    tick steps its token and serves every stream until :meth:`clear` (the
    weights changed). ``hits`` and ``misses`` count one lookup per LSTM row
    stepped, a miss being a row computed; ``len()`` is the rows filled.
    """

    def __init__(self, tokens: int, width: int):
        self._projections = np.zeros((tokens, width))
        self._filled: Set[int] = set()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._filled)

    @property
    def nbytes(self) -> int:
        return self._projections.nbytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def gather(self, tokens: List[int],
               project: Callable[[int], np.ndarray]) -> np.ndarray:
        """The rows of ``tokens`` as one ``(len(tokens), 4H)`` matrix,
        ``project(token)`` filling those not computed yet."""
        filled = self._filled
        missing = (() if filled.issuperset(tokens)  # the common case
                   else set(tokens).difference(filled))
        for token in missing:
            self._projections[token] = project(token)
        filled.update(missing)
        self.misses += len(missing)
        self.hits += len(tokens) - len(missing)
        return self._projections[tokens]

    def clear(self) -> None:
        self._filled.clear()


#: ``(destination, start_time_s, trajectory_id, trace)`` of a plain row of
#: :meth:`StreamEngine.ingest_many` — only rows that differ ride ``extras``.
PLAIN_ROW = (None, 0.0, None, None)


@dataclass
class _StreamState:
    """Everything the engine tracks for one in-flight vehicle stream."""

    vehicle_id: Hashable
    trajectory_id: int
    start_time_s: float
    destination: Optional[int]
    slot: int
    history: Optional[HistorySnapshot] = None
    segments: List[int] = field(default_factory=list)
    # The vocabulary token of each segment, translated once at ingest.
    tokens: List[int] = field(default_factory=list)
    labels: List[int] = field(default_factory=list)
    # Points whose LSTM step has run. An online stream labels a point in the
    # tick that steps it (``stepped == len(labels)``); a deferred stream
    # steps ahead and has no labels until its finalize pass.
    stepped: int = 0
    normal_transitions: Optional[FrozenSet[Tuple[int, int]]] = None
    deferred: bool = False
    finalizing: bool = False
    # Deferred streams only: ``h_i`` of every stepped point, consumed by
    # the finalize labeling pass.
    hidden_states: List[np.ndarray] = field(default_factory=list)
    rng: Optional[np.random.Generator] = None
    # Sampled trace contexts riding this stream: (segment index, context)
    # pairs awaiting their tick, lazily allocated so untraced streams pay
    # one falsy attribute check per tick and nothing else.
    traces: Optional[List[Tuple[int, "TraceContext"]]] = None
    # Sticky id of the last sampled fix — keeps the finalize/bus stages
    # attributable after the per-point contexts have been consumed.
    trace_id: Optional[int] = None


class StreamEngine:
    """Batched online detection over many concurrent vehicle streams.

    Feed points with :meth:`ingest`, advance the fleet with :meth:`tick`
    (one batched forward pass labeling the pending point of every eligible
    stream), and close a trip with :meth:`finalize`, which returns the same
    :class:`DetectionResult` :class:`OnlineDetector` would for the whole trip.
    """

    def __init__(
        self,
        rsrnet: RSRNet,
        asdnet: ASDNet,
        pipeline: PreprocessingPipeline,
        use_rnel: bool = True,
        use_delayed_labeling: bool = True,
        delay_window: int = 8,
        greedy: bool = True,
        seed: int = 0,
    ):
        # With greedy=False every stream gets its own Generator seeded with
        # `seed`, so each trip samples exactly like a fresh
        # OnlineDetector(greedy=False, seed=seed) would — that is the
        # equivalence contract the differential tests pin down. It also means
        # same-route streams draw identical tapes; they are reproducible
        # replicas, not independent samples.
        self._rsrnet = rsrnet
        self._asdnet = asdnet
        self._pipeline = pipeline
        self._token_of = pipeline.vocabulary.token
        self._use_rnel = use_rnel
        self._delay_window = delay_window if use_delayed_labeling else None
        self._greedy = greedy
        self._seed = seed
        self._cache = SegmentFeatureCache(len(pipeline.vocabulary),
                                          4 * rsrnet.config.hidden_dim)
        self._streams: "OrderedDict[Hashable, _StreamState]" = OrderedDict()
        # The streams with a point to step right now, so a tick costs
        # O(rows) and an idle tick O(1). Nobody steps a destination: the
        # endpoint rule forces its label and nothing reads its hidden state.
        # An online stream labels a point in the tick that steps it, so its
        # newest point waits for a successor proving it is not the
        # destination. A deferred stream cannot tell yet and steps every
        # buffered point (the recurrence needs no label); once finalizing,
        # it too leaves its last point alone. Kept by ingest,
        # _begin_finalize, invalidate_cache and the end of a tick.
        self._ready: Dict[Hashable, _StreamState] = {}
        self._next_trajectory_id = 0
        self._hidden_dim = rsrnet.config.hidden_dim
        # Recurrent state lives in slot-indexed pools so a tick gathers and
        # writes back the whole batch with two fancy-indexing operations
        # instead of stacking per-stream vectors.
        self._capacity = 64
        self._hidden_pool = np.zeros((self._capacity, self._hidden_dim))
        self._cell_pool = np.zeros((self._capacity, self._hidden_dim))
        self._free_slots = list(range(self._capacity))
        # Lifetime counters surfaced by the serving layer's shard metrics.
        self.points_processed = 0
        self.ticks = 0
        self.streams_finalized = 0
        self.history_refreshes = 0
        # Optional repro.obs.Tracer the serving backends attach; the engine
        # never originates traces, it only observes contexts riding ingests.
        self.tracer = None
        self._finalize_traced: Dict[Hashable, int] = {}

    @classmethod
    def from_model(cls, model: "RL4OASDModel", **overrides) -> "StreamEngine":
        """An engine configured exactly like ``model.detector()``."""
        options = dict(
            use_rnel=model.training_config.use_rnel,
            use_delayed_labeling=model.training_config.use_delayed_labeling,
            delay_window=model.training_config.delayed_labeling_window,
        )
        options.update(overrides)
        return cls(model.rsrnet, model.asdnet, model.pipeline, **options)

    # ------------------------------------------------------------ properties
    @property
    def active_vehicles(self) -> List[Hashable]:
        return list(self._streams)

    @property
    def cache(self) -> SegmentFeatureCache:
        return self._cache

    @property
    def history_version(self) -> int:
        """Version of the snapshot newly opened streams resolve against."""
        return self._pipeline.history.version

    @property
    def history_snapshot(self) -> HistorySnapshot:
        """The snapshot newly opened streams resolve against.

        The base a delta-carrying control update is applied to: a shard
        worker combines this with a :class:`~repro.history.HistoryDelta`
        via :func:`~repro.history.apply_delta` and feeds the successor to
        :meth:`load_history`.
        """
        return self._pipeline.history

    def pending_points(self, vehicle_id: Hashable) -> int:
        """Points ingested but not yet labeled for one stream."""
        stream = self._stream(vehicle_id)
        return len(stream.segments) - len(stream.labels)

    def total_pending_points(self) -> int:
        """Points ingested but not yet labeled, across all active streams."""
        return sum(len(stream.segments) - len(stream.labels)
                   for stream in self._streams.values())

    def step_waiting(
            self, vehicle_ids: Optional[Iterable[Hashable]] = None) -> bool:
        """Whether the next :meth:`tick` has a point to step.

        With ``vehicle_ids``, whether it has one for any of *those* streams
        (ids without a stream count as not waiting). Read-only: a scheduler
        asks this before it buffers a stream's next point, so that it can
        tick first and never stack a second point on an un-stepped one.
        """
        if vehicle_ids is None:
            return bool(self._ready)
        return not self._ready.keys().isdisjoint(vehicle_ids)

    def invalidate_cache(self) -> None:
        """Drop everything derived from the weights (call after fine-tuning
        the model in place): the filled rows of the projection table and the
        hidden states deferred streams computed ahead of their labeling."""
        self._cache.clear()
        # A deferred stream is labeled wholly by the weights serving at its
        # finalize, so its recurrence starts over under the new ones.
        for stream in self._streams.values():
            if stream.deferred and stream.stepped:
                stream.stepped = 0
                stream.hidden_states.clear()
                self._hidden_pool[stream.slot] = 0.0
                self._cell_pool[stream.slot] = 0.0
                self._ready[stream.vehicle_id] = stream

    def load_weights(self, rsrnet_state: Dict[str, np.ndarray],
                     asdnet_state: Dict[str, np.ndarray]) -> None:
        """Hot-swap the model weights under the engine's active streams.

        Loads ``state_dict`` snapshots into both networks and invalidates the
        projection table (its filled rows embed the old weights). Online
        streams keep their recurrent state, emitted labels and buffered
        points, so in-flight trips keep running: points labeled before the
        swap keep their old-model labels, later points are labeled by the
        new model. Deferred streams have no labels yet; the hidden states
        they computed ahead are dropped and their recurrence re-steps from
        the first buffered point, so they are labeled wholly by the weights
        serving at their finalize. Both state dicts are validated before
        either is applied, so a mismatched snapshot leaves the engine fully
        on the old weights.
        """
        self._rsrnet.validate_state_dict(rsrnet_state)
        self._asdnet.validate_state_dict(asdnet_state)
        self._rsrnet.load_state_dict(rsrnet_state)
        self._asdnet.load_state_dict(asdnet_state)
        self.invalidate_cache()

    def load_history(self, snapshot: HistorySnapshot) -> None:
        """Hot-refresh the normal-route history under active streams.

        The history counterpart of :meth:`load_weights`, with the same
        quiesce discipline expected of callers: streams opened after this
        call resolve their normal routes (and, when deferred, their whole
        finalize-time labeling) against ``snapshot``; streams already in
        flight keep the snapshot they pinned when they opened, so their
        labels are exactly what the pre-refresh engine would have produced.
        The normal-route and statistics caches travel with the snapshot
        (keyed by history version by construction), so nothing stale
        survives; the projection table is *not* cleared — its rows depend
        only on the weights, never on history.
        """
        if not isinstance(snapshot, HistorySnapshot):
            raise ModelError(
                f"expected a HistorySnapshot, got {type(snapshot).__name__}")
        self._pipeline.load_history(snapshot)
        self.history_refreshes += 1

    # -------------------------------------------------------------- ingestion
    def ingest(
        self,
        vehicle_id: Hashable,
        segment: int,
        destination: Optional[int] = None,
        start_time_s: float = 0.0,
        trajectory_id: Optional[int] = None,
        trace: Optional[TraceContext] = None,
    ) -> None:
        """Record the newest map-matched segment of one vehicle's trip.

        The first ingest for an unknown ``vehicle_id`` opens the stream;
        ``destination`` / ``start_time_s`` / ``trajectory_id`` are only read
        then. Declaring the destination lets the stream be labeled online,
        point by point; without it the stream runs in deferred mode: the
        point's LSTM step still rides the next batched :meth:`tick`, its
        label waits for the one-pass labeling at :meth:`finalize`.

        Unknown segments are rejected here (``LabelingError``) before they
        enter the stream, so one vehicle's bad fix never poisons a batched
        tick for the rest of the fleet; so is an opening ``start_time_s``
        that is not a finite real number (``TrajectoryError``). This is
        :meth:`ingest_many` for a batch of one.
        """
        self.ingest_many(
            (vehicle_id,), (segment,),
            {0: (destination, start_time_s, trajectory_id, trace)})

    def ingest_many(
        self,
        vehicle_ids: Sequence[Hashable],
        segments: Sequence[int],
        extras: Optional[Mapping[int, tuple]] = None,
    ) -> None:
        """:meth:`ingest` over the columns of a batch, rows in order.

        ``vehicle_ids[row]`` reported ``segments[row]``; the sparse
        ``extras`` holds ``{row: (destination, start_time_s, trajectory_id,
        trace)}`` for the few rows that open a stream or carry a trace (the
        columns of the serving layer's ``ingest_batch`` command). A row that
        raises leaves the rows before it buffered and the rows from it on
        untouched.
        """
        token_of = self._token_of
        streams = self._streams
        ready = self._ready
        extra_of = (extras or {}).get
        for row, vehicle_id in enumerate(vehicle_ids):
            segment = segments[row]
            # The one translation of this segment: every later per-segment
            # lookup goes by token. Unknown segments raise here, at the door
            # (inside tick() one vehicle's bad fix would stall the fleet).
            token = token_of(segment)
            stream = streams.get(vehicle_id)
            extra = extra_of(row, PLAIN_ROW)
            if stream is None:
                stream = self._open(vehicle_id, segment, *extra[:3])
            elif stream.finalizing:
                raise ModelError(
                    f"stream {vehicle_id!r} is finalized; open a new stream")
            trace = extra[3]
            if trace is not None:
                if stream.traces is None:
                    stream.traces = []
                stream.trace_id = trace.trace_id
                stream.traces.append((len(stream.segments), trace))
            stream.segments.append(segment)
            stream.tokens.append(token)
            if stream.deferred or stream.stepped < len(stream.segments) - 1:
                ready[vehicle_id] = stream

    def _open(
        self,
        vehicle_id: Hashable,
        first_segment: int,
        destination: Optional[int],
        start_time_s: float,
        trajectory_id: Optional[int],
    ) -> _StreamState:
        # The opening fields are outside input: everything that can reject
        # them runs before the stream takes a slot of the state pool.
        check_start_time(start_time_s)
        # Pin the history at open: a hot refresh (load_history) must not
        # change this trip's labels mid-stream, so every later resolution
        # for this stream goes against the pinned snapshot.
        history = self._pipeline.history
        normal_transitions = None
        if destination is not None:
            self._token_of(destination)
            if history.has_pair(first_segment, destination):
                # Resolving through the pipeline keeps the snapshot's
                # normal-route cache in exactly the state a reference
                # detection would leave it.
                normal_transitions = self._pipeline.normal_transitions_for(
                    MatchedTrajectory(-1, [first_segment, destination],
                                      start_time_s=start_time_s),
                    history=history)
        if trajectory_id is None:
            trajectory_id = self._next_trajectory_id
        self._next_trajectory_id += 1
        stream = _StreamState(
            vehicle_id=vehicle_id,
            trajectory_id=trajectory_id,
            start_time_s=start_time_s,
            destination=destination,
            slot=self._allocate_slot(),
            history=history,
            normal_transitions=normal_transitions,
            # Without a declared destination, or without history for the SD
            # pair — where the reference falls back to treating the
            # trajectory's own route as normal, only known at finalize — the
            # stream runs deferred.
            deferred=normal_transitions is None,
        )
        if not self._greedy:
            stream.rng = np.random.default_rng(self._seed)
        self._streams[vehicle_id] = stream
        return stream

    def _allocate_slot(self) -> int:
        if not self._free_slots:
            grown = self._capacity * 2
            self._hidden_pool = np.vstack(
                [self._hidden_pool, np.zeros((self._capacity, self._hidden_dim))])
            self._cell_pool = np.vstack(
                [self._cell_pool, np.zeros((self._capacity, self._hidden_dim))])
            self._free_slots.extend(range(self._capacity, grown))
            self._capacity = grown
        slot = self._free_slots.pop()
        self._hidden_pool[slot] = 0.0
        self._cell_pool[slot] = 0.0
        return slot

    # ------------------------------------------------------------------ tick
    def tick(self) -> int:
        """Advance every stream that has a point to step, in one batch.

        Online streams label their pending next point; deferred streams only
        run the LSTM step of theirs — same batch, no NRF, policy or label —
        and keep the new hidden state for their finalize pass. Returns the
        number of points *labeled* (0 when nothing is eligible; an idle tick
        is O(1)). Each stream advances at most one point per tick, so a
        stream's labels never depend on how the fleet's arrivals interleave.
        A trip's destination never rides a tick: :meth:`finalize` labels it.
        """
        ready = self._ready
        if not ready:
            return 0
        in_degrees, out_degrees = self._pipeline.token_degrees()
        work: List[Tuple[_StreamState, int]] = []
        stepping: List[_StreamState] = []
        slots: List[int] = []
        # The token of each row's segment: its row of the projection table.
        rows: List[int] = []
        nrf_values: List[int] = []
        # The forced/RNEL label of each point, or ``None`` for the policy.
        labels: List[Optional[int]] = []
        for stream in ready.values():
            if stream.deferred:
                stepping.append(stream)
                continue
            index = stream.stepped
            tokens = stream.tokens
            if index == 0:
                # The source is normal by definition (and the destination
                # never gets here: the finalize pass labels it).
                nrf_values.append(0)
                labels.append(0)
            else:
                segments = stream.segments
                transition = (segments[index - 1], segments[index])
                nrf_values.append(
                    0 if transition in stream.normal_transitions else 1)
                labels.append(rnel_from_degrees(
                    out_degrees[tokens[index - 1]], in_degrees[tokens[index]],
                    stream.labels[-1]) if self._use_rnel else None)
            work.append((stream, index))
            slots.append(stream.slot)
            rows.append(tokens[index])
        # Step-only rows go last, so row numbers of the labeled rows index
        # ``z`` directly; their NRF is a placeholder nobody reads.
        for stream in stepping:
            slots.append(stream.slot)
            rows.append(stream.tokens[stream.stepped])
            nrf_values.append(0)

        z, new_hidden, new_cell = self._rsrnet.step_batch(
            self._hidden_pool[slots], self._cell_pool[slots],
            self._cache.gather(rows, self._rsrnet.input_projection),
            nrf_values)
        self._hidden_pool[slots] = new_hidden
        self._cell_pool[slots] = new_cell

        undecided = [row for row, label in enumerate(labels) if label is None]
        if undecided:
            choices = policy_choices(
                self._asdnet, z[undecided],
                [work[row][0].labels[-1] for row in undecided], self._greedy)
            for row, choice in zip(undecided, choices):
                labels[row] = choose(choice, work[row][0].rng)

        for label, (stream, index) in zip(labels, work):
            stream.labels.append(label)
            stream.stepped = index + 1
            if stream.traces:
                self._observe_tick(stream, index)
            if index + 2 >= len(stream.segments):
                del ready[stream.vehicle_id]
        for row, stream in enumerate(stepping, start=len(work)):
            # A copy, not a row view: a view would pin the whole batch's
            # array for as long as this one stream stays open.
            stream.hidden_states.append(new_hidden[row].copy())
            stream.stepped += 1
            waiting = len(stream.segments) - stream.stepped
            if waiting == 0 or (waiting == 1 and stream.finalizing):
                del ready[stream.vehicle_id]
        self.points_processed += len(work)
        self.ticks += 1
        return len(work)

    def _observe_tick(self, stream: _StreamState, index: int) -> None:
        """Close the ``engine_tick`` span of a just-labeled traced point."""
        tracer = self.tracer
        now = obs_timestamp()
        remaining = []
        for position, trace in stream.traces:
            if position > index:
                remaining.append((position, trace))
            elif tracer is not None:
                tracer.observe("engine_tick", trace, now)
        stream.traces = remaining or None

    # -------------------------------------------------------------- finalize
    def finalize(self, vehicle_id: Hashable) -> DetectionResult:
        """Close a stream: drain its remaining points, return the result.

        Draining runs through :meth:`tick`, so other eligible streams keep
        advancing (and batching) alongside the one being closed. To close
        several trips that finish together, prefer :meth:`finalize_many`,
        which drains them through shared (larger) batches. The destination
        needs no step, so a stream whose earlier points have all ticked —
        the usual case, online or deferred — closes with zero ticks: the
        online stream gets its forced last label, the deferred one its
        whole route in one vectorised pass.

        Labels and spans match :class:`OnlineDetector` exactly; the
        result's ``trajectory`` is reconstructed from the ingested points, so
        it carries no ground-truth labels or travel times (the engine never
        saw them — :func:`replay_fleet` reattaches the caller's originals).
        """
        return self.finalize_many([vehicle_id])[0]

    def finalize_many(
        self, vehicle_ids: Sequence[Hashable]
    ) -> List[DetectionResult]:
        """Close several streams at once, draining them in shared batches."""
        if len(set(vehicle_ids)) != len(vehicle_ids):
            raise ModelError("finalize_many got duplicate vehicle ids")
        streams = [self._stream(vehicle_id) for vehicle_id in vehicle_ids]
        traced = ([stream for stream in streams
                   if stream.trace_id is not None]
                  if self.tracer is not None else [])
        started = obs_timestamp() if traced else 0.0
        for stream in streams:
            self._check_finalizable(stream)
        for stream in streams:
            self._begin_finalize(stream)
        while any(stream.stepped < len(stream.segments) - 1
                  for stream in streams):
            if not self._ready:  # pragma: no cover - defensive
                raise ModelError("stream drain made no progress")
            self.tick()
        for stream in streams:
            self._label_rest(stream)
        results = [self._complete(stream) for stream in streams]
        if traced:
            # The drain ticks are shared by every closing stream, so each
            # traced stream is attributed the whole call's duration — the
            # latency its caller actually waited.
            now = obs_timestamp()
            for stream in traced:
                self.tracer.observe(
                    "finalize", TraceContext(stream.trace_id, started), now)
                self._finalize_traced[stream.vehicle_id] = stream.trace_id
        return results

    def pop_finalize_traced(self) -> Dict[Hashable, int]:
        """Drain ``{vehicle_id: trace_id}`` of traced streams finalized
        since the last call (the serving backends stamp their result-bus
        envelopes with these)."""
        traced, self._finalize_traced = self._finalize_traced, {}
        return traced

    def _check_finalizable(self, stream: _StreamState) -> None:
        if stream.finalizing:
            raise ModelError(
                f"stream {stream.vehicle_id!r} is already finalized")
        if (stream.destination is not None
                and stream.segments[-1] != stream.destination):
            # The stream stays open: the trip may simply not be over yet, so
            # the caller can keep ingesting until the destination is reached.
            raise ModelError(
                f"stream {stream.vehicle_id!r} declared destination "
                f"{stream.destination} but currently ends on segment "
                f"{stream.segments[-1]}; a declared destination must be the "
                "trip's final segment (normal routes were resolved for it)")

    def _begin_finalize(self, stream: _StreamState) -> None:
        stream.finalizing = True
        if stream.deferred:
            # The full route is now known, so resolve normal routes exactly
            # like the reference detector would (including the fall-back to
            # the trajectory's own route when the SD pair has no history, and
            # the pipeline-cache fill that goes with it).
            trajectory = MatchedTrajectory(
                stream.trajectory_id, list(stream.segments),
                start_time_s=stream.start_time_s)
            stream.normal_transitions = self._pipeline.normal_transitions_for(
                trajectory, history=stream.history)
        if stream.stepped >= len(stream.segments) - 1:
            # Only the destination is left, and nobody steps a destination.
            self._ready.pop(stream.vehicle_id, None)

    def _label_rest(self, stream: _StreamState) -> None:
        """The finalize pass: label what no tick labeled.

        For an online stream that is its destination, normal by definition.
        A deferred stream has no labels yet; its whole route is one
        :func:`label_route` over the hidden states its ticks stored — the
        decisions :meth:`tick` would have made one point at a time.
        """
        count = len(stream.segments)
        labeled = len(stream.labels)
        if stream.deferred:
            stream.labels = label_route(
                stream.segments, stream.hidden_states,
                stream.normal_transitions,
                (self._pipeline.rnel_degrees(stream.tokens)
                 if self._use_rnel else None),
                self._rsrnet, self._asdnet, stream.rng)
        else:
            stream.labels.append(0)
        if stream.traces:
            self._observe_tick(stream, count - 1)
        self.points_processed += count - labeled

    def _complete(self, stream: _StreamState) -> DetectionResult:
        del self._streams[stream.vehicle_id]
        self._free_slots.append(stream.slot)
        self.streams_finalized += 1
        labels = finish_labels(stream.labels, self._delay_window)
        trajectory = MatchedTrajectory(
            stream.trajectory_id, list(stream.segments),
            start_time_s=stream.start_time_s)
        return DetectionResult(
            trajectory=trajectory,
            labels=labels,
            subtrajectories=split_by_labels(trajectory, labels),
        )

    def _stream(self, vehicle_id: Hashable) -> _StreamState:
        try:
            return self._streams[vehicle_id]
        except KeyError:
            raise ModelError(f"no active stream for vehicle {vehicle_id!r}") from None


def replay_fleet(
    engine: StreamEngine,
    trajectories: Sequence[MatchedTrajectory],
    concurrency: int = 64,
) -> List[DetectionResult]:
    """Replay trajectories as a fleet of concurrent streams, in lockstep.

    Up to ``concurrency`` trips are in flight at once; each round ingests one
    point per active vehicle and runs one batched :meth:`StreamEngine.tick`.
    Finished trips are finalized (freeing their slot) and their results are
    returned in the input order. Each result carries the *original*
    trajectory object (the engine itself only ever sees raw points, so
    :meth:`StreamEngine.finalize` has to reconstruct one without ground-truth
    labels or travel times — here the caller's object is reattached).
    """
    if concurrency < 1:
        raise ModelError("concurrency must be positive")
    results: List[Optional[DetectionResult]] = [None] * len(trajectories)
    backlog = list(enumerate(trajectories))
    backlog.reverse()  # pop() from the end preserves input order
    active: Dict[int, Tuple[int, int]] = {}  # vehicle -> (result index, cursor)
    next_vehicle = 0
    while backlog or active:
        while backlog and len(active) < concurrency:
            index, trajectory = backlog.pop()
            vehicle = next_vehicle
            next_vehicle += 1
            engine.ingest(vehicle, trajectory.segments[0],
                          destination=trajectory.destination,
                          start_time_s=trajectory.start_time_s,
                          trajectory_id=trajectory.trajectory_id)
            active[vehicle] = (index, 1)
        finished: List[int] = []
        for vehicle, (index, cursor) in active.items():
            trajectory = trajectories[index]
            if cursor < len(trajectory.segments):
                engine.ingest(vehicle, trajectory.segments[cursor])
                active[vehicle] = (index, cursor + 1)
            else:
                finished.append(vehicle)
        engine.tick()
        if finished:
            for vehicle, result in zip(finished,
                                       engine.finalize_many(finished)):
                index, _ = active.pop(vehicle)
                result.trajectory = trajectories[index]
                results[index] = result
    return results  # type: ignore[return-value]
