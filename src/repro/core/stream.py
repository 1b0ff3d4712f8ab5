"""Fleet-scale batched streaming detection.

:class:`OnlineDetector` replays one completed trip at a time — no use for
the paper's motivating scenario of a ride-hailing platform watching an
entire fleet while it drives. :class:`StreamEngine` is the online form of
Algorithm 1: it multiplexes N concurrent vehicle streams over one RL4OASD
model, one point per stream and tick:

* **Batching tick.** Every stream buffers its newest GPS-matched segment;
  :meth:`StreamEngine.tick` makes one pass over the pending next point of
  every active stream. A point whose LSTM state is stored and whose label
  is fixed or already decided is applied in that pass, with no numpy work;
  for the rest the tick computes the states it lacks in *one* batched cell
  step and runs *one* ASDNet policy pass over the choices it lacks, so the
  matmuls run once per tick instead of once per vehicle.
* **Prefix states.** ``h_i`` is a pure function of the weights and the
  route's prefix ``0 … i``, and an SD pair's trips drive a few routes, so
  the engine keeps one :class:`PrefixStates` table for the fleet: a tick
  looks every point up by ``(row of the state before, token)`` and computes
  only the misses, each once. The NRF input and the previous label are one
  bit each, so the policy's greedy choice is memoized beside the row, per
  ``(row, NRF bit, previous label)``: the policy runs only on keys no
  earlier tick or finalize decided. A weight change
  (``rsrnet.weights_version``) or the row bound compacts the table to the
  rows live streams hold and drops every choice; a new
  ``asdnet.weights_version`` drops the choices alone.
* **Per-stream state.** Each stream keeps exactly what Algorithm 1 needs
  incrementally: its row of the prefix-state table, the labels emitted so
  far (for RNEL and the policy's previous-label input), and the SD pair's
  normal-route transition set. Delayed labeling runs at :meth:`finalize`,
  through the detector's own :func:`~repro.core.detector.finish_labels`.
* **Work-proportional ticks.** The engine keeps the set of streams that have
  a point to step; a tick walks only that set, so an idle tick costs O(1)
  however many streams are open.
* **Segment features by token.** A segment id is translated to its
  vocabulary token once, at ingest — the translation *is* the check that
  rejects an unknown segment — and kept beside the segment. Everything per
  road segment after that is a table row by token: the LSTM input projection
  ``x_e @ W_in``, a function of the weights only, in a dense matrix sized by
  the vocabulary whose rows are computed on first touch and shared across
  the fleet (:class:`SegmentFeatureCache`, read on prefix-state misses only),
  RNEL's in/out degrees in the pipeline's per-token lists.

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
   step only) and the row of each ``h_i`` is kept beside its point. The
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
from typing import (Dict, FrozenSet, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple, TYPE_CHECKING)

import numpy as np

from ..exceptions import ModelError
from ..history import HistorySnapshot
from ..labeling.features import PreprocessingPipeline
from ..obs.trace import TraceContext, timestamp as obs_timestamp
from ..trajectory.models import MatchedTrajectory
from ..trajectory.sdpairs import check_start_time
from .asdnet import ASDNet
from .decision import UNDECIDED, greedy_choices, label_route, rnel_masks
from .detector import DetectionResult, finish_labels, route_result
from .rsrnet import RSRNet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .rl4oasd import RL4OASDModel


class SegmentFeatureCache:
    """The LSTM input projection of every road segment, one row per token.

    A dense ``(len(vocabulary), 4H)`` matrix — :attr:`nbytes` whatever the
    traffic, allocated zeroed so that a row no stream has crossed is never
    resident — filled on first touch: a row is computed the first time a
    state computed into :class:`PrefixStates` needs its token and serves
    until ``rsrnet.weights_version`` moves or :meth:`clear`. ``hits`` and
    ``misses`` count one lookup per state computed, a miss being a row
    computed; ``len()`` is the rows filled.
    """

    def __init__(self, rsrnet: RSRNet, tokens: int):
        self._rsrnet = rsrnet
        self._projections = np.zeros((tokens, 4 * rsrnet.config.hidden_dim))
        self._filled: Set[int] = set()
        self._version = rsrnet.weights_version
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

    def gather(self, tokens: List[int]) -> np.ndarray:
        """The rows of ``tokens`` as one ``(len(tokens), 4H)`` matrix."""
        if self._version != self._rsrnet.weights_version:
            self.clear()
        filled = self._filled
        missing = (() if filled.issuperset(tokens)  # the common case
                   else set(tokens).difference(filled))
        for token in missing:
            self._projections[token] = self._rsrnet.input_projection(token)
        filled.update(missing)
        self.misses += len(missing)
        self.hits += len(tokens) - len(missing)
        return self._projections[tokens]

    def clear(self) -> None:
        self._filled.clear()
        self._version = self._rsrnet.weights_version


#: Rows a :class:`PrefixStates` table holds before it compacts: a row is the
#: ``h`` and ``c`` of one prefix, ``16 * H`` bytes, so at the default
#: ``H = 128`` a table stays under 32 MiB.
_MAX_PREFIX_ROWS = 16384


class PrefixStates:
    """RSRNet's LSTM state after every route prefix seen, one row per prefix,
    and ASDNet's greedy choice beside it.

    ``h_i`` is a pure function of the weights and the tokens ``0 … i``, and
    an SD pair's trips drive a few routes. Row 0 of the growable ``hidden``
    / ``cell`` pair is the zero state; :attr:`edges` maps ``(parent row,
    token)`` to the row of that prefix one token longer. ``hits`` count the
    recurrent steps served from the table, ``misses`` the states computed.
    Owners :meth:`compact` on a weight change (``version``: the weights the
    rows hold) and before the rows would pass :data:`_MAX_PREFIX_ROWS`.

    The NRF input and the previous label are one bit each, so the policy's
    choice at a row is memoized too: :attr:`decisions` holds four slots per
    row, one per NRF bit and previous label, each ``UNDECIDED`` until
    :func:`~repro.core.decision.greedy_choices` decides it under the ASDNet
    weights ``decided_under``. Compaction drops every slot, and so does the
    first lookup after ``ASDNet.weights_version`` moves.
    """

    def __init__(self, hidden_dim: int, version: int):
        self.hidden = np.zeros((64, hidden_dim))
        self.cell = np.zeros((64, hidden_dim))
        self.edges: Dict[Tuple[int, int], int] = {}
        self.decisions = bytearray([UNDECIDED]) * (4 * 64)
        self.decided_under: Optional[int] = None
        self.version = version
        self.hits = 0
        self.misses = 0
        self._rows = 1

    def __len__(self) -> int:
        return self._rows

    def fits(self, rows: int) -> bool:
        """Whether ``rows`` more rows stay within :data:`_MAX_PREFIX_ROWS`."""
        return self._rows + rows <= _MAX_PREFIX_ROWS

    def walk(self, tokens: Sequence[int]) -> List[int]:
        """The rows of the longest stored prefix of ``tokens``, in order."""
        edges = self.edges
        rows: List[int] = []
        row = 0
        for token in tokens:
            row = edges.get((row, token))
            if row is None:
                break
            rows.append(row)
        return rows

    def append(self, keys: Sequence[Tuple[int, int]], hidden: np.ndarray,
               cell: np.ndarray) -> None:
        """Store the states of the prefixes ``keys`` (``(parent row, token)``
        pairs, parents stored first) in the next rows."""
        first, end = self._rows, self._rows + len(keys)
        if end > len(self.hidden):  # zeroed: rows not yet used take no RAM
            size = (max(end, 2 * len(self.hidden)), self.hidden.shape[1])
            for name in ("hidden", "cell"):
                grown = np.zeros(size)
                grown[:first] = getattr(self, name)[:first]
                setattr(self, name, grown)
            self.decisions.extend(bytearray([UNDECIDED]) * (
                4 * size[0] - len(self.decisions)))
        self.hidden[first:end] = hidden
        self.cell[first:end] = cell
        self.edges.update(zip(keys, range(first, end)))
        self._rows = end
        self.misses += len(keys)

    def drop_decisions(self, decided_under: Optional[int]) -> None:
        """Mark every slot undecided, for the ASDNet weights ``decided_under``."""
        self.decisions[:] = bytearray([UNDECIDED]) * len(self.decisions)
        self.decided_under = decided_under

    def compact(self, keep: Iterable[int], version: int) -> Dict[int, int]:
        """Keep the zero row and the rows ``keep``, renumbered in order, for
        the weights ``version``; drop every edge and every decision. Returns
        old row → new row."""
        kept = [0] + sorted(set(keep).difference((0,)))
        self.hidden[:len(kept)] = self.hidden[kept]
        self.cell[:len(kept)] = self.cell[kept]
        self._rows = len(kept)
        self.edges.clear()
        self.drop_decisions(self.decided_under)
        self.version = version
        return dict(zip(kept, range(len(kept))))


#: ``(destination, start_time_s, trajectory_id, trace)`` of a plain row of
#: :meth:`StreamEngine.ingest_many` — only rows that differ ride ``extras``.
PLAIN_ROW = (None, 0.0, None, None)


@dataclass(slots=True)
class _StreamState:
    """Everything the engine tracks for one in-flight vehicle stream."""

    vehicle_id: Hashable
    trajectory_id: int
    start_time_s: float
    destination: Optional[int]
    history: HistorySnapshot
    normal_transitions: Optional[FrozenSet[Tuple[int, int]]]
    deferred: bool
    segments: List[int] = field(default_factory=list)
    # The vocabulary token of each segment, translated once at ingest.
    tokens: List[int] = field(default_factory=list)
    labels: List[int] = field(default_factory=list)
    # Points whose LSTM step has run. An online stream labels a point in the
    # tick that steps it (``stepped == len(labels)``); a deferred stream
    # steps ahead and has no labels until its finalize pass.
    stepped: int = 0
    # The engine's PrefixStates row of the state after the stepped points.
    row: int = 0
    finalizing: bool = False
    # Deferred streams only: the row of ``h_i`` of every stepped point,
    # consumed by the finalize labeling pass.
    hidden_rows: List[int] = field(default_factory=list)
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
        delay_window: Optional[int] = 8,
    ):
        self._rsrnet = rsrnet
        self._asdnet = asdnet
        self._pipeline = pipeline
        self._segment_tokens = pipeline.vocabulary.segment_tokens
        self._rnel = rnel_masks(*pipeline.token_degrees(), enabled=use_rnel)
        self._delay_window = delay_window
        self._cache = SegmentFeatureCache(rsrnet, len(pipeline.vocabulary))
        self._states = PrefixStates(rsrnet.config.hidden_dim,
                                    rsrnet.weights_version)
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
        config = model.training_config
        options = dict(
            use_rnel=config.use_rnel,
            delay_window=(config.delayed_labeling_window
                          if config.use_delayed_labeling else None),
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
    def states(self) -> PrefixStates:
        return self._states

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
        """Drop everything derived from the weights: the projection table,
        the prefix states no stream holds, and the hidden states deferred
        streams computed ahead of their labeling. The first :meth:`tick` or
        :meth:`finalize_many` after a weight change does this unasked."""
        self._cache.clear()
        # A deferred stream is labeled wholly by the weights serving at its
        # finalize, so its recurrence starts over under the new ones.
        for stream in self._streams.values():
            if stream.deferred and stream.stepped:
                stream.stepped = 0
                stream.row = 0
                stream.hidden_rows.clear()
                self._ready[stream.vehicle_id] = stream
        self._compact()

    def _compact(self) -> None:
        """Compact the prefix states to the rows live streams hold."""
        streams = self._streams.values()
        mapping = self._states.compact(
            [row for stream in streams for row in (stream.row,
                                                   *stream.hidden_rows)],
            self._rsrnet.weights_version)
        for stream in streams:
            stream.row = mapping[stream.row]
            if stream.hidden_rows:
                stream.hidden_rows = [mapping[row]
                                      for row in stream.hidden_rows]

    def load_weights(self, rsrnet_state: Dict[str, np.ndarray],
                     asdnet_state: Dict[str, np.ndarray]) -> None:
        """Hot-swap the model weights under the engine's active streams.

        Loads ``state_dict`` snapshots into both networks and invalidates the
        tables derived from the weights (:meth:`invalidate_cache`). Online
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
        segment_tokens = self._segment_tokens
        streams = self._streams
        ready = self._ready
        extra_of = (extras or {}).get
        for row, vehicle_id in enumerate(vehicle_ids):
            segment = segments[row]
            # The one translation of this segment: every later per-segment
            # lookup goes by token. Unknown segments raise here, at the door
            # (inside tick() one vehicle's bad fix would stall the fleet).
            try:
                token = segment_tokens[segment]
            except KeyError:
                token = self._pipeline.vocabulary.token(segment)  # raises
            stream = streams.get(vehicle_id)
            extra = extra_of(row)
            if stream is None:
                stream = self._open(vehicle_id, segment,
                                    *(extra or PLAIN_ROW)[:3])
            elif stream.finalizing:
                raise ModelError(
                    f"stream {vehicle_id!r} is finalized; open a new stream")
            if extra is not None and extra[3] is not None:
                trace = extra[3]
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
        # them runs before the stream is registered.
        check_start_time(start_time_s)
        # Pin the history at open: a hot refresh (load_history) must not
        # change this trip's labels mid-stream, so every later resolution
        # for this stream goes against the pinned snapshot.
        history = self._pipeline.history
        normal_transitions = None
        if destination is not None:
            if destination not in self._segment_tokens:
                self._pipeline.vocabulary.token(destination)  # raises
            # By the SD key, under the memo key a detection of the trip uses:
            # the snapshot's memo ends as that detection would leave it.
            normal_transitions = self._pipeline.pair_transitions(
                first_segment, destination, start_time_s, history)
        if trajectory_id is None:
            trajectory_id = self._next_trajectory_id
        self._next_trajectory_id += 1
        # No declared destination, or no history for the SD pair (where the
        # reference's normal route is the trip's own, known only at
        # finalize): the stream runs deferred.
        stream = _StreamState(vehicle_id, trajectory_id, start_time_s,
                              destination, history, normal_transitions,
                              normal_transitions is None)
        self._streams[vehicle_id] = stream
        return stream

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

        A point whose prefix state is stored and whose label is forced,
        fixed by RNEL or decided in its slot is applied in the pass that
        gathers it. Only the misses reach the batched cell step and policy
        pass, in the order the pass met them (online, then step-only), so
        the rows and slots a tick writes are those of a tick that batched
        every point.
        """
        ready = self._ready
        if not ready:
            return 0
        states = self._states
        if states.version != self._rsrnet.weights_version:
            self.invalidate_cache()
        if not states.fits(len(ready)):
            self._compact()  # room for every row this tick may compute
        if states.decided_under != self._asdnet.weights_version:
            states.drop_decisions(self._asdnet.weights_version)
        count = len(ready)
        edges, slots = states.edges, states.decisions
        after, into = self._rnel
        # The misses, online then step-only: a point whose prefix is not in
        # ``edges``, or whose label is neither fixed nor in its slot. Every
        # other point is applied on the spot by the pass that reads it.
        work: List[_StreamState] = []
        stepping: List[_StreamState] = []
        # ``(row of the state before, token)`` of each point: its prefix.
        keys: List[Tuple[int, int]] = []
        nrf_values: List[int] = []
        # The forced/RNEL label of each point, or ``UNDECIDED``.
        labels: List[int] = []
        done: List[Hashable] = []  # streams left with nothing to step
        labeled = 0
        for stream in ready.values():
            index = stream.stepped
            tokens = stream.tokens
            token = tokens[index]
            row = edges.get((stream.row, token))
            if stream.deferred:
                if row is None:
                    stepping.append(stream)
                    continue
                stream.hidden_rows.append(row)
                stream.row = row
                stream.stepped = index = index + 1
                waiting = len(tokens) - index
                if waiting == 0 or (waiting == 1 and stream.finalizing):
                    done.append(stream.vehicle_id)
                continue
            if index == 0:
                # The source is normal by definition (and the destination
                # never gets here: the finalize pass labels it).
                nrf = label = 0
            else:
                segments = stream.segments
                nrf = (0 if (segments[index - 1], segments[index])
                       in stream.normal_transitions else 1)
                label = stream.labels[-1]  # what a fixed label keeps
                if not (after[tokens[index - 1]] & into[token]) >> label & 1:
                    label = (UNDECIDED if row is None
                             else slots[4 * row + 2 * nrf + label])
            if row is None or label == UNDECIDED:
                work.append(stream)
                keys.append((stream.row, token))
                nrf_values.append(nrf)
                labels.append(label)
                continue
            stream.labels.append(label)
            stream.stepped = index + 1
            stream.row = row
            labeled += 1
            if stream.traces:
                self._observe_tick(stream, index)
            if index + 2 >= len(tokens):
                done.append(stream.vehicle_id)
        for vehicle_id in done:
            del ready[vehicle_id]
        # Step-only rows go last, so a labeled row's number indexes
        # ``labels`` and ``rows`` alike.
        for stream in stepping:
            keys.append((stream.row, stream.tokens[stream.stepped]))

        rows = [edges.get(key) for key in keys]
        missing = ()
        if None in rows:
            # One batched step over the prefixes no stream reached before,
            # each computed once however many streams share it this tick.
            missing = list(dict.fromkeys(
                key for key, row in zip(keys, rows) if row is None))
            parents = [parent for parent, _ in missing]
            states.append(missing, *self._rsrnet.lstm.cell.forward_batch(
                self._cache.gather([token for _, token in missing]),
                states.hidden[parents], states.cell[parents]))
            rows = [edges[key] for key in keys]
        states.hits += count - len(missing)

        undecided = [row for row, label in enumerate(labels)
                     if label == UNDECIDED]
        if undecided:
            # The policy runs only on the (row, NRF, previous label) keys no
            # earlier tick or finalize decided.
            choices = greedy_choices(
                states, [rows[row] for row in undecided],
                [nrf_values[row] for row in undecided],
                [work[row].labels[-1] for row in undecided],
                self._rsrnet, self._asdnet)
            for row, label in zip(undecided, choices):
                labels[row] = label

        for label, stream, row in zip(labels, work, rows):
            index = stream.stepped
            stream.labels.append(label)
            stream.stepped = index + 1
            stream.row = row
            if stream.traces:
                self._observe_tick(stream, index)
            if index + 2 >= len(stream.segments):
                del ready[stream.vehicle_id]
        for stream, row in zip(stepping, rows[len(work):]):
            stream.hidden_rows.append(row)
            stream.row = row
            stream.stepped += 1
            waiting = len(stream.segments) - stream.stepped
            if waiting == 0 or (waiting == 1 and stream.finalizing):
                del ready[stream.vehicle_id]
        labeled += len(work)
        self.points_processed += labeled
        self.ticks += 1
        return labeled

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
        if self._states.version != self._rsrnet.weights_version:
            self.invalidate_cache()  # no stale state labels a deferred stream
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
                stream.segments, stream.tokens, stream.hidden_rows,
                self._states, stream.normal_transitions, self._rnel,
                self._rsrnet, self._asdnet)
        else:
            stream.labels.append(0)
        if stream.traces:
            self._observe_tick(stream, count - 1)
        self.points_processed += count - labeled

    def discard(self, vehicle_ids: Iterable[Hashable]) -> None:
        """Drop streams unlabeled (ids without a stream are skipped).

        For a close that failed where its caller has already let the
        vehicles go: a stream left open would take the next trip under the
        same id as its continuation."""
        for vehicle_id in vehicle_ids:
            stream = self._streams.get(vehicle_id)
            if stream is not None:
                self._release(stream)

    def _release(self, stream: _StreamState) -> None:
        del self._streams[stream.vehicle_id]
        self._ready.pop(stream.vehicle_id, None)

    def _complete(self, stream: _StreamState) -> DetectionResult:
        self._release(stream)
        self.streams_finalized += 1
        # The released stream's own segment list: nothing appends to it now.
        return route_result(stream.trajectory_id, stream.segments,
                            stream.start_time_s,
                            finish_labels(stream.labels, self._delay_window))

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
    Finished trips are finalized and their results are
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
