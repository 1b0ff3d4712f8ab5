"""The raw-GPS streaming gateway: noisy fixes in, detection results out.

:class:`GpsGateway` is the layer *in front of* the sharded
:class:`~repro.serve.service.DetectionService`. The service (and everything
below it) speaks map-matched road segments; real deployments — the
Chengdu/Xi'an feeds the paper evaluates on — speak raw GPS fixes arriving
point by point, out of order, duplicated, and occasionally nowhere near a
road. The gateway turns the one into the other, per vehicle, online::

    raw GPS fixes ──▶ reorder buffer ──▶ session splitter ──▶ OnlineMapMatcher
                       (bounded, per       (time gaps end      (incremental
                        vehicle)            a trip)             Viterbi)
                                                                   │ committed
                                                                   ▼ segments
                                     DetectionService ◀── batched ingest

* **Reorder buffer.** Each vehicle's newest fixes sit in a small buffer
  sorted by timestamp; a fix is released once ``reorder_window`` later fixes
  have arrived, so bounded out-of-order delivery is repaired exactly. Fixes
  older than the release frontier are dropped (counted ``late_dropped``);
  fixes with an already-seen timestamp are dropped as duplicates.
* **Trip sessions.** A gap of more than ``session_gap_s`` between released
  fixes ends the vehicle's current trip session and starts a new one — each
  session is its own (deferred) SD-pair stream in the detection service,
  finalized independently. Explicit :meth:`end` closes a vehicle's last
  session; :meth:`advance_clock` closes every vehicle idle past the
  wall-clock timeout (``session_timeout_s``) so an abandoned trip never
  needs a later fix to finish, and ``max_vehicles`` bounds the per-vehicle
  state (least-recently-active vehicles are evicted, counted in
  :class:`~repro.serve.metrics.GatewayStats`). Streams are deferred because a raw feed never declares the
  rider's destination; the engine steps their LSTM as the committed
  segments arrive (inside the service's ordinary batched ticks) and labels
  them wholly at finalize, in one vectorised pass over the stored hidden
  states — exactly like the reference detector on the completed trip. What
  stays on the :meth:`end` latency path is the reorder-buffer flush, the
  matcher's ``finish``, the steps of the segments that last commit
  released, and that one labeling pass.
* **Online matching.** Each session runs one
  :class:`~repro.mapmatching.online.OnlineMapMatcher` lattice; fixes with no
  road candidate are dropped (``unmatched_dropped``), a lattice break ends
  the session early (``sessions_broken``) and restarts matching from the
  breaking fix, and committed segments flow straight into the service.
* **Batched service ingest.** Committed segments are buffered and flushed as
  per-shard batches through :meth:`DetectionService.ingest_many`
  (``ingest_batch`` per flush; 1 flushes every segment as a batch of one),
  amortizing the per-point IPC that otherwise caps multi-shard scaling.
* **Session closes ride the results bus.** A close flushes the session's
  segments and queues :meth:`DetectionService.finalize_async` behind them.
  A call that closed a session pumps the service once and returns what
  :meth:`poll_sessions` collects — on an in-process service, its own
  sessions; a process shard's may arrive on a later call or through
  :meth:`drain_sessions` (``docs/architecture.md``, "why there is one
  close path"). A call that closed none neither pumps nor polls.

:func:`serve_raw_fleet` replays whole raw-trajectory workloads through a
gateway the way :func:`~repro.serve.service.serve_fleet` replays matched
workloads through a service — it is what the differential tests and
``repro replay`` drive.
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (Deque, Dict, Hashable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..config import GatewayConfig
from ..core.detector import DetectionResult
from ..exceptions import (GatewayError, MatchBreakError, UnmatchablePointError)
from ..mapmatching.hmm import HMMMapMatcher
from ..mapmatching.online import OnlineMapMatcher, OnlineMatchResult
from ..obs.exposition import (MetricsServer, add_process_metrics,
                              render_prometheus)
from ..obs.trace import TraceContext, timestamp as obs_timestamp
from ..serve.backends import IngestEvent
from ..serve.metrics import GatewayStats, ServiceMetrics, metrics_to_registry
from ..serve.service import DetectionService
from ..trajectory.models import GPSPoint, RawTrajectory


class SessionResult(NamedTuple):
    """One finished trip session of one vehicle.

    ``result`` is the service's detection result for the session's matched
    route; ``match`` summarizes the online matching (``None`` when the
    session ended through a lattice break, whose pending lattice is
    discarded rather than decoded). ``confidence`` is the match quality
    score (:attr:`~repro.mapmatching.online.OnlineMatchResult.confidence`:
    geometric-mean emission likelihood of the committed fixes vs dead-on
    fixes, in [0, 1]; 0.0 for broken sessions) — downstream consumers
    filter low-confidence sessions on it before acting on their anomaly
    labels.
    """

    vehicle_id: Hashable
    session_key: Tuple[Hashable, int]
    result: DetectionResult
    match: Optional[OnlineMatchResult]
    confidence: float = 0.0


@dataclass
class _SessionState:
    """The gateway's bookkeeping for one in-flight trip session."""

    key: Tuple[Hashable, int]
    start_time_s: float
    last_point_t: float
    opened: bool = False            # the service stream exists
    segments_forwarded: int = 0
    trajectory_id: Optional[int] = None


@dataclass
class _VehicleState:
    """Everything the gateway tracks for one vehicle."""

    buffer: List[GPSPoint] = field(default_factory=list)  # sorted by t
    last_released_t: float = float("-inf")
    time_origin: float = 0.0
    session: Optional[_SessionState] = None
    next_session: int = 0
    # Sampled trace contexts of buffered fixes, keyed by fix timestamp
    # (lazy — stays None while tracing is off or nothing is sampled).
    traces: Optional[Dict[float, TraceContext]] = None


class GpsGateway:
    """Online map-matching front door of a :class:`DetectionService`."""

    def __init__(
        self,
        service: DetectionService,
        matcher,
        config: Optional[GatewayConfig] = None,
    ):
        """``matcher`` is an :class:`OnlineMapMatcher`, or an offline
        :class:`HMMMapMatcher` to wrap (sharing its distance cache across
        the whole fleet); the window then comes from
        ``config.max_pending_points``."""
        self._service = service
        self._config = (config or GatewayConfig()).validate()
        if isinstance(matcher, OnlineMapMatcher):
            self._matcher = matcher
        elif isinstance(matcher, HMMMapMatcher):
            self._matcher = OnlineMapMatcher(
                matcher, max_pending=self._config.max_pending_points)
        else:
            raise GatewayError(
                "matcher must be an OnlineMapMatcher or an HMMMapMatcher, "
                f"got {type(matcher).__name__}")
        self._vehicles: Dict[Hashable, _VehicleState] = {}
        # Buffered batched ingest events, grouped by shard: each shard's
        # group is delivered atomically and dropped once delivered, so a
        # flush interrupted by an exhausted retry budget can be retried
        # without ever re-sending (duplicating) a delivered batch.
        self._pending: Dict[int, List[IngestEvent]] = {}
        self._pending_count = 0
        # Sessions closed through the bus whose results have not arrived:
        # session key -> FIFO of match summaries (``None`` for a session a
        # lattice break ended), which wait here because the shard holds
        # only the detection result. A FIFO, not a single slot: an evicted
        # vehicle that reappears restarts its session numbering, so a key
        # can be in flight twice — and because a key always routes to one
        # shard, the bus delivers same-key results in close order.
        self._pending_sessions: Dict[
            Tuple[Hashable, int], Deque[Optional[OnlineMatchResult]]] = {}
        self._next_trajectory_id = 0
        self._stats = GatewayStats()
        # The *service's* tracer: one sampling decision at the gateway's
        # front door covers the fix's whole journey down the pipeline.
        self._tracer = service.tracer

    # ------------------------------------------------------------ properties
    @property
    def service(self) -> DetectionService:
        return self._service

    @property
    def matcher(self) -> OnlineMapMatcher:
        """The online matcher every fix of every session runs through."""
        return self._matcher

    @property
    def config(self) -> GatewayConfig:
        return self._config

    @property
    def active_vehicles(self) -> List[Hashable]:
        return list(self._vehicles)

    # ------------------------------------------------------------------ push
    def push_point(self, vehicle_id: Hashable, point: GPSPoint,
                   start_time_s: Optional[float] = None
                   ) -> List[SessionResult]:
        """Feed one raw GPS fix of one vehicle.

        ``point.t`` is the vehicle's own monotone clock (seconds); the
        optional ``start_time_s`` — read only on the vehicle's very first
        fix — is the absolute time of day at ``t = 0``, used for the
        time-slot grouping of every session this vehicle produces. Returns
        nothing unless the fix closed a session (its timestamp revealed a
        trip gap, it broke the match lattice, or it evicted a vehicle), and
        then what the results bus holds (module docstring, "session
        closes").

        When a new vehicle would exceed ``config.max_vehicles``, the least
        recently active vehicle is closed first — the bound that keeps
        the gateway's per-vehicle state, and the online matcher's lattice
        map behind it, from growing with every vehicle ever seen.
        """
        closed = self._stats.sessions_closed
        self._push(vehicle_id, point, start_time_s)
        return self._collect(closed)

    def _push(self, vehicle_id: Hashable, point: GPSPoint,
              start_time_s: Optional[float]) -> None:
        self._stats.raw_points += 1
        state = self._vehicles.get(vehicle_id)
        if state is None:
            self._evict_for_capacity()
            state = _VehicleState(
                time_origin=start_time_s if start_time_s is not None else 0.0)
            self._vehicles[vehicle_id] = state
        # Repair bounded out-of-order arrival; drop what cannot be repaired.
        # Buffered fixes are strictly newer than the release frontier, so a
        # fix newer than the newest of them (or than the frontier itself,
        # when nothing is buffered) is in order: no search, not a duplicate.
        buffer, t = state.buffer, point.t
        if t > (buffer[-1].t if buffer else state.last_released_t):
            buffer.append(point)
        elif t < state.last_released_t:
            self._stats.late_dropped += 1
            return
        else:
            position = bisect.bisect_left(buffer, t,
                                          key=lambda buffered: buffered.t)
            if (t == state.last_released_t
                    or (position < len(buffer) and buffer[position].t == t)):
                self._stats.duplicates_dropped += 1
                return
            buffer.insert(position, point)
        if self._tracer is not None:
            trace = self._tracer.sample(obs_timestamp())
            if trace is not None:
                if state.traces is None:
                    state.traces = {}
                state.traces[point.t] = trace
        window = self._config.reorder_window
        while len(buffer) > window:
            released = buffer.pop(0)
            state.last_released_t = released.t
            self._deliver(vehicle_id, state, released)

    # ------------------------------------------------------------- lifecycle
    def end(self, vehicle_id: Hashable) -> List[SessionResult]:
        """Close one vehicle: flush its reorder buffer, finish its sessions.

        The flush may close sessions at gap splits before the final one;
        the call returns what the bus has for them (see the module
        docstring's "session closes"). The vehicle is forgotten afterwards;
        a later :meth:`push_point` starts from scratch.
        """
        closed = self._stats.sessions_closed
        self._end(vehicle_id)
        return self._collect(closed)

    def advance_clock(self, now: float) -> List[SessionResult]:
        """Close every vehicle idle past the wall-clock timeout.

        ``now`` must be on the same time base the vehicles' fixes resolve
        to: ``start_time_s + t`` for vehicles anchored with a
        ``start_time_s``, the raw fix timestamps for vehicles that were
        not (an unanchored vehicle's ``t`` *is* its absolute time of day —
        the same convention the session time-slot grouping already uses).
        Mixing time bases across the fleet — or passing a Unix epoch
        ``now`` to vehicles whose ``t`` starts near zero — makes every
        unanchored vehicle look idle and force-closes it on the first
        tick; keep one clock. A vehicle whose
        newest known fix — buffered *or* delivered — is older than
        ``config.session_timeout_s`` (``session_gap_s`` when unset) is
        closed exactly as :meth:`end` would close it: the reorder buffer is
        flushed, the trip session is finished, and the vehicle (with its
        matcher state) is forgotten; the call returns what the bus has for
        the closed sessions.
        Without this, a vehicle that simply stops reporting — parked, out of
        coverage, decommissioned — would hold its session, its service
        stream and its matcher lattice open forever, because a session
        otherwise only ends on a *later* fix revealing a time gap or an
        explicit :meth:`end`. Call it from whatever periodic tick the host
        application already runs.
        """
        # `is None`, not truthiness: GatewayConfig.validate rejects
        # non-positive timeouts, and an explicit value must never silently
        # fall back to the gap.
        timeout = self._config.session_timeout_s
        if timeout is None:
            timeout = self._config.session_gap_s
        closed = self._stats.sessions_closed
        for vehicle_id in list(self._vehicles):
            state = self._vehicles[vehicle_id]
            if now - self._last_activity_abs(state) > timeout:
                if state.session is not None or state.buffer:
                    self._stats.session_timeouts += 1
                self._end(vehicle_id)
        return self._collect(closed)

    def pump(self) -> int:
        """Advance the service opportunistically (see
        :meth:`DetectionService.pump`)."""
        return self._service.pump()

    def flush(self) -> None:
        """Push the buffered ingest events into the service now, each
        shard's group as one all-or-nothing batch."""
        if not self._pending:
            return
        for shard in list(self._pending):
            batch = self._pending.pop(shard)
            self._pending_count -= len(batch)
            try:
                self._service.ingest_many(
                    batch,
                    max_retries=self._config.max_retries,
                    retry_wait_s=self._config.retry_wait_s)
            except BaseException:
                # Nothing of this single-shard batch was queued: put it
                # back so a retried flush re-sends exactly the undelivered
                # events and nothing else.
                self._pending[shard] = batch + self._pending.get(shard, [])
                self._pending_count += len(batch)
                raise
        self._stats.batched_flushes += 1

    # ------------------------------------------------------ session results
    @property
    def pending_sessions(self) -> int:
        """Closed sessions whose results no poll has collected yet — the
        closing call's own or a later one; 0 between the calls of a gateway
        on an in-process service."""
        return sum(len(queue) for queue in self._pending_sessions.values())

    def poll_sessions(self,
                      max_items: Optional[int] = None) -> List[SessionResult]:
        """Collect finished sessions off the results bus, without blocking.

        What a closing call returns, and how a caller collects what a
        process shard publishes later: drains the service's results bus
        once (:meth:`DetectionService.poll_results` — dedup, acks and all)
        and converts what belongs to this gateway, in each shard's
        completion order. In-process backends only publish while pumped.
        """
        completed: List[SessionResult] = []
        for envelope in self._service.poll_results(max_items):
            if envelope.kind == "error":
                raise envelope.payload
            # One detection result per finalized stream; the oldest pending
            # close of its key holds the match summary that waited here.
            queue = self._pending_sessions.get(envelope.key)
            if not queue:
                raise GatewayError(
                    f"bus result for unknown session {envelope.key!r} "
                    "(is something else finalizing through this "
                    "gateway's service?)")
            match = queue.popleft()
            if not queue:
                del self._pending_sessions[envelope.key]
            completed.append(SessionResult(
                envelope.key[0], envelope.key, envelope.payload, match,
                match.confidence if match is not None else 0.0))
        return completed

    def drain_sessions(self, timeout_s: float = 120.0,
                       poll_wait_s: float = 0.0005) -> List[SessionResult]:
        """Pump and poll until every pending session has reported.

        Raises :class:`~repro.exceptions.GatewayError` after ``timeout_s``
        without progress. Note this only waits out sessions already
        *closed* — vehicles still streaming keep their sessions open until
        a gap, an :meth:`end`, or a timeout closes them.
        """
        collected = list(self.poll_sessions())
        deadline = time.perf_counter() + timeout_s
        while self._pending_sessions:
            self.pump()
            arrived = self.poll_sessions()
            if arrived:
                collected.extend(arrived)
                deadline = time.perf_counter() + timeout_s
                continue
            if time.perf_counter() > deadline:
                raise GatewayError(
                    f"{self.pending_sessions} session result(s) "
                    f"did not arrive within {timeout_s:.0f}s")
            time.sleep(poll_wait_s)
        return collected

    # -------------------------------------------------------------- metrics
    def stats(self) -> GatewayStats:
        """A point-in-time snapshot of the gateway's input funnel."""
        matcher = self._matcher
        cache = matcher.matcher.distance_cache
        return replace(
            self._stats,
            commits=matcher.commits,
            forced_commits=matcher.forced_commits,
            max_commit_lag=matcher.max_commit_lag,
            mean_commit_lag=matcher.mean_commit_lag,
            reorder_buffered=sum(len(state.buffer)
                                 for state in self._vehicles.values()),
            distance_cache_pairs=len(cache),
            distance_cache_hits=cache.hits,
            distance_cache_misses=cache.misses,
            distance_cache_evictions=cache.evictions)

    def metrics(self) -> ServiceMetrics:
        """The service's fleet dashboard with this gateway's funnel attached."""
        metrics = self._service.metrics()
        metrics.gateway = self.stats()
        return metrics

    def metrics_text(self) -> str:
        """The gateway-enriched dashboard in Prometheus exposition format.

        The service's stage-latency histograms plus a registry view of
        :meth:`metrics` — the same counters as the service's own
        :meth:`~repro.serve.service.DetectionService.metrics_text`, with
        the gateway funnel attached.
        """
        registry = self._service.obs_registry()
        metrics_to_registry(self.metrics(), registry)
        add_process_metrics(registry)
        return render_prometheus(registry)

    def start_metrics_server(self, host: str = "127.0.0.1",
                             port: int = 0) -> MetricsServer:
        """Serve :meth:`metrics_text` on an HTTP ``/metrics`` endpoint.

        The gateway twin of :meth:`DetectionService.start_metrics_server`;
        the returned server is a context manager — close it with the
        gateway's lifetime (closing the service closes service-started
        endpoints, but the gateway has no close of its own).
        """
        return MetricsServer(self.metrics_text, host=host, port=port)

    # ------------------------------------------------------------- internals
    @staticmethod
    def _last_activity_abs(state: _VehicleState) -> float:
        """Absolute time of a vehicle's newest known fix (buffered or not)."""
        newest = state.last_released_t
        if state.session is not None:
            newest = max(newest, state.session.last_point_t)
        if state.buffer:
            newest = max(newest, state.buffer[-1].t)
        if newest == float("-inf"):
            # A vehicle that never produced a usable fix: treat registration
            # time (its clock origin) as the last activity.
            return state.time_origin
        return state.time_origin + newest

    def _evict_for_capacity(self) -> None:
        """Make room for one more vehicle under ``config.max_vehicles``.

        Closes (as :meth:`end` does) the least recently active vehicle(s)
        until the bound admits a new one, so no detection result is ever
        dropped by the bound. Eviction order is by newest-fix time, ties
        broken by registration order — both deterministic, so a replay
        reproduces the same evictions.
        """
        limit = self._config.max_vehicles
        if limit <= 0:
            return
        while len(self._vehicles) >= limit:
            victim = min(self._vehicles,
                         key=lambda v: self._last_activity_abs(
                             self._vehicles[v]))
            self._stats.vehicles_evicted += 1
            self._end(victim)

    def _end(self, vehicle_id: Hashable) -> None:
        """Forget one vehicle, flushing its buffer and closing its session."""
        state = self._vehicles.pop(vehicle_id, None)
        if state is None:
            raise GatewayError(f"no active vehicle {vehicle_id!r}")
        for point in state.buffer:
            state.last_released_t = point.t
            self._deliver(vehicle_id, state, point)
        if state.session is not None:
            self._close_session(state)

    def _collect(self, closed_before: int) -> List[SessionResult]:
        """Nothing if no session closed since ``closed_before``, else what
        one pump and one poll bring."""
        if self._stats.sessions_closed == closed_before:
            return []
        self._service.pump()
        return self.poll_sessions()

    def _deliver(self, vehicle_id: Hashable, state: _VehicleState,
                 point: GPSPoint) -> None:
        """One released (in-order) fix: split sessions, match, forward."""
        session = state.session
        if (session is not None
                and point.t - session.last_point_t > self._config.session_gap_s):
            self._stats.gap_splits += 1
            self._close_session(state)
            session = None
        if session is None:
            session = _SessionState(
                key=(vehicle_id, state.next_session),
                start_time_s=state.time_origin + point.t,
                last_point_t=point.t,
            )
            state.next_session += 1
            state.session = session
            self._stats.sessions_opened += 1
        session.last_point_t = point.t
        trace = None
        if state.traces is not None:
            trace = state.traces.pop(point.t, None)
            if trace is not None:
                # Arrival → release from the reorder buffer.
                trace = self._tracer.observe("gateway_ingest", trace,
                                             obs_timestamp())
        try:
            emitted = self._matcher.push(session.key, point)
        except UnmatchablePointError:
            self._stats.unmatched_dropped += 1
            return
        except MatchBreakError:
            # The lattice cannot continue through this fix: end the session
            # at its committed prefix and restart matching from the fix.
            self._close_session(state, broken=True)
            self._deliver(vehicle_id, state, point)
            return
        self._stats.matched_points += 1
        if trace is not None:
            # The sampled fix's matcher work; the context then rides the
            # first segment this push committed into the service.
            trace = self._tracer.observe("match_commit", trace,
                                         obs_timestamp())
        for segment in emitted:
            self._forward(session, segment, trace)
            trace = None

    def _forward(self, session: _SessionState, segment: int,
                 trace: Optional[TraceContext] = None) -> None:
        """Send one committed segment of one session into the service."""
        if not session.opened:
            session.trajectory_id = self._next_trajectory_id
            self._next_trajectory_id += 1
            event = IngestEvent(session.key, segment, None,
                                session.start_time_s, session.trajectory_id,
                                trace)
        else:
            event = IngestEvent(session.key, segment, None, 0.0, None, trace)
        shard = self._service.shard_for(event.vehicle_id)
        self._pending.setdefault(shard, []).append(event)
        self._pending_count += 1
        if self._pending_count >= self._config.ingest_batch:
            self.flush()
        session.opened = True
        session.segments_forwarded += 1
        self._stats.segments_emitted += 1

    def _close_session(self, state: _VehicleState,
                       broken: bool = False) -> None:
        """Finish the vehicle's current session through the results bus
        (dropped, and counted, when not a single fix could be matched)."""
        session = state.session
        state.session = None
        match: Optional[OnlineMatchResult] = None
        if self._matcher.has_session(session.key):
            if broken:
                self._matcher.discard(session.key)
            else:
                match = self._matcher.finish(session.key)
                for segment in match.route[session.segments_forwarded:]:
                    self._forward(session, segment)
                if match.broken:
                    broken = True
        if broken:
            self._stats.sessions_broken += 1
        if not session.opened:
            # Not a single fix of this session could be matched.
            self._stats.sessions_dropped += 1
            return
        self.flush()
        # FIFO per shard: the stream's events were flushed above, so the
        # queued finalize marker sees the complete session. The match
        # summary waits here for the bus result.
        self._service.finalize_async(
            [session.key],
            max_retries=self._config.max_retries,
            retry_wait_s=self._config.retry_wait_s)
        self._pending_sessions.setdefault(session.key, deque()).append(match)
        self._stats.sessions_closed += 1


def serve_raw_fleet(
    gateway: GpsGateway,
    raw_trajectories: Sequence[RawTrajectory],
    concurrency: int = 64,
) -> List[List[DetectionResult]]:
    """Replay raw GPS trajectories through a gateway as one fleet driver.

    The raw-input twin of :func:`~repro.serve.service.serve_fleet`: up to
    ``concurrency`` vehicles in flight, one fix per active vehicle per
    round, one service pump and one poll per round, every finished
    vehicle closed through :meth:`GpsGateway.end`. Sessions come back from
    the closing calls and the polls as each shard completes them
    (:meth:`GpsGateway.poll_sessions`); after the replay the rest are
    drained (:meth:`GpsGateway.drain_sessions`) and each vehicle's are
    sorted back into session order, so the lists do not depend on the
    backend or the shard count. Returns, per input trajectory (in input
    order), the detection results of its sessions — exactly one for a
    clean, gap-free trace; several when time gaps split the trip; none
    when no fix could be matched.
    """
    if concurrency < 1:
        raise GatewayError("concurrency must be positive")
    sessions_of: List[List[SessionResult]] = [[] for _ in raw_trajectories]
    backlog = list(enumerate(raw_trajectories))
    backlog.reverse()  # pop() from the end preserves input order
    active: Dict[int, Tuple[int, int]] = {}  # vehicle -> (index, cursor)
    owner: Dict[int, int] = {}               # vehicle -> index, forever
    next_vehicle = 0

    def route(sessions: List[SessionResult]) -> None:
        # Sessions of an evicted vehicle surface from another vehicle's
        # push or from a later poll; the owner map outlives `active`, so
        # they always land in the right slot.
        for session in sessions:
            sessions_of[owner[session.vehicle_id]].append(session)

    while backlog or active:
        while backlog and len(active) < concurrency:
            index, trajectory = backlog.pop()
            vehicle = next_vehicle
            next_vehicle += 1
            # Register the vehicle *before* its first push: when the push
            # evicts another vehicle (gateway max_vehicles), the evictee's
            # finished sessions come back here and must be routed to *its*
            # slot — dropping them was the result-loss bug this loop had.
            active[vehicle] = (index, 1)
            owner[vehicle] = index
            route(gateway.push_point(vehicle, trajectory.points[0],
                                     start_time_s=trajectory.start_time_s))
        finished: List[int] = []
        for vehicle, (index, cursor) in active.items():
            trajectory = raw_trajectories[index]
            if cursor < len(trajectory.points):
                route(gateway.push_point(vehicle, trajectory.points[cursor]))
                active[vehicle] = (index, cursor + 1)
            else:
                finished.append(vehicle)
        gateway.pump()
        for vehicle in finished:
            del active[vehicle]
            # A vehicle bound (max_vehicles) may have evicted this vehicle
            # after its last fix; its sessions already surfaced then.
            if vehicle not in gateway.active_vehicles:
                continue
            route(gateway.end(vehicle))
        route(gateway.poll_sessions())
    route(gateway.drain_sessions())
    for sessions in sessions_of:
        # Bus completion order is per-shard, not per-vehicle; session
        # numbers restore close order.
        sessions.sort(key=lambda session: session.session_key[1])
    return [[session.result for session in sessions]
            for sessions in sessions_of]
