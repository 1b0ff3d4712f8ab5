"""Shard-local online map matching: the gateway's parallel matcher plane.

With ``matcher_placement="facade"`` the :class:`~repro.ingest.gateway.
GpsGateway` runs one :class:`~repro.mapmatching.online.OnlineMapMatcher` on
its own thread — correct, but the sharded
:class:`~repro.serve.service.DetectionService` then idles behind a
single-threaded front end and raw-GPS throughput caps at one core. With
``matcher_placement="shard"`` the gateway instead installs one
:class:`ShardMatcherPlane` per shard (via
:meth:`DetectionService.install_plane`), keyed by the same stable
vehicle→shard routing that already places the session's detection stream::

    facade: reorder + session split          shard worker k
    ──────────────────────────────           ─────────────────────────────
    released fix of session s  ──MatchPush──▶ OnlineMapMatcher.push
      (shard = shard_for(s.key))                 │ committed segments
                                                 ▼ (no facade round-trip)
    close of session s ──────────MatchFinish─▶ StreamEngine.ingest / finalize
                       ◀─[SessionClose...]──     │
                                                 ▼ DetectionResult

The facade keeps everything timestamp-driven (reorder repair, gap splits,
timeouts, eviction) because only it sees the clock; the plane owns
everything match-driven. A lattice break therefore splits the trip *inside*
the plane: the broken generation's stream is finalized at its committed
prefix (exactly what the facade does in serial mode) and matching restarts
from the breaking fix under a fresh generation — the facade only learns of
the split when :class:`MatchFinish` returns one :class:`SessionClose` per
generation that produced a route. Label identity with the serial path, for
any shard count and both backends, is pinned by
``tests/test_parallel_matching.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

from ..config import MapMatchingConfig
from ..core.detector import DetectionResult
from ..exceptions import (MatchBreakError, ServiceError,
                          UnmatchablePointError)
from ..mapmatching.hmm import HMMMapMatcher
from ..mapmatching.online import OnlineMapMatcher, OnlineMatchResult
from ..obs.trace import TraceContext, timestamp as obs_timestamp
from ..roadnet.graph import RoadNetwork
from ..serve.metrics import MatcherShardStats
from ..trajectory.models import GPSPoint


class MatchPush(NamedTuple):
    """One released (in-order) GPS fix of one gateway session.

    ``origin`` and ``trajectory_id`` ride only on the session's first push
    (the facade's session-opening metadata); later pushes carry ``None``.
    ``origin`` is the vehicle's absolute time at ``t = 0``, so the plane can
    stamp ``origin + t`` start times on the generation streams it opens —
    including generations the facade never sees (post-break restarts).
    ``trace`` is the fix's sampled trace context (``None`` almost always);
    the plane observes ``shard_queue`` at receipt and ``match_commit``
    around the matcher push.
    """

    key: Tuple[Hashable, int]
    point: GPSPoint
    origin: Optional[float] = None
    trajectory_id: Optional[int] = None
    trace: Optional[TraceContext] = None


class MatchFinish(NamedTuple):
    """Close one gateway session: decode the lattice, finalize its streams."""

    key: Tuple[Hashable, int]


class MatchFinishAsync(NamedTuple):
    """Close one gateway session fire-and-forget, results over the bus.

    The :class:`MatchFinish` twin for ``GatewayConfig(async_sessions=True)``:
    routed through ``handle`` (batched, no reply slot), it runs the same
    close and *publishes* one ``"session"`` envelope — keyed by the session
    key, carrying the :class:`SessionClose` list (possibly empty, when not
    a single fix matched) — to the shard's results bus, where the facade's
    :meth:`GpsGateway.poll_sessions` picks it up.
    """

    key: Tuple[Hashable, int]


class SessionClose(NamedTuple):
    """One finished generation of one gateway session, with its result.

    Only generations that forwarded at least one segment produce a close
    (``result`` is never ``None``); a generation no fix of which could be
    matched is just counted ``sessions_dropped``. ``match`` is ``None`` for
    generations ended by a lattice break (their pending lattice is
    discarded, exactly like the facade's serial break handling).
    """

    key: Tuple[Hashable, int]
    generation: int
    broken: bool
    match: Optional[OnlineMatchResult]
    result: DetectionResult


@dataclass
class _PlaneSession:
    """Plane-side state of one gateway session (all its generations)."""

    key: Tuple[Hashable, int]
    origin: float
    trajectory_id: Optional[int]
    gen_start_s: float
    generation: int = 0
    opened: bool = False            # current generation's stream exists
    segments_forwarded: int = 0     # of the current generation
    completed: List[SessionClose] = field(default_factory=list)

    @property
    def stream_key(self) -> Tuple[Tuple[Hashable, int], int]:
        return (self.key, self.generation)


class ShardMatcherPlane:
    """One shard's online matcher, colocated with its detection engine.

    Implements the backend plane contract (``handle`` / ``request`` /
    ``stats``): :class:`MatchPush` commands advance per-session lattices and
    feed committed segments straight into the shard's engine;
    :class:`MatchFinish` decodes the remainder, finalizes every generation
    stream and returns the :class:`SessionClose` list the facade turns into
    :class:`~repro.ingest.gateway.SessionResult` objects. The error contract
    mirrors the facade's serial ``_deliver``: an unmatchable fix is dropped
    (counted), a lattice break closes the generation at its committed prefix
    and restarts from the breaking fix.
    """

    def __init__(self, shard_id: int, engine, matcher: OnlineMapMatcher):
        self._shard_id = shard_id
        self._engine = engine
        self._matcher = matcher
        self._publish = None  # bound by the backend when a bus is available
        self._sessions: Dict[Tuple[Hashable, int], _PlaneSession] = {}
        self._stats = MatcherShardStats(shard_id=shard_id)
        self._finish_trace_id: Optional[int] = None  # of the last _finish

    @property
    def matcher(self) -> OnlineMapMatcher:
        return self._matcher

    # --------------------------------------------------------- plane contract
    def bind_bus(self, publish) -> None:
        """Receive the shard bus's ``publish`` (called by the backend at
        install time); enables :class:`MatchFinishAsync`."""
        self._publish = publish

    def handle(self, command) -> None:
        if isinstance(command, MatchPush):
            self._push(command)
        elif isinstance(command, MatchFinishAsync):
            if self._publish is None:
                raise ServiceError(
                    "no results bus bound to this matcher plane")
            closes = self._finish(command.key)
            trace = (None if self._finish_trace_id is None
                     else TraceContext(self._finish_trace_id,
                                       obs_timestamp()))
            self._publish("session", command.key, closes, trace)
        else:
            raise TypeError(
                f"unknown matcher-plane command {type(command).__name__}")

    def request(self, command):
        if isinstance(command, MatchFinish):
            return self._finish(command.key)
        raise TypeError(
            f"unknown matcher-plane request {type(command).__name__}")

    def stats(self) -> MatcherShardStats:
        stats = self._stats
        matcher = self._matcher
        cache = matcher.matcher.distance_cache
        return MatcherShardStats(
            shard_id=self._shard_id,
            live_sessions=len(self._sessions),
            matched_points=stats.matched_points,
            unmatched_dropped=stats.unmatched_dropped,
            segments_emitted=stats.segments_emitted,
            sessions_reopened=stats.sessions_reopened,
            sessions_closed=stats.sessions_closed,
            sessions_dropped=stats.sessions_dropped,
            sessions_broken=stats.sessions_broken,
            commits=matcher.commits,
            forced_commits=matcher.forced_commits,
            max_commit_lag=matcher.max_commit_lag,
            commit_lag_sum=matcher.commit_lag_sum,
            commit_lag_samples=list(matcher.commit_lag_samples),
            distance_cache_pairs=len(cache),
            distance_cache_hits=cache.hits,
            distance_cache_misses=cache.misses,
            distance_cache_evictions=cache.evictions,
        )

    # -------------------------------------------------------------- matching
    def _push(self, push: MatchPush) -> None:
        session = self._sessions.get(push.key)
        if session is None:
            origin = push.origin if push.origin is not None else 0.0
            session = _PlaneSession(
                key=push.key,
                origin=origin,
                trajectory_id=push.trajectory_id,
                gen_start_s=origin + push.point.t,
            )
            self._sessions[push.key] = session
        trace = push.trace
        tracer = (getattr(self._engine, "tracer", None)
                  if trace is not None else None)
        if tracer is not None:
            trace = tracer.observe("shard_queue", trace, obs_timestamp())
        while True:
            try:
                emitted = self._matcher.push(push.key, push.point)
            except UnmatchablePointError:
                self._stats.unmatched_dropped += 1
                return
            except MatchBreakError:
                # The lattice cannot continue through this fix: end the
                # generation at its committed prefix, restart from the fix
                # (the point was not consumed — the matcher's contract).
                self._close_generation(session, restart_t=push.point.t)
                continue
            break
        self._stats.matched_points += 1
        if tracer is not None:
            # The sampled fix's commit work; the context then rides the
            # first segment this push committed (often an earlier fix's —
            # commit lag — but it is this push's emission).
            trace = tracer.observe("match_commit", trace, obs_timestamp())
        for segment in emitted:
            self._forward(session, segment, trace)
            trace = None

    def _finish(self, key: Tuple[Hashable, int]) -> List[SessionClose]:
        self._finish_trace_id = None
        session = self._sessions.pop(key, None)
        if session is None:
            # Every released fix of the session was late/duplicate-free yet
            # none reached the plane — cannot happen through the gateway,
            # which always pushes before it closes. Nothing to report.
            return []
        closes = session.completed
        match: Optional[OnlineMatchResult] = None
        broken = False
        if self._matcher.has_session(key):
            match = self._matcher.finish(key)
            for segment in match.route[session.segments_forwarded:]:
                self._forward(session, segment)
            broken = match.broken
        if broken:
            self._stats.sessions_broken += 1
        if not session.opened:
            self._stats.sessions_dropped += 1
            return closes
        result = self._engine.finalize_many([session.stream_key])[0]
        self._stats.sessions_closed += 1
        pop_traced = getattr(self._engine, "pop_finalize_traced", None)
        if pop_traced is not None:
            # Session envelopes, not per-stream results, ride the bus here
            # — remember the finishing stream's trace for the publish.
            self._finish_trace_id = pop_traced().get(session.stream_key)
        closes.append(SessionClose(
            key=key, generation=session.generation, broken=broken,
            match=match, result=result))
        return closes

    def _close_generation(self, session: _PlaneSession,
                          restart_t: float) -> None:
        """End the current generation broken; open the next at ``restart_t``."""
        self._matcher.discard(session.key)
        self._stats.sessions_broken += 1
        if session.opened:
            result = self._engine.finalize_many([session.stream_key])[0]
            pop_traced = getattr(self._engine, "pop_finalize_traced", None)
            if pop_traced is not None:  # broken generations end their trace
                pop_traced()
            self._stats.sessions_closed += 1
            session.completed.append(SessionClose(
                key=session.key, generation=session.generation, broken=True,
                match=None, result=result))
        else:
            self._stats.sessions_dropped += 1
        session.generation += 1
        session.opened = False
        session.segments_forwarded = 0
        # Post-break generations get engine-assigned trajectory ids (the
        # facade cannot number streams it never hears about); serial mode's
        # facade-assigned ids are equally arbitrary — labels don't read them.
        session.trajectory_id = None
        session.gen_start_s = session.origin + restart_t
        self._stats.sessions_reopened += 1

    def _forward(self, session: _PlaneSession, segment: int,
                 trace: Optional[TraceContext] = None) -> None:
        """One committed segment into the colocated engine, shard-locally."""
        if not session.opened:
            self._engine.ingest(session.stream_key, segment,
                                destination=None,
                                start_time_s=session.gen_start_s,
                                trajectory_id=session.trajectory_id,
                                trace=trace)
            session.opened = True
        elif trace is not None:
            self._engine.ingest(session.stream_key, segment, trace=trace)
        else:
            self._engine.ingest(session.stream_key, segment)
        session.segments_forwarded += 1
        self._stats.segments_emitted += 1


class MatcherPlaneFactory:
    """Picklable ``factory(shard_id, engine) -> ShardMatcherPlane``.

    In process — the factory object the caller built — every shard plane
    shares one :class:`HMMMapMatcher` (spatial index + segment-pair distance
    cache), exactly like the serial facade matcher shares them across
    sessions. Pickled into a worker process, the shared matcher is dropped
    (its caches are not worth shipping) and each worker rebuilds its own
    from the network + config, so shard matchers are fully independent
    across processes.
    """

    def __init__(self, matcher: HMMMapMatcher, max_pending: int = 64):
        self._network: RoadNetwork = matcher.network
        self._config: MapMatchingConfig = matcher.config
        self._max_pending = max_pending
        self._shared: Optional[HMMMapMatcher] = matcher

    def __getstate__(self):
        return {"network": self._network, "config": self._config,
                "max_pending": self._max_pending}

    def __setstate__(self, state):
        self._network = state["network"]
        self._config = state["config"]
        self._max_pending = state["max_pending"]
        self._shared = None

    def __call__(self, shard_id: int, engine) -> ShardMatcherPlane:
        hmm = self._shared
        if hmm is None:
            hmm = HMMMapMatcher(self._network, self._config)
        return ShardMatcherPlane(
            shard_id, engine,
            OnlineMapMatcher(hmm, max_pending=self._max_pending))
