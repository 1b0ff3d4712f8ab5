"""Online incremental map matching: point-by-point Viterbi for GPS streams.

The offline :class:`~repro.mapmatching.hmm.HMMMapMatcher` needs a whole
trajectory before decoding can start, so nothing built on it can serve the
paper's actual deployment scenario — noisy raw GPS fixes arriving one at a
time from thousands of vehicles. :class:`OnlineMapMatcher` closes that gap
with a **sliding-window Viterbi** over per-vehicle candidate lattices:

* **Identical models.** Candidate generation, the Gaussian emission model,
  the exponential transition model and the segment-pair network-distance
  cache are *shared with* the offline matcher (one
  :class:`~repro.mapmatching.hmm.HMMMapMatcher` instance backs any number of
  vehicle sessions), so the per-column scores are bit-identical to the
  columns the offline Viterbi would compute.
* **Convergence commits.** After each new fix the matcher walks the
  backpointers of every still-viable candidate of the newest column. Every
  prefix column on which *all* of them agree is provably part of whatever
  path the offline Viterbi will eventually pick — those points are committed
  (emitted as matched road segments) immediately and their columns dropped.
  On clean traces this keeps the lattice a handful of points deep and the
  final segment sequence *exactly equal* to the offline match.
* **Bounded latency.** Ambiguity can postpone convergence indefinitely (two
  parallel roads under a wide-noise fix), so ``max_pending`` bounds the
  uncommitted lattice: when exceeded, the current best path is committed
  outright (a *forced commit* — counted, and the only situation in which the
  online decision can deviate from offline Viterbi).
* **Connected output.** Committed candidates run through the same
  collapse-duplicates / bridge-gaps post-processing as the offline matcher's
  ``_connect`` — applied incrementally, left to right, which yields the same
  route — so consumers downstream (the detection service) always see a
  connected road-segment stream.

Failure modes mirror the offline matcher point for point: a fix with no
candidate anywhere raises :class:`~repro.exceptions.UnmatchablePointError`
(offline: the whole trajectory fails), a fix none of whose candidates is
reachable from the previous column raises
:class:`~repro.exceptions.MatchBreakError` (offline: Viterbi dead-ends).
Both leave the session consistent and the offending point unconsumed, so a
stream-side caller (the ingest gateway) can drop the fix or split the trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..obs.registry import Reservoir
from ..exceptions import (DisconnectedRouteError, MapMatchingError,
                          MatchBreakError, UnmatchablePointError)
from ..roadnet.shortest_path import dijkstra_route
from ..trajectory.models import GPSPoint
from .emission import gaussian_emission_log_prob
from .hmm import HMMMapMatcher

_NEG_INF = float("-inf")

#: Commit-lag samples kept per matcher (reservoir size). Beyond this many
#: commits the reservoir keeps a uniform random sample of *all* lags seen,
#: so latency percentiles stay representative at soak length instead of
#: freezing on the startup window.
_MAX_LAG_SAMPLES = 100_000


class _Column:
    """One GPS fix's slice of a session's candidate lattice."""

    __slots__ = ("candidates", "backpointers", "arrival", "segments")

    def __init__(self, candidates: List[Tuple[int, float]],
                 backpointers: List[int], arrival: int):
        self.candidates = candidates      # (segment, distance) pairs
        self.backpointers = backpointers  # into the previous column
        self.arrival = arrival            # session-local point index
        self.segments = [segment for segment, _ in candidates]

    def rooted_on(self, choice: int) -> "_Column":
        """A committed lattice root: this column cut down to one candidate."""
        return _Column([self.candidates[choice]], [-1], self.arrival)


class _Session:
    """The live lattice of one vehicle's trip."""

    __slots__ = ("columns", "scores", "last_point", "anchored", "route",
                 "route_tail", "points_matched", "forced_commits",
                 "max_commit_lag", "committed_points", "squared_distance_sum")

    def __init__(self):
        self.columns: List[_Column] = []
        self.scores: List[float] = []  # newest column only
        self.last_point: Optional[GPSPoint] = None
        self.anchored = False      # columns[0] is already committed
        self.route: List[int] = []  # connected, committed
        self.route_tail: Optional[int] = None
        self.points_matched = 0
        self.forced_commits = 0
        self.max_commit_lag = 0
        self.committed_points = 0
        self.squared_distance_sum = 0.0  # of committed fixes, for confidence

    @property
    def uncommitted(self) -> int:
        return len(self.columns) - (1 if self.anchored else 0)


@dataclass
class OnlineMatchResult:
    """Outcome of one finished online-matching session.

    ``route`` is the full connected matched route (every segment was already
    emitted through :meth:`OnlineMapMatcher.push` / :meth:`finish`);
    ``log_likelihood`` is the Viterbi score of the decoded path (equal to the
    offline matcher's on convergence-only sessions); ``forced_commits``
    counts window-bound emissions (0 means the decode was exact);
    ``broken`` marks a session whose final commit could not be connected
    (the offline matcher would have failed the whole trajectory).
    """

    route: List[int]
    log_likelihood: float
    points_matched: int
    forced_commits: int
    max_commit_lag: int
    broken: bool = False
    #: How well the raw fixes sit on the matched route, in [0, 1]: the
    #: geometric-mean emission likelihood of the decoded candidates
    #: relative to dead-on fixes — ``exp(-mean(d^2) / (2 sigma^2))`` over
    #: the committed fix-to-segment distances ``d``. 1.0 means every fix
    #: lay exactly on its matched segment; GPS noise at the model's
    #: ``gps_sigma_m`` scores ~0.6, wide-noise or misattributed fixes pull
    #: it toward 0, and broken sessions score exactly 0. Emission-only by
    #: design: the transition model's straight-line-vs-network gap is
    #: route-geometry, not match quality, and would drown the signal.
    confidence: float = 0.0

    @property
    def succeeded(self) -> bool:
        return bool(self.route) and not self.broken


class OnlineMapMatcher:
    """Incremental HMM map matcher over per-vehicle GPS streams.

    Wraps an offline :class:`HMMMapMatcher` (whose emission/transition
    models, spatial index and segment-pair distance cache it shares across
    every session) and matches any number of concurrent vehicle streams
    point by point: :meth:`push` feeds one fix and returns the road segments
    whose match just became final, :meth:`finish` closes a trip and returns
    the remainder plus the session summary.
    """

    def __init__(self, matcher: HMMMapMatcher, max_pending: int = 64,
                 lag_sample_cap: int = _MAX_LAG_SAMPLES):
        if max_pending < 2:
            raise MapMatchingError("max_pending must be >= 2")
        if lag_sample_cap < 1:
            raise MapMatchingError("lag_sample_cap must be >= 1")
        self._matcher = matcher
        self._network = matcher.network
        self._config = matcher.config
        self._max_pending = max_pending
        self._sessions: Dict[Hashable, _Session] = {}
        # Fleet-wide commit statistics (the gateway's latency dashboard).
        self.commits = 0
        self.forced_commits = 0
        self.max_commit_lag = 0
        self.commit_lag_sum = 0
        self._lag_sample_cap = lag_sample_cap
        # Seeded so latency reports are reproducible run to run; the seed
        # only shuffles which lags the capped reservoir retains.
        self._lag_reservoir = Reservoir(lag_sample_cap, seed=0x1A6)

    # ------------------------------------------------------------ properties
    @property
    def commit_lag_samples(self) -> List[int]:
        """The retained uniform sample of commit lags (read-only view)."""
        return self._lag_reservoir.samples

    @property
    def matcher(self) -> HMMMapMatcher:
        return self._matcher

    @property
    def max_pending(self) -> int:
        return self._max_pending

    @property
    def active_sessions(self) -> List[Hashable]:
        return list(self._sessions)

    @property
    def mean_commit_lag(self) -> float:
        return self.commit_lag_sum / self.commits if self.commits else 0.0

    def has_session(self, key: Hashable) -> bool:
        return key in self._sessions

    def pending_points(self, key: Hashable) -> int:
        """Fixes of one session matched but not yet committed."""
        return self._session(key).uncommitted

    # ------------------------------------------------------------------ push
    def push(self, key: Hashable, point: GPSPoint) -> List[int]:
        """Feed one GPS fix of one vehicle; returns newly committed segments.

        The first push for an unknown ``key`` opens the session. The
        returned segments are connected continuations of everything emitted
        for this session so far (duplicates collapsed, gaps bridged by
        shortest paths — the offline matcher's route post-processing applied
        incrementally). Raises :class:`UnmatchablePointError` /
        :class:`MatchBreakError` *without consuming the point* — see the
        module docstring for the recovery contract.
        """
        candidates = self._matcher.candidates_near(point.x, point.y)
        if not candidates:
            raise UnmatchablePointError(
                f"GPS fix ({point.x:.1f}, {point.y:.1f}) has no candidate "
                "segment anywhere near it")
        session = self._sessions.get(key)
        if session is None:
            session = self._sessions[key] = _Session()
        columns = session.columns

        if not columns:
            sigma = self._config.gps_sigma_m
            session.scores = [gaussian_emission_log_prob(distance, sigma)
                              for _, distance in candidates]
            columns.append(_Column(candidates, [-1] * len(candidates), 0))
            session.last_point = point
            session.points_matched = 1
            return self._converge(session)

        previous_point = session.last_point
        straight = math.hypot(point.x - previous_point.x,
                              point.y - previous_point.y)
        current_scores, current_back = self._matcher.viterbi_step(
            session.scores, columns[-1].segments, candidates, straight)
        if max(current_scores) == _NEG_INF:
            raise MatchBreakError(
                f"no candidate of GPS fix ({point.x:.1f}, {point.y:.1f}) is "
                "reachable from the previous fix's candidates")

        columns.append(
            _Column(candidates, current_back, session.points_matched))
        session.scores = current_scores
        session.last_point = point
        session.points_matched += 1

        # A bridging failure during commit cannot actually occur (every
        # committed adjacent pair is linked by a finite-network-distance
        # transition, so a connecting route exists), but if the defensive
        # raise in _commit ever fires the lattice has already consumed the
        # point — drop the whole session rather than break the "point not
        # consumed" contract with a half-updated lattice. The committed
        # route emitted so far remains valid.
        try:
            emitted = self._converge(session)
            if session.uncommitted > self._max_pending:
                emitted += self._force_commit(session)
        except MatchBreakError:
            self.discard(key)
            raise
        return emitted

    # ---------------------------------------------------------------- finish
    def finish(self, key: Hashable) -> OnlineMatchResult:
        """Close one session: commit its remaining lattice, return the route.

        The backtrack from the final column reproduces the offline Viterbi
        decision exactly (same tie-breaks), so on a session that never hit a
        forced commit the concatenated route equals the offline match. A
        route whose final commit cannot be connected comes back with
        ``broken=True`` (the offline matcher would have failed outright).
        """
        session = self._session(key)
        del self._sessions[key]
        if not session.columns:  # pragma: no cover - defensive
            return OnlineMatchResult([], _NEG_INF, 0, 0, 0)
        best, path = self._best_path(session)
        score = session.scores[best]
        start = 1 if session.anchored else 0
        broken = False
        try:
            self._commit(session,
                         [(session.columns[i], path[i])
                          for i in range(start, len(session.columns))])
        except MatchBreakError:
            broken = True
        return OnlineMatchResult(
            route=session.route,
            log_likelihood=float(score),
            points_matched=session.points_matched,
            forced_commits=session.forced_commits,
            max_commit_lag=session.max_commit_lag,
            broken=broken,
            confidence=self._confidence(session, broken),
        )

    def _confidence(self, session: _Session, broken: bool) -> float:
        """Emission-quality score in [0, 1] (see the result field's doc).

        Computed from the committed candidates' fix-to-segment distances
        only — comparing the raw likelihood against its ceiling instead
        would fold in the transition model's straight-line-vs-network gap,
        which reflects route geometry (a fix every 30 m along 220 m
        segments) rather than match quality, and compresses every score
        into an unthresholdable sliver above zero.
        """
        if broken or not session.route or session.committed_points <= 0:
            return 0.0
        sigma = self._config.gps_sigma_m
        mean_squared = session.squared_distance_sum / session.committed_points
        return math.exp(-0.5 * mean_squared / (sigma * sigma))

    def discard(self, key: Hashable) -> None:
        """Drop one session without committing its pending lattice."""
        self._sessions.pop(key, None)

    # ------------------------------------------------------------- internals
    def _session(self, key: Hashable) -> _Session:
        try:
            return self._sessions[key]
        except KeyError:
            raise MapMatchingError(
                f"no active matching session for {key!r}") from None

    def _converge(self, session: _Session) -> List[int]:
        """Commit every prefix column all viable paths agree on: walk the
        alive candidates back from the newest column until one is left
        (every earlier column then has one too), then follow its chain."""
        columns = session.columns
        start = 1 if session.anchored else 0
        alive = {i for i, score in enumerate(session.scores)
                 if score != _NEG_INF}
        root_index = len(columns) - 1
        while len(alive) > 1 and root_index > start:
            backpointers = columns[root_index].backpointers
            alive = {backpointers[j] for j in alive}
            root_index -= 1
        if len(alive) != 1 or root_index < start:
            return []
        root_choice, = alive
        chosen = [root_choice]
        for i in range(root_index, start, -1):
            chosen.append(columns[i].backpointers[chosen[-1]])
        chosen.reverse()
        emitted = self._commit(
            session, list(zip(columns[start:root_index + 1], chosen)))
        # Re-root the lattice on the last committed column.
        remainder = columns[root_index + 1:]
        if remainder:
            remainder[0].backpointers = [
                0 if pointer == root_choice else -1
                for pointer in remainder[0].backpointers]
        else:
            session.scores = [session.scores[root_choice]]
        session.columns = [columns[root_index].rooted_on(root_choice)] + remainder
        session.anchored = True
        return emitted

    @staticmethod
    def _best_path(session: _Session) -> Tuple[int, List[int]]:
        """Viterbi backtrack: the best final candidate (offline tie-break —
        first maximum) and the chosen candidate index per column."""
        best = max(range(len(session.scores)),
                   key=lambda k: session.scores[k])
        path = [best]
        for i in range(len(session.columns) - 1, 0, -1):
            path.append(session.columns[i].backpointers[path[-1]])
        path.reverse()
        return best, path

    def _force_commit(self, session: _Session) -> List[int]:
        """Window overflow: commit the current best path outright."""
        columns = session.columns
        best, path = self._best_path(session)
        start = 1 if session.anchored else 0
        emitted = self._commit(
            session, [(columns[i], path[i])
                      for i in range(start, len(columns))])
        session.columns = [columns[-1].rooted_on(best)]
        session.scores = [session.scores[best]]
        session.anchored = True
        session.forced_commits += 1
        self.forced_commits += 1
        return emitted

    def _commit(self, session: _Session,
                choices: List[Tuple[_Column, int]]) -> List[int]:
        """Emit chosen candidates through the incremental route connector.

        Atomic: the connected continuation is computed in full before any
        session state changes, so a bridging failure (raised as
        :class:`MatchBreakError`) leaves the session's committed route
        exactly as it was.
        """
        tail = session.route_tail
        emitted: List[int] = []
        for column, choice in choices:
            segment = column.candidates[choice][0]
            if tail is None:
                emitted.append(segment)
            elif segment == tail:
                pass
            elif segment in self._network.successor_segments(tail):
                emitted.append(segment)
            else:
                try:
                    bridge = dijkstra_route(self._network, tail, segment)
                except DisconnectedRouteError:
                    raise MatchBreakError(
                        f"committed route cannot be connected from segment "
                        f"{tail} to segment {segment}") from None
                emitted.extend(bridge[1:])
            if emitted:
                tail = emitted[-1]
        # Point of no return: apply route, lag and confidence accounting.
        # One reservoir add per committed column, in column order: its
        # population counter tracks ``self.commits`` exactly, so the retained
        # sample stays a uniform sample of every commit ever made.
        newest_arrival = session.points_matched - 1
        squared_sum = session.squared_distance_sum
        max_lag = session.max_commit_lag
        lag_sum = 0
        sample_lag = self._lag_reservoir.add
        for column, choice in choices:
            distance = column.candidates[choice][1]
            squared_sum += distance * distance
            lag = newest_arrival - column.arrival
            if lag > max_lag:
                max_lag = lag
            lag_sum += lag
            sample_lag(lag)
        session.squared_distance_sum = squared_sum
        session.committed_points += len(choices)
        session.max_commit_lag = max_lag
        if max_lag > self.max_commit_lag:
            self.max_commit_lag = max_lag
        self.commit_lag_sum += lag_sum
        self.commits += len(choices)
        session.route.extend(emitted)
        if emitted:
            session.route_tail = emitted[-1]
        elif choices and session.route_tail is None:  # pragma: no cover
            raise MapMatchingError("commit produced no route prefix")
        return emitted

