"""The online matcher as plain scalar loops: the tests' reference.

This is :class:`~repro.mapmatching.online.OnlineMapMatcher` written out the
slow way, in the image of ``reference_detector.py``: after every fix the
alive candidates of the newest column are walked back, one set
comprehension per uncommitted column, until one is left or the first
uncommitted column is reached (the production ``_converge`` is the same
walk). It shares nothing with the production per-fix path but the
:class:`~repro.mapmatching.hmm.HMMMapMatcher` primitives
``candidates_near`` and ``network_distance``: the column update is the
nested loop over the model functions (``transition_log_prob`` +
``gaussian_emission_log_prob``, first maximum wins), the lattice is plain
lists, the accounting is written out per committed column. Give it its own
``HMMMapMatcher`` (its own distance cache) and it is independent of
``viterbi_step`` as well.

``tests/test_matcher_reference.py`` drives both forms push by push and
requires equal emitted segments, and at finish an equal
:class:`~repro.mapmatching.online.OnlineMatchResult` and an equal commit-lag
reservoir (same ``Reservoir.add`` sequence).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List

from repro.exceptions import (DisconnectedRouteError, MatchBreakError,
                              UnmatchablePointError)
from repro.mapmatching import HMMMapMatcher, OnlineMatchResult
from repro.mapmatching.emission import gaussian_emission_log_prob
from repro.mapmatching.transition import transition_log_prob
from repro.obs.registry import Reservoir
from repro.roadnet.shortest_path import dijkstra_route
from repro.trajectory.models import GPSPoint

_NEG_INF = float("-inf")


class _Lattice:
    """One session: columns are ``[candidates, backpointers, arrival]``."""

    def __init__(self):
        self.columns: List[list] = []
        self.scores: List[float] = []
        self.last_point = None
        self.anchored = False
        self.route: List[int] = []
        self.points_matched = 0
        self.forced_commits = 0
        self.max_commit_lag = 0
        self.squared_distances: List[float] = []


class ReferenceOnlineMatcher:
    """Scalar incremental Viterbi over any number of keyed sessions."""

    def __init__(self, matcher: HMMMapMatcher, max_pending: int = 64,
                 lag_sample_cap: int = 100_000):
        self.matcher = matcher
        self.max_pending = max_pending
        self.sessions: Dict[Hashable, _Lattice] = {}
        self.commits = 0
        self.forced_commits = 0
        self.max_commit_lag = 0
        self.commit_lag_sum = 0
        self.reservoir = Reservoir(lag_sample_cap, seed=0x1A6)

    @property
    def commit_lag_samples(self) -> List[int]:
        return self.reservoir.samples

    def pending_points(self, key: Hashable) -> int:
        lattice = self.sessions[key]
        return len(lattice.columns) - (1 if lattice.anchored else 0)

    # ------------------------------------------------------------------ push
    def push(self, key: Hashable, point: GPSPoint) -> List[int]:
        config = self.matcher.config
        candidates = self.matcher.candidates_near(point.x, point.y)
        if not candidates:
            raise UnmatchablePointError("no candidate segment")
        lattice = self.sessions.setdefault(key, _Lattice())
        if not lattice.columns:
            lattice.scores = [
                gaussian_emission_log_prob(distance, config.gps_sigma_m)
                for _, distance in candidates]
            lattice.columns.append([candidates, [-1] * len(candidates), 0])
            lattice.last_point = point
            lattice.points_matched = 1
            return self._converge(lattice)

        straight = math.hypot(point.x - lattice.last_point.x,
                              point.y - lattice.last_point.y)
        previous = lattice.columns[-1][0]
        scores, backpointers = [], []
        for to_segment, distance in candidates:
            emission = gaussian_emission_log_prob(distance, config.gps_sigma_m)
            best, best_index = _NEG_INF, -1
            for index, (from_segment, _) in enumerate(previous):
                transition = transition_log_prob(
                    straight,
                    self.matcher.network_distance(from_segment, to_segment),
                    config.transition_beta)
                total = (lattice.scores[index] + transition) + emission
                if total > best:
                    best, best_index = total, index
            scores.append(best)
            backpointers.append(best_index)
        if max(scores) == _NEG_INF:
            raise MatchBreakError("fix unreachable from the previous column")

        lattice.columns.append(
            [candidates, backpointers, lattice.points_matched])
        lattice.scores = scores
        lattice.last_point = point
        lattice.points_matched += 1
        try:
            emitted = self._converge(lattice)
            if (len(lattice.columns) - (1 if lattice.anchored else 0)
                    > self.max_pending):
                emitted = emitted + self._force_commit(lattice)
        except MatchBreakError:
            self.sessions.pop(key, None)
            raise
        return emitted

    # ---------------------------------------------------------------- finish
    def finish(self, key: Hashable) -> OnlineMatchResult:
        lattice = self.sessions.pop(key)
        best, path = self._best_path(lattice)
        start = 1 if lattice.anchored else 0
        broken = False
        try:
            self._commit(lattice,
                         [(lattice.columns[i], path[i])
                          for i in range(start, len(lattice.columns))])
        except MatchBreakError:
            broken = True
        confidence = 0.0
        if not broken and lattice.route and lattice.squared_distances:
            sigma = self.matcher.config.gps_sigma_m
            total = 0.0
            for squared in lattice.squared_distances:
                total += squared
            confidence = math.exp(
                -0.5 * (total / len(lattice.squared_distances))
                / (sigma * sigma))
        return OnlineMatchResult(
            route=lattice.route,
            log_likelihood=float(lattice.scores[best]),
            points_matched=lattice.points_matched,
            forced_commits=lattice.forced_commits,
            max_commit_lag=lattice.max_commit_lag,
            broken=broken,
            confidence=confidence)

    # ------------------------------------------------------------- internals
    def _converge(self, lattice: _Lattice) -> List[int]:
        """The convergence walk: one set per uncommitted column."""
        columns = lattice.columns
        start = 1 if lattice.anchored else 0
        alive = {i for i, score in enumerate(lattice.scores)
                 if score != _NEG_INF}
        root_index = len(columns) - 1
        while len(alive) > 1 and root_index > start:
            backpointers = columns[root_index][1]
            alive = {backpointers[j] for j in alive}
            root_index -= 1
        if len(alive) != 1 or root_index < start:
            return []
        root_choice, = alive
        chosen = [root_choice]
        for i in range(root_index, start, -1):
            chosen.append(columns[i][1][chosen[-1]])
        chosen.reverse()
        emitted = self._commit(
            lattice, list(zip(columns[start:root_index + 1], chosen)))
        remainder = columns[root_index + 1:]
        if remainder:
            remainder[0][1] = [0 if pointer == root_choice else -1
                               for pointer in remainder[0][1]]
        else:
            lattice.scores = [lattice.scores[root_choice]]
        lattice.columns = [self._rooted(columns[root_index], root_choice)
                           ] + remainder
        lattice.anchored = True
        return emitted

    @staticmethod
    def _rooted(column: list, choice: int) -> list:
        return [[column[0][choice]], [-1], column[2]]

    @staticmethod
    def _best_path(lattice: _Lattice):
        best = max(range(len(lattice.scores)),
                   key=lambda k: lattice.scores[k])
        path = [best]
        for i in range(len(lattice.columns) - 1, 0, -1):
            path.append(lattice.columns[i][1][path[-1]])
        path.reverse()
        return best, path

    def _force_commit(self, lattice: _Lattice) -> List[int]:
        columns = lattice.columns
        best, path = self._best_path(lattice)
        start = 1 if lattice.anchored else 0
        emitted = self._commit(
            lattice, [(columns[i], path[i])
                      for i in range(start, len(columns))])
        lattice.columns = [self._rooted(columns[-1], best)]
        lattice.scores = [lattice.scores[best]]
        lattice.anchored = True
        lattice.forced_commits += 1
        self.forced_commits += 1
        return emitted

    def _commit(self, lattice: _Lattice, choices) -> List[int]:
        network = self.matcher.network
        tail = lattice.route[-1] if lattice.route else None
        emitted: List[int] = []
        for column, choice in choices:
            segment = column[0][choice][0]
            if tail is None:
                emitted.append(segment)
            elif segment == tail:
                pass
            elif segment in network.successor_segments(tail):
                emitted.append(segment)
            else:
                try:
                    bridge = dijkstra_route(network, tail, segment)
                except DisconnectedRouteError:
                    raise MatchBreakError("route not connected") from None
                emitted.extend(bridge[1:])
            if emitted:
                tail = emitted[-1]
        newest_arrival = lattice.points_matched - 1
        for column, choice in choices:
            distance = column[0][choice][1]
            lattice.squared_distances.append(distance * distance)
            lag = newest_arrival - column[2]
            lattice.max_commit_lag = max(lattice.max_commit_lag, lag)
            self.max_commit_lag = max(self.max_commit_lag, lag)
            self.commit_lag_sum += lag
            self.commits += 1
            self.reservoir.add(lag)
        lattice.route.extend(emitted)
        return emitted


def jaccard_similarity(route_a, route_b) -> float:
    """Jaccard similarity of the segment sets of two routes: how much of a
    matched route overlaps its ground truth."""
    set_a, set_b = set(route_a), set(route_b)
    if not set_a and not set_b:
        return 1.0
    return len(set_a & set_b) / len(set_a | set_b)
