"""The HMM (Viterbi) map matcher."""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import MapMatchingConfig
from ..exceptions import (DisconnectedRouteError, MapMatchingError,
                          RoadNetworkError)
from ..roadnet.graph import RoadNetwork
from ..roadnet.shortest_path import dijkstra_route
from ..roadnet.spatial import SpatialIndex
from ..trajectory.models import MatchedTrajectory, RawTrajectory
from .emission import _LOG_SQRT_2PI, gaussian_emission_log_prob

_NEG_INF = float("-inf")


class SegmentPairDistanceCache:
    """A bounded LRU cache of network distances between segment pairs.

    Stored as rows, ``to_segment -> {from_segment: metres}``, because a
    Viterbi column asks for every predecessor of one candidate at once.
    Recency is per row; ``len(cache)``, ``max_size``, ``hits`` / ``misses``
    and ``evictions`` count *pairs*: past ``max_size`` pairs the least
    recently used rows are evicted whole (a lone row wider than the bound
    sheds its own oldest pairs). One instance is shared by every match of a
    matcher — and, through
    :class:`~repro.mapmatching.online.OnlineMapMatcher`, by every vehicle
    session of a streaming fleet — because consecutive GPS fixes of
    different trips keep asking for the same arterial segment pairs.

    **Recency contract — an approximate LRU.** A read marks its row most
    recently used only while the cache holds at least half of ``max_size``;
    below that a hit mutates nothing, so rows sit in creation order.
    Eviction needs more than ``max_size`` pairs, so every row read since the
    half-way mark outlives every row that was not — but rows *untouched
    since the mark* are evicted in creation order, not last-read order, so
    victims (and hence hit / miss counts) can differ from a full LRU's on a
    cache that reaches its bound. A fleet whose working set never nears the
    bound never pays for an order nobody will consult.
    """

    def __init__(self, max_size: int = 65536):
        if max_size < 1:
            raise MapMatchingError(
                "the segment-pair distance cache needs max_size >= 1")
        self._max_size = max_size
        self._rows: "OrderedDict[int, Dict[int, float]]" = OrderedDict()
        self._pairs = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return self._pairs

    @property
    def max_size(self) -> int:
        return self._max_size

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def row(self, to_segment: int) -> Dict[int, float]:
        """The live row of ``to_segment`` (created empty when absent), marked
        most recently used under the recency contract. Reads of it are
        uncounted: add pair ``hits`` / ``misses`` yourself, and fill misses
        through :meth:`store`."""
        row = self._rows.get(to_segment)
        if row is None:
            row = self._rows[to_segment] = {}
        elif 2 * self._pairs >= self._max_size:
            self._rows.move_to_end(to_segment)
        return row

    def lookup(self, key: Tuple[int, int]) -> Optional[float]:
        """The cached ``(from_segment, to_segment)`` distance, or ``None``
        (counts hit/miss)."""
        distance = self.row(key[1]).get(key[0])
        if distance is None:
            self.misses += 1
        else:
            self.hits += 1
        return distance

    def __contains__(self, key: Tuple[int, int]) -> bool:
        """Whether the pair is held: uncounted, and never a touch."""
        return key[0] in self._rows.get(key[1], ())

    def store(self, key: Tuple[int, int], distance: float) -> None:
        from_segment, to_segment = key
        row = self.row(to_segment)
        if from_segment not in row:
            self._pairs += 1
        row[from_segment] = distance
        while self._pairs > self._max_size:
            oldest = next(iter(self._rows.values()))
            if oldest is row:  # the only row left: shed its own oldest pair
                del row[next(iter(row))]
                shed = 1
            else:
                self._rows.popitem(last=False)
                shed = len(oldest)
            self._pairs -= shed
            self.evictions += shed


@dataclass
class MatchResult:
    """Outcome of matching one raw trajectory.

    ``matched`` is the matched trajectory (``None`` when matching failed),
    ``log_likelihood`` the Viterbi score, and ``candidate_counts`` the number
    of candidate segments considered per GPS point (useful for diagnostics).
    """

    matched: Optional[MatchedTrajectory]
    log_likelihood: float
    candidate_counts: List[int]

    @property
    def succeeded(self) -> bool:
        return self.matched is not None


class HMMMapMatcher:
    """Hidden-Markov-model map matcher over a road network.

    The matcher caches a spatial index of the network and an approximate
    LRU of segment-pair network distances (``distance_cache_size``, 65 536
    by default): consecutive GPS points of many trips repeat the same pairs.
    """

    def __init__(self, network: RoadNetwork,
                 config: Optional[MapMatchingConfig] = None):
        self._network = network
        self._config = (config or MapMatchingConfig()).validate()
        self._index = SpatialIndex(network, cell_size_m=self._config.candidate_radius_m)
        self._distance_cache = SegmentPairDistanceCache(
            self._config.distance_cache_size)
        # The column update's per-model constants (the config is frozen).
        self._log_beta = math.log(self._config.transition_beta)
        self._log_sigma = math.log(self._config.gps_sigma_m)
        #: segment -> ((successor, successor length_m), ...) in network
        #: order, filled the first time the routing expands a segment.
        self._successors: Dict[int, Tuple[Tuple[int, float], ...]] = {}

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def config(self) -> MapMatchingConfig:
        return self._config

    @property
    def distance_cache(self) -> SegmentPairDistanceCache:
        """The shared segment-pair network-distance cache (LRU-bounded)."""
        return self._distance_cache

    # ----------------------------------------------------------- public API
    def match(self, trajectory: RawTrajectory) -> MatchResult:
        """Match one raw trajectory onto the road network."""
        candidates_per_point = self._candidates(trajectory)
        candidate_counts = [len(c) for c in candidates_per_point]
        if any(count == 0 for count in candidate_counts):
            return MatchResult(None, float("-inf"), candidate_counts)

        path, score = self._viterbi(trajectory, candidates_per_point)
        if path is None:
            return MatchResult(None, float("-inf"), candidate_counts)

        segments = self._connect(path)
        if not segments:
            return MatchResult(None, float("-inf"), candidate_counts)
        matched = MatchedTrajectory(
            trajectory_id=trajectory.trajectory_id,
            segments=segments,
            start_time_s=trajectory.start_time_s,
        )
        return MatchResult(matched, score, candidate_counts)

    def match_many(self, trajectories: Sequence[RawTrajectory]) -> List[MatchResult]:
        """Match a batch of raw trajectories."""
        return [self.match(trajectory) for trajectory in trajectories]

    # --------------------------------------------------- shared with online
    def candidates_near(self, x: float, y: float) -> List[Tuple[int, float]]:
        """Candidate ``(segment, distance)`` pairs for one GPS fix.

        Segments within ``candidate_radius_m`` sorted by distance (falling
        back to the single nearest segment when the radius finds nothing),
        truncated to ``max_candidates``. This is the exact per-point
        candidate generation of :meth:`match`, exposed so the incremental
        :class:`~repro.mapmatching.online.OnlineMapMatcher` builds the same
        lattice the offline Viterbi would.
        """
        config = self._config
        near = self._index.segments_near(x, y, config.candidate_radius_m)
        if not near:
            try:
                near = [self._index.nearest_segment(x, y)]
            except RoadNetworkError:  # nothing within nearest_segment's reach
                near = []
        return near[: config.max_candidates]

    def network_distance(self, from_segment: int, to_segment: int) -> float:
        """Bounded network distance between two segments (metres), cached."""
        cached = self._distance_cache.lookup((from_segment, to_segment))
        return (cached if cached is not None
                else self._route_distance(from_segment, to_segment))

    def viterbi_step(
        self,
        previous_scores: Sequence[float],
        from_segments: Sequence[int],
        candidates: Sequence[Tuple[int, float]],
        straight_m: float,
    ) -> Tuple[List[float], List[int]]:
        """One Viterbi column update: the inner step shared by the offline
        :meth:`match` and :class:`~repro.mapmatching.online.OnlineMapMatcher`.

        Given the previous column (``previous_scores`` per ``from_segments``
        candidate) and the new fix's ``candidates`` (``(segment, distance)``
        pairs) at straight-line displacement ``straight_m``, returns the new
        column's ``(scores, backpointers)``: per candidate the maximum over
        predecessors of ``(previous + transition_log_prob) + emission``,
        first maximum winning ties, ``-inf`` / ``-1`` when no predecessor
        reaches it. Network distances come from one
        :class:`SegmentPairDistanceCache` row per candidate (read under the
        cache's recency contract: a hit on a cache under half its bound
        mutates nothing); a predecessor's first miss runs one bounded search
        to every candidate whose row lacks it, which its later misses read —
        per-pair answers, stores and counts, one search per predecessor. The
        emission is :func:`gaussian_emission_log_prob`'s expression on
        hoisted constants — same operations in the same order, so scores
        are bit-identical to the model functions'; ``candidates`` come from
        :meth:`candidates_near`, whose distances are never negative.
        """
        config = self._config
        beta, sigma = config.transition_beta, config.gps_sigma_m
        log_beta, log_sigma = self._log_beta, self._log_sigma
        cache = self._distance_cache
        row_of = cache.row
        scores: List[float] = []
        backpointers: List[int] = []
        misses = 0
        #: from_segment -> {to_segment: metres}, its one search this column.
        searched: Dict[int, Dict[int, float]] = {}
        for to_segment, distance in candidates:
            z = distance / sigma
            emission = -0.5 * z * z - log_sigma - _LOG_SQRT_2PI
            row = row_of(to_segment)
            best, best_index = _NEG_INF, -1
            for index, from_segment in enumerate(from_segments):
                try:
                    network = row[from_segment]
                except KeyError:
                    answers = searched.get(from_segment)
                    if answers is None:
                        answers = searched[from_segment] = self._search(
                            from_segment,
                            [segment for segment, _ in candidates
                             if segment != from_segment
                             and (from_segment, segment) not in cache])
                        answers[from_segment] = 0.0
                    network = answers.get(to_segment)
                    if network is None:  # its row was evicted mid-column
                        network = self._search(
                            from_segment, (to_segment,))[to_segment]
                    cache.store((from_segment, to_segment), network)
                    misses += 1
                total = (previous_scores[index]
                         + (-abs(straight_m - network) / beta - log_beta)
                         ) + emission
                if total > best:
                    best, best_index = total, index
            scores.append(best)
            backpointers.append(best_index)
        cache.misses += misses
        cache.hits += len(candidates) * len(from_segments) - misses
        return scores, backpointers

    # ------------------------------------------------------------ internals
    def _candidates(self, trajectory: RawTrajectory) -> List[List[Tuple[int, float]]]:
        """Candidate (segment, distance) lists for every GPS point."""
        return [self.candidates_near(point.x, point.y)
                for point in trajectory.points]

    def _route_distance(self, from_segment: int, to_segment: int) -> float:
        """Cache-miss path: route one pair and store the result."""
        distance = self._search(from_segment, (to_segment,))[to_segment]
        self._distance_cache.store((from_segment, to_segment), distance)
        return distance

    def _search(self, source: int, targets: Sequence[int]) -> Dict[int, float]:
        """Shortest network distance to each target, ``inf`` for one not
        popped within ``8 * routing_max_hops`` pops; stops once all have.
        Pops do not depend on the targets, so each answer is a lone search's.
        The factor 8 is part of the result (it decides which pairs are
        unreachable, hence which lattices break) — do not "fix" it to match
        the field's name."""
        network, successors = self._network, self._successors
        budget = 8 * self._config.routing_max_hops
        answers = dict.fromkeys(targets, float("inf"))
        pending = set(answers)
        best: Dict[int, float] = {source: 0.0}
        frontier: List[Tuple[float, int]] = [(0.0, source)]
        visited = set()
        while pending and frontier and len(visited) < budget:
            cost, current = heapq.heappop(frontier)
            if current in visited:
                continue
            visited.add(current)
            if current in pending:
                answers[current] = cost
                pending.discard(current)
                if not pending:
                    break
            edges = successors.get(current)
            if edges is None:
                edges = successors[current] = tuple(
                    (successor, network.segment(successor).length_m)
                    for successor in network.successor_segments(current))
            # Push order is part of the result: heap ties decide which
            # equal-cost segment is expanded before the cut-off.
            for successor, length_m in edges:
                if successor in visited:
                    continue
                new_cost = cost + length_m
                if new_cost < best.get(successor, float("inf")):
                    best[successor] = new_cost
                    heapq.heappush(frontier, (new_cost, successor))
        return answers

    def _viterbi(
        self,
        trajectory: RawTrajectory,
        candidates_per_point: List[List[Tuple[int, float]]],
    ) -> Tuple[Optional[List[int]], float]:
        """Run Viterbi decoding over the candidate lattice."""
        config = self._config
        points = trajectory.points

        # scores[i][k]: best log prob of reaching candidate k at point i.
        scores: List[List[float]] = []
        backpointers: List[List[int]] = []

        first_scores = [
            gaussian_emission_log_prob(distance, config.gps_sigma_m)
            for _, distance in candidates_per_point[0]
        ]
        scores.append(first_scores)
        backpointers.append([-1] * len(first_scores))

        for i in range(1, len(points)):
            previous_point, point = points[i - 1], points[i]
            straight = math.hypot(point.x - previous_point.x,
                                  point.y - previous_point.y)
            from_segments = [segment for segment, _ in candidates_per_point[i - 1]]
            current_scores, current_back = self.viterbi_step(
                scores[i - 1], from_segments, candidates_per_point[i], straight)
            scores.append(current_scores)
            backpointers.append(current_back)
            if max(current_scores) == _NEG_INF:
                return None, _NEG_INF

        # Backtrack.
        last = len(points) - 1
        best_last = max(range(len(scores[last])), key=lambda k: scores[last][k])
        if scores[last][best_last] == float("-inf"):
            return None, float("-inf")
        path_indices = [best_last]
        for i in range(last, 0, -1):
            path_indices.append(backpointers[i][path_indices[-1]])
        path_indices.reverse()
        path = [candidates_per_point[i][k][0] for i, k in enumerate(path_indices)]
        return path, float(scores[last][best_last])

    def _connect(self, raw_path: List[int]) -> List[int]:
        """Collapse repeats and fill gaps so the matched route is connected."""
        network = self._network
        # Collapse consecutive duplicates.
        collapsed = [raw_path[0]]
        for segment in raw_path[1:]:
            if segment != collapsed[-1]:
                collapsed.append(segment)
        # Fill gaps with shortest paths.
        route = [collapsed[0]]
        for segment in collapsed[1:]:
            previous = route[-1]
            if segment in network.successor_segments(previous):
                route.append(segment)
                continue
            try:
                bridge = dijkstra_route(network, previous, segment)
            except DisconnectedRouteError:
                return []
            route.extend(bridge[1:])
        # Nothing is removed: an immediate reversal (A -> reverse(A)) that a
        # noisy candidate introduces stays in the route, as a real U-turn does.
        return route
