"""Tests of the HMM map matcher and its emission/transition models."""

import heapq
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MapMatchingConfig
from repro.datagen import sample_gps_trace, tiny_dataset
from repro.exceptions import MapMatchingError, RoadNetworkError
from repro.mapmatching import (
    HMMMapMatcher,
    gaussian_emission_log_prob,
    transition_log_prob,
)
from repro.roadnet import RoadNetwork

import numpy as np

from reference_matcher import jaccard_similarity


# ------------------------------------------------------------------- models
def test_emission_prefers_closer_points():
    near = gaussian_emission_log_prob(2.0, sigma_m=10.0)
    far = gaussian_emission_log_prob(40.0, sigma_m=10.0)
    assert near > far


def test_emission_rejects_bad_inputs():
    with pytest.raises(MapMatchingError):
        gaussian_emission_log_prob(5.0, sigma_m=0.0)
    with pytest.raises(MapMatchingError):
        gaussian_emission_log_prob(-1.0, sigma_m=5.0)


def test_transition_prefers_consistent_distances():
    consistent = transition_log_prob(100.0, 105.0, beta=5.0)
    inconsistent = transition_log_prob(100.0, 400.0, beta=5.0)
    assert consistent > inconsistent


def test_transition_rejects_bad_inputs():
    with pytest.raises(MapMatchingError):
        transition_log_prob(1.0, 1.0, beta=0.0)
    with pytest.raises(MapMatchingError):
        transition_log_prob(-1.0, 1.0, beta=1.0)


# ------------------------------------------------------------------ matcher
@pytest.fixture(scope="module")
def raw_dataset():
    return tiny_dataset(seed=7, include_raw=True)


@pytest.fixture(scope="module")
def matcher(raw_dataset):
    return HMMMapMatcher(raw_dataset.network)


def test_matcher_recovers_most_of_the_route(raw_dataset, matcher):
    hits = 0
    total = 0
    for raw, truth in zip(raw_dataset.raw_trajectories[:15],
                          raw_dataset.trajectories[:15]):
        result = matcher.match(raw)
        assert result.succeeded
        total += 1
        if jaccard_similarity(result.matched.segments, truth.segments) > 0.7:
            hits += 1
    assert hits / total >= 0.7


def test_matched_route_is_connected(raw_dataset, matcher):
    result = matcher.match(raw_dataset.raw_trajectories[0])
    assert result.succeeded
    assert raw_dataset.network.is_route_connected(result.matched.segments)


def test_match_preserves_metadata(raw_dataset, matcher):
    raw = raw_dataset.raw_trajectories[3]
    result = matcher.match(raw)
    assert result.matched.trajectory_id == raw.trajectory_id
    assert result.matched.start_time_s == raw.start_time_s
    assert result.log_likelihood > float("-inf")
    assert len(result.candidate_counts) == len(raw)


def test_match_many(raw_dataset, matcher):
    results = matcher.match_many(raw_dataset.raw_trajectories[:5])
    assert len(results) == 5
    assert all(r.succeeded for r in results)


def test_noisier_gps_still_matches(raw_dataset):
    """With heavy noise the matcher may lose accuracy but must not crash."""
    network = raw_dataset.network
    rng = np.random.default_rng(0)
    truth = raw_dataset.trajectories[0]
    noisy = sample_gps_trace(network, truth.segments, 0.0, rng, gps_noise_m=25.0)
    matcher = HMMMapMatcher(network, MapMatchingConfig(gps_sigma_m=25.0))
    result = matcher.match(noisy)
    assert result.succeeded


def test_matcher_exposes_config(raw_dataset):
    config = MapMatchingConfig(gps_sigma_m=9.0)
    matcher = HMMMapMatcher(raw_dataset.network, config)
    assert matcher.config.gps_sigma_m == 9.0
    assert matcher.network is raw_dataset.network


def test_candidates_near_only_absorbs_nothing_within_reach(raw_dataset):
    """Far from every road ``nearest_segment`` raises ``RoadNetworkError`` and
    the fix has no candidates; any other failure of the index is a defect and
    must surface, not turn into a silently dropped fix."""
    matcher = HMMMapMatcher(raw_dataset.network)
    assert matcher.candidates_near(1e7, 1e7) == []

    def broken(x, y):
        raise ZeroDivisionError("defect in the index")

    matcher._index.nearest_segment = broken
    with pytest.raises(ZeroDivisionError):
        matcher.candidates_near(1e7, 1e7)

    def nothing(x, y):
        raise RoadNetworkError("no segment within reach")

    matcher._index.nearest_segment = nothing
    assert matcher.candidates_near(1e7, 1e7) == []


# ------------------------------------------------------------- viterbi_step
_NEG_INF = float("-inf")
_INF = float("inf")


def reference_viterbi_step(config, previous_scores, from_segments, candidates,
                           straight_m, network_m):
    """The column update as the model functions define it: a plain nested
    loop over ``transition_log_prob`` + ``gaussian_emission_log_prob``,
    first maximum wins, dead candidates score ``-inf`` / point at ``-1``."""
    scores, backpointers = [], []
    for to_segment, distance in candidates:
        emission = gaussian_emission_log_prob(distance, config.gps_sigma_m)
        best, best_index = _NEG_INF, -1
        for index, from_segment in enumerate(from_segments):
            transition = transition_log_prob(
                straight_m, network_m[from_segment, to_segment],
                config.transition_beta)
            total = (previous_scores[index] + transition) + emission
            if total > best:
                best, best_index = total, index
        scores.append(best)
        backpointers.append(best_index)
    return scores, backpointers


# Small pools, so exact ties between predecessors are the common case.
_previous = st.sampled_from([_NEG_INF, -1.0, -2.5, -2.5, -40.125])
_network = st.sampled_from([0.0, 50.0, 50.0, 120.75, 1e4, _INF])
_offset = st.sampled_from([0.0, 3.0, 3.0, 11.5, 49.0])


def check_step_against_reference(network, beta, previous_scores, network_m,
                                 candidates, straight_m):
    matcher = HMMMapMatcher(network, MapMatchingConfig(transition_beta=beta))
    for key, metres in network_m.items():  # so the step routes nothing
        matcher.distance_cache.store(key, metres)
    from_segments = list(range(len(previous_scores)))
    scores, backpointers = matcher.viterbi_step(
        previous_scores, from_segments, candidates, straight_m)
    expected_scores, expected_back = reference_viterbi_step(
        matcher.config, previous_scores, from_segments, candidates,
        straight_m, network_m)
    assert scores == expected_scores
    assert backpointers == expected_back
    assert all((score == _NEG_INF) == (pointer == -1)
               for score, pointer in zip(scores, backpointers))
    cache = matcher.distance_cache
    assert (cache.hits, cache.misses) == (len(network_m), 0)
    return scores, backpointers


@settings(max_examples=300, deadline=None)
@given(data=st.data(), from_width=st.integers(1, 8), to_width=st.integers(1, 8),
       straight_m=st.sampled_from([0.0, 50.0, 85.25, 300.0]),
       beta=st.sampled_from([1.0, 5.0, 30.0]))
def test_viterbi_step_equals_the_nested_loop_reference(
        raw_dataset, data, from_width, to_width, straight_m, beta):
    """Scores by ``==`` on floats, backpointers exactly, over random columns
    of width 1-8 with unreachable pairs (``inf`` network distance), pruned
    predecessors (``-inf`` score) and exact ties."""
    to_segments = range(4, 4 + to_width)  # overlaps the from column
    previous_scores = data.draw(st.lists(
        _previous, min_size=from_width, max_size=from_width))
    network_m = {(f, t): data.draw(_network)
                 for f in range(from_width) for t in to_segments}
    candidates = [(t, data.draw(_offset)) for t in to_segments]
    check_step_against_reference(raw_dataset.network, beta, previous_scores,
                                 network_m, candidates, straight_m)


def test_viterbi_step_dead_columns_and_ties(raw_dataset):
    network = raw_dataset.network
    # No predecessor alive, or none that reaches: the whole column is dead.
    pairs = [(f, t) for f in range(3) for t in (7, 8)]
    for previous_scores, metres in [([_NEG_INF] * 3, 50.0), ([-1.0] * 3, _INF)]:
        scores, backpointers = check_step_against_reference(
            network, 5.0, previous_scores, dict.fromkeys(pairs, metres),
            [(7, 3.0), (8, 0.0)], 50.0)
        assert scores == [_NEG_INF] * 2 and backpointers == [-1] * 2
    # Every predecessor ties: the first one wins.
    _, backpointers = check_step_against_reference(
        network, 5.0, [-1.0] * 3, dict.fromkeys(pairs, 50.0),
        [(7, 3.0), (8, 0.0)], 50.0)
    assert backpointers == [0, 0]


def test_viterbi_step_routes_and_counts_misses_per_pair(raw_dataset, matcher):
    """On a cold cache every pair is one miss, filled with the same bounded
    network distance ``network_distance`` reports; asked again, one hit."""
    raw = raw_dataset.raw_trajectories[0]
    cold = HMMMapMatcher(raw_dataset.network)
    first, second = (cold.candidates_near(point.x, point.y)
                     for point in raw.points[:2])
    from_segments = [segment for segment, _ in first]
    previous_scores = [0.0] * len(first)
    straight_m = math.hypot(raw.points[1].x - raw.points[0].x,
                            raw.points[1].y - raw.points[0].y)
    pairs = len(first) * len(second)
    step = cold.viterbi_step(previous_scores, from_segments, second, straight_m)
    assert (cold.distance_cache.hits, cold.distance_cache.misses) == (0, pairs)
    assert len(cold.distance_cache) == pairs
    assert cold.viterbi_step(
        previous_scores, from_segments, second, straight_m) == step
    assert (cold.distance_cache.hits, cold.distance_cache.misses) == (pairs, pairs)
    network_m = {(f, t): matcher.network_distance(f, t)
                 for f in from_segments for t, _ in second}
    assert step == reference_viterbi_step(
        cold.config, previous_scores, from_segments, second, straight_m,
        network_m)


# ------------------------------------------------------------ cold routing
def reference_bounded_dijkstra(network, max_hops, source, target):
    """The routing as written against the ``RoadNetwork`` API (a successor
    list and a ``segment()`` lookup per relaxation). The order successors
    are pushed in is kept: heap ties decide which equal-cost segment is
    expanded before the ``max_hops * 8`` cut-off."""
    best = {source: 0.0}
    frontier = [(0.0, source)]
    visited = set()
    expansions = 0
    while frontier and expansions < max_hops * 8:
        cost, current = heapq.heappop(frontier)
        if current in visited:
            continue
        visited.add(current)
        expansions += 1
        if current == target:
            return cost
        for successor in network.successor_segments(current):
            if successor in visited:
                continue
            new_cost = cost + network.segment(successor).length_m
            if new_cost < best.get(successor, _INF):
                best[successor] = new_cost
                heapq.heappush(frontier, (new_cost, successor))
    return _INF


@pytest.mark.parametrize("max_hops", [1, 4, 60])
def test_network_distance_equals_the_reference_routing(grid_network, max_hops):
    """Same metres, bit for bit, with the cut-off biting (1, 4) and not (60).
    The grid's jittered nodes give each road its own length; equal-cost
    frontiers are the lattice's, in the multi-target test below."""
    matcher = HMMMapMatcher(grid_network,
                            MapMatchingConfig(routing_max_hops=max_hops))
    rng = np.random.default_rng(max_hops)
    segment_ids = grid_network.segment_ids()
    unreachable = 0
    for source, target in rng.choice(segment_ids, size=(300, 2)):
        source, target = int(source), int(target)
        expected = (0.0 if source == target else reference_bounded_dijkstra(
            grid_network, max_hops, source, target))
        assert matcher.network_distance(source, target) == expected
        unreachable += expected == _INF
    assert (unreachable > 0) == (max_hops < 60)
    with pytest.raises(RoadNetworkError):  # SegmentNotFoundError
        matcher.network_distance(10 ** 6, segment_ids[0])


def near_segments(network, source, hops):
    """Every segment within ``hops`` successor steps of ``source``."""
    ring, seen = {source}, {source}
    for _ in range(hops):
        ring = {successor for segment in ring
                for successor in network.successor_segments(segment)} - seen
        seen |= ring
    return sorted(seen)


def lattice_network(side: int = 6) -> RoadNetwork:
    """``side`` x ``side`` intersections 100 m apart, every street two-way:
    unlike ``grid_network``, whose jittered nodes give every road its own
    length, equal-cost routes (and so heap ties) are everywhere."""
    network = RoadNetwork()
    for node in range(side * side):
        row, col = divmod(node, side)
        network.add_intersection(node, 100.0 * col, 100.0 * row)
    segment = 0
    for node in range(side * side):
        row, col = divmod(node, side)
        for neighbour in ([node + 1] if col + 1 < side else []) + (
                [node + side] if row + 1 < side else []):
            for a, b in ((node, neighbour), (neighbour, node)):
                network.add_segment(segment, a, b)
                segment += 1
    return network


@pytest.fixture(scope="module")
def lattice():
    return lattice_network()


@pytest.mark.parametrize("max_hops", [1, 4, 60])
@pytest.mark.parametrize("city", ["grid", "lattice"])
def test_one_search_answers_every_target_as_the_reference_routing(
        grid_network, lattice, city, max_hops):
    """``_search(source, targets)[t]`` is the single-target reference's
    metres for every target, bit for bit: sets of 1-8 mixing neighbours
    with far segments (cut off at budgets 1 and 4), on the jittered grid and
    on the exact lattice, where equal-cost targets are the rule."""
    network = grid_network if city == "grid" else lattice
    matcher = HMMMapMatcher(network,
                            MapMatchingConfig(routing_max_hops=max_hops))
    rng = np.random.default_rng(100 + max_hops)
    segment_ids = network.segment_ids()
    cut_off = tied = 0
    for source in rng.choice(segment_ids, size=120):
        source = int(source)
        near = near_segments(network, source, 3)
        width = int(rng.integers(1, 9))
        pool = [int(s) for s in rng.choice(near, size=width)] + [
            int(s) for s in rng.choice(segment_ids, size=width)]
        targets = [pool[i] for i in rng.permutation(len(pool))[:width]]
        answers = matcher._search(source, targets)
        expected = {target: reference_bounded_dijkstra(
            network, max_hops, source, target) for target in targets}
        assert answers == expected
        cut_off += sum(metres == _INF for metres in expected.values())
        finite = [metres for metres in expected.values() if metres != _INF]
        tied += len(finite) > len(set(finite))
    assert (cut_off > 0) == (max_hops < 60)
    assert (tied > 0) == (city == "lattice")


def per_pair_step(network, config, cache, previous_scores, from_segments,
                  candidates, straight_m):
    """The column update with one reference routing per missing pair: the
    candidate's row is read once, every predecessor absent from it is
    routed alone and stored, then the model functions score the column."""
    network_m = {}
    for to_segment, _ in candidates:
        row = cache.row(to_segment)
        for from_segment in from_segments:
            if from_segment in row:
                cache.hits += 1
                metres = row[from_segment]
            else:
                cache.misses += 1
                metres = reference_bounded_dijkstra(
                    network, config.routing_max_hops, from_segment, to_segment)
                cache.store((from_segment, to_segment), metres)
            network_m[from_segment, to_segment] = metres
    return reference_viterbi_step(config, previous_scores, from_segments,
                                  candidates, straight_m, network_m)


def check_step_against_per_pair(network, config, stored, previous_scores,
                                from_segments, candidates, straight_m):
    """``viterbi_step`` on a matcher whose cache holds ``stored`` equals
    :func:`per_pair_step` on a cache filled the same way: scores,
    backpointers, counts and every row's contents in row order."""
    from repro.mapmatching import SegmentPairDistanceCache

    matcher = HMMMapMatcher(network, config)
    replica = SegmentPairDistanceCache(config.distance_cache_size)
    for cache in (matcher.distance_cache, replica):
        for key, metres in stored.items():
            cache.store(key, metres)
    step = matcher.viterbi_step(previous_scores, from_segments, candidates,
                                straight_m)
    assert step == per_pair_step(network, config, replica, previous_scores,
                                 from_segments, candidates, straight_m)
    cache = matcher.distance_cache
    assert (cache.hits, cache.misses, cache.evictions) == (
        replica.hits, replica.misses, replica.evictions)
    assert list(cache._rows.items()) == list(replica._rows.items())
    return matcher


def test_a_row_evicted_mid_column_is_routed_alone(grid_network):
    """``(f, t2)`` is cached when ``f``'s search starts, so ``t2`` is not
    one of its targets; ``t1``'s store then evicts ``t2``'s row (bound 1)
    and ``(f, t2)`` misses with no answer in hand. It is routed on its own:
    the mutant answering ``inf`` there fails on the metres and the score."""
    f = grid_network.segment_ids()[0]
    t1, t2 = grid_network.successor_segments(f)[:2]
    metres = reference_bounded_dijkstra(grid_network, 60, f, t2)
    assert metres < _INF
    config = MapMatchingConfig(distance_cache_size=1)
    matcher = check_step_against_per_pair(
        grid_network, config, {(f, t2): metres}, [-1.0], [f],
        [(t1, 4.0), (t2, 9.0)], 150.0)
    cache = matcher.distance_cache
    assert (cache.hits, cache.misses, cache.evictions) == (0, 2, 2)
    assert list(cache._rows.items()) == [(t2, {f: metres})]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), city=st.sampled_from(["grid", "lattice"]),
       size=st.sampled_from([1, 2, 3, 5, 16, 65536]),
       max_hops=st.sampled_from([1, 4, 60]))
def test_viterbi_step_equals_the_per_pair_routing(grid_network, lattice, data,
                                                  city, size, max_hops):
    """Random columns of width 1-8 over a neighbourhood (repeats,
    predecessors that are also candidates, pre-cached pairs) on caches from
    one pair to roomy: the one-search-per-predecessor step leaves exactly
    the per-pair loop's scores, counts and rows."""
    network = grid_network if city == "grid" else lattice
    anchor = data.draw(st.sampled_from(network.segment_ids()))
    pool = st.sampled_from(near_segments(network, anchor, 3))
    from_segments = data.draw(st.lists(pool, min_size=1, max_size=8))
    candidates = [(segment, data.draw(_offset)) for segment in
                  data.draw(st.lists(pool, min_size=1, max_size=8))]
    stored = {(f, t): reference_bounded_dijkstra(network, max_hops, f, t)
              for f, t in data.draw(st.lists(st.tuples(pool, pool),
                                             max_size=6))}
    previous_scores = data.draw(st.lists(_previous, min_size=len(
        from_segments), max_size=len(from_segments)))
    config = MapMatchingConfig(distance_cache_size=size,
                               routing_max_hops=max_hops)
    check_step_against_per_pair(
        network, config, stored, previous_scores, from_segments, candidates,
        data.draw(st.sampled_from([0.0, 150.0, 420.5])))


def test_a_cold_column_runs_one_search_per_predecessor(grid_network,
                                                       monkeypatch):
    """A cold 8 x 8 column misses all 64 pairs but routes 8 times, once per
    predecessor; per-pair routing would run 64 searches."""
    segment_ids = grid_network.segment_ids()
    near = near_segments(grid_network, segment_ids[40], 3)
    from_segments, to_segments = near[:8], near[8:16]
    matcher = HMMMapMatcher(grid_network)
    searches, search = [], matcher._search

    def counted(source, targets):
        searches.append(source)
        return search(source, targets)

    monkeypatch.setattr(matcher, "_search", counted)
    matcher.viterbi_step([0.0] * 8, from_segments,
                         [(segment, 5.0) for segment in to_segments], 200.0)
    assert matcher.distance_cache.misses == 64
    assert searches == from_segments
