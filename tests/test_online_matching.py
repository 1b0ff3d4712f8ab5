"""Differential tests of the online incremental map matcher.

:class:`OnlineMapMatcher` must decode raw GPS streams to *exactly* the
segment sequence (and Viterbi score) the offline :class:`HMMMapMatcher`
produces on the completed trajectory, as long as no window-forced commit
fires — convergence commits are provably prefix-exact. These tests pin that
equivalence over randomized trajectories at several noise levels, plus the
streaming failure modes the offline matcher never faces (unmatchable fixes
mid-stream, lattice breaks, bounded commit windows) and the LRU discipline
of the shared segment-pair distance cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MapMatchingConfig
from repro.datagen import sample_gps_trace, tiny_dataset
from repro.exceptions import (MapMatchingError, MatchBreakError,
                              UnmatchablePointError)
from repro.mapmatching import HMMMapMatcher, OnlineMapMatcher
from repro.trajectory import GPSPoint, RawTrajectory


@pytest.fixture(scope="module")
def matching_dataset():
    return tiny_dataset(seed=7)


@pytest.fixture(scope="module")
def offline_matcher(matching_dataset):
    return HMMMapMatcher(matching_dataset.network)


def stream_through(online, key, points):
    """Push every point of a trace; returns (committed early, final result)."""
    early = []
    for point in points:
        early.extend(online.push(key, point))
    result = online.finish(key)
    return early, result


# ------------------------------------------------------------- equivalence
def test_online_equals_offline_viterbi_on_randomized_trajectories(
        matching_dataset, offline_matcher):
    """Acceptance: identical segment sequences (and scores) on >= 100
    randomized trajectories across noise levels, with zero forced commits."""
    network = matching_dataset.network
    compared = 0
    for noise, seed in [(0.0, 0), (2.0, 1), (6.0, 2)]:
        rng = np.random.default_rng(seed)
        for truth in matching_dataset.trajectories[:40]:
            raw = sample_gps_trace(network, truth.segments,
                                   truth.start_time_s, rng,
                                   gps_noise_m=noise,
                                   trajectory_id=truth.trajectory_id)
            offline = offline_matcher.match(raw)
            online = OnlineMapMatcher(offline_matcher, max_pending=512)
            try:
                early, result = stream_through(online, "cab", raw.points)
            except (UnmatchablePointError, MatchBreakError):
                # The online matcher fails at exactly the point where the
                # offline Viterbi would have declared the trajectory
                # unmatchable.
                assert not offline.succeeded
                continue
            assert offline.succeeded
            assert result.forced_commits == 0
            assert result.route == offline.matched.segments
            assert result.log_likelihood == pytest.approx(
                offline.log_likelihood, abs=1e-9)
            # Everything finish() returned beyond the early commits is the
            # suffix of the same route.
            assert result.route[:len(early)] == early
            compared += 1
    assert compared >= 100


def test_concurrent_sessions_share_one_matcher(matching_dataset,
                                               offline_matcher):
    """Interleaved vehicle sessions on one matcher (one shared distance
    cache) each still decode exactly like the offline matcher."""
    network = matching_dataset.network
    rng = np.random.default_rng(3)
    raws = [sample_gps_trace(network, truth.segments, truth.start_time_s,
                             rng, gps_noise_m=2.0)
            for truth in matching_dataset.trajectories[40:48]]
    online = OnlineMapMatcher(offline_matcher, max_pending=512)
    routes = {key: [] for key in range(len(raws))}
    cursors = [0] * len(raws)
    while any(cursor < len(raw.points)
              for cursor, raw in zip(cursors, raws)):
        for key, raw in enumerate(raws):
            if cursors[key] < len(raw.points):
                routes[key].extend(online.push(key, raw.points[cursors[key]]))
                cursors[key] += 1
    assert sorted(online.active_sessions) == list(range(len(raws)))
    for key, raw in enumerate(raws):
        result = online.finish(key)
        offline = offline_matcher.match(raw)
        assert offline.succeeded
        assert result.route == offline.matched.segments
    assert online.active_sessions == []


def test_online_commits_incrementally(matching_dataset, offline_matcher):
    """On a clean trace most of the route is final long before the trip
    ends, and never more than the lattice window is pending."""
    network = matching_dataset.network
    truth = max(matching_dataset.trajectories[:40], key=len)
    rng = np.random.default_rng(4)
    raw = sample_gps_trace(network, truth.segments, truth.start_time_s, rng,
                           gps_noise_m=1.0)
    online = OnlineMapMatcher(offline_matcher, max_pending=512)
    early = []
    for point in raw.points:
        early.extend(online.push("cab", point))
        assert online.pending_points("cab") <= online.max_pending
    result = online.finish("cab")
    assert len(early) > len(result.route) // 2
    assert result.max_commit_lag < len(raw.points)


# ---------------------------------------------------------- bounded window
def test_forced_commit_bounds_pending_lattice(matching_dataset,
                                              offline_matcher):
    """A tiny window keeps the uncommitted lattice bounded on noisy traces
    (at the price of possibly deviating from the offline decode), and the
    emitted route is still connected."""
    network = matching_dataset.network
    rng = np.random.default_rng(5)
    for truth in matching_dataset.trajectories[:10]:
        raw = sample_gps_trace(network, truth.segments, truth.start_time_s,
                               rng, gps_noise_m=10.0)
        online = OnlineMapMatcher(offline_matcher, max_pending=3)
        try:
            for point in raw.points:
                online.push("cab", point)
                assert online.pending_points("cab") <= 3
        except (UnmatchablePointError, MatchBreakError):
            online.discard("cab")
            continue
        result = online.finish("cab")
        assert result.max_commit_lag <= 3
        assert network.is_route_connected(result.route)


def test_window_validation():
    network = tiny_dataset(seed=1).network
    with pytest.raises(MapMatchingError):
        OnlineMapMatcher(HMMMapMatcher(network), max_pending=1)
    with pytest.raises(MapMatchingError):
        OnlineMapMatcher(HMMMapMatcher(network), lag_sample_cap=0)


def test_commit_lag_reservoir_samples_the_whole_run(offline_matcher):
    """Regression: the latency reservoir used to stop recording once full,
    so a long-running matcher reported only its startup window. Reservoir
    sampling keeps the retained lags a uniform sample of every commit, so
    late-run lags must show up."""
    online = OnlineMapMatcher(offline_matcher, lag_sample_cap=64)
    total = 20_000
    for lag in range(total):
        online.commits += 1
        online._lag_reservoir.add(lag)
    samples = online.commit_lag_samples
    assert len(samples) == 64
    assert all(0 <= lag < total for lag in samples)
    # Plain truncation would retain only the first 64 lags (mean ~32); a
    # uniform sample of the whole run has its mean near total / 2.
    assert float(np.mean(samples)) > total / 4
    assert max(samples) > total // 2


# ------------------------------------------------------------ failure modes
def test_unmatchable_fix_is_skippable_mid_stream(matching_dataset,
                                                 offline_matcher):
    """A fix nowhere near a road raises without consuming the point; the
    session continues as if the fix never happened."""
    network = matching_dataset.network
    truth = matching_dataset.trajectories[12]
    rng = np.random.default_rng(6)
    raw = sample_gps_trace(network, truth.segments, truth.start_time_s, rng,
                           gps_noise_m=1.0)
    online = OnlineMapMatcher(offline_matcher, max_pending=512)
    middle = len(raw.points) // 2
    for position, point in enumerate(raw.points):
        online.push("cab", point)
        if position == middle:
            with pytest.raises(UnmatchablePointError):
                online.push("cab", GPSPoint(1e7, 1e7, point.t + 0.1))
    result = online.finish("cab")
    offline = offline_matcher.match(raw)
    assert offline.succeeded
    assert result.route == offline.matched.segments


def test_lattice_break_raises_and_preserves_committed_prefix(line_network):
    """On the line network n0->n1->n2->n3 a fix near the start cannot follow
    a fix near the end (no reverse edges): the matcher raises, the breaking
    fix is unconsumed, and the session still finishes on its prefix."""
    matcher = HMMMapMatcher(line_network)
    online = OnlineMapMatcher(matcher, max_pending=512)
    online.push("cab", GPSPoint(250.0, 0.0, 0.0))
    with pytest.raises(MatchBreakError):
        online.push("cab", GPSPoint(10.0, 0.0, 2.0))
    assert online.has_session("cab")
    result = online.finish("cab")
    assert result.route == [2]  # the best first-fix candidate, committed
    assert not online.has_session("cab")


def test_finish_unknown_session_raises(offline_matcher):
    online = OnlineMapMatcher(offline_matcher)
    with pytest.raises(MapMatchingError):
        online.finish("ghost")
    online.discard("ghost")  # discarding an unknown session is a no-op


# ------------------------------------------------------------ distance LRU
def test_distance_cache_is_lru_bounded(matching_dataset):
    """The segment-pair distance cache honours its size bound and keeps
    serving hits once warm (the satellite fix for unbounded growth)."""
    network = matching_dataset.network
    truth = matching_dataset.trajectories[0]
    rng = np.random.default_rng(8)
    raw = sample_gps_trace(network, truth.segments, truth.start_time_s, rng,
                           gps_noise_m=2.0)
    bounded = HMMMapMatcher(network, MapMatchingConfig(distance_cache_size=8))
    assert bounded.match(raw).succeeded
    cache = bounded.distance_cache
    assert 0 < len(cache) <= 8  # bounded, and not by being always empty
    assert cache.max_size == 8
    assert cache.misses > 8  # evictions happened: more misses than capacity

    roomy = HMMMapMatcher(network)
    assert roomy.match(raw).succeeded
    warm_misses = roomy.distance_cache.misses
    assert roomy.match(raw).succeeded  # identical queries: all hits now
    assert roomy.distance_cache.misses == warm_misses
    assert roomy.distance_cache.hits > 0
    assert 0.0 < roomy.distance_cache.hit_rate <= 1.0


def noisy_traces(dataset, count, noise_m, seed):
    rng = np.random.default_rng(seed)
    return [sample_gps_trace(dataset.network, truth.segments,
                             truth.start_time_s, rng, gps_noise_m=noise_m,
                             trajectory_id=truth.trajectory_id)
            for truth in dataset.trajectories[:count]]


@pytest.mark.parametrize("size", [1, 8])
def test_distance_cache_eviction_never_changes_an_answer(matching_dataset,
                                                         size):
    """Eviction may cost time, never an answer: a tightly bounded matcher and
    a roomy one agree on route and score over 20 noisy traces, and the bound
    holds after every match. At ``size=1`` every Viterbi column's row is
    wider than the whole cache and has to shed its own oldest pairs."""
    network = matching_dataset.network
    bounded = HMMMapMatcher(network, MapMatchingConfig(distance_cache_size=size))
    roomy = HMMMapMatcher(network)
    matched = 0
    for raw in noisy_traces(matching_dataset, 20, noise_m=6.0, seed=21):
        tight, loose = bounded.match(raw), roomy.match(raw)
        assert 0 < len(bounded.distance_cache) <= size
        assert tight.succeeded == loose.succeeded
        if loose.succeeded:
            assert tight.matched.segments == loose.matched.segments
            assert tight.log_likelihood == loose.log_likelihood
            matched += 1
    assert matched >= 15
    assert bounded.distance_cache.misses > roomy.distance_cache.misses
    # Pairs are looked up the same number of times either way.
    assert (bounded.distance_cache.hits + bounded.distance_cache.misses
            == roomy.distance_cache.hits + roomy.distance_cache.misses)


def test_distance_cache_rows_evict_least_recently_used_first():
    from repro.mapmatching import SegmentPairDistanceCache

    cache = SegmentPairDistanceCache(max_size=4)
    for from_segment in (1, 2):
        cache.store((from_segment, 10), 1.0)
        cache.store((from_segment, 20), 2.0)
    assert len(cache) == 4
    assert cache.lookup((1, 10)) == 1.0      # row 10 is now the most recent
    cache.store((1, 30), 3.0)                # over the bound: row 20 goes, whole
    assert len(cache) == 3
    assert cache.lookup((1, 20)) is None and cache.lookup((2, 20)) is None
    assert cache.lookup((2, 10)) == 1.0 and cache.lookup((1, 30)) == 3.0
    assert (cache.hits, cache.misses) == (3, 2)
    cache.store((1, 30), 3.5)                # overwriting is not a new pair
    assert len(cache) == 3 and cache.lookup((1, 30)) == 3.5
    cache = SegmentPairDistanceCache(max_size=4)
    assert len(cache) == 0 and cache.lookup((2, 10)) is None


def test_fleet_replay_cache_counters_equal_the_parents(matching_dataset):
    """Hit/miss totals are pair-granular and unchanged by the row layout.

    A fixed fleet replay — 40 traces at 2 m noise pushed round-robin, one fix
    per vehicle per round, through one shared matcher, three laps — recorded
    at the parent commit (45dda5c, tuple-keyed cache, ``lookup_many``):
    7 662 pushes, 240 300 hits / 1 572 misses, 1 572 pairs held, 7 662
    commits with lag sum 31 413, none forced. The roomy default cache never
    evicts here, so every pair must be a hit or a miss exactly where it was
    one before.
    """
    matcher = HMMMapMatcher(matching_dataset.network)
    online = OnlineMapMatcher(matcher)
    traces = [raw.points for raw in
              noisy_traces(matching_dataset, 40, noise_m=2.0, seed=5)]
    pushes = 0
    for _ in range(3):
        for index in range(max(map(len, traces)) + 1):
            for vehicle, trace in enumerate(traces):
                if index < len(trace):
                    online.push(vehicle, trace[index])
                    pushes += 1
                elif index == len(trace):
                    assert online.finish(vehicle).succeeded
    cache = matcher.distance_cache
    assert pushes == 7662
    assert (cache.hits, cache.misses, len(cache)) == (240300, 1572, 1572)
    assert (online.commits, online.forced_commits,
            online.commit_lag_sum) == (7662, 0, 31413)


def test_distance_cache_rejects_bad_size(matching_dataset):
    from repro.mapmatching import SegmentPairDistanceCache

    with pytest.raises(MapMatchingError):
        SegmentPairDistanceCache(max_size=0)
    from repro.exceptions import ConfigurationError
    with pytest.raises(ConfigurationError):
        MapMatchingConfig(distance_cache_size=0).validate()
