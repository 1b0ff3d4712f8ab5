"""The online matcher's per-fix path against an independent scalar form.

``tests/reference_matcher.py`` is the online matcher written out the slow
way, in the image of ``reference_detector.py``: the column update is a nested
loop over the model functions (``transition_log_prob`` +
``gaussian_emission_log_prob`` through ``network_distance``) instead of
``viterbi_step``'s inlined expression over cache rows, the lattice is plain
lists, and every committed column does its own accounting. The production
matcher keeps the same convergence walk but runs it over ``__slots__``
columns and does ``_commit``'s accounting in locals; the two must commit *the
same columns on the same push*: equal emitted segments push by push, equal
``OnlineMatchResult`` (route, score, forced commits, max lag, confidence) at
finish, equal commit-lag reservoirs (same ``Reservoir.add`` sequence).

Two inputs: random noisy traces of the tiny city, interleaved over several
sessions with small windows and a small reservoir so forced commits and
reservoir replacement both happen; and a designed **corridor** — one long
two-way road whose two directions are exactly tied from the first fix on, so
nothing converges until ``max_pending`` forces a commit, then a turn into a
one-way street that settles everything at once, with one lean-back fix that
makes a column with dead candidates.

Seeded mutants (each applied to a copy of ``src/``, seen to fail here):
``_commit`` starting ``max_lag`` from the fleet's ``self.max_commit_lag``
instead of the session's (a second session then reports the first one's
lag) fails the random-trace differential; ``_commit`` adding the reservoir
sample *after* the loop (one add of the last lag per commit call instead of
one per column) fails both; ``viterbi_step``'s emission with ``+ log_sigma``
fails both.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen import sample_gps_trace, tiny_dataset
from repro.exceptions import MatchBreakError, UnmatchablePointError
from repro.config import MapMatchingConfig
from repro.mapmatching import (HMMMapMatcher, OnlineMapMatcher,
                               SegmentPairDistanceCache)
from repro.roadnet import RoadNetwork
from repro.trajectory import GPSPoint

from reference_matcher import ReferenceOnlineMatcher


@pytest.fixture(scope="module")
def city():
    return tiny_dataset(seed=7)


def both_matchers(network, max_pending, lag_sample_cap=100_000):
    """The production matcher and the reference, each over its own
    ``HMMMapMatcher`` (so not even the distance cache is shared)."""
    return (OnlineMapMatcher(HMMMapMatcher(network), max_pending=max_pending,
                             lag_sample_cap=lag_sample_cap),
            ReferenceOnlineMatcher(HMMMapMatcher(network),
                                   max_pending=max_pending,
                                   lag_sample_cap=lag_sample_cap))


def push_both(online, reference, key, point):
    """One fix through both forms; returns what they (equally) emitted, or
    the exception class they (equally) raised."""
    outcomes = []
    for matcher in (online, reference):
        try:
            outcomes.append(matcher.push(key, point))
        except (UnmatchablePointError, MatchBreakError) as error:
            outcomes.append(type(error))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def finish_both(online, reference, key):
    result, expected = online.finish(key), reference.finish(key)
    assert result == expected  # dataclass equality: floats compared by ==
    return result


def assert_fleet_statistics_equal(online, reference):
    assert online.commit_lag_samples == reference.commit_lag_samples
    assert (online.commits, online.forced_commits, online.max_commit_lag,
            online.commit_lag_sum) == (
        reference.commits, reference.forced_commits,
        reference.max_commit_lag, reference.commit_lag_sum)


# ------------------------------------------------------------ random traces
@settings(max_examples=40, deadline=None)
@given(trips=st.lists(st.integers(0, 59), min_size=1, max_size=4, unique=True),
       noise_m=st.sampled_from([0.0, 2.0, 6.0, 14.0]),
       seed=st.integers(0, 2 ** 16),
       max_pending=st.sampled_from([2, 3, 5, 64]),
       lag_sample_cap=st.sampled_from([4, 100_000]),
       stray_every=st.sampled_from([0, 17]))
def test_matcher_commits_what_the_reference_commits_on_random_traces(
        city, trips, noise_m, seed, max_pending, lag_sample_cap, stray_every):
    network = city.network
    rng = np.random.default_rng(seed)
    traces = [sample_gps_trace(network, city.trajectories[trip].segments,
                               city.trajectories[trip].start_time_s, rng,
                               gps_noise_m=noise_m).points
              for trip in trips]
    online, reference = both_matchers(network, max_pending, lag_sample_cap)
    pushes = 0
    for index in range(max(map(len, traces)) + 1):
        for key, trace in enumerate(traces):
            if index == len(trace):
                if online.has_session(key):
                    finish_both(online, reference, key)
                continue
            if index > len(trace):
                continue
            point = trace[index]
            pushes += 1
            if stray_every and pushes % stray_every == 0:
                # A fix nowhere near a road: both refuse it, neither consumes.
                stray = GPSPoint(1e7, 1e7, point.t)
                assert push_both(online, reference, key,
                                 stray) is UnmatchablePointError
            outcome = push_both(online, reference, key, point)
            if outcome is MatchBreakError:
                # The gateway's recovery: close at the committed prefix,
                # restart from the breaking fix.
                if online.has_session(key):
                    finish_both(online, reference, key)
                outcome = push_both(online, reference, key, point)
            if isinstance(outcome, list) and online.has_session(key):
                assert (online.pending_points(key)
                        == reference.pending_points(key) <= max_pending)
    assert online.active_sessions == []
    assert_fleet_statistics_equal(online, reference)


# ----------------------------------------------------------------- corridor
def corridor_network() -> RoadNetwork:
    """A 3 km two-way road, then a one-way street north::

        n0 ==0=> n1      segments 0 (east) / 1 (west): one road, two ways
           <=1==  |2
                  v      2, 3: one-way, north
                 n2 -3-> n3
    """
    network = RoadNetwork()
    for node, (x, y) in enumerate([(0.0, 0.0), (3000.0, 0.0),
                                   (3000.0, 400.0), (3000.0, 800.0)]):
        network.add_intersection(node, x, y)
    network.add_segment(0, 0, 1)
    network.add_segment(1, 1, 0)
    network.add_segment(2, 1, 2)
    network.add_segment(3, 2, 3)
    return network


def corridor_points(straight_fixes: int, jitter_m) -> list:
    """``straight_fixes`` fixes 30 m apart along the two-way road (more than
    the 60 m candidate radius from either end, so the only candidates are
    its two directions, at the same distance: an exact tie), on to the
    junction, then north up the one-way street."""
    points, t = [], 0.0
    for index in range(straight_fixes):
        points.append(GPSPoint(100.0 + 30.0 * index,
                               jitter_m[index % len(jitter_m)], t))
        t += 3.0
    x = points[-1].x
    while x < 2990.0:
        x = min(x + 30.0, 3000.0)
        points.append(GPSPoint(x, 2.0, t))
        t += 3.0
    for step in range(1, 12):
        # Step 4 leans back toward the junction: both directions of the
        # two-way road are candidates again and neither can be reached from
        # the one-way street — a column with dead candidates, which must not
        # get a vote in the convergence test.
        x, y = (2990.0, 40.0) if step == 4 else (3001.0, 30.0 * step)
        points.append(GPSPoint(x, y, t))
        t += 3.0
    return points


@settings(max_examples=12, deadline=None)
@given(straight_fixes=st.integers(70, 90),
       jitter_m=st.lists(st.sampled_from([-9.0, -3.0, 0.0, 3.0, 11.5]),
                         min_size=1, max_size=5),
       max_pending=st.sampled_from([8, 64]))
def test_matcher_commits_what_the_reference_commits_on_the_corridor(
        straight_fixes, jitter_m, max_pending):
    online, reference = both_matchers(corridor_network(), max_pending)
    points = corridor_points(straight_fixes, jitter_m)
    pending_peak = 0
    for position, point in enumerate(points):
        emitted = push_both(online, reference, "cab", point)
        assert isinstance(emitted, list)
        assert (online.pending_points("cab")
                == reference.pending_points("cab"))
        pending_peak = max(pending_peak, online.pending_points("cab"))
        if position < max_pending:
            # Both directions alive, rooted apart: nothing can be committed.
            assert emitted == [] and online.commits == 0
    # The tie held to the window bound and was broken by force. (Once, when
    # the reverse direction then hangs off the forced root; again whenever
    # rounding lets it keep its own chain — the U-turn is paid once either
    # way, so the two are a tie in exact arithmetic.)
    assert pending_peak == max_pending
    result = finish_both(online, reference, "cab")
    assert result.forced_commits >= 1 and result.max_commit_lag == max_pending
    assert result.route == [0, 2]
    assert_fleet_statistics_equal(online, reference)


# -------------------------------------------- the cache's recency contract
def test_cache_hit_below_half_the_bound_mutates_nothing():
    """Under half of ``max_size`` a read leaves row order alone (rows sit in
    creation order); from the half-way mark on every read is a touch — an
    approximate LRU: rows untouched since the mark go in creation order."""
    cache = SegmentPairDistanceCache(max_size=8)
    for to_segment in (10, 20, 30):
        cache.store((1, to_segment), float(to_segment))
    assert cache.lookup((1, 10)) == 10.0 and cache.row(10) == {1: 10.0}
    assert list(cache._rows) == [10, 20, 30]      # 3 pairs < 8 / 2: not moved
    cache.store((2, 30), 31.0)                    # 4 pairs: at the mark
    assert cache.lookup((1, 10)) == 10.0
    assert list(cache._rows) == [20, 30, 10]      # now a read is a touch
    assert cache.evictions == 0
    for from_segment in range(3, 8):              # 9 pairs > 8: row 20 goes
        cache.store((from_segment, 10), 1.0)
    assert len(cache) == 8 and cache.evictions == 1
    assert cache.lookup((1, 20)) is None
    lone = SegmentPairDistanceCache(max_size=2)   # a row wider than the bound
    for from_segment in range(5):
        lone.store((from_segment, 7), 1.0)
    assert len(lone) == 2 and lone.evictions == 3


@pytest.mark.parametrize("roomy", [True, False])
def test_a_column_reads_its_rows_under_the_contract(city, roomy):
    """``viterbi_step`` on a warm cache: no row moves while the cache is
    under half its bound; at or above it the column's rows end up most
    recently used, in candidate order — and the answer is the same."""
    network = city.network
    raw = sample_gps_trace(network, city.trajectories[0].segments, 0.0,
                           np.random.default_rng(2), gps_noise_m=2.0)
    first, second = (HMMMapMatcher(network).candidates_near(point.x, point.y)
                     for point in raw.points[:2])
    pairs = len(first) * len(second)
    # Roomy: the column is a sliver of the bound. Tight: it all but fills it.
    size = 65536 if roomy else pairs + 2
    matcher = HMMMapMatcher(network,
                            MapMatchingConfig(distance_cache_size=size))
    arguments = ([0.0] * len(first), [segment for segment, _ in first],
                 second, 25.0)
    cold = matcher.viterbi_step(*arguments)
    cache = matcher.distance_cache
    assert (len(cache), cache.misses, cache.evictions) == (pairs, pairs, 0)
    order_before = list(cache._rows)
    assert matcher.viterbi_step(*arguments) == cold
    assert cache.hits == pairs
    if roomy:
        assert list(cache._rows) == order_before
    else:
        cache.row(second[0][0])  # a touch: candidate 0's row is now newest
        assert list(cache._rows)[-1] == second[0][0]
        assert matcher.viterbi_step(*arguments) == cold
        assert list(cache._rows) == [segment for segment, _ in second]
