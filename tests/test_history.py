"""Unit tests of the versioned route-history subsystem (``repro.history``).

The contracts pinned here: snapshots are immutable and monotonically
versioned; ``extend`` is copy-on-write with structural sharing (untouched SD
pairs keep their group tuples *and* their memoized derived values by
identity, touched ones have theirs extended to what a fresh derive gives);
serialization strips the memo caches but preserves the data and
the version; and the preprocessing pipeline is a thin, swappable view whose
feature resolution can be pinned to any snapshot.
"""

from __future__ import annotations

import base64
import copyreg
import pickle

import pytest

from repro.config import LabelingConfig
from repro.exceptions import LabelingError
from repro.history import (HistorySnapshot, RouteHistoryStore, clone_snapshot,
                           snapshot_from_bytes, snapshot_to_bytes)
from repro.labeling import PreprocessingPipeline, TransitionStatistics
from repro.labeling.normal_routes import RouteTally, normal_transitions
from repro.serve import clone_model
from repro.trajectory import MatchedTrajectory, SDPair

from reference_labeling import reference_normal_routes


def make(tid, segments, start=0.0):
    return MatchedTrajectory(trajectory_id=tid, segments=segments,
                             start_time_s=start)


@pytest.fixture
def seed_trajectories():
    """Two SD pairs: (1 -> 10) with a dominant route, and (20 -> 30)."""
    pair_a = [make(i, [1, 2, 3, 10]) for i in range(6)]
    pair_a += [make(6, [1, 2, 4, 10])]
    pair_b = [make(10 + i, [20, 21, 30]) for i in range(4)]
    return pair_a + pair_b


# ----------------------------------------------------------------- versions
def test_store_versions_are_monotone(seed_trajectories):
    store = RouteHistoryStore(seed_trajectories, slots_per_day=24)
    assert store.version == 1
    first = store.current()
    second = store.extend([make(100, [1, 2, 3, 10])])
    assert second.version == 2
    assert store.current() is second
    third = store.rebuild(seed_trajectories)
    assert third.version == 3
    # The old snapshot is untouched — readers pinned to it see version 1.
    assert first.version == 1
    assert len(first) == len(seed_trajectories)


def test_empty_extend_burns_no_version(seed_trajectories):
    store = RouteHistoryStore(seed_trajectories)
    current = store.current()
    assert store.extend([]) is current
    assert store.version == 1
    assert store.extends == 0


def test_snapshot_rejects_bad_construction():
    with pytest.raises(LabelingError):
        HistorySnapshot.build([], slots_per_day=0)
    with pytest.raises(LabelingError):
        HistorySnapshot.build([], slots_per_day=24, version=0)
    with pytest.raises(LabelingError):
        RouteHistoryStore.from_snapshot("not a snapshot")


def test_adopt_checks_slot_compatibility(seed_trajectories):
    store = RouteHistoryStore(seed_trajectories, slots_per_day=24)
    other = HistorySnapshot.build(seed_trajectories, slots_per_day=12,
                                  version=5)
    with pytest.raises(LabelingError):
        store.adopt(other)
    compatible = HistorySnapshot.build(seed_trajectories, slots_per_day=24,
                                       version=7)
    store.adopt(compatible)
    assert store.version == 7
    # extend counts on from the adopted version.
    assert store.extend([make(200, [1, 2, 3, 10])]).version == 8


# ------------------------------------------------------- structural sharing
def test_extend_shares_untouched_pairs(seed_trajectories):
    store = RouteHistoryStore(seed_trajectories)
    before = store.current()
    after = store.extend([make(100, [1, 2, 4, 10])])  # touches (1, 10) only
    groups_before = before.groups()
    groups_after = after.groups()
    for key in groups_before:
        if (key.source, key.destination) == (20, 30):
            assert groups_after[key] is groups_before[key]  # shared tuple
        else:
            assert groups_after[key] is not groups_before[key]
    assert len(after.group(1, 10)) == len(before.group(1, 10)) + 1
    assert len(after) == len(before) + 1


def test_extend_carries_derived_caches_of_untouched_pairs(seed_trajectories):
    store = RouteHistoryStore(seed_trajectories)
    snapshot = store.current()
    key_a, key_b = (1, 10, None), (20, 30, None)  # each pair across all slots
    stats_a = snapshot.cached_statistics(
        key_a, lambda: TransitionStatistics.from_group(snapshot.group(1, 10)))
    stats_b = snapshot.cached_statistics(
        key_b, lambda: TransitionStatistics.from_group(snapshot.group(20, 30)))
    tally_b = snapshot.cached_routes(
        key_b, lambda: RouteTally(snapshot.runs(key_b)))
    extended = store.extend([make(100, [1, 2, 4, 10])])  # touches (1, 10)
    cached = lambda: pytest.fail("should be cached")
    # The untouched pair's entries are carried by reference ...
    assert extended.cached_statistics(key_b, cached) is stats_b
    assert extended.cached_routes(key_b, cached) is tally_b
    # ... the touched pair's is extended to what a fresh derive gives,
    # without one; a reader pinned to the old snapshot keeps the old value.
    assert extended.cached_statistics(key_a, cached) == (
        TransitionStatistics.from_group(extended.group(1, 10)))
    assert snapshot.cached_statistics(key_a, cached) is stats_a
    assert stats_a.group_size == 7
    assert extended.derivations == {"computed": 3, "extended": 1}


def test_extend_brings_every_entry_of_a_touched_pair_up_to_date(
        seed_trajectories):
    """A key names a group: the pair across all slots grows with every
    append to the pair, a slot's own group only with appends to that slot,
    and a group first asked for after the refresh is derived then."""
    store = RouteHistoryStore(seed_trajectories)
    snapshot = store.current()
    keys = [(1, 10, None), (1, 10, 0)]
    for key in keys:
        snapshot.cached_statistics(
            key, lambda: TransitionStatistics.from_group(snapshot.group(*key)))
        snapshot.cached_routes(key, lambda: RouteTally(snapshot.runs(key)))
    slot_tally = snapshot.cached_routes((1, 10, 0), None)
    # One trip lands in a new slot, 13; slot 0 does not change.
    late = store.extend([make(100, [1, 2, 4, 10], start=13 * 3600.0)])
    cached = lambda: pytest.fail("should be cached")
    assert late.cached_routes((1, 10, 0), cached) is slot_tally
    assert late.cached_statistics((1, 10, None), cached).group_size == 8
    assert (1, 10, 13) not in late._routes_cache
    # Then slot 0 grows too, by a route that ties the runner-up.
    both = store.extend([make(101, [1, 5, 10]),
                         make(102, [1, 5, 10], start=13 * 3600.0)])
    for key in keys:
        group = both.group(*key)
        assert both.cached_statistics(key, cached) == (
            TransitionStatistics.from_group(group))
        tally = both.cached_routes(key, cached)
        for delta in (0.05, 0.2, 0.4, 0.9):
            assert tally.normal_routes(delta) == reference_normal_routes(
                group, delta)
    assert both.derivations == {"computed": 4, "extended": 2 + 4}


def test_a_route_s_rank_is_its_place_in_the_group_not_its_arrival():
    """Equally travelled routes come in the order the group has them, and
    the pair across all slots is its slot groups one after another: a route
    whose later trip lands in an *earlier* slot group moves ahead of equals
    first seen in later ones — on the carried tally as on a count from
    scratch, at a ``delta`` some routes clear and at one none does."""
    a, b, c = (1, 2, 10), (1, 3, 10), (1, 4, 10)
    noon = 12 * 3600.0
    store = RouteHistoryStore([make(0, list(a)), make(1, list(b), noon),
                               make(2, list(c), noon)])
    snapshot = store.current()
    key = (1, 10, None)
    tally = snapshot.cached_routes(key, lambda: RouteTally(snapshot.runs(key)))
    assert tally.normal_routes(0.2) == [a, b, c]
    extended = store.extend([make(3, list(c)), make(4, list(b), noon)])
    group = extended.group(1, 10)
    assert [trip.trajectory_id for trip in group] == [0, 3, 1, 2, 4]
    carried = extended.cached_routes(
        key, lambda: pytest.fail("should be cached"))
    assert carried.normal_routes(0.2) == [c, b]  # 2 : 2, c is seen first
    assert carried.normal_routes(0.9) == [c]
    for delta in (0.2, 0.9):
        assert carried.normal_routes(delta) == reference_normal_routes(
            group, delta)
    assert tally.normal_routes(0.2) == [a, b, c]  # the old version's, as it was


# ------------------------------------------------------------ serialization
def test_snapshot_round_trip_preserves_data_and_version(seed_trajectories):
    store = RouteHistoryStore(seed_trajectories)
    store.extend([make(100, [1, 2, 4, 10])])
    snapshot = store.current()
    snapshot.cached_statistics(("x",), lambda: "memo")  # populate a cache
    restored = snapshot_from_bytes(snapshot_to_bytes(snapshot))
    assert restored.version == snapshot.version
    assert restored.slots_per_day == snapshot.slots_per_day
    assert len(restored) == len(snapshot)
    assert restored.pair_sizes() == snapshot.pair_sizes()
    assert restored.sd_pairs() == snapshot.sd_pairs()
    # Memo caches are stripped: a receiver recomputes from its own queries.
    fresh = object()
    assert restored.cached_statistics(("x",), lambda: fresh) is fresh


def test_clone_snapshot_shares_no_memo(seed_trajectories):
    snapshot = HistorySnapshot.build(seed_trajectories)
    snapshot.cached_routes(("k",), lambda: "original")
    clone = clone_snapshot(snapshot)
    assert clone is not snapshot
    assert clone.cached_routes(("k",), lambda: "independent") == "independent"
    assert snapshot.cached_routes(("k",), lambda: None) == "original"


#: ``pickle.dumps(snapshot, protocol=2)`` of the four-trip, version-3
#: snapshot below, written by the commit before PR 24 (``74f5fbf``): the
#: layout every embedded-history checkpoint (formats 2 and 3) holds its
#: history in — each group keyed by ``SDPair`` as NEWOBJ + a state dict.
PICKLED_BEFORE_PR24 = (
    "gAJjcmVwcm8uaGlzdG9yeS5zdG9yZQpIaXN0b3J5U25hcHNob3QKcQApgXEBfXECKFgH"
    "AAAAdmVyc2lvbnEDSwNYDQAAAHNsb3RzX3Blcl9kYXlxBEsYWAYAAABncm91cHNxBX1x"
    "BihjcmVwcm8udHJhamVjdG9yeS5tb2RlbHMKU0RQYWlyCnEHKYFxCH1xCShYBgAAAHNv"
    "dXJjZXEKSwFYCwAAAGRlc3RpbmF0aW9ucQtLA1gJAAAAdGltZV9zbG90cQxLAHViY3Jl"
    "cHJvLnRyYWplY3RvcnkubW9kZWxzCk1hdGNoZWRUcmFqZWN0b3J5CnENKYFxDn1xDyhY"
    "DQAAAHRyYWplY3RvcnlfaWRxEEsBWAgAAABzZWdtZW50c3ERXXESKEsBSwJLA2VYDAAA"
    "AHN0YXJ0X3RpbWVfc3ETRwAAAAAAAAAAWAYAAABsYWJlbHNxFE5YDgAAAHRyYXZlbF90"
    "aW1lc19zcRVOdWJoDSmBcRZ9cRcoaBBLA2gRXXEYKEsBSwJLA2VoE0dAJAAAAAAAAGgU"
    "TmgVTnVihnEZaAcpgXEafXEbKGgKSwFoC0sDaAxLBXViaA0pgXEcfXEdKGgQSwJoEV1x"
    "HihLAUsESwNlaBNHQNGUAAAAAABoFE5oFU51YoVxH2gHKYFxIH1xIShoCksHaAtLCGgM"
    "SwB1YmgNKYFxIn1xIyhoEEsEaBFdcSQoSwdLCGVoE0cAAAAAAAAAAGgUTmgVTnVihXEl"
    "dXViLg==")


def test_a_history_pickled_before_pr24_still_loads():
    """A checkpoint outlives the code that wrote it: the group map's keys
    keep the pickled form they had (``SDPair`` as a dataclass, not a
    tuple), so an old payload loads and a new one is readable by the
    readers old payloads are."""
    trips = [make(1, [1, 2, 3]), make(2, [1, 4, 3], start=5 * 3600.0),
             make(3, [1, 2, 3], start=10.0), make(4, [7, 8])]
    built = HistorySnapshot.build(trips, slots_per_day=24, version=3)
    loaded = pickle.loads(base64.b64decode(PICKLED_BEFORE_PR24))
    assert isinstance(loaded, HistorySnapshot) and loaded.version == 3
    assert list(loaded.groups().items()) == list(built.groups().items())
    # ... and answers the plain tuple a per-trip lookup asks with.
    assert loaded.group(1, 3, 0) == [trips[0], trips[2]]
    assert loaded.resolved_key(1, 3, 0, 2) == (1, 3, 0)
    assert loaded.resolved_key(1, 3, 5, 2) == (1, 3, None)
    key = next(iter(built.groups()))
    assert key == (1, 3, 0) and hash(key) == hash((1, 3, 0))
    assert key.__reduce_ex__(2)[:3] == (
        copyreg.__newobj__, (SDPair,), dict(source=1, destination=3,
                                            time_slot=0))
    assert pickle.loads(pickle.dumps(built, protocol=2)).groups() \
        == loaded.groups()


def test_snapshot_from_bytes_rejects_foreign_payloads():
    with pytest.raises(LabelingError):
        snapshot_from_bytes(pickle.dumps({"not": "a snapshot"}))


# ----------------------------------------------------------- read interface
def test_snapshot_read_interface(seed_trajectories):
    snapshot = HistorySnapshot.build(seed_trajectories)
    assert len(snapshot.group(1, 10)) == 7
    assert snapshot.group(1, 10, time_slot=0)  # all start at t=0 -> slot 0
    assert snapshot.group(1, 10, time_slot=13) == []
    assert snapshot.group(99, 98) == []
    probe = make(500, [20, 29, 30], start=0.0)
    assert len(snapshot.group_for(probe)) == 4
    # A slot with no history falls back to the pair's full history.
    late = make(501, [20, 29, 30], start=13 * 3600.0)
    assert len(snapshot.group_for(late)) == 4
    assert snapshot.sd_pairs() == [(1, 10), (20, 30)]
    assert snapshot.segment_universe() == {1, 2, 3, 4, 10, 20, 21, 30}
    assert sorted(t.trajectory_id for t in snapshot.trajectories()) == sorted(
        t.trajectory_id for t in seed_trajectories)


# -------------------------------------------------------- pipeline as view
def test_pipeline_is_a_view_over_the_store(dataset, dataset_split):
    train, _, test = dataset_split
    pipeline = PreprocessingPipeline(dataset.network, train[:100],
                                     LabelingConfig(alpha=0.35, delta=0.25))
    assert pipeline.history.version == 1
    assert pipeline.store.current() is pipeline.history
    assert len(pipeline.history) == 100
    snapshot = pipeline.extend_history(train[100:120])
    assert snapshot.version == 2
    assert pipeline.history is snapshot
    assert len(pipeline.history) == 120


def test_pipeline_with_history_shares_vocabulary(dataset, dataset_split):
    train, _, test = dataset_split
    pipeline = PreprocessingPipeline(dataset.network, train[:100],
                                     LabelingConfig(alpha=0.35, delta=0.25))
    old = pipeline.history
    pipeline.extend_history(train[100:150])
    view = pipeline.with_history(old)
    assert view.vocabulary is pipeline.vocabulary
    assert view.network is pipeline.network
    assert view.history is old
    assert view.history.version == 1
    # The view resolves against the old snapshot; the original moved on.
    trajectory = test[0]
    assert (view.statistics_for(trajectory)
            is not pipeline.statistics_for(trajectory))


def test_pipeline_load_history_repins_future_resolutions(dataset,
                                                         dataset_split):
    train, _, test = dataset_split
    pipeline = PreprocessingPipeline(dataset.network, train[:100],
                                     LabelingConfig(alpha=0.35, delta=0.25))
    old = pipeline.history
    refreshed = old.extended(train[100:150], version=9)
    pipeline.load_history(refreshed)
    assert pipeline.history.version == 9
    # Explicit pinning still reaches the old snapshot.
    trajectory = test[0]
    old_stats = pipeline.statistics_for(trajectory, history=old)
    new_stats = pipeline.statistics_for(trajectory)
    assert old_stats is not new_stats


def test_pipeline_rejects_conflicting_history_arguments(dataset,
                                                        dataset_split):
    train, _, _ = dataset_split
    snapshot = HistorySnapshot.build(train[:10], slots_per_day=24)
    with pytest.raises(LabelingError):
        PreprocessingPipeline(dataset.network, train[:10],
                              history=snapshot)
    with pytest.raises(LabelingError):
        PreprocessingPipeline(dataset.network, history="bogus")
    mismatched = HistorySnapshot.build(train[:10], slots_per_day=12)
    with pytest.raises(LabelingError):
        PreprocessingPipeline(dataset.network, history=mismatched)
    pipeline = PreprocessingPipeline(dataset.network, history=snapshot)
    assert pipeline.history is snapshot
    with pytest.raises(LabelingError):
        pipeline.with_history(mismatched)
    with pytest.raises(LabelingError):
        pipeline.with_history(42)


def test_fallback_values_are_the_query_s_own_and_never_stored(dataset,
                                                             dataset_split):
    """A no-history SD pair's statistics and routes are derived from the
    query trajectory, so each trip of the pair gets its own — whichever was
    asked first, before or after a refresh — and the snapshot's memo never
    sees the pair."""
    train, _, test = dataset_split
    pipeline = PreprocessingPipeline(dataset.network, train[:100],
                                     LabelingConfig(alpha=0.35, delta=0.25))
    segments = test[0].segments
    ghost = make(9001, [segments[0], segments[1]])
    longer = make(9002, [segments[0], segments[2], segments[1]])
    assert pipeline.sd_group(ghost.source, ghost.destination) == []

    def resolved():
        return [(pipeline.statistics_for(trip),
                 pipeline.normal_routes_for(trip),
                 pipeline.normal_transitions_for(trip))
                for trip in (ghost, longer)]

    first = resolved()
    for (statistics, routes, transitions), trip in zip(first,
                                                       (ghost, longer)):
        assert statistics.group_size == 1
        assert routes == [tuple(trip.segments)]
        assert transitions == normal_transitions([trip.segments])
    assert resolved() == first
    assert not (memo_keys(pipeline.history)["_statistics_cache"]
                | memo_keys(pipeline.history)["_routes_cache"])
    pipeline.extend_history(train[100:110])  # unrelated pairs
    assert resolved() == first
    # Entries of untouched pairs with history carry forward across a
    # refresh — the structural-sharing win.
    touched = {(t.source, t.destination) for t in train[100:110]}
    untouched = next(t for t in test
                     if (t.source, t.destination) not in touched
                     and pipeline.sd_group(t.source, t.destination,
                                           t.start_time_s))
    cached = pipeline.statistics_for(untouched)
    pipeline.extend_history(train[110:112])
    still_untouched = {(t.source, t.destination) for t in train[110:112]}
    if (untouched.source, untouched.destination) not in still_untouched:
        assert pipeline.statistics_for(untouched) is cached


# ------------------------------------------------------ memo before resolve
MEMOS = ("_statistics_cache", "_routes_cache")


def memo_keys(snapshot):
    return {name: set(getattr(snapshot, name)) for name in MEMOS}


def resolve(pipeline, queries):
    return [(pipeline.statistics_for(query), pipeline.normal_routes_for(query),
             pipeline.normal_transitions_for(query)) for query in queries]


def test_resolvers_equal_a_fresh_pipeline_across_a_refresh(dataset,
                                                           dataset_split):
    """The resolvers consult the memo before they materialise a group, so
    what they return — and what the memo holds — must not depend on what
    was asked earlier: after a refresh touching pair P, not touching Q,
    with a history-less pair R asked before and after, everything equals a
    pipeline built fresh on the same snapshot."""
    train, _, test = dataset_split
    config = LabelingConfig(alpha=0.35, delta=0.25)
    pipeline = PreprocessingPipeline(dataset.network, train[:100], config)
    known = [t for t in test if pipeline.history.has_pair(t.source,
                                                          t.destination)]
    p = known[0]
    q = next(t for t in known if t.sd_pair != p.sd_pair)
    r = make(9001, [p.segments[1], p.segments[0]])
    assert not pipeline.history.has_pair(r.source, r.destination)
    queries = [p, q, r]
    before = resolve(pipeline, queries)
    warm = resolve(pipeline, queries)
    assert warm == before
    assert all(again is first  # P and Q from the memo, R computed again
               for index in (0, 1)
               for again, first in zip(warm[index], before[index]))
    pipeline.extend_history([make(9100, list(p.segments), p.start_time_s)])
    after = resolve(pipeline, queries)
    fresh = PreprocessingPipeline(dataset.network, config=config,
                                  history=clone_snapshot(pipeline.history))
    assert after == resolve(fresh, queries)
    assert memo_keys(pipeline.history) == memo_keys(fresh.history)
    keys = memo_keys(pipeline.history)
    assert ({key[:2] for key in keys["_statistics_cache"]}
            == {key[:2] for key in keys["_routes_cache"]}
            == {p.sd_pair, q.sd_pair})
    # Q's values were carried, P's extended by the one new trip (nothing
    # was computed from a group after the first round), R's are R's own.
    assert pipeline.history.derivations == {"computed": 4, "extended": 2}
    assert all(new is old for new, old in zip(after[1], before[1]))
    assert all(new is not old for new, old in zip(after[0], before[0]))
    assert after[2] == before[2]
    assert after[0][0].group_size == before[0][0].group_size + 1


def test_warm_resolution_copies_no_group(trained_model, dataset_split,
                                         monkeypatch):
    """The second open, ``detect`` and ``preprocess`` of an SD pair find
    everything in the memo: ``HistorySnapshot.group`` is not called."""
    _, _, test = dataset_split
    model = clone_model(trained_model)  # its own, cold, memo
    history = model.pipeline.history
    known = next(t for t in test
                 if history.has_pair(t.source, t.destination))
    lonely = make(9001, [known.segments[1], known.segments[0]])
    assert not history.has_pair(lonely.source, lonely.destination)
    calls = []
    group = HistorySnapshot.group

    def counting_group(self, *args):
        calls.append(args)
        return group(self, *args)

    monkeypatch.setattr(HistorySnapshot, "group", counting_group)
    engine, detector = model.stream_engine(), model.detector()

    def visit(trajectory):
        engine.ingest("cab", trajectory.segments[0],
                      destination=trajectory.destination,
                      start_time_s=trajectory.start_time_s)
        for segment in trajectory.segments[1:]:
            engine.ingest("cab", segment)
        return (engine.finalize("cab").labels,
                detector.detect(trajectory).labels,
                model.pipeline.preprocess(trajectory).noisy_labels)

    cold = [visit(known), visit(lonely)]
    assert calls
    del calls[:]
    assert [visit(known), visit(lonely)] == cold
    assert calls == []
