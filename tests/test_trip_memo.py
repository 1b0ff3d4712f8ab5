"""SD-pair resolution by trip key, against an unmemoized reference.

``PreprocessingPipeline.pair_transitions`` and ``normal_transitions_for``
answer a trip from one lookup by its key ``(source, destination, time
slot)`` in the pinned snapshot's trip memo; the key's first trip resolves
through the group memos. Held here against normal transitions inferred
from ``snapshot.group`` afresh on every query — sparse slots, pairs without
history, refreshes, two configs sharing one snapshot — and the memo is
pinned bounded, per snapshot, per reader and never serialized.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.config import LabelingConfig
from repro.history import HistorySnapshot, clone_snapshot
from repro.labeling import PreprocessingPipeline
from repro.labeling.normal_routes import infer_normal_routes, normal_transitions
from repro.roadnet import RoadNetwork
from repro.trajectory import MatchedTrajectory
from repro.trajectory.sdpairs import SECONDS_PER_DAY, time_slot_of

SLOTS = 4
SLOT_S = SECONDS_PER_DAY // SLOTS
MEMO = settings(max_examples=60, deadline=None)


def line_network(segments: int) -> RoadNetwork:
    network = RoadNetwork()
    for node in range(segments + 1):
        network.add_intersection(node, 100.0 * node, 0.0)
    for segment in range(segments):
        network.add_segment(segment, segment, segment + 1)
    return network


NETWORK = line_network(128)


def make(tid, segments, slot=0, offset_s=0.0):
    return MatchedTrajectory(tid, list(segments), slot * SLOT_S + offset_s)


def config(min_slot_group_size=2, delta=0.4):
    return LabelingConfig(alpha=0.5, delta=delta, time_slots_per_day=SLOTS,
                          min_slot_group_size=min_slot_group_size)


def pipeline_on(snapshot, labeling):
    return PreprocessingPipeline(NETWORK, config=labeling, history=snapshot)


def reference_pair_transitions(snapshot, labeling, source, destination,
                               start_time_s):
    """The group read off ``snapshot.group`` and its normal routes inferred
    from scratch, every query; ``None`` for a pair without history."""
    slot = time_slot_of(start_time_s, labeling.time_slots_per_day)
    group = snapshot.group(source, destination, slot)
    if len(group) < labeling.min_slot_group_size:
        group = snapshot.group(source, destination)
    if not group:
        return None
    return frozenset(normal_transitions(
        infer_normal_routes(group, labeling.delta)))


def reference_normal_transitions(snapshot, labeling, trip):
    pair = reference_pair_transitions(snapshot, labeling, trip.source,
                                      trip.destination, trip.start_time_s)
    if pair is None:
        return frozenset(normal_transitions([trip.segments]))
    return pair


def answers(pipeline, queries, history=None):
    return [(pipeline.pair_transitions(trip.source, trip.destination,
                                       trip.start_time_s, history),
             pipeline.normal_transitions_for(trip, history))
            for trip in queries]


def expected(snapshot, labeling, queries):
    return [(reference_pair_transitions(snapshot, labeling, trip.source,
                                        trip.destination, trip.start_time_s),
             reference_normal_transitions(snapshot, labeling, trip))
            for trip in queries]


def memo_size(snapshot):
    return sum(len(memo) for memo in snapshot._trip_memos.values())


@st.composite
def trips(draw, sources, destinations):
    interior = draw(st.lists(st.integers(2, 7), max_size=3))
    segments = [draw(st.sampled_from(sources)), *interior,
                draw(st.sampled_from(destinations))]
    return make(0, segments, draw(st.integers(0, SLOTS - 1)),
                draw(st.sampled_from((0.0, 0.5, SLOT_S - 1.0))))


history_trips = trips((0, 1), (8, 9))
#: Sources and destinations beyond the history's: pairs without history.
query_trips = trips((0, 1, 10), (8, 9, 11))
configs = st.builds(config, st.integers(1, 4),
                    st.sampled_from((0.2, 0.35, 0.5, 0.7)))


@MEMO
@given(history=st.lists(history_trips, min_size=1, max_size=24),
       added=st.lists(history_trips, max_size=8),
       queries=st.lists(query_trips, min_size=1, max_size=12),
       both=st.lists(configs, min_size=2, max_size=2))
def test_memoized_resolution_equals_an_unmemoized_reference(
        history, added, queries, both):
    """Two configs on one snapshot answer every query — first from the
    group memos, then from the trip memo — as the reference does. The
    group memos count what resolving without a trip memo counts, the
    trip memo holds pairs with history only, and a refresh leaves the old
    snapshot's answers as they were while the new one reads grown groups."""
    snapshot = HistorySnapshot.build(history, SLOTS)
    twin = clone_snapshot(snapshot)
    pipelines = [pipeline_on(snapshot, labeling) for labeling in both]
    for _ in range(2):  # cold, then warm
        before = [answers(pipeline, queries) for pipeline in pipelines]
        assert before == [expected(snapshot, labeling, queries)
                          for labeling in both]
    for labeling in both:  # the group memo chain alone, on a twin
        chain = pipeline_on(twin, labeling)
        for trip in queries:
            chain._route_tally(trip.source, trip.destination,
                               trip.start_time_s, None)
    assert snapshot.derivations == twin.derivations
    assert all(snapshot.has_pair(source, destination)
               for memo in snapshot._trip_memos.values()
               for source, destination, _ in memo)
    if not added:
        return
    refreshed = pipelines[0].extend_history(added)
    pipelines[1].load_history(refreshed)
    assert memo_size(refreshed) == 0
    for pipeline, labeling, old in zip(pipelines, both, before):
        assert answers(pipeline, queries) == expected(refreshed, labeling,
                                                      queries)
        assert answers(pipeline, queries, snapshot) == old


def test_the_time_slot_is_part_of_the_trip_key():
    """Slots 0 and 2 hold their own groups, slot 1 is sparse and falls back
    to the pair across slots: three keys of one pair, three answers."""
    first, second = [0, 2, 8], [0, 3, 8]
    snapshot = HistorySnapshot.build(
        [make(i, first, 0) for i in range(3)]
        + [make(3 + i, second, 2) for i in range(3)], SLOTS)
    labeling = config(min_slot_group_size=2, delta=0.4)
    pipeline = pipeline_on(snapshot, labeling)
    queries = [make(9, first, slot) for slot in (0, 2, 1, 2, 0)]
    resolved = [pair for pair, _ in answers(pipeline, queries)]
    assert resolved == [pair for pair, _ in expected(snapshot, labeling,
                                                     queries)]
    assert resolved[0] == frozenset(normal_transitions([first]))
    assert resolved[1] == frozenset(normal_transitions([second]))
    assert resolved[2] == resolved[0] | resolved[1]


def test_a_refreshed_snapshot_reads_none_of_its_predecessor_s_answers():
    """Five trips of a second route make it the only normal one: the
    refreshed snapshot says so, the old one still says what it said."""
    first, second = [0, 2, 8], [0, 3, 8]
    labeling = config(min_slot_group_size=2, delta=0.4)
    pipeline = pipeline_on(HistorySnapshot.build(
        [make(i, first) for i in range(3)], SLOTS), labeling)
    old = pipeline.history
    trip = make(9, first)
    before = pipeline.normal_transitions_for(trip)
    assert before == frozenset(normal_transitions([first]))
    pipeline.extend_history([make(10 + i, second) for i in range(5)])
    after = pipeline.normal_transitions_for(trip)
    assert after == frozenset(normal_transitions([second]))
    assert after == reference_normal_transitions(pipeline.history,
                                                 labeling, trip)
    assert pipeline.normal_transitions_for(trip, old) is before


def test_two_configs_sharing_a_snapshot_keep_their_own_answers():
    """4 of 7 trips on one route, 3 on another: at delta 0.3 both are
    normal, at 0.6 neither clears and the most travelled one stands in;
    a slot-size threshold of 8 sends the same key to the pair's history
    across slots. Asked in turns, each config keeps its own answers."""
    first, second, third = [0, 2, 8], [0, 3, 8], [0, 4, 8]
    snapshot = HistorySnapshot.build(
        [make(i, first) for i in range(4)]
        + [make(4 + i, second) for i in range(3)]
        + [make(7 + i, third, 1) for i in range(6)], SLOTS)
    readers = [config(2, 0.3), config(2, 0.6), config(8, 0.3)]
    pipelines = [pipeline_on(snapshot, labeling) for labeling in readers]
    trip = make(20, first)
    for _ in range(2):
        resolved = [pipeline.normal_transitions_for(trip)
                    for pipeline in pipelines]
        assert resolved == [reference_normal_transitions(snapshot, labeling,
                                                         trip)
                            for labeling in readers]
        assert len(set(resolved)) == 3


def test_history_less_keys_leave_the_memo_as_it_was():
    """10 000 distinct keys of pairs without history are answered by their
    own routes and none of them is stored."""
    labeling = config()
    snapshot = HistorySnapshot.build([make(i, [0, 2, 8]) for i in range(3)],
                                     SLOTS)
    pipeline = pipeline_on(snapshot, labeling)
    pipeline.normal_transitions_for(make(9, [0, 2, 8]))
    assert memo_size(snapshot) == 1
    lonely = [make(10, [source, destination])
              for source in range(20, 120) for destination in range(20, 120)]
    assert len({(trip.source, trip.destination) for trip in lonely}) == 10_000
    for trip in lonely:
        assert pipeline.pair_transitions(trip.source, trip.destination,
                                         trip.start_time_s) is None
        assert pipeline.normal_transitions_for(trip) == frozenset(
            normal_transitions([trip.segments]))
    assert memo_size(snapshot) == 1


def test_resolutions_leave_the_pickled_snapshot_as_it_was():
    snapshot = HistorySnapshot.build(
        [make(i, [0, 2 + i % 2, 8], i % SLOTS) for i in range(12)], SLOTS)
    blob = pickle.dumps(snapshot)
    pipeline = pipeline_on(snapshot, config(min_slot_group_size=3))
    for slot in range(SLOTS):
        pipeline.normal_transitions_for(make(99, [0, 2, 8], slot))
        pipeline.preprocess(make(99, [0, 3, 8], slot))
    assert memo_size(snapshot) == SLOTS
    assert len(pickle.dumps(snapshot)) == len(blob)
    assert memo_size(pickle.loads(blob)) == 0
