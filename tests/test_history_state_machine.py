"""The history store's refresh machine, stateful.

A hypothesis ``RuleBasedStateMachine`` drives one producer pipeline (its
:class:`RouteHistoryStore` mints the versions) and three receivers that lag
behind it, with arbitrary interleavings of

* ``extend`` — a handful of trips over three SD pairs (one with no seed
  history: a brand-new pair), three routes a pair (so equal counts are the
  rule, not the exception) and three time slots, with
  ``min_slot_group_size=3``: slots cross the threshold all the time, a new
  route can land in a slot group that comes *before* the one that first saw
  its equals, and a new slot key joins the group map behind every older one;
* resolver reads (``statistics_for`` / ``normal_routes_for`` /
  ``normal_transitions_for``) by any party, before and after any refresh —
  what was asked is what a party's memo holds, so what the next refresh
  carries by reference, extends, or has never heard of (the producer and
  one receiver start out having asked for everything, two receivers for
  nothing);
* a receiver catching up by one delta (through the wire form or not), by
  the merged chain, or by a full snapshot;
* ``rebuild`` of the producer (group-map order kept or reversed; the delta
  log is gone, so receivers need the full snapshot).

Checked after every step, on producer and receivers alike: a party at the
producer's version holds the producer's group map, and for every query a
party was ever asked each resolver ``==`` — list order included — the
same resolver of a pipeline built fresh on a clone of the party's snapshot,
and ``==`` :mod:`reference_labeling`'s one-pass count over the group the
query resolves to. Both, because a fresh pipeline shares the tally code with
the carried one (a wrong sort would be wrong on both sides) while the
reference shares nothing but the group.

Seeded mutants it kills (each applied, run under ``--hypothesis-seed`` 1, 2
and 3, seen to fail, restored). In ``HistorySnapshot._appended``:
``grown[key.as_tuple()] = [run]`` left out, so a dense slot's own entry is carried as
it was while the slot grew (the pair-wide entry is still extended) — 3 of 3
seeds; ``len(before)`` replaced by ``0`` as a run's first index, which ranks
an appended trip before the slot's first — 3 of 3. In ``merge_deltas``:
overwrite (``appended[key] = trajectories``) for concatenation, which loses
the first of two appends to one slot group — 3 of 3, by the caught-up
receiver's group map. In ``RouteTally``: rank by arrival order instead of
group order — an extended route keeps the rank it had, ``(known[0] + 1,
known[1])``, although a later trip of it landed in an earlier slot group,
which a fresh count over the successor's group orders the other way among
equally travelled routes — **2 of 3 seeds** (it takes two routes first seen
in a later slot group, a tie between them and a warm pair-wide entry), so
that one also has an example of its own:
``test_history.py::test_a_route_s_rank_is_its_place_in_the_group_not_its_arrival``.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.config import LabelingConfig
from repro.history import (apply_delta, clone_snapshot, delta_from_bytes,
                           delta_to_bytes, merge_deltas)
from repro.labeling import PreprocessingPipeline
from repro.labeling.normal_routes import normal_transitions
from repro.roadnet import RoadNetwork
from repro.trajectory import MatchedTrajectory

from reference_labeling import (reference_group, reference_normal_routes,
                                reference_transition_counts)

CONFIG = LabelingConfig(alpha=0.4, delta=0.3, min_slot_group_size=3)
#: Three routes per SD pair; the last pair has no seed history.
ROUTES = (
    ((1, 4, 9), (1, 5, 9), (1, 4, 5, 9)),
    ((2, 6, 8), (2, 7, 8), (2, 6, 7, 8)),
    ((3, 4, 7), (3, 5, 7), (3, 6, 7)),
)
SLOTS = (0, 5, 13)
RECEIVERS = 3

trips = st.tuples(st.integers(0, len(ROUTES) - 1), st.integers(0, 2),
                  st.sampled_from(SLOTS))
parties = st.integers(0, RECEIVERS)  # 0 is the producer
receivers = st.integers(1, RECEIVERS)


def ring_network(segments: int = 10) -> RoadNetwork:
    network = RoadNetwork()
    for node in range(segments):
        network.add_intersection(node, 100.0 * node, 0.0)
    for segment in range(segments):
        network.add_segment(segment, segment, (segment + 1) % segments)
    return network


def trip(trajectory_id, pair, route, slot) -> MatchedTrajectory:
    return MatchedTrajectory(trajectory_id, list(ROUTES[pair][route]),
                             start_time_s=slot * 3600.0 + 60.0)


def seed_history():
    # Pair 0: slot 0 dense (2 + 1), slot 5 sparse; pair 1: one sparse slot
    # holding a tie; pair 2: nothing.
    return [trip(0, 0, 0, 0), trip(1, 0, 0, 0), trip(2, 0, 1, 0),
            trip(3, 0, 1, 5), trip(4, 1, 0, 13), trip(5, 1, 1, 13)]


class HistoryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.producer = PreprocessingPipeline(ring_network(), seed_history(),
                                              CONFIG)
        self.parties = [self.producer] + [
            self.producer.with_history(clone_snapshot(self.producer.history))
            for _ in range(RECEIVERS)]
        # The producer and the first receiver are warm — they have asked
        # for every pair in every slot, so every refresh finds their memo
        # full; the other receivers hold what the ``ask`` rule gave them.
        everything = {(pair, 0, slot) for pair in range(len(ROUTES))
                      for slot in SLOTS}
        self.asked = [set(everything), set(everything), set(), set()]
        self.next_id = 100

    # ------------------------------------------------------------- producer
    @rule(new=st.lists(trips, min_size=1, max_size=4))
    def extend(self, new):
        added = []
        for pair, route, slot in new:
            added.append(trip(self.next_id, pair, route, slot))
            self.next_id += 1
        before = self.producer.history
        after = self.producer.extend_history(added)
        assert after.version == before.version + 1
        assert len(after) == len(before) + len(added)

    @rule(reverse=st.booleans())
    def rebuild(self, reverse):
        corpus = list(self.producer.history.trajectories())
        if reverse:
            corpus.reverse()
        self.producer.load_history(self.producer.store.rebuild(corpus))
        assert self.producer.store.delta_chain(1) is None

    # ---------------------------------------------------------------- reads
    @rule(who=parties, query=trips)
    def ask(self, who, query):
        self.asked[who].add(query)

    # ------------------------------------------------------------ receivers
    def chain_to(self, who, target=None):
        return self.producer.store.delta_chain(
            self.parties[who].history.version, target)

    @precondition(lambda self: any(self.chain_to(who)
                                   for who in range(1, RECEIVERS + 1)))
    @rule(who=receivers, wire=st.booleans())
    def catch_up_by_one_delta(self, who, wire):
        party = self.parties[who]
        chain = self.chain_to(who, party.history.version + 1)
        if not chain:
            return
        delta, = chain
        if wire:
            delta = delta_from_bytes(delta_to_bytes(delta))
        party.load_history(apply_delta(party.history, delta))
        assert party.history.version == delta.new_version

    @precondition(lambda self: any(self.chain_to(who)
                                   for who in range(1, RECEIVERS + 1)))
    @rule(who=receivers)
    def catch_up_by_the_merged_chain(self, who):
        party = self.parties[who]
        chain = self.chain_to(who)
        if not chain:
            return
        party.load_history(apply_delta(party.history, merge_deltas(chain)))
        assert party.history.version == self.producer.history.version

    @rule(who=receivers)
    def catch_up_by_a_full_snapshot(self, who):
        self.parties[who].load_history(clone_snapshot(self.producer.history))

    # ------------------------------------------------------------ invariant
    @invariant()
    def every_resolver_equals_a_fresh_build_and_a_count_from_scratch(self):
        current = self.producer.history
        for party, asked in zip(self.parties, self.asked):
            snapshot = party.history
            if snapshot.version == current.version:  # caught up: same data
                assert (list(snapshot.groups().items())
                        == list(current.groups().items()))
            fresh = party.with_history(clone_snapshot(snapshot))
            assert (list(fresh.history.groups().items())
                    == list(snapshot.groups().items()))
            for pair, route, slot in sorted(asked):
                query = trip(-1, pair, route, slot)
                statistics = party.statistics_for(query)
                routes = party.normal_routes_for(query)
                transitions = party.normal_transitions_for(query)
                assert statistics == fresh.statistics_for(query)
                assert routes == fresh.normal_routes_for(query)
                assert transitions == fresh.normal_transitions_for(query)
                group = reference_group(
                    snapshot.groups(), query.source, query.destination, slot,
                    CONFIG.min_slot_group_size) or [query]
                assert group == (party.sd_group(
                    query.source, query.destination, query.start_time_s)
                    or [query])
                assert statistics.group_size == len(group)
                assert statistics.counts == reference_transition_counts(group)
                assert routes == reference_normal_routes(group, CONFIG.delta)
                assert transitions == normal_transitions(routes)


HistoryMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None)
TestHistoryMachine = HistoryMachine.TestCase
