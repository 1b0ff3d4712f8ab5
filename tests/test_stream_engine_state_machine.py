"""The stream engine's ready set, stored hidden states and projection table,
stateful.

A hypothesis ``RuleBasedStateMachine`` drives one :class:`StreamEngine` on a
tiny untrained model over a six-node junction network (branching, so the
policy decides points RNEL leaves open) with arbitrary interleavings of

* opening a stream — destination declared for an SD pair with history
  (online), declared for one without (deferred), or undeclared (deferred) —
  one row at a time through ``ingest`` or mixed with other streams' next
  points in one ``ingest_many`` batch;
* ``tick``;
* ``finalize`` / ``finalize_many`` of streams that reached their
  destination;
* ``load_weights`` alternating between two weight sets, ``invalidate_cache``
  with the weights unchanged, and ``load_history`` of any of three history
  versions (the later ones make two detours normal and give a
  history-less pair a history).

The machine keeps its own count of every stream's stepped points — a tick
advances each stream with a point to step by one; a finalize drains through
shared ticks; a weight swap or ``invalidate_cache`` restarts a deferred
stream's recurrence — and checks after every step that ``step_waiting()``
is true iff some stream has an unstepped point that is not its destination,
and that ``tick`` labels exactly the online streams it steps. At every
finalize it checks the labels against ``reference_detector.reference_labels``
(Algorithm 1 as a scalar loop) on a model holding the reference weights:

* a stream that crossed no weight swap — online or deferred — equals the
  reference under the weights that served it and the snapshot it pinned at
  open;
* a deferred stream equals the reference under the weights serving at its
  finalize (and the snapshot it pinned at open), swap or no swap;
* an online stream that crossed a swap returns one label per segment with
  normal endpoints (its labels mix two models by contract).

Seeded mutants it kills (each applied, run under ``--hypothesis-seed`` 1 to
5, seen to fail on all five, restored): ``load_weights`` without its
``invalidate_cache()`` call (stale projection rows and stale deferred hidden
states), and a deferred finalize resolving its normal routes against
``self._pipeline.history`` instead of ``stream.history``.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.config import (ASDNetConfig, LabelingConfig, RSRNetConfig,
                          TrainingConfig)
from repro.core.asdnet import ASDNet
from repro.core.rl4oasd import RL4OASDModel, TrainingReport
from repro.core.rsrnet import RSRNet
from repro.history import clone_snapshot
from repro.labeling import PreprocessingPipeline
from repro.roadnet import RoadNetwork
from repro.trajectory import MatchedTrajectory

from reference_detector import reference_labels

NODES = ((0, 0), (100, 0), (200, 0), (300, 0), (150, 120), (250, 120))
#: Segment id -> (start node, end node).
EDGES = ((0, 1), (1, 2), (2, 3), (1, 4), (4, 2), (4, 5), (5, 3), (2, 5),
         (3, 0))
ROUTES = (
    (0, 1, 2), (0, 3, 4, 2),                   # pair (0, 2)
    (0, 3, 5, 6), (0, 1, 7, 6), (0, 3, 4, 7, 6),  # pair (0, 6)
    (0, 1, 2, 8), (0, 3, 4, 2, 8),             # pair (0, 8): history from S2
    (1, 2, 8),                                 # pair (1, 8): never history
    (0, 1), (3,),
)
START_TIMES = (60.0, 5 * 3600.0 + 60.0)
CONFIG = LabelingConfig(alpha=0.4, delta=0.3, min_slot_group_size=3)
TRAINING = TrainingConfig()


def junction_network() -> RoadNetwork:
    network = RoadNetwork()
    for node, (x, y) in enumerate(NODES):
        network.add_intersection(node, float(x), float(y))
    for segment, (start, end) in enumerate(EDGES):
        network.add_segment(segment, start, end)
    return network


def trips(first_id, route, copies, start_time_s=START_TIMES[0]):
    return [MatchedTrajectory(first_id + copy, list(route),
                              start_time_s=start_time_s)
            for copy in range(copies)]


PIPELINE = PreprocessingPipeline(
    junction_network(),
    trips(0, ROUTES[0], 4) + trips(10, ROUTES[1], 1)
    + trips(20, ROUTES[2], 3) + trips(30, ROUTES[3], 2, START_TIMES[1]),
    CONFIG)
_S0 = PIPELINE.history
_S1 = _S0.extended(trips(100, ROUTES[1], 6) + trips(110, ROUTES[4], 6),
                   version=_S0.version + 1)
_S2 = _S1.extended(trips(200, ROUTES[5], 3), version=_S1.version + 1)
#: The history versions ``load_history`` picks from, in any order. The
#: engine is always handed a clone; the references read these.
SNAPSHOTS = (_S0, _S1, _S2)


def networks(seed):
    rsrnet = RSRNet(len(PIPELINE.vocabulary), RSRNetConfig(
        embedding_dim=8, hidden_dim=6, nrf_dim=4, seed=seed))
    asdnet = ASDNet(rsrnet.representation_dim,
                    ASDNetConfig(label_embedding_dim=4, seed=seed))
    return rsrnet, asdnet


def model(rsrnet, asdnet, history) -> RL4OASDModel:
    return RL4OASDModel(rsrnet, asdnet, PIPELINE.with_history(history),
                        TRAINING, TrainingReport())


#: The two weight sets ``load_weights`` alternates between.
REFERENCE_NETWORKS = (networks(8), networks(9))
WEIGHTS = tuple((rsrnet.state_dict(), asdnet.state_dict())
                for rsrnet, asdnet in REFERENCE_NETWORKS)
_expected = {}


def expected_labels(weights, history, route, start_time_s):
    key = (weights, history, route, start_time_s)
    if key not in _expected:
        _expected[key] = reference_labels(
            model(*REFERENCE_NETWORKS[weights], SNAPSHOTS[history]),
            MatchedTrajectory(-1, list(route), start_time_s=start_time_s),
            use_rnel=TRAINING.use_rnel,
            delay_window=TRAINING.delayed_labeling_window)
    return _expected[key]


def has_history(history, route) -> bool:
    pair = (route[0], route[-1])
    return any((trip.source, trip.destination) == pair
               for trip in SNAPSHOTS[history].trajectories())


def test_the_weight_sets_and_the_snapshots_change_labels():
    """Guard: what the machine swaps must be visible in the labels."""
    def labels(weights, history):
        return [expected_labels(weights, history, route, start)
                for route in ROUTES for start in START_TIMES]
    for weights in (0, 1):
        assert labels(weights, 0) != labels(weights, 1)
        assert labels(weights, 1) != labels(weights, 2)
    assert labels(0, 0) != labels(1, 0)


@dataclass
class Trip:
    route: tuple
    start_time_s: float
    deferred: bool
    weights: int    # serving when the stream opened
    history: int    # pinned when the stream opened
    fed: int = 1
    stepped: int = 0
    crossed_swap: bool = False

    def waiting(self, finalizing=False) -> bool:
        """Whether the next tick steps a point of this stream: an online
        stream's newest point waits for a successor, a finalizing stream
        leaves its destination alone."""
        last = 0 if self.deferred and not finalizing else 1
        return self.stepped < self.fed - last


routes = st.sampled_from(ROUTES)
starts = st.sampled_from(START_TIMES)
openings = st.tuples(routes, st.booleans(), starts)


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        rsrnet, asdnet = networks(0)
        rsrnet.load_state_dict(WEIGHTS[0][0])
        asdnet.load_state_dict(WEIGHTS[0][1])
        self.engine = model(rsrnet, asdnet,
                            clone_snapshot(SNAPSHOTS[0])).stream_engine()
        self.weights = 0
        self.history = 0
        self.trips = {}
        self.next_vehicle = 0

    # ---------------------------------------------------------------- ingest
    def open_row(self, route, declare, start_time_s):
        vehicle = self.next_vehicle
        self.next_vehicle += 1
        self.trips[vehicle] = Trip(
            route, start_time_s,
            deferred=not (declare and has_history(self.history, route)),
            weights=self.weights, history=self.history)
        extra = (route[-1] if declare else None, start_time_s, None, None)
        return vehicle, route[0], extra

    @rule(opening=openings)
    def open(self, opening):
        vehicle, segment, extra = self.open_row(*opening)
        self.engine.ingest(vehicle, segment, *extra)

    @rule(actions=st.lists(st.one_of(openings, st.integers(0, 1000)),
                           min_size=1, max_size=8))
    def ingest_many(self, actions):
        vehicles, segments, extras = [], [], {}
        for action in actions:
            if isinstance(action, tuple):
                vehicle, segment, extra = self.open_row(*action)
                extras[len(vehicles)] = extra
            else:
                feedable = [vehicle for vehicle, trip in self.trips.items()
                            if trip.fed < len(trip.route)]
                if not feedable:
                    continue
                vehicle = feedable[action % len(feedable)]
                trip = self.trips[vehicle]
                segment = trip.route[trip.fed]
                trip.fed += 1
            vehicles.append(vehicle)
            segments.append(segment)
        self.engine.ingest_many(vehicles, segments, extras)

    # ------------------------------------------------------------------ tick
    def advance(self, closing=()):
        stepping = [trip for vehicle, trip in self.trips.items()
                    if trip.waiting(finalizing=vehicle in closing)]
        for trip in stepping:
            trip.stepped += 1
        return sum(not trip.deferred for trip in stepping)

    @rule()
    def tick(self):
        assert self.engine.tick() == self.advance()

    # -------------------------------------------------------------- finalize
    def arrived(self):
        return [vehicle for vehicle, trip in self.trips.items()
                if trip.fed == len(trip.route)]

    def close(self, vehicles):
        closing = set(vehicles)
        while any(self.trips[vehicle].stepped < len(self.trips[vehicle].route)
                  - 1 for vehicle in closing):
            self.advance(closing)
        return [self.trips.pop(vehicle) for vehicle in vehicles]

    def check(self, trip, labels):
        route, start = trip.route, trip.start_time_s
        if trip.deferred:
            assert labels == expected_labels(self.weights, trip.history,
                                             route, start)
        elif not trip.crossed_swap:
            assert labels == expected_labels(trip.weights, trip.history,
                                             route, start)
        else:
            assert len(labels) == len(route)
            assert labels[0] == labels[-1] == 0

    @precondition(lambda self: self.arrived())
    @rule(pick=st.integers(0, 1000))
    def finalize(self, pick):
        arrived = self.arrived()
        vehicle = arrived[pick % len(arrived)]
        result = self.engine.finalize(vehicle)
        trip, = self.close([vehicle])
        self.check(trip, result.labels)

    @precondition(lambda self: self.arrived())
    @rule(data=st.data())
    def finalize_many(self, data):
        vehicles = data.draw(st.lists(st.sampled_from(self.arrived()),
                                      min_size=1, unique=True))
        results = self.engine.finalize_many(vehicles)
        for trip, result in zip(self.close(vehicles), results):
            self.check(trip, result.labels)

    # --------------------------------------------------------- control plane
    def restart_deferred(self):
        for trip in self.trips.values():
            if trip.deferred:
                trip.stepped = 0

    @rule()
    def load_weights(self):
        self.weights = 1 - self.weights
        self.engine.load_weights(*WEIGHTS[self.weights])
        for trip in self.trips.values():
            trip.crossed_swap = True
        self.restart_deferred()

    @rule()
    def invalidate_cache(self):
        self.engine.invalidate_cache()
        self.restart_deferred()

    @rule(history=st.integers(0, len(SNAPSHOTS) - 1))
    def load_history(self, history):
        self.history = history
        self.engine.load_history(clone_snapshot(SNAPSHOTS[history]))

    # ------------------------------------------------------------- invariant
    @invariant()
    def the_ready_set_is_the_streams_with_a_point_to_step(self):
        engine = self.engine
        assert sorted(engine.active_vehicles) == sorted(self.trips)
        assert engine.step_waiting() == any(
            trip.waiting() for trip in self.trips.values())
        for vehicle, trip in self.trips.items():
            assert engine.step_waiting([vehicle]) == trip.waiting()
            assert engine.pending_points(vehicle) == (
                trip.fed if trip.deferred else trip.fed - trip.stepped)


EngineMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None)
TestEngineMachine = EngineMachine.TestCase
