"""The stream engine's tick against the tick that batched every point.

:meth:`StreamEngine.tick` finishes a warm point — prefix row stored, label
forced, fixed by RNEL or decided in its slot — in the pass that gathers it,
and sends only the misses, in the order they were met (online first, then
step-only), to the batched cell step and policy pass.
``reference_engine.ReferenceEngine`` keeps the tick that sent every point
down that path. The differential drives both through one drawn script on
the six-node junction network of ``test_stream_engine_state_machine.py``
(where RNEL fixes some points and the policy decides others):

* opens with and without SD history, declared or not (deferred streams),
  one- and two-point trips among them;
* ingest bursts over several streams, ticks and ``finalize_many``;
* ``load_weights`` mid-stream and an ASDNet-only ``weights_version`` bump;
* a compaction forced by a small ``_MAX_PREFIX_ROWS``;
* RNEL on and off.

After every step the two engines hold the same labels, rows, ``hidden`` /
``cell`` bytes, ``decisions`` bytes and ``edges``, the same ``hits`` /
``misses`` and projection-cache counters and the same ready order. A slot
decided under ASDNet weights that have since moved counts as undecided:
the reference dropped such slots only when its tick had a policy row, the
engine drops them at the start of every tick, and neither ever reads one.

Seeded mutants it kills (each applied, run under ``--hypothesis-seed`` 1
to 5, seen to fail on all five, restored): a pass that skips the
``decided_under`` check at the start of the tick, a warm online stream left
in the ready set after its last step, and the step-only misses batched
before the online ones.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import count
from unittest import mock

from hypothesis import given, settings, strategies as st

from reference_engine import ReferenceEngine
from test_deferred_streams import drive_mixed_fleet
from test_stream_engine_state_machine import (ROUTES, SNAPSHOTS, START_TIMES,
                                              WEIGHTS, model, networks)

from repro.core import StreamEngine
from repro.core import decision as decision_module
from repro.core import stream as stream_module
from repro.core.decision import UNDECIDED
from repro.core.rsrnet import RSRNet
from repro.history import clone_snapshot
from repro.nn.recurrent import LSTMCell

SCRIPTS = settings(max_examples=120, deadline=None)

openings = st.lists(st.tuples(st.integers(0, len(ROUTES) - 1), st.booleans(),
                              st.integers(0, len(START_TIMES) - 1)),
                    min_size=1, max_size=6)
rounds = st.tuples(st.just("round"), st.integers(1, 4))
waves = st.tuples(st.just("wave"), openings, st.integers(1, 3),
                  st.none() | st.integers(0, 1))
steps = st.one_of(
    st.tuples(st.just("open"), openings),
    st.tuples(st.just("feed"),
              st.lists(st.integers(0, 63), min_size=1, max_size=10)),
    rounds, rounds, waves, waves,
    st.tuples(st.just("tick"), st.integers(1, 3)),
    st.tuples(st.just("finalize"),
              st.none() | st.lists(st.integers(0, 63), max_size=4)),
    st.tuples(st.just("weights"), st.integers(0, 1)),
    st.tuples(st.just("policy"), st.integers(0, 1)),
)


def engine_pair(use_rnel=True):
    """The library engine and the reference on equal, separate models."""
    engines = []
    for cls in (StreamEngine, ReferenceEngine):
        rsrnet, asdnet = networks(0)
        rsrnet.load_state_dict(WEIGHTS[0][0])
        asdnet.load_state_dict(WEIGHTS[0][1])
        engines.append(cls.from_model(
            model(rsrnet, asdnet, clone_snapshot(SNAPSHOTS[0])),
            use_rnel=use_rnel))
    return engines


def live_decisions(engine) -> bytes:
    """The slots as the next read sees them."""
    states = engine.states
    if states.decided_under != engine._asdnet.weights_version:
        return bytes([UNDECIDED]) * len(states.decisions)
    return bytes(states.decisions)


def assert_same(engine, reference) -> None:
    ours, theirs = engine.states, reference.states
    assert ours.hidden.tobytes() == theirs.hidden.tobytes()
    assert ours.cell.tobytes() == theirs.cell.tobytes()
    assert live_decisions(engine) == live_decisions(reference)
    assert ours.edges == theirs.edges
    assert (len(ours), ours.version, ours.hits, ours.misses) == (
        len(theirs), theirs.version, theirs.hits, theirs.misses)
    assert (engine.cache.hits, engine.cache.misses, len(engine.cache)) == (
        reference.cache.hits, reference.cache.misses, len(reference.cache))
    assert list(engine._ready) == list(reference._ready)
    assert list(engine._streams) == list(reference._streams)
    for vehicle, stream in engine._streams.items():
        other = reference._streams[vehicle]
        assert (stream.labels, stream.stepped, stream.row,
                stream.hidden_rows, stream.finalizing) == (
            other.labels, other.stepped, other.row, other.hidden_rows,
            other.finalizing)
    assert (engine.points_processed, engine.ticks) == (
        reference.points_processed, reference.ticks)


def run_step(engines, trips, vehicles, step):
    """Apply one step of a script to both engines, yielding after each
    ingest batch, tick or finalize it makes."""
    kind = step[0]
    if kind == "open":
        open_trips(engines, trips, vehicles, step[1])
    elif kind == "feed":
        feed(engines, trips, step[1])
    elif kind == "round":  # the fleet's lockstep
        for _ in range(step[1]):
            feed(engines, trips, None)
            yield
            tick(engines)
            yield
    elif kind == "wave":
        # The same trips run to their ends and close, ``step[2]`` times
        # over: from the second wave on, their points are warm. With
        # ``step[3]``, ASDNet takes that weight set after the first wave,
        # so the warm rows' slots are stale.
        for repeat in range(step[2]):
            if repeat == 1 and step[3] is not None:
                change_policy(engines, step[3])
            wave = open_trips(engines, trips, vehicles, step[1])
            while any(trips[vehicle][1] < len(trips[vehicle][0])
                      for vehicle in wave):
                feed(engines, trips, None)
                yield
                tick(engines)
                yield
            finalize(engines, trips, wave)
            yield
    elif kind == "tick":
        for _ in range(step[1]):
            tick(engines)
            yield
    elif kind == "finalize":
        done = [vehicle for vehicle, (route, fed) in trips.items()
                if fed == len(route)]
        finalize(engines, trips, done if step[1] is None or not done else
                 list(dict.fromkeys(done[pick % len(done)]
                                    for pick in step[1])))
    elif kind == "weights":
        for engine in engines:
            engine.load_weights(*WEIGHTS[step[1]])
    else:
        change_policy(engines, step[1])
    yield


def change_policy(engines, weights) -> None:
    """An ASDNet-only change, behind the engines' backs."""
    for engine in engines:
        engine._asdnet.load_state_dict(WEIGHTS[weights][1])


def open_trips(engines, trips, vehicles, openings):
    opened = []
    for route, declare, start in openings:
        vehicle = next(vehicles)
        trips[vehicle] = [ROUTES[route], 1]
        opened.append(vehicle)
        for engine in engines:
            engine.ingest(vehicle, ROUTES[route][0],
                          destination=ROUTES[route][-1] if declare else None,
                          start_time_s=START_TIMES[start])
    return opened


def finalize(engines, trips, vehicles) -> None:
    results = [engine.finalize_many(vehicles) for engine in engines]
    assert ([result.labels for result in results[0]]
            == [result.labels for result in results[1]])
    for vehicle in vehicles:
        del trips[vehicle]


def feed(engines, trips, picks) -> None:
    """One ``ingest_many`` burst: a point for each pick of an open stream
    (picked twice, two points), or with ``picks=None`` one point for every
    open stream."""
    vehicles, segments = [], []
    for pick in (trips if picks is None else picks):
        open_ = [vehicle for vehicle, (route, fed) in trips.items()
                 if fed < len(route)]
        if not open_:
            break
        vehicle = pick if picks is None else open_[pick % len(open_)]
        route, fed = trips[vehicle]
        if fed < len(route):
            vehicles.append(vehicle)
            segments.append(route[fed])
            trips[vehicle][1] = fed + 1
    for engine in engines:
        engine.ingest_many(vehicles, segments)


def tick(engines) -> None:
    assert len({engine.tick() for engine in engines}) == 1


@SCRIPTS
@given(script=st.lists(steps, min_size=8, max_size=60),
       bound=st.sampled_from([None, None, 6, 10, 16]),
       use_rnel=st.sampled_from([True, True, False]))
def test_the_tick_writes_what_the_batch_everything_tick_writes(
        script, bound, use_rnel):
    engines = engine_pair(use_rnel)
    trips = {}  # open vehicle -> [route, points fed]
    vehicles = count()
    with (mock.patch.object(stream_module, "_MAX_PREFIX_ROWS", bound)
          if bound else nullcontext()):
        for step in script + [("tick", 3)]:
            for _ in run_step(engines, trips, vehicles, step):
                assert_same(*engines)


def test_a_warm_fleet_ticks_without_numpy(trained_model, dataset_split):
    """A fleet replayed a second time through the same engine — online and
    deferred streams, shared ticks — finds every prefix state and every
    choice in the table: with the batched cell step, the policy pass and
    the input projection patched to raise, it returns the first replay's
    labels."""
    _, development, test = dataset_split
    fleet = list(test) + list(development)
    declared = [index % 3 != 0 for index in range(len(fleet))]
    engine = trained_model.stream_engine()
    first = [result.labels for result in
             drive_mixed_fleet(engine, fleet, declared, 5, [1, 0, 2])]

    def cold(*args, **kwargs):
        raise AssertionError("a warm tick ran a numpy pass")

    with mock.patch.object(LSTMCell, "forward_batch", cold), \
            mock.patch.object(decision_module, "policy_choices", cold), \
            mock.patch.object(RSRNet, "input_projection", cold):
        again = [result.labels for result in
                 drive_mixed_fleet(engine, fleet, declared, 5, [1, 0, 2])]
    assert again == first
    assert engine.states.hits > 0
