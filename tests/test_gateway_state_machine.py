"""The gateway's reorder / duplicate / late-drop / session machine, stateful.

A hypothesis ``RuleBasedStateMachine`` drives :class:`GpsGateway` with
arbitrary interleavings of in-order fixes, fixes swapped inside and outside
the reorder window, exact duplicates (of a buffered fix, of the release
frontier with fixes buffered and with none), session-gap jumps, ``end`` and
``advance_clock`` over a few vehicles, and checks it after every step against
a **sort-then-replay model**: per vehicle, a sorted list of the accepted
fixes not yet released and the release frontier; a fix is late below the
frontier, a duplicate on it or on a held timestamp, and otherwise held until
more than ``reorder_window`` are — released oldest first, a gap of more than
``session_gap_s`` between released fixes starting a new session. A new
vehicle beyond ``max_vehicles`` first ends the least recently active one
(ties: the earliest registered), whose sessions close in that push.
Every close joins a FIFO of results in flight on the bus, which must come
back in close order, match summary and all — an ended or evicted vehicle
that returns restarts its session numbers, so one key can be in that FIFO
twice. A call that closed a session pumps the service once and returns what
one poll collects; any other call does neither. The bus is either *prompt*
(an in-process shard: a pump publishes every queued close, so a closing
call returns its own sessions) or *lagging* (a process shard: only the
``deliver`` rule publishes, a few closes at a time, and what it published
comes back from the next closing call or the ``poll`` rule).

Only the gateway's own machine is under test, so what sits on either side of
it is a recorder: a matcher that logs the ``(session key, t)`` of every fix
released to it, and a service that finalizes a session to its key as a bus
envelope and counts its pumps and polls. Asserted after every rule: the
release log (order and session boundaries), the sessions each call
returned, the pumps and polls each call made, and the ``raw_points`` /
``late_dropped`` / ``duplicates_dropped`` / ``gap_splits`` /
``session_timeouts`` / ``sessions_closed`` / ``vehicles_evicted`` /
``reorder_buffered`` counters and ``pending_sessions``.

Seeded mutants it kills (each applied, seen to fail, restored). In
``push_point``: the in-order fast path taken whenever the buffer is empty —
``if not buffer or t > buffer[-1].t: append`` — which *inserts* a fix equal
to ``last_released_t`` instead of counting it a duplicate. It needs an empty
buffer with a frontier behind it, i.e. ``reorder_window=0``, which is why the
window is part of the machine's state and not a constant. (The neighbouring
mutant ``t >=`` for ``t >`` dies on the buffered-duplicate rule.) In
``_evict_for_capacity``: ``max`` for ``min`` (the most recently active
vehicle evicted), and the evictee's ``self.end(victim)`` results dropped
instead of returned. In the pending-session FIFO: one slot per key (a close
overwrites the key's entry instead of queueing behind it), and
``queue.pop()`` for ``queue.popleft()`` in ``poll_sessions`` — two in-flight
closes of one key come back with each other's match summary, which is why
the recording matcher's summary counts the session's fixes. In ``_collect``:
a pump and poll after every call, and none after a closing push.
"""

from __future__ import annotations

import bisect

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro.config import GatewayConfig
from repro.ingest import GpsGateway
from repro.mapmatching import (HMMMapMatcher, OnlineMapMatcher,
                               OnlineMatchResult)
from repro.roadnet import RoadNetwork
from repro.serve import ResultEnvelope
from repro.trajectory import GPSPoint

SESSION_GAP_S = 10.0
VEHICLES = ("a", "b", "c")
_NEVER = float("-inf")


def two_node_network() -> RoadNetwork:
    network = RoadNetwork()
    network.add_intersection(0, 0.0, 0.0)
    network.add_intersection(1, 100.0, 0.0)
    network.add_segment(0, 0, 1)
    return network


class RecordingMatcher(OnlineMapMatcher):
    """Logs every released fix; each session's route is the one segment."""

    def __init__(self):
        super().__init__(HMMMapMatcher(two_node_network()))
        self.released = []  # (session key, t), in release order
        self.open = {}      # session key -> fixes released to it

    def push(self, key, point):
        self.released.append((key, point.t))
        first = key not in self.open
        self.open[key] = self.open.get(key, 0) + 1
        return [0] if first else []

    def has_session(self, key):
        return key in self.open

    def finish(self, key):
        return OnlineMatchResult(route=[0], log_likelihood=0.0,
                                 points_matched=self.open.pop(key),
                                 forced_commits=0, max_commit_lag=0)


class RecordingService:
    """The slice of ``DetectionService`` a gateway calls: finalizes a session
    to its key as a bus envelope, published at a pump (``prompt``) or only
    when :meth:`deliver` says so."""

    tracer = None

    def __init__(self, prompt):
        self.prompt = prompt
        self.queued = []     # envelopes of finalizes not yet published
        self.published = []  # envelopes the next poll hands out
        self.seq = 0
        self.pumps = self.polls = 0

    def shard_for(self, key):
        return 0

    def ingest_many(self, events, max_retries, retry_wait_s):
        pass

    def finalize_async(self, keys, max_retries, retry_wait_s):
        for key in keys:
            self.seq += 1
            self.queued.append(ResultEnvelope(0, self.seq, "result", key, key))

    def deliver(self, count):
        self.published += self.queued[:count]
        del self.queued[:count]

    def pump(self):
        self.pumps += 1
        if self.prompt:
            self.deliver(len(self.queued))
        return 0

    def poll_results(self, max_items=None):
        self.polls += 1
        published, self.published = self.published, []
        return published


class ModelVehicle:
    """Sort-then-replay: what one vehicle's fixes should turn into."""

    def __init__(self):
        self.held = []            # accepted, unreleased timestamps, sorted
        self.frontier = _NEVER    # newest released timestamp
        # [key, last released t, fixes released] of the open session
        self.session = None
        self.next_session = 0

    def newest(self) -> float:
        return self.held[-1] if self.held else self.frontier


class GatewayMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.gateway = None

    @initialize(window=st.sampled_from([0, 1, 3]),
                max_vehicles=st.sampled_from([0, 2]),
                prompt=st.booleans())
    def build(self, window, max_vehicles, prompt):
        self.window = window
        self.max_vehicles = max_vehicles
        self.matcher = RecordingMatcher()
        self.service = RecordingService(prompt)
        self.gateway = GpsGateway(
            self.service, self.matcher,
            GatewayConfig(reorder_window=window, session_gap_s=SESSION_GAP_S,
                          max_vehicles=max_vehicles))
        self.vehicles = {}          # id -> ModelVehicle, registration order
        self.expected_released = []
        self.in_flight = []         # closes not yet collected, in order
        self.published = 0          # how many of them the bus has published
        self.counts = dict.fromkeys(
            ("raw_points", "late_dropped", "duplicates_dropped", "gap_splits",
             "session_timeouts", "sessions_closed", "vehicles_evicted"), 0)

    # ------------------------------------------------------------- the model
    def model_release(self, vehicle_id, vehicle, t, closed):
        if (vehicle.session is not None
                and t - vehicle.session[1] > SESSION_GAP_S):
            self.counts["gap_splits"] += 1
            self.model_close(vehicle, closed)
        if vehicle.session is None:
            vehicle.session = [(vehicle_id, vehicle.next_session), t, 0]
            vehicle.next_session += 1
        vehicle.session[1] = t
        vehicle.session[2] += 1
        vehicle.frontier = t
        self.expected_released.append((vehicle.session[0], t))

    def model_close(self, vehicle, closed):
        closed.append((vehicle.session[0], vehicle.session[2]))
        vehicle.session = None
        self.counts["sessions_closed"] += 1

    def model_push(self, vehicle_id, t):
        """Returns the sessions this fix should complete, as ``(key, fixes
        released to it)``: an evicted vehicle's first."""
        self.counts["raw_points"] += 1
        closed = []
        if (vehicle_id not in self.vehicles
                and len(self.vehicles) >= self.max_vehicles > 0):
            # min() keeps the first of equals: registration order.
            victim = min(self.vehicles,
                         key=lambda name: self.vehicles[name].newest())
            self.counts["vehicles_evicted"] += 1
            closed.extend(self.model_end(victim))
        vehicle = self.vehicles.setdefault(vehicle_id, ModelVehicle())
        if t < vehicle.frontier:
            self.counts["late_dropped"] += 1
        elif t == vehicle.frontier or t in vehicle.held:
            self.counts["duplicates_dropped"] += 1
        else:
            bisect.insort(vehicle.held, t)
            while len(vehicle.held) > self.window:
                self.model_release(vehicle_id, vehicle, vehicle.held.pop(0),
                                   closed)
        return closed

    def model_end(self, vehicle_id):
        vehicle = self.vehicles.pop(vehicle_id)
        closed = []
        for t in vehicle.held:
            self.model_release(vehicle_id, vehicle, t, closed)
        if vehicle.session is not None:
            self.model_close(vehicle, closed)
        return closed

    # ----------------------------------------------------------------- rules
    @staticmethod
    def sessions_of(results):
        return [(result.session_key, result.match.points_matched)
                for result in results]

    def collected(self):
        """What one poll collects: every published close, in close order."""
        collected = self.in_flight[:self.published]
        del self.in_flight[:self.published]
        self.published = 0
        return collected

    def check_closed(self, call, closed):
        """A call that closed ``closed`` pumps and polls once iff it closed
        anything, and returns what that poll collects."""
        calls = (self.service.pumps, self.service.polls)
        results = call()
        self.in_flight.extend(closed)
        if self.service.prompt:
            self.published = len(self.in_flight)
        expected = self.collected() if closed else []
        assert self.sessions_of(results) == expected
        made = 1 if closed else 0
        assert (self.service.pumps, self.service.polls) == (
            calls[0] + made, calls[1] + made)

    def push(self, vehicle_id, t):
        expected = self.model_push(vehicle_id, t)
        self.check_closed(lambda: self.gateway.push_point(
            vehicle_id, GPSPoint(50.0, 0.0, t)), expected)

    def known(self, pick):
        """A vehicle the model knows, chosen by an arbitrary integer."""
        names = list(self.vehicles)
        return names[pick % len(names)]

    @rule(vehicle_id=st.sampled_from(VEHICLES),
          step=st.sampled_from([1.0, 2.0, SESSION_GAP_S]))
    def in_order_fix(self, vehicle_id, step):
        vehicle = self.vehicles.get(vehicle_id)
        newest = vehicle.newest() if vehicle is not None else _NEVER
        self.push(vehicle_id, 0.0 if newest == _NEVER else newest + step)

    @rule(vehicle_id=st.sampled_from(VEHICLES))
    def gap_split(self, vehicle_id):
        vehicle = self.vehicles.get(vehicle_id)
        newest = vehicle.newest() if vehicle is not None else _NEVER
        self.push(vehicle_id, 0.0 if newest == _NEVER
                  else newest + SESSION_GAP_S + 1.0)

    @precondition(lambda self: any(v.held for v in self.vehicles.values()))
    @rule(pick=st.integers(0, 99))
    def swapped_inside_the_window(self, pick):
        """Older than the newest held fix, newer than the frontier."""
        holding = [name for name, vehicle in self.vehicles.items()
                   if vehicle.held]
        vehicle_id = holding[pick % len(holding)]
        vehicle = self.vehicles[vehicle_id]
        upper = vehicle.held[pick % len(vehicle.held)]
        self.push(vehicle_id, upper - 0.25 if vehicle.frontier == _NEVER
                  else (upper + vehicle.frontier) / 2.0)

    @precondition(lambda self: any(v.frontier != _NEVER
                                   for v in self.vehicles.values()))
    @rule(pick=st.integers(0, 99), behind=st.sampled_from([0.5, 3.0, 40.0]))
    def swapped_outside_the_window(self, pick, behind):
        released = [name for name, vehicle in self.vehicles.items()
                    if vehicle.frontier != _NEVER]
        vehicle_id = released[pick % len(released)]
        self.push(vehicle_id, self.vehicles[vehicle_id].frontier - behind)

    @precondition(lambda self: any(v.held for v in self.vehicles.values()))
    @rule(pick=st.integers(0, 99))
    def duplicate_of_a_buffered_fix(self, pick):
        holding = [name for name, vehicle in self.vehicles.items()
                   if vehicle.held]
        vehicle_id = holding[pick % len(holding)]
        held = self.vehicles[vehicle_id].held
        self.push(vehicle_id, held[pick % len(held)])

    @precondition(lambda self: any(v.frontier != _NEVER
                                   for v in self.vehicles.values()))
    @rule(pick=st.integers(0, 99))
    def duplicate_of_the_frontier(self, pick):
        """With fixes buffered (window > 0) and with none (window 0)."""
        released = [name for name, vehicle in self.vehicles.items()
                    if vehicle.frontier != _NEVER]
        vehicle_id = released[pick % len(released)]
        self.push(vehicle_id, self.vehicles[vehicle_id].frontier)

    @precondition(lambda self: self.vehicles)
    @rule(pick=st.integers(0, 99))
    def end(self, pick):
        vehicle_id = self.known(pick)
        expected = self.model_end(vehicle_id)
        self.check_closed(lambda: self.gateway.end(vehicle_id), expected)

    @precondition(lambda self: self.vehicles)
    @rule(pick=st.integers(0, 99),
          ahead=st.sampled_from([0.0, SESSION_GAP_S, SESSION_GAP_S + 0.5,
                                 3 * SESSION_GAP_S]))
    def advance_clock(self, pick, ahead):
        now = self.vehicles[self.known(pick)].newest() + ahead
        expected = []
        for vehicle_id in list(self.vehicles):
            vehicle = self.vehicles[vehicle_id]
            if now - vehicle.newest() > SESSION_GAP_S:
                if vehicle.session is not None or vehicle.held:
                    self.counts["session_timeouts"] += 1
                expected.extend(self.model_end(vehicle_id))
        self.check_closed(lambda: self.gateway.advance_clock(now), expected)

    @precondition(lambda self: len(self.in_flight) > self.published)
    @rule(count=st.sampled_from([1, 2, 5]))
    def deliver(self, count):
        """A lagging bus publishes the oldest few closes."""
        self.service.deliver(count)
        self.published = min(len(self.in_flight), self.published + count)

    @rule()
    def poll(self):
        assert self.sessions_of(self.gateway.poll_sessions()) == \
            self.collected()

    # ------------------------------------------------------------ invariants
    @invariant()
    def released_in_sorted_order_with_the_models_sessions(self):
        if self.gateway is None:
            return
        assert self.matcher.released == self.expected_released

    @invariant()
    def counters_agree_with_the_model(self):
        if self.gateway is None:
            return
        stats = self.gateway.stats()
        assert {name: getattr(stats, name)
                for name in self.counts} == self.counts
        assert stats.reorder_buffered == sum(
            len(vehicle.held) for vehicle in self.vehicles.values())
        assert sorted(self.gateway.active_vehicles) == sorted(self.vehicles)
        assert self.gateway.pending_sessions == len(self.in_flight)
        assert stats.sessions_opened == (
            stats.sessions_closed
            + sum(vehicle.session is not None
                  for vehicle in self.vehicles.values()))


GatewayMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestGatewayMachine = GatewayMachine.TestCase
