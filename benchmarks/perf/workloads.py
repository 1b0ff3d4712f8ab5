"""The five benchmark workloads (see README.md for why each exists).

Every workload builds its inputs from the fixture once, then exposes the
same small surface to the runner: ``setup`` (load the checkpoint, build
the system), ``lap`` (one closed-loop pass, returning points carried,
latency samples and the labels it got back), ``failures`` (labels against
the reference), ``close``. Every call into a layer goes through ``call``
— a plain pass-through in the measured run, the span recorder in the
traced run — so both runs execute the same driver code.
"""

import multiprocessing
import os
import pickle
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.config import GatewayConfig, ObsConfig
from repro.core import RL4OASDModel, RL4OASDTrainer
from repro.ingest import GpsGateway
from repro.mapmatching import HMMMapMatcher
from repro.serve import IngestEvent

from calibration import kernel
from fixture import FLEET_SIZE, Fixture, digest
from measure import kernel_on
from spans import SpanRecorder, direct_call

#: Depth of the process shard's command queue. A round costs up to three
#: commands (ingest batch, finalize marker, bus ack), so 8 holds ~3 rounds:
#: bounded, yet the worker never starves while the driver sleeps out a full
#: queue. (What closes the loop is FleetDrive's result gating, not this.)
PROCESS_QUEUE_DEPTH = 8
#: In-process queues only need to hold one round.
INPROCESS_QUEUE_DEPTH = 1024
RESULT_TIMEOUT_S = 60.0


class LapOutput(NamedTuple):
    points: int
    samples_s: List[float]          # result latency per finished trip
    labels: List[Optional[object]]  # per trip, input order; None = missing
    extras: Dict[str, float]


class FleetDrive:
    """One closed-loop pass of a fleet replaying ``trips`` through a service.

    ``fleet_size`` vehicles; each sends one point per round, closes its
    trip in the round after its last point, and starts its next trip only
    once the closed trip's result is in the driver's hands. (A bounded
    shard queue alone does not close the loop on the process backend: the
    worker drains commands into engine buffers before it ticks, so a driver
    that never waits for results runs a hundred rounds ahead.) In-process
    the result arrives in the round that closes the trip, so the schedule is
    the fixed lockstep one. Vehicle ids are trip positions. A trip's latency
    sample runs from the start of the round carrying its last point to the
    return of the ``poll_results`` call that delivered its result.
    """

    def __init__(self, trips: Sequence, fleet_size: int = FLEET_SIZE):
        self.trips = list(trips)
        self.fleet_size = fleet_size
        self.points = sum(len(trip) for trip in self.trips)
        # Every event a lap sends, built once: the timed loop only indexes.
        self.events = [
            [IngestEvent(vehicle, trip.segments[0], trip.destination,
                         trip.start_time_s, trip.trajectory_id)]
            + [IngestEvent(vehicle, segment, None, 0.0, None)
               for segment in trip.segments[1:]]
            for vehicle, trip in enumerate(self.trips)]

    def run(self, service, call: Callable,
            midpoint: Optional[Callable[[], None]] = None,
            audit: Optional[dict] = None) -> LapOutput:
        """``audit`` (untimed laps only) receives the rounds as sent and the
        exact pickled sizes of what crossed the facade."""
        trips = len(self.trips)
        labels: List[Optional[object]] = [None] * trips
        samples: List[float] = []
        last_sent = [0.0] * trips
        extras = {"retries": 0, "polls": 0, "errors": 0}
        ingest_many, finalize_async = service.ingest_many, service.finalize_async
        pump, poll_results = service.pump, service.poll_results
        all_events = self.events
        cursors: Dict[int, int] = {}   # vehicle -> next point to send
        awaiting = 0                   # trips closed, result not yet here
        opened = delivered = 0
        deadline = time.perf_counter() + RESULT_TIMEOUT_S
        while delivered + extras["errors"] < trips:
            started = time.perf_counter()
            events: List[IngestEvent] = []
            closing: List[int] = []
            for vehicle, cursor in list(cursors.items()):
                own = all_events[vehicle]
                if cursor < len(own):
                    events.append(own[cursor])
                    cursors[vehicle] = cursor + 1
                    if cursor + 1 == len(own):
                        last_sent[vehicle] = started
                else:
                    closing.append(vehicle)
                    del cursors[vehicle]
            awaiting += len(closing)
            while opened < trips and len(cursors) + awaiting < self.fleet_size:
                events.append(all_events[opened][0])
                cursors[opened] = 1
                if len(all_events[opened]) == 1:
                    last_sent[opened] = started
                opened += 1
            if events:
                extras["retries"] += call("serve.ingest_many", None,
                                          ingest_many, events)
            if closing:
                extras["retries"] += call("serve.finalize_async", None,
                                          finalize_async, closing)
            call("serve.pump", None, pump)
            arrived = call("serve.poll_results", None, poll_results)
            if arrived:
                now = time.perf_counter()
                deadline = now + RESULT_TIMEOUT_S
                extras["polls"] += 1
                for envelope in arrived:
                    if envelope.kind == "result":
                        labels[envelope.key] = envelope.payload.labels
                        samples.append(now - last_sent[envelope.key])
                        delivered += 1
                        awaiting -= 1
                    else:  # a shard-side failure: its trips stay unlabelled
                        extras["errors"] += len(envelope.key)
                        awaiting -= len(envelope.key)
                if midpoint is not None and delivered >= trips // 2:
                    midpoint()
                    midpoint = None
            elif not events and not closing:
                # Every vehicle is waiting for a result from the worker.
                if time.perf_counter() > deadline:
                    break  # missing results count as failed operations
                time.sleep(0.0002)
            if audit is not None:
                audit["rounds"].append((events, closing))
                audit["ingest_bytes"] += (len(pickle.dumps(events))
                                          + len(pickle.dumps(closing)))
                if arrived:
                    audit["result_bytes"] += len(pickle.dumps(arrived))
        return LapOutput(self.points, samples, labels, extras)


def label_failures(labels: Sequence, expected: Sequence) -> int:
    """Operations whose result is missing or differs from the reference."""
    return sum(1 for got, want in zip(labels, expected) if got != want)


class Workload:
    """What the runner relies on; subclasses add setup / lap / close."""

    name = ""
    expected: Sequence = ()
    #: The calibration kernel the laps are bracketed with.
    kernel = staticmethod(kernel)

    def instrument(self, recorder: SpanRecorder) -> None:
        """Traced run only: wrap public methods of nested layers."""

    def failures(self, output: LapOutput) -> int:
        return label_failures(output.labels, self.expected)

    def final_check(self):
        """``(attempted, failed)`` of a check made once after the last lap."""
        return 0, 0

    def worker_pids(self) -> List[int]:
        return []


class SingleStream(Workload):
    """``model.detector().detect(trip)``, one trip at a time (batch 1)."""

    name = "single_stream"
    LAP_TRIPS = 384

    def __init__(self, fixture: Fixture):
        self.fixture = fixture
        self.trips = fixture.draw_trips(self.LAP_TRIPS, self.name)
        self.points = sum(len(trip) for trip in self.trips)
        # The one-stream path is checked against the batched engine's labels.
        reference = fixture.engine_labels()
        self.expected = [reference[trip.trajectory_id] for trip in self.trips]
        self.detector = None

    def input_digest(self) -> str:
        return digest(trip.trajectory_id for trip in self.trips)

    def setup(self, obs: Optional[ObsConfig] = None) -> None:
        self.detector = self.fixture.load_model().detector()

    def lap(self, call: Callable) -> LapOutput:
        detect = self.detector.detect
        samples: List[float] = []
        labels: List[object] = []
        for index, trip in enumerate(self.trips):
            started = time.perf_counter()
            result = call("core.detect", index, detect, trip)
            samples.append(time.perf_counter() - started)
            labels.append(result.labels)
        return LapOutput(self.points, samples, labels, {})

    def close(self) -> None:
        self.detector = None


class FleetService(Workload):
    """64 vehicles in lockstep through a 1-shard ``DetectionService``."""

    LAP_TRIPS = 1280

    def __init__(self, fixture: Fixture, name: str, backend: str,
                 queue_depth: int):
        self.fixture = fixture
        self.name = name
        self.backend = backend
        self.queue_depth = queue_depth
        # Both backends replay the identical fleet: same draw purpose.
        self.drive = FleetDrive(fixture.draw_trips(self.LAP_TRIPS, "fleet"))
        # The batched path is checked against the one-stream detector.
        reference = fixture.detector_labels()
        self.expected = [reference[trip.trajectory_id]
                         for trip in self.drive.trips]
        self.service = None
        # The shard worker gets the CPU the driver is not on, and bring-ups
        # and laps are calibrated on that CPU from the first one on: the
        # engine work is done there, and the two CPUs' speeds move
        # independently.
        self.pin_worker = (backend == "process"
                           and fixture.worker_cpu is not None)
        if self.pin_worker:
            self.kernel = kernel_on(fixture.worker_cpu)

    def input_digest(self) -> str:
        return digest(trip.trajectory_id for trip in self.drive.trips)

    def setup(self, obs: Optional[ObsConfig] = None) -> None:
        if self.pin_worker:
            # The worker inherits the affinity its parent has at spawn.
            home = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self.fixture.worker_cpu})
        try:
            self.service = self.fixture.load_model().detection_service(
                num_shards=1, backend=self.backend,
                queue_depth=self.queue_depth, obs=obs)
        finally:
            if self.pin_worker:
                os.sched_setaffinity(0, home)

    def lap(self, call: Callable, audit: Optional[dict] = None) -> LapOutput:
        return self.drive.run(self.service, call, audit=audit)

    def worker_pids(self) -> List[int]:
        if self.backend != "process":
            return []
        return [child.pid for child in multiprocessing.active_children()]

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


class RawGateway(Workload):
    """64 concurrent raw GPS traces through ``GpsGateway`` (facade matcher).

    Sessions are blocking, so a trace's result latency is the time its own
    client spends in the two calls that hand over its last fix and close
    its session (``push_point`` + ``end``). What the one driver thread does
    for the other 63 vehicles in between is not counted: where a vehicle's
    fix falls inside a round depends on the seed's trip order, and gave
    seed-to-seed spreads of 13 % (p50) and 26 % (p95) on identical code.
    """

    name = "raw_gateway"
    LAP_TRACES = FLEET_SIZE

    def __init__(self, fixture: Fixture):
        self.fixture = fixture
        self.fleet = fixture.raw_traces(self.LAP_TRACES)
        self.points = self.fleet.fixes
        # Lockstep schedule: in round r every vehicle with an r-th arrival
        # pushes it; a vehicle out of fixes is closed in that round.
        longest = max(len(arrival) for arrival in self.fleet.arrivals)
        self.rounds = []
        for index in range(longest + 1):
            pushes = [(vehicle, arrival[index],
                       self.fleet.clean[vehicle].start_time_s
                       if index == 0 else None,
                       index == len(arrival) - 1)
                      for vehicle, arrival in enumerate(self.fleet.arrivals)
                      if index < len(arrival)]
            ending = [vehicle for vehicle, arrival
                      in enumerate(self.fleet.arrivals)
                      if index == len(arrival)]
            self.rounds.append((pushes, ending))
        finishing_order = [vehicle for _, ending in self.rounds
                           for vehicle in ending]
        self.expected = [[labels] for labels in fixture.offline_labels(
            self.fleet.clean, finishing_order)]
        self.service = self.matcher = self.gateway = None

    def input_digest(self) -> str:
        return digest(self.fleet.arrivals)

    def setup(self, obs: Optional[ObsConfig] = None) -> None:
        self.service = self.fixture.load_model().detection_service(
            num_shards=1, backend="inprocess",
            queue_depth=INPROCESS_QUEUE_DEPTH, obs=obs)
        self.matcher = HMMMapMatcher(self.fixture.network)
        self.gateway = GpsGateway(self.service, self.matcher, GatewayConfig())
        self._stats_seen = (0, 0)

    def instrument(self, recorder: SpanRecorder) -> None:
        online = self.gateway.matcher
        recorder.wrap(online, "push", "mapmatching.push")
        recorder.wrap(online, "finish", "mapmatching.finish")
        recorder.wrap(self.service, "ingest_many", "serve.ingest_many")
        recorder.wrap(self.service, "finalize", "serve.finalize")

    def lap(self, call: Callable) -> LapOutput:
        gateway = self.gateway
        push_point, end, pump = gateway.push_point, gateway.end, self.service.pump
        sessions: List[list] = [[] for _ in self.fleet.arrivals]
        last_push_s = [0.0] * len(sessions)
        samples: List[float] = []
        for pushes, ending in self.rounds:
            for vehicle, point, start_time_s, is_last in pushes:
                if is_last:
                    started = time.perf_counter()
                closed = call("ingest.push_point", vehicle, push_point,
                              vehicle, point, start_time_s)
                if is_last:
                    last_push_s[vehicle] = time.perf_counter() - started
                if closed:
                    sessions[vehicle].extend(closed)
            call("serve.pump", None, pump)
            for vehicle in ending:
                started = time.perf_counter()
                closed = call("ingest.end", vehicle, end, vehicle)
                samples.append(time.perf_counter() - started
                               + last_push_s[vehicle])
                sessions[vehicle].extend(closed)
        labels = [[session.result.labels for session in closed]
                  for closed in sessions]
        stats = gateway.stats()
        seen = (stats.late_dropped + stats.duplicates_dropped,
                stats.batched_flushes)
        extras = {"fixes_dropped": seen[0] - self._stats_seen[0],
                  "batched_flushes": seen[1] - self._stats_seen[1]}
        self._stats_seen = seen
        return LapOutput(self.points, samples, labels, extras)

    def failures(self, output: LapOutput) -> int:
        # The gateway must drop exactly the injected duplicates: one more
        # or one fewer is a wrong answer even if every label matches.
        wrong_drops = output.extras["fixes_dropped"] != self.fleet.duplicates
        return super().failures(output) + int(wrong_drops)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = self.matcher = self.gateway = None


class DriftRefresh(Workload):
    """A fleet wave with a fine-tune + history extend + swap in mid-flight."""

    name = "drift_refresh"
    WAVE_TRIPS = 512
    NEW_TRIPS = 64
    FINE_TUNE_BATCH = 8
    MAX_LAPS = 512  # the new-trip stream is drawn for this many refreshes

    def __init__(self, fixture: Fixture):
        self.fixture = fixture
        self.drive = FleetDrive(fixture.draw_trips(self.WAVE_TRIPS,
                                                   "drift_wave"))
        self.new_trips = fixture.draw_trips(
            self.NEW_TRIPS * self.MAX_LAPS, "drift_new", fixture.new_trip_pool)
        self.holdout = FleetDrive(fixture.draw_trips(len(fixture.trips),
                                                     "drift_holdout"))
        self.service = self.trainer = self.live = None
        self.refreshes = 0

    def input_digest(self) -> str:
        return digest(trip.trajectory_id
                      for trip in self.drive.trips + self.new_trips[:1024])

    def setup(self, obs: Optional[ObsConfig] = None) -> None:
        loaded = self.fixture.load_model()
        self.service = loaded.detection_service(
            num_shards=1, backend="inprocess",
            queue_depth=INPROCESS_QUEUE_DEPTH, obs=obs)
        # A learner restarted from the checkpoint: the checkpoint's history
        # and weights, fresh optimizer state (moments are never persisted).
        self.trainer = RL4OASDTrainer(
            loaded.pipeline.network,
            list(loaded.pipeline.history.trajectories()),
            labeling_config=loaded.pipeline.config,
            rsrnet_config=loaded.rsrnet.config,
            asdnet_config=loaded.asdnet.config,
            training_config=loaded.training_config)
        self.trainer.rsrnet.load_state_dict(loaded.rsrnet.state_dict())
        self.trainer.asdnet.load_state_dict(loaded.asdnet.state_dict())
        self.live = RL4OASDModel(
            rsrnet=self.trainer.rsrnet, asdnet=self.trainer.asdnet,
            pipeline=self.trainer.pipeline,
            training_config=self.trainer.training_config,
            report=self.trainer.report)
        self.refreshes = 0

    def instrument(self, recorder: SpanRecorder) -> None:
        # fine_tune extends the history itself; see that share of its span.
        recorder.wrap(self.trainer.pipeline, "extend_history",
                      "history.extend")

    def lap(self, call: Callable) -> LapOutput:
        start = (self.refreshes % self.MAX_LAPS) * self.NEW_TRIPS
        new_trips = self.new_trips[start:start + self.NEW_TRIPS]
        self.refreshes += 1
        refresh_s: List[float] = []

        def refresh() -> None:
            started = time.perf_counter()
            call("core.fine_tune", None, self.trainer.fine_tune, new_trips,
                 1, self.FINE_TUNE_BATCH)
            call("serve.swap", None, self.service.swap, self.live,
                 self.live.pipeline)
            refresh_s.append(time.perf_counter() - started)

        output = self.drive.run(self.service, call, midpoint=refresh)
        # No refresh only if half the wave never came back: a failed lap.
        output.extras["refresh_s"] = refresh_s[0] if refresh_s else 0.0
        return output

    def failures(self, output: LapOutput) -> int:
        # Streams in flight across the swap are labelled by both weight
        # sets; what must hold for every trip is a complete result.
        return sum(1 for labels, trip in zip(output.labels, self.drive.trips)
                   if labels is None or len(labels) != len(trip))

    def final_check(self):
        """A held-out wave: the live service against a fresh build."""
        got = self.holdout.run(self.service, direct_call).labels
        with self.live.detection_service(
                num_shards=1, backend="inprocess",
                queue_depth=INPROCESS_QUEUE_DEPTH) as fresh:
            want = self.holdout.run(fresh, direct_call).labels
        if any(labels is None for labels in want):
            return len(want), len(want)
        return len(want), label_failures(got, want)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = self.trainer = self.live = None


class Ledger:
    """Operation accounting shared by every lap of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.labels_digest = None

    def check(self, output) -> None:
        self.attempted += len(output.labels)
        self.failed += self.workload.failures(output)
        if self.labels_digest is None:
            self.labels_digest = digest(output.labels)


def bus_gaps(workload) -> int:
    """The result collector's loss certificate (0 when there is no bus)."""
    service = getattr(workload, "service", None)
    return service.metrics().results_gaps if service is not None else 0


WORKLOADS = {
    "single_stream": SingleStream,
    "fleet_inproc": lambda fixture: FleetService(
        fixture, "fleet_inproc", "inprocess", INPROCESS_QUEUE_DEPTH),
    "fleet_process": lambda fixture: FleetService(
        fixture, "fleet_process", "process", PROCESS_QUEUE_DEPTH),
    "raw_gateway": RawGateway,
    "drift_refresh": DriftRefresh,
}
