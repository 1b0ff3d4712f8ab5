"""The benchmark fixture: one city, one trained model, seeded inputs.

The *system* is fixed — the same scaled-down Chengdu-like city and the
same training schedule the older ``bench_*.py`` scripts use — so the
numbers of two runs compare. Only the *inputs* come from ``--seed``: which
trips a lap replays and in what order, the GPS noise of the raw traces,
where fixes arrive out of order or twice, and the stream of newly recorded
trips the learner fine-tunes on. Every draw replays the same multiset of
trips in a seeded order, so a different seed gives different inputs
carrying the same work; the system under test only ever receives generated
inputs.
"""

import hashlib
import multiprocessing
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import RL4OASDModel, replay_fleet
from repro.datagen import sample_gps_trace
from repro.experiments.common import (ExperimentSettings, prepare_city,
                                      train_rl4oasd)
from repro.mapmatching import HMMMapMatcher
from repro.trajectory.models import GPSPoint, MatchedTrajectory, RawTrajectory

#: The settings of ``benchmarks/conftest.bench_settings(joint_trajectories=100)``
#: — what the service/gateway/history benches train with.
SETTINGS = ExperimentSettings(scale=0.35, dev_size=80, joint_trajectories=100,
                              joint_epochs=2, pretrain_epochs=5)

FLEET_SIZE = 64
GPS_NOISE_M = 2.0
SWAP_RATE = 0.05
DUPLICATE_RATE = 0.01


def build_artifacts(workdir: Path) -> None:
    """Train the model and label every test trip; runs in a child process.

    Leaves ``model.ckpt`` (``RL4OASDModel.save``) and ``fixture.pkl`` (the
    length-sorted trip pools and both reference labelings per distinct trip
    id) in ``workdir``. None of it depends on the seed.
    """
    split = prepare_city("chengdu", SETTINGS)
    model, _ = train_rl4oasd(split, SETTINGS)
    model.save(workdir / "model.ckpt")

    def by_length(trip):  # a stable order for the stratified draws
        return len(trip), trip.trajectory_id

    trips = sorted(split.test, key=by_length)
    new_trip_pool = sorted(split.development + split.test, key=by_length)
    detector = model.detector()
    references = {"detector": {trip.trajectory_id: detector.detect(trip).labels
                               for trip in trips}}
    results = replay_fleet(model.stream_engine(), trips,
                           concurrency=FLEET_SIZE)
    references["engine"] = {trip.trajectory_id: result.labels
                            for trip, result in zip(trips, results)}
    with (workdir / "fixture.pkl").open("wb") as handle:
        pickle.dump({"trips": trips, "new_trip_pool": new_trip_pool,
                     "references": references}, handle)


class Fixture:
    """City + trained checkpoint + the seeded input generators.

    Training and the reference labelings run in a forked child, so the
    driver's peak RSS (``peak_rss_mb``) is the system under test's and not
    the trainer's; the driver only ever loads the checkpoint.
    """

    def __init__(self, seed: int, workdir: Path,
                 worker_cpu: Optional[int] = None):
        self.seed = seed
        #: The CPU a shard worker is pinned to (``None``: not pinned).
        self.worker_cpu = worker_cpu
        builder = multiprocessing.get_context("fork").Process(
            target=build_artifacts, args=(workdir,))
        builder.start()
        builder.join()
        if builder.exitcode != 0:
            raise RuntimeError(f"building the fixture failed (exit code "
                               f"{builder.exitcode})")
        self.checkpoint = workdir / "model.ckpt"
        with (workdir / "fixture.pkl").open("rb") as handle:
            built = pickle.load(handle)
        self.trips: List[MatchedTrajectory] = built["trips"]
        self.new_trip_pool: List[MatchedTrajectory] = built["new_trip_pool"]
        self._reference: Dict[str, Dict[int, List[int]]] = built["references"]
        self.network = self.load_model().pipeline.network

    def rng(self, purpose: str) -> np.random.Generator:
        """An independent generator per input kind, all keyed by the seed."""
        tag = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:4],
                             "big")
        return np.random.default_rng([self.seed % 2 ** 64, tag])

    # ------------------------------------------------------------ references
    def detector_labels(self) -> Dict[int, List[int]]:
        """``OnlineDetector.detect`` labels per distinct trip id."""
        return self._reference["detector"]

    def engine_labels(self) -> Dict[int, List[int]]:
        """``StreamEngine`` replay labels per distinct trip id."""
        return self._reference["engine"]

    def cross_check_references(self) -> int:
        """Trips on which the two reference paths disagree (must be 0)."""
        detector, engine = self.detector_labels(), self.engine_labels()
        return sum(1 for key in detector if detector[key] != engine[key])

    def load_model(self) -> RL4OASDModel:
        return RL4OASDModel.load(self.checkpoint)

    # ---------------------------------------------------------------- inputs
    def draw_trips(self, count: int, purpose: str,
                   pool: Sequence[MatchedTrajectory] = ()
                   ) -> List[MatchedTrajectory]:
        """``count`` trips in seeded order carrying seed-independent work.

        *Which* trips are replayed never depends on the seed — whole copies
        of the (length-sorted) pool as long as they fit, then the middle
        trip of each of the remaining equal-width length strata — only
        their order does. Every seed therefore replays the same multiset:
        the same points, the same trip-length mix, the same result-latency
        population.
        """
        pool = list(pool) or self.trips
        copies, remainder = divmod(count, len(pool))
        chosen = pool * copies
        if remainder:
            edges = np.linspace(0, len(pool), remainder + 1).astype(int)
            chosen.extend(pool[(low + high) // 2]
                          for low, high in zip(edges[:-1], edges[1:]))
        rng = self.rng(purpose)
        return [chosen[i] for i in rng.permutation(len(chosen))]

    def raw_traces(self, count: int) -> "RawFleet":
        """``count`` noisy GPS traces with seeded reorders and duplicates."""
        rng = self.rng("raw_traces")
        clean: List[RawTrajectory] = []
        arrivals: List[List[GPSPoint]] = []
        duplicates = 0
        for index, trip in enumerate(self.draw_trips(count, "raw_trips")):
            trace = sample_gps_trace(self.network, trip.segments,
                                     trip.start_time_s, rng,
                                     gps_noise_m=GPS_NOISE_M,
                                     trajectory_id=index)
            # A fix repeating its predecessor's timestamp would be dropped
            # by the gateway as a duplicate we did not inject: keep the
            # clean trace strictly increasing so the drop count is exact.
            points = [trace.points[0]]
            points.extend(later for earlier, later
                          in zip(trace.points, trace.points[1:])
                          if later.t > earlier.t)
            clean.append(RawTrajectory(index, points, trace.start_time_s))
            order = list(points)
            position = 0
            while position < len(order) - 1:
                # Adjacent swap: the later fix arrives one position early,
                # well inside the gateway's reorder window.
                if rng.random() < SWAP_RATE:
                    order[position], order[position + 1] = (
                        order[position + 1], order[position])
                    position += 2
                else:
                    position += 1
            arrival: List[GPSPoint] = []
            for point in order:
                arrival.append(point)
                if rng.random() < DUPLICATE_RATE:
                    arrival.append(point)
                    duplicates += 1
            arrivals.append(arrival)
        return RawFleet(clean, arrivals, duplicates)

    def offline_labels(self, clean: Sequence[RawTrajectory],
                       order: Sequence[int]) -> List[List[int]]:
        """Reference of the raw path: offline match, then detect.

        ``order`` is the order the sessions finish in. It matters: a matched
        route whose SD pair has no history falls back to *itself* as the
        normal route and that fallback is memoized, so the first such trip
        to be labelled defines "normal" for the pair. The reference
        therefore labels in finishing order, on a model loaded fresh from
        the checkpoint (empty memo, like the service under test).
        """
        matcher = HMMMapMatcher(self.network)
        detector = self.load_model().detector()
        labels: List[List[int]] = [[] for _ in clean]
        for index in order:
            match = matcher.match(clean[index])
            if not match.succeeded:
                raise RuntimeError(f"the offline matcher failed on generated "
                                   f"trace {index} (seed {self.seed})")
            labels[index] = detector.detect(match.matched).labels
        return labels


class RawFleet:
    """Raw traces: the clean originals and what actually arrives."""

    def __init__(self, clean: List[RawTrajectory],
                 arrivals: List[List[GPSPoint]], duplicates: int):
        self.clean = clean
        self.arrivals = arrivals
        self.duplicates = duplicates
        self.fixes = sum(len(arrival) for arrival in arrivals)


def digest(parts) -> str:
    """SHA-256 over the ``repr`` of each part, in order."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
        sha.update(b"\n")
    return sha.hexdigest()
