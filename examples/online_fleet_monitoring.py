"""Online fleet monitoring: flag detours of ride-hailing trips as they happen.

This is the scenario the paper's introduction motivates: a ride-hailing
platform wants to spot a driver the moment their route starts to deviate from
the normal routes of the trip's SD pair. The example trains RL4OASD on a
Chengdu-like city, then monitors the whole test fleet *concurrently* with the
batched :class:`~repro.core.stream.StreamEngine`: every vehicle reports one
new road segment per round, and a single vectorized forward pass per tick
labels the pending point of every stream at once. For comparison the same
trips are also replayed one at a time through the single-stream
:class:`~repro.core.detector.OnlineDetector` — the labels are identical, the
fleet path just gets there several times faster.

Run with::

    python examples/online_fleet_monitoring.py
"""

import time

from repro.core import replay_fleet
from repro.eval import evaluate_labelings
from repro.experiments.common import (
    ExperimentSettings,
    prepare_city,
    train_rl4oasd,
)

CONCURRENCY = 32


def main() -> None:
    settings = ExperimentSettings(scale=0.25, joint_trajectories=150)
    print("generating the city and training RL4OASD ...")
    split = prepare_city("chengdu", settings)
    model, _ = train_rl4oasd(split, settings)
    detector = model.detector()

    report = evaluate_labelings(
        [trajectory.labels for trajectory in split.test],
        [detector.detect(trajectory).labels for trajectory in split.test])
    print(f"fleet-wide test F1 = {report.f1:.3f} "
          f"(TF1 = {report.t_f1:.3f})\n")

    total_points = sum(len(trajectory) for trajectory in split.test)

    print(f"monitoring {len(split.test)} trips as a fleet "
          f"({CONCURRENCY} concurrent streams) ...")
    engine = model.stream_engine()
    started = time.perf_counter()
    fleet_results = replay_fleet(engine, split.test, concurrency=CONCURRENCY)
    fleet_seconds = time.perf_counter() - started

    alerts = 0
    for trajectory, result in zip(split.test, fleet_results):
        if result.is_anomalous:
            alerts += 1
            spans = ", ".join(f"segments {a}..{b}" for a, b in result.spans)
            flag = ("confirmed detour" if trajectory.is_anomalous
                    else "false alarm")
            print(f"  trip {trajectory.trajectory_id:5d} "
                  f"({trajectory.source}->{trajectory.destination}): "
                  f"ALERT on {spans}  [{flag}]")
    print(f"{alerts} trips triggered alerts, "
          f"{sum(1 for t in split.test if t.is_anomalous)} truly contained "
          "detours")
    print(f"segment-projection table: {len(engine.cache)} rows computed once "
          f"and shared, {engine.cache.hits} lookups served from them "
          f"({engine.cache.hit_rate:.1%} hit rate)\n")

    print("replaying the same trips one stream at a time ...")
    # A fresh detector: the F1 pass above filled the first one's prefix
    # states, and the fleet engine started empty too.
    cold = model.detector()
    started = time.perf_counter()
    for trajectory in split.test:
        cold.detect(trajectory)
    single_seconds = time.perf_counter() - started

    for name, seconds in (("OnlineDetector", single_seconds),
                          (f"StreamEngine x{CONCURRENCY}", fleet_seconds)):
        print(f"  {name}: {total_points} points in {seconds:.3f}s = "
              f"{total_points / seconds:,.0f} points/sec")
    print(f"  fleet speedup: {single_seconds / fleet_seconds:.2f}x")


if __name__ == "__main__":
    main()
