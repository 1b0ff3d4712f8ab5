"""``repro replay`` — one synthetic fleet replay, results printed.

The quickest end-to-end sanity run: generate a city, train the model,
replay N raw GPS trips through the gateway and sharded service, and
print the detection summary plus the service/gateway dashboards. Unlike
``soak`` this keeps and reports the per-trip results — it is the
functional check, where ``soak`` is the operational one.
"""

from __future__ import annotations

import numpy as np

from ..datagen import sample_gps_trace
from ..experiments.common import ExperimentSettings, prepare_city, \
    train_rl4oasd
from ..ingest import GpsGateway, serve_raw_fleet
from ..mapmatching import HMMMapMatcher
from .common import smoke_settings

__all__ = ["register", "run"]


def run(args) -> int:
    settings = smoke_settings() if args.smoke else ExperimentSettings()
    print(f"[replay] generating {args.city} and training "
          f"({'smoke' if args.smoke else 'full'} settings)...")
    split = prepare_city(args.city, settings)
    model, _ = train_rl4oasd(split, settings)

    rng = np.random.default_rng(args.seed)
    raws = []
    for index in range(args.trips):
        truth = split.test[index % len(split.test)]
        raws.append(sample_gps_trace(
            split.dataset.network, truth.segments, truth.start_time_s,
            rng, gps_noise_m=args.gps_noise_m, trajectory_id=index))
    total_points = sum(len(raw.points) for raw in raws)
    print(f"[replay] {len(raws)} raw trips, {total_points} GPS fixes")

    with model.detection_service(num_shards=args.shards,
                                 backend=args.backend,
                                 queue_depth=1024) as service:
        gateway = GpsGateway(service, HMMMapMatcher(split.dataset.network))
        results = serve_raw_fleet(gateway, raws,
                                  concurrency=args.concurrency)
        stats = gateway.stats()
        metrics = service.metrics()

    sessions = [session for trip in results for session in trip]
    anomalous = sum(1 for session in sessions if session.is_anomalous)
    flagged_segments = sum(sum(session.labels) for session in sessions)
    print(f"\n[replay] {len(sessions)} sessions detected: "
          f"{anomalous} anomalous "
          f"({flagged_segments} segments flagged)")
    print(metrics.format())
    print(stats.format())
    return 0


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "replay",
        help="replay one synthetic raw-GPS fleet and print the results",
        description="Generate a city, train the detector, replay raw GPS "
                    "trips through gateway + sharded service, and print "
                    "the detection summary and dashboards.")
    parser.add_argument("--city", default="chengdu",
                        choices=("chengdu", "xian"))
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale training preset")
    parser.add_argument("--trips", type=int, default=32)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--backend", default="inprocess",
                        choices=("process", "inprocess"))
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--gps-noise-m", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.set_defaults(func=run)
