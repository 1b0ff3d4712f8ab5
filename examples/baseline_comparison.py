"""Compare RL4OASD against every baseline of the paper on one dataset.

This is a scaled-down Table III: all seven baselines plus RL4OASD are trained
or tuned on the same Xi'an-like data and scored with the NER-style F1 / TF1
metrics, and the per-point detection latency of each method is reported
(Figure 3's measurement).

Run with::

    python examples/baseline_comparison.py
"""

from repro.eval import evaluate_detector, measure_detector
from repro.experiments.common import (
    DETECTORS,
    ExperimentSettings,
    build_detectors,
    format_table,
    prepare_city,
)


def main() -> None:
    settings = ExperimentSettings(scale=0.3, joint_trajectories=150)
    print("generating the Xi'an-like dataset ...")
    split = prepare_city("xian", settings)

    print("building and tuning the baselines, training RL4OASD ...")
    detectors = build_detectors(split, settings, DETECTORS)

    rows = []
    workload = split.test[:40]
    for name, detector in detectors.items():
        run = evaluate_detector(detector, split.test, name=name)
        timing = measure_detector(detector, workload, name=name)
        rows.append([name, run.overall.f1, run.overall.t_f1,
                     timing.mean_per_point_ms])
    rows.sort(key=lambda row: row[1])
    print()
    print(format_table(["Method", "F1", "TF1", "ms/point"], rows,
                       title=f"Baseline comparison on {split.dataset.name}"))


if __name__ == "__main__":
    main()
