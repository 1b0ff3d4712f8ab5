"""Concept drift: keep the detector calibrated while route popularity shifts.

Traffic conditions change over the day; a route that used to be "the" normal
route may become unpopular (e.g. because of congestion), and a previously rare
route becomes the new normal. This example reproduces Section V-G's setting:
the day is split into parts, route popularity rotates between parts, and a
model fine-tuned part by part (RL4OASD-FT) is compared against a model frozen
after the first part (RL4OASD-P1).

Run with::

    python examples/concept_drift_adaptation.py
"""

from dataclasses import replace

from repro.core import OnlineLearner
from repro.datagen import DriftSchedule
from repro.eval import evaluate_labelings
from repro.experiments.common import (ExperimentSettings, prepare_city,
                                      rl4oasd_trainer, split_by_part)
from repro.serve import clone_model


def f1_of(detector, trajectories) -> float:
    """The F1 of a detector's labels against the trips' ground truth."""
    return evaluate_labelings([t.labels for t in trajectories],
                              [detector.detect(t).labels for t in trajectories]).f1


def main() -> None:
    n_parts = 2
    settings = ExperimentSettings(scale=0.25, joint_trajectories=120)
    drift = DriftSchedule(n_parts=n_parts, rotation_per_part=1,
                          drifting_pair_fraction=1.0)
    print("generating a drifting city (route popularity swaps between parts) ...")
    split = prepare_city("chengdu", settings, drift=drift)
    train_parts, test_parts = split_by_part(split, n_parts)

    print("training on Part 1 ...")
    learner = OnlineLearner(
        rl4oasd_trainer(replace(split, train=train_parts[0]), settings))
    learner.initial_fit()
    # RL4OASD-P1 stays frozen at the Part-1 fit; RL4OASD-FT is the learner.
    frozen_detector = clone_model(learner.model).detector()

    for part in range(n_parts):
        if part > 0:
            record = learner.observe_part(part, train_parts[part])
            print(f"  fine-tuned on part {part + 1} "
                  f"({record.num_trajectories} new trips, {record.seconds:.1f}s)")
        if not test_parts[part]:
            continue
        p1 = f1_of(frozen_detector, test_parts[part])
        ft = f1_of(learner.detector(), test_parts[part])
        print(f"Part {part + 1}:  RL4OASD-P1 F1 = {p1:.3f}   "
              f"RL4OASD-FT F1 = {ft:.3f}")

    print("\nThe frozen model degrades once the popular route changes; the "
          "fine-tuned model keeps tracking the current notion of 'normal'.")


if __name__ == "__main__":
    main()
