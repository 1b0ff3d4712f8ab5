"""Shared plumbing of the ``repro`` CLI subcommands.

The fleet the CLI drives is the whole reproduced stack end to end:
a drifted synthetic city (:mod:`repro.datagen`), a part-of-day trainer
with an :class:`~repro.core.OnlineLearner` fine-tuning across parts
(Section V-G), and an endless raw-GPS workload sampled from the current
part's routes — the input side of gateway → service → learner that the
soak harness keeps saturated for millions of fixes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np

from ..core import OnlineLearner
from ..datagen import DriftSchedule, sample_gps_trace
from ..experiments.common import (CitySplit, ExperimentSettings, prepare_city,
                                  rl4oasd_trainer, split_by_part)
from ..trajectory.models import MatchedTrajectory, RawTrajectory

__all__ = [
    "Fleet",
    "WorkloadStream",
    "build_fleet",
    "smoke_settings",
]


def smoke_settings(**overrides) -> ExperimentSettings:
    """The seconds-not-minutes training preset the smoke paths share."""
    defaults = dict(scale=0.15, joint_trajectories=30, joint_epochs=1,
                    pretrain_epochs=2)
    defaults.update(overrides)
    return ExperimentSettings(**defaults)


@dataclass
class Fleet:
    """Everything a CLI driver needs: the split, per-part data, the learner."""

    split: CitySplit
    train_parts: List[List[MatchedTrajectory]]
    test_parts: List[List[MatchedTrajectory]]
    learner: OnlineLearner
    n_parts: int

    @property
    def network(self):
        return self.split.dataset.network


def build_fleet(city: str = "chengdu",
                settings: ExperimentSettings = None,
                drift_parts: int = 2,
                fine_tune_epochs: int = 1) -> Fleet:
    """Generate a drifted city and train the Part-1 model of the FT regime.

    The returned learner has already run ``initial_fit``; attach services
    and call ``observe_part`` as the stream crosses part boundaries.
    Empty day-parts (possible at tiny scales) fall back to the whole
    training set so the trainer never sees zero trajectories.
    """
    settings = settings or ExperimentSettings()
    drift = DriftSchedule(n_parts=max(2, drift_parts), rotation_per_part=1,
                          drifting_pair_fraction=0.6)
    split = prepare_city(city, settings, drift=drift)
    train_parts, test_parts = split_by_part(split, drift_parts)
    train_parts = [part if part else list(split.train)
                   for part in train_parts]
    trainer = rl4oasd_trainer(replace(split, train=train_parts[0]), settings)
    learner = OnlineLearner(trainer, fine_tune_epochs=fine_tune_epochs)
    learner.initial_fit()
    return Fleet(split=split, train_parts=train_parts, test_parts=test_parts,
                 learner=learner, n_parts=drift_parts)


class WorkloadStream:
    """An endless raw-GPS workload drawn from the current part's routes.

    Traces are sampled lazily (mild noise, fresh trajectory ids), so the
    driver holds only the trips currently in flight — the stream itself is
    O(1) memory no matter how many fixes a soak pushes. ``set_part``
    switches the route pool, so the synthetic traffic drifts exactly when
    the learner's fine-tuning schedule says the day moved on.
    """

    def __init__(self, fleet: Fleet, seed: int = 42,
                 gps_noise_m: float = 2.0):
        self._network = fleet.network
        self._noise = gps_noise_m
        self._rng = np.random.default_rng(seed)
        pools = [test or train for test, train
                 in zip(fleet.test_parts, fleet.train_parts)]
        self._pools = [pool if pool else list(fleet.split.train)
                       for pool in pools]
        self._part = 0
        self._cursor = 0
        self._sequence = 0

    @property
    def part(self) -> int:
        return self._part

    def set_part(self, part: int) -> None:
        self._part = part % len(self._pools)
        self._cursor = 0

    def next_raw(self) -> RawTrajectory:
        pool = self._pools[self._part]
        truth = pool[self._cursor % len(pool)]
        self._cursor += 1
        self._sequence += 1
        return sample_gps_trace(self._network, truth.segments,
                                truth.start_time_s, self._rng,
                                gps_noise_m=self._noise,
                                trajectory_id=self._sequence)
