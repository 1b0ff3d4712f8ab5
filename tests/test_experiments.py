"""The experiment harnesses: the one drift pass, warm-start agreement and
the Fig. 7 rendering."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from paper.fig7 import Fig7Case, Fig7Result
from paper.shared import warm_start_agreement
from repro.core import OnlineLearner
from repro.experiments.common import (CitySplit, ExperimentSettings,
                                      rl4oasd_trainer, split_by_part)
from repro.serve import clone_model

TINY = ExperimentSettings(embedding_dim=8, hidden_dim=8, nrf_dim=4,
                          label_embedding_dim=4, pretrain_trajectories=20,
                          pretrain_epochs=1, joint_trajectories=8,
                          joint_epochs=1, validation_interval=8)


def _parameters(model):
    return {**{f"rsrnet.{k}": v for k, v in model.rsrnet.state_dict().items()},
            **{f"asdnet.{k}": v for k, v in model.asdnet.state_dict().items()}}


def _assert_same_parameters(a, b):
    pa, pb = _parameters(a), _parameters(b)
    assert pa.keys() == pb.keys()
    for name in pa:
        np.testing.assert_array_equal(pa[name], pb[name], err_msg=name)


def test_clone_of_initial_fit_is_the_part1_model(dataset, dataset_split):
    """Figs. 6 and 7 take RL4OASD-P1 as a clone of the FT chain's initial
    fit instead of training it again: the clone is parameter-exact to a
    separately trained Part-1 model, and stays so while the learner
    fine-tunes on later parts."""
    train, development, test = dataset_split
    split = CitySplit(dataset=dataset, train=train, development=development,
                      test=test)
    train_parts, test_parts = split_by_part(split, 2)
    assert train_parts[0] and train_parts[1]
    part1 = replace(split, train=train_parts[0])

    learner = OnlineLearner(rl4oasd_trainer(part1, TINY))
    learner.initial_fit()
    frozen = clone_model(learner.model)
    separate = rl4oasd_trainer(part1, TINY).train()
    _assert_same_parameters(frozen, separate)

    learner.observe_part(1, train_parts[1])
    _assert_same_parameters(frozen, separate)
    moved = _parameters(learner.model)
    assert any(not np.array_equal(moved[name], value)
               for name, value in _parameters(frozen).items())
    trips = test_parts[1][:5]
    assert ([frozen.detector().detect(t).labels for t in trips]
            == [separate.detector().detect(t).labels for t in trips])


class _NoisyLabelDetector:
    """Returns its pipeline's noisy labels, optionally with one point
    flipped."""

    def __init__(self, pipeline, flip_first_point=False):
        self.pipeline = pipeline
        self._flip = flip_first_point

    def detect(self, trajectory):
        labels = list(self.pipeline.preprocess(trajectory).noisy_labels)
        if self._flip:
            labels[0] ^= 1
            self._flip = False
        return SimpleNamespace(labels=labels)


def test_warm_start_agreement(pipeline, dataset_split):
    _, _, test = dataset_split
    trips = test[:6]
    n = sum(len(t) for t in trips)
    assert warm_start_agreement(_NoisyLabelDetector(pipeline), trips) == 1.0
    flipped = _NoisyLabelDetector(pipeline, flip_first_point=True)
    assert warm_start_agreement(flipped, trips) == (n - 1) / n


def test_fig7_prints_no_f1_without_a_ground_truth_span():
    """With no ground-truth span F1 is undefined: the row reads n/a, not the
    0.000 of a missed or false span."""
    result = Fig7Result(cases=[
        Fig7Case(part=0, sd_pair=(13, 281), ground_truth=[0, 0, 0, 0],
                 p1_labels=[0, 0, 0, 0], ft_labels=[0, 0, 0, 0],
                 p1_f1=0.0, ft_f1=0.0),
        Fig7Case(part=1, sd_pair=(12, 322), ground_truth=[0, 1, 1, 0],
                 p1_labels=[0, 0, 0, 0], ft_labels=[0, 1, 1, 0],
                 p1_f1=0.0, ft_f1=1.0),
    ])
    header, _, no_span, span = result.format().splitlines()[1:]
    assert "F1" in header
    assert no_span.split()[-3:] == ["n/a", "0000", "n/a"]
    assert span.split()[-3:] == ["0.000", "0110", "1.000"]
