"""Tests of the online detector (Algorithm 1), the RNEL/DL enhancements, the
joint trainer and the online-learning wrapper."""

import numpy as np
import pytest

from repro.config import ASDNetConfig, LabelingConfig, RSRNetConfig, TrainingConfig
from repro.core import OnlineDetector, OnlineLearner, RL4OASDTrainer
from repro.core.decision import apply_rnel, rnel_from_degrees
from repro.core.detector import apply_delayed_labeling
from repro.eval import evaluate_detector, measure_detector
from repro.exceptions import ModelError, NotFittedError
from repro.history import clone_snapshot
from repro.roadnet import RoadNetwork


# ---------------------------------------------------------------------- RNEL
def test_rnel_rules(line_network):
    # Segment 1 (n1->n2): its predecessor 0 has out-degree 2, successor chain.
    # Rule 1: single-out + single-in copies the previous label.
    # line_network: segment 3 (n1->n4) out=1 (only 4 follows), segment 4 in=1.
    assert apply_rnel(line_network, 3, 4, previous_label=0) == 0
    assert apply_rnel(line_network, 3, 4, previous_label=1) == 1
    # Rule 2: single-out, multi-in, previous normal -> normal.
    # segment 4 (n4->n2) out=1 (only 2 follows), segment 2 (n2->n3) in=2.
    assert apply_rnel(line_network, 4, 2, previous_label=0) == 0
    # Rule 3 requires multi-out + single-in + previous anomalous.
    assert apply_rnel(line_network, 0, 3, previous_label=1) == 1
    # Otherwise (multi-out, single-in but previous normal) the policy decides.
    assert apply_rnel(line_network, 0, 1, previous_label=0) is None


def test_rnel_on_pure_degree_one_chain():
    """Along a chain with no branches, RNEL always copies the previous label."""
    network = RoadNetwork()
    for node_id in range(4):
        network.add_intersection(node_id, 100.0 * node_id, 0.0)
    network.add_segment(0, 0, 1)
    network.add_segment(1, 1, 2)
    network.add_segment(2, 2, 3)
    for previous_segment, current_segment in ((0, 1), (1, 2)):
        assert network.out_degree(previous_segment) == 1
        assert network.in_degree(current_segment) == 1
        for label in (0, 1):
            assert apply_rnel(network, previous_segment, current_segment,
                              previous_label=label) == label


def test_rnel_from_degrees_rule_table():
    # Rule 1: 1-out into 1-in copies the previous label.
    assert rnel_from_degrees(1, 1, 0) == 0
    assert rnel_from_degrees(1, 1, 1) == 1
    # Rule 2: 1-out into multi-in keeps a normal label normal.
    assert rnel_from_degrees(1, 3, 0) == 0
    assert rnel_from_degrees(1, 3, 1) is None
    # Rule 3: multi-out into 1-in keeps an anomalous label anomalous.
    assert rnel_from_degrees(3, 1, 1) == 1
    assert rnel_from_degrees(3, 1, 0) is None
    # Multi-out into multi-in: always the policy's call.
    assert rnel_from_degrees(2, 2, 0) is None
    assert rnel_from_degrees(2, 2, 1) is None


# ----------------------------------------------------------- delayed labeling
def test_delayed_labeling_merges_nearby_fragments():
    labels = [0, 1, 1, 0, 0, 1, 0, 0]
    assert apply_delayed_labeling(labels, window=4) == [0, 1, 1, 1, 1, 1, 0, 0]


def test_delayed_labeling_respects_window():
    labels = [0, 1, 0, 0, 0, 0, 1, 0]
    assert apply_delayed_labeling(labels, window=2) == labels


def test_delayed_labeling_noop_cases():
    assert apply_delayed_labeling([0, 0, 0], window=8) == [0, 0, 0]
    assert apply_delayed_labeling([1, 1], window=0) == [1, 1]
    with pytest.raises(ModelError):
        apply_delayed_labeling([0, 1], window=-1)


def test_delayed_labeling_does_not_extend_past_last_fragment():
    labels = [1, 0, 0, 0, 0, 0, 0, 0]
    assert apply_delayed_labeling(labels, window=3) == labels


def test_delayed_labeling_window_zero_is_identity():
    for labels in ([0, 1, 0, 1, 0], [1, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]):
        assert apply_delayed_labeling(labels, window=0) == labels


def test_delayed_labeling_trailing_anomalous_run_is_kept():
    # A run still open at the end of the trajectory must survive untouched.
    assert apply_delayed_labeling([0, 0, 1, 1], window=8) == [0, 0, 1, 1]
    # ... and an earlier fragment merges into it across a short gap.
    assert apply_delayed_labeling([0, 1, 0, 0, 1, 1], window=8) == \
        [0, 1, 1, 1, 1, 1]


def test_delayed_labeling_gap_exactly_window_boundary():
    # A fragment `gap` zeros after a run rejoins it iff gap < window: the next
    # anomalous label sits at `end + gap + 1`, and the scan stops at
    # `end + window`.
    gap_three = [0, 1, 0, 0, 0, 1, 0]
    assert apply_delayed_labeling(gap_three, window=3) == gap_three
    gap_two = [0, 1, 0, 0, 1, 0]
    assert apply_delayed_labeling(gap_two, window=3) == [0, 1, 1, 1, 1, 0]


# ------------------------------------------------------------------ detector
def test_detector_output_structure(trained_model, dataset_split):
    _, _, test = dataset_split
    detector = trained_model.detector()
    result = detector.detect(test[0])
    assert len(result.labels) == len(test[0])
    assert set(result.labels) <= {0, 1}
    assert result.labels[0] == 0 and result.labels[-1] == 0
    spans = result.spans
    assert all(a <= b for a, b in spans)
    assert len(result.subtrajectories) == len(spans)


def test_detector_is_deterministic_in_greedy_mode(trained_model, dataset_split):
    _, _, test = dataset_split
    detector = trained_model.detector(greedy=True)
    first = detector.detect(test[1]).labels
    second = detector.detect(test[1]).labels
    assert first == second


def test_detector_detect_many(trained_model, dataset_split):
    _, _, test = dataset_split
    results = trained_model.detector().detect_many(test[:5])
    assert len(results) == 5


def test_detector_quality_on_test_set(trained_model, dataset_split):
    """The trained detector clearly beats chance on the held-out data.

    The tiny test split contains very few anomalous subtrajectories, so the
    development and test portions are pooled to get a stable estimate.
    """
    _, development, test = dataset_split
    run = evaluate_detector(trained_model.detector(), development + test,
                            name="RL4OASD")
    assert run.overall.recall > 0.4
    assert run.overall.f1 > 0.2


def test_detector_builds_the_transition_set_once_per_sd_pair(
        trained_model, dataset_split, monkeypatch):
    """The NRF of a new point is a set lookup, not a rebuild of the SD pair's
    transition set: ``detect`` takes the set the snapshot memoizes, so
    ``normal_transitions`` runs once per resolved group — the sparse time
    slots of a pair share the pair's — never per point, and not per trip
    either."""
    from repro.labeling import normal_routes as routes_module
    from repro.labeling.normal_routes import (normal_route_feature_step,
                                              normal_transitions)

    _, _, test = dataset_split
    trips = sorted(test, key=len)[-4:]
    assert min(len(trip) for trip in trips) > 3
    # A clone carries the data but none of the memoized derived values.
    pipeline = trained_model.pipeline.with_history(
        clone_snapshot(trained_model.pipeline.history))
    config = trained_model.training_config
    detector = OnlineDetector(
        trained_model.rsrnet, trained_model.asdnet, pipeline,
        use_rnel=config.use_rnel,
        use_delayed_labeling=config.use_delayed_labeling,
        delay_window=config.delayed_labeling_window)
    expected = [trained_model.detector().detect(trip).labels
                for trip in trips]
    calls = []

    def counting(normal_routes):
        calls.append(normal_routes)
        return normal_transitions(normal_routes)

    monkeypatch.setattr(routes_module, "normal_transitions", counting)
    assert [detector.detect(trip).labels for trip in trips] == expected
    groups = {pipeline.history.resolved_key(
        trip.source, trip.destination, pipeline._slot_of(trip.start_time_s),
        pipeline.config.min_slot_group_size) for trip in trips}
    assert len(groups) < len({(trip.sd_pair, pipeline._slot_of(
        trip.start_time_s)) for trip in trips})
    assert len(calls) == len(groups)
    assert [detector.detect(trip).labels for trip in trips] == expected
    assert len(calls) == len(groups)  # warm: no rebuild at all
    # The per-step helper agrees with the memoized set on every transition.
    for trip in trips:
        routes = pipeline.normal_routes_for(trip)
        allowed = pipeline.normal_transitions_for(trip)
        assert allowed == frozenset(normal_transitions(routes))
        segments = trip.segments
        for previous, current in zip(segments, segments[1:]):
            assert normal_route_feature_step(previous, current, routes) == (
                0 if (previous, current) in allowed else 1)


def test_detector_per_point_latency_is_online(trained_model, dataset_split):
    """The paper's Fig. 3 claim is < 0.1 ms per point (trip time / n); about
    0.02 ms is measured, so 1 ms leaves a noisy runner >= 30x headroom."""
    _, _, test = dataset_split
    detector = trained_model.detector()
    detector.detect(test[0])  # normal-route caches filled, as in steady state
    report = measure_detector(detector, test)
    assert report.mean_per_point_ms < 1.0


# ------------------------------------------------------------------- trainer
def test_trainer_requires_history(dataset):
    with pytest.raises(ModelError):
        RL4OASDTrainer(dataset.network, [])


def test_trainer_model_requires_training(dataset, dataset_split):
    train, _, _ = dataset_split
    trainer = RL4OASDTrainer(dataset.network, train[:40])
    with pytest.raises(NotFittedError):
        trainer.model()


def test_trainer_report_contents(trained_model):
    report = trained_model.report
    assert report.pretrain_losses
    assert report.pretrain_seconds > 0
    assert report.validation_f1
    assert not np.isnan(report.best_validation_f1)
    summary = report.summary()
    assert "pretrain_seconds" in summary


def test_trainer_ablation_flags_run(dataset, dataset_split):
    """Every ablation switch produces a usable (if weaker) model."""
    train, development, test = dataset_split
    quick = dict(pretrain_trajectories=40, pretrain_epochs=2,
                 joint_trajectories=20, joint_epochs=1, validation_interval=20)
    for flag in ("use_asdnet", "use_rnel", "use_delayed_labeling",
                 "use_noisy_labels"):
        trainer = RL4OASDTrainer(
            dataset.network, train,
            labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
            rsrnet_config=RSRNetConfig(embedding_dim=12, hidden_dim=12, nrf_dim=6),
            asdnet_config=ASDNetConfig(label_embedding_dim=6),
            training_config=TrainingConfig(**quick, **{flag: False}),
            development_set=development[:10],
        )
        model = trainer.train()
        result = model.detector().detect(test[0])
        assert len(result.labels) == len(test[0])


def test_fine_tune_extends_history(dataset, dataset_split):
    train, development, test = dataset_split
    trainer = RL4OASDTrainer(
        dataset.network, train[:120],
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
        rsrnet_config=RSRNetConfig(embedding_dim=12, hidden_dim=12, nrf_dim=6),
        asdnet_config=ASDNetConfig(label_embedding_dim=6),
        training_config=TrainingConfig(pretrain_trajectories=40, pretrain_epochs=2,
                                       joint_trajectories=20, joint_epochs=1,
                                       validation_interval=20),
        development_set=development[:10],
    )
    trainer.train()
    before = len(trainer.pipeline.sd_index)
    trainer.fine_tune(train[120:140], epochs=1)
    assert len(trainer.pipeline.sd_index) == before + 20
    trainer.fine_tune([])  # no-op


# ------------------------------------------------------------- online learner
def test_online_learner_workflow(dataset, dataset_split):
    train, development, test = dataset_split
    trainer = RL4OASDTrainer(
        dataset.network, train[:120],
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
        rsrnet_config=RSRNetConfig(embedding_dim=12, hidden_dim=12, nrf_dim=6),
        asdnet_config=ASDNetConfig(label_embedding_dim=6),
        training_config=TrainingConfig(pretrain_trajectories=40, pretrain_epochs=2,
                                       joint_trajectories=20, joint_epochs=1,
                                       validation_interval=20),
        development_set=development[:10],
    )
    learner = OnlineLearner(trainer)
    with pytest.raises(ModelError):
        learner.detector()
    with pytest.raises(ModelError):
        learner.observe_part(1, train[120:130])
    learner.initial_fit()
    record = learner.observe_part(1, train[120:140])
    assert record.num_trajectories == 20
    assert record.seconds > 0
    assert learner.training_time_by_part()[1] == record.seconds
    detector = learner.detector()
    assert len(detector.detect(test[0]).labels) == len(test[0])


def test_online_learner_validates_epochs(dataset, dataset_split):
    train, _, _ = dataset_split
    trainer = RL4OASDTrainer(dataset.network, train[:50])
    with pytest.raises(ModelError):
        OnlineLearner(trainer, fine_tune_epochs=0)


class _StubModel:
    def __init__(self, name):
        self.name = name

    def detector(self, greedy=True, seed=0):
        return ("detector", self.name, greedy, seed)


class _StubTrainer:
    """A trainer whose model() disagrees with what train() returned."""

    def __init__(self):
        self.initial = _StubModel("initial")
        self.retrained = _StubModel("retrained")

    def train(self):
        return self.initial

    def model(self):
        return self.retrained

    def fine_tune(self, trajectories, epochs=1):
        pass


def test_online_learner_serves_the_stored_model():
    """Regression: detector() must come from the model initial_fit() stored,
    not from whatever the wrapped trainer currently holds."""
    learner = OnlineLearner(_StubTrainer())
    learner.initial_fit()
    assert learner.detector(greedy=False, seed=3) == \
        ("detector", "initial", False, 3)
