"""Tests of the training engine.

The central contract: with ``batch_size=1`` the trainer is numerically
equivalent to Algorithm 2 spelled out as a scalar per-trajectory loop
(``tests/reference_trainer.py``: same random stream, same gradient steps,
same final model) — under the defaults and with each Table IV switch turned
off — and with larger batch sizes it is a well-behaved minibatch variant over
ragged (padded + masked) trajectory batches. The differential tests here
mirror ``tests/test_stream_engine.py``, which pins the batched *inference*
engine the same way.
"""

import numpy as np
import pytest

from repro.config import (ASDNetConfig, LabelingConfig, RSRNetConfig,
                          TrainingConfig)
from repro.core import OnlineLearner, RL4OASDTrainer, TrainingReport
from repro.core.decision import rnel_fixed_batch, rnel_masks, sample_labels
from repro.exceptions import ConfigurationError, ModelError
from repro.nn import (LSTM, cosine_similarity_rows, cross_entropy_from_logits,
                      sequence_cross_entropy_from_logits)
from repro.trajectory.models import MatchedTrajectory

from reference_detector import reference_labels
from reference_networks import (lstm_backward, lstm_forward, rnel,
                                rnel_from_degrees)
from reference_trainer import ReferenceTrainer


# ------------------------------------------------------------ nn primitives
def test_lstm_batched_backward_matches_sequential(rng):
    """Batched BPTT over a ragged batch accumulates the same gradients as
    running (and summing) the reference's per-sequence backward passes."""
    lstm = LSTM(input_dim=5, hidden_dim=4, rng=np.random.default_rng(1))
    lengths = [6, 3, 1, 5]
    batch, horizon = len(lengths), max(lengths)
    inputs = rng.normal(size=(batch, horizon, 5))
    grad_hidden = rng.normal(size=(batch, horizon, 4))
    for b, n in enumerate(lengths):  # padded positions carry no gradient
        inputs[b, n:] = 0.0
        grad_hidden[b, n:] = 0.0

    lstm.zero_grad()
    sequential_inputs_grad = np.zeros_like(inputs)
    sequential_hidden = []
    for b, n in enumerate(lengths):
        hidden, steps = lstm_forward(lstm.cell, inputs[b, :n])
        sequential_hidden.append(hidden)
        sequential_inputs_grad[b, :n] = lstm_backward(
            lstm.cell, grad_hidden[b, :n], steps)
    sequential_grads = [p.grad.copy() for p in lstm.parameters()]

    lstm.zero_grad()
    hidden_batch, caches = lstm.forward_batch(inputs)
    for b, n in enumerate(lengths):
        np.testing.assert_allclose(hidden_batch[b, :n], sequential_hidden[b],
                                   atol=1e-12)
    batched_inputs_grad = lstm.backward_batch(grad_hidden, caches)
    for sequential, parameter in zip(sequential_grads, lstm.parameters()):
        np.testing.assert_allclose(parameter.grad, sequential, atol=1e-10)
    np.testing.assert_allclose(batched_inputs_grad, sequential_inputs_grad,
                               atol=1e-10)


def test_sequence_cross_entropy_matches_per_sequence(rng):
    lengths = [4, 7, 1]
    batch, horizon, classes = len(lengths), max(lengths), 2
    logits = rng.normal(size=(batch, horizon, classes))
    targets = rng.integers(0, classes, size=(batch, horizon))
    losses, grad = sequence_cross_entropy_from_logits(logits, targets, lengths)
    for b, n in enumerate(lengths):
        loss_b, grad_b = cross_entropy_from_logits(logits[b, :n], targets[b, :n])
        assert losses[b] == pytest.approx(loss_b)
        np.testing.assert_allclose(grad[b, :n], grad_b / batch, atol=1e-12)
        assert np.all(grad[b, n:] == 0.0)


def test_sequence_cross_entropy_validates_shapes():
    logits = np.zeros((2, 3, 2))
    with pytest.raises(ModelError):
        sequence_cross_entropy_from_logits(logits, np.zeros((2, 2), int), [3, 3])
    with pytest.raises(ModelError):
        sequence_cross_entropy_from_logits(logits, np.zeros((2, 3), int), [3, 4])
    with pytest.raises(ModelError):
        sequence_cross_entropy_from_logits(logits, np.zeros((2, 3), int), [3, 0])


def test_cosine_similarity_rows_matches_scalar(rng):
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(5, 4))
    a[2] = 0.0  # zero vector -> similarity 0 by convention
    rows = cosine_similarity_rows(a, b)
    with np.errstate(invalid="ignore"):
        expected = (np.sum(a * b, axis=1)
                    / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)))
    expected[2] = 0.0
    np.testing.assert_allclose(rows, expected, rtol=1e-12, atol=0)
    with pytest.raises(ModelError):
        cosine_similarity_rows(a, b[:, :3])


def test_rnel_from_degrees_batch_matches_scalar():
    out_degrees, in_degrees, previous = [], [], []
    for out_degree in (1, 2, 3):
        for in_degree in (1, 2, 3):
            for label in (0, 1):
                out_degrees.append(out_degree)
                in_degrees.append(in_degree)
                previous.append(label)
    fixed = rnel_fixed_batch(out_degrees, in_degrees)
    for index, label in enumerate(previous):
        scalar = rnel_from_degrees(out_degrees[index], in_degrees[index],
                                   label)
        # A fixed point keeps its previous label.
        assert (scalar if scalar is not None else -1) == (
            label if fixed[label, index] else -1)


def test_rnel_masks_batch_and_scalar_agree():
    """Detection's per-token masks, the training episode's batch masks and
    the scalar rules: one answer for every degree pair up to 4 and either
    previous label."""
    degrees = [(out_degree, in_degree) for out_degree in range(5)
               for in_degree in range(5)]
    out_degrees = [out_degree for out_degree, _ in degrees]
    in_degrees = [in_degree for _, in_degree in degrees]
    # Token k's out-degree and in-degree are the k-th pair's.
    after, into = rnel_masks(in_degrees, out_degrees)
    fixed = rnel_fixed_batch(out_degrees, in_degrees)
    for token, (out_degree, in_degree) in enumerate(degrees):
        for label in (0, 1):
            scalar = rnel_from_degrees(out_degree, in_degree, label)
            mask = (after[token] & into[token]) >> label & 1
            assert bool(mask) == bool(fixed[label, token]) == (
                scalar is not None)
            assert scalar in (None, label)
    off, _ = rnel_masks(in_degrees, out_degrees, enabled=False)
    assert not any(off)  # RNEL off: no rule fixes a label
    # Out and in come from two different tokens: every pairing agrees too.
    for before, (out_degree, _) in enumerate(degrees):
        for token, (_, in_degree) in enumerate(degrees):
            for label in (0, 1):
                assert bool((after[before] & into[token]) >> label & 1) == (
                    rnel_from_degrees(out_degree, in_degree, label)
                    is not None)


# ------------------------------------------------- differential equivalence
def _trainer_arguments(dataset, train, development, pretrained_embeddings=None,
                       **training_overrides):
    overrides = dict(pretrain_trajectories=40, pretrain_epochs=2,
                     joint_trajectories=30, joint_epochs=1,
                     validation_interval=10, seed=7)
    overrides.update(training_overrides)
    return dict(
        network=dataset.network, historical=train,
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
        rsrnet_config=RSRNetConfig(embedding_dim=12, hidden_dim=12, nrf_dim=6,
                                   seed=5),
        asdnet_config=ASDNetConfig(label_embedding_dim=6, seed=6),
        training_config=TrainingConfig(**overrides),
        pretrained_embeddings=pretrained_embeddings,
        development_set=development[:10],
    )


def _make_trainer(dataset, train, development, **overrides):
    return RL4OASDTrainer(
        **_trainer_arguments(dataset, train, development, **overrides))


def _make_reference(dataset, train, development, **overrides):
    return ReferenceTrainer(
        **_trainer_arguments(dataset, train, development, **overrides))


#: Batch 1 against the scalar reference, absolute, on every compared
#: quantity. Measured: 3.4e-16 on the schedules below, 5.1e-15 on one three
#: times as long. This bound may only shrink.
REFERENCE_ATOL = 1e-10


def _assert_matches_reference(trainer, reference):
    """Weights, losses, returns, validation F1 within ``REFERENCE_ATOL``;
    the generator's end state exactly."""
    for name, value in reference.rsrnet.state_dict().items():
        np.testing.assert_allclose(trainer.rsrnet.state_dict()[name], value,
                                   rtol=0, atol=REFERENCE_ATOL)
    for name, value in reference.asdnet.state_dict().items():
        np.testing.assert_allclose(trainer.asdnet.state_dict()[name], value,
                                   rtol=0, atol=REFERENCE_ATOL)
    for series in ("pretrain_losses", "joint_losses", "episode_returns",
                   "validation_f1"):
        np.testing.assert_allclose(getattr(trainer.report, series),
                                   getattr(reference.report, series),
                                   rtol=0, atol=REFERENCE_ATOL)
    assert (trainer._rng.bit_generator.state
            == reference.rng.bit_generator.state)


def test_batched_engine_is_equivalent_at_batch_size_1(dataset, dataset_split):
    """The tentpole differential test: full training at batch size 1 yields
    the same model as the scalar per-trajectory reference loop."""
    train, development, test = dataset_split
    reference = _make_reference(dataset, train, development)
    reference.train()
    trainer = _make_trainer(dataset, train, development)
    model = trainer.train()

    _assert_matches_reference(trainer, reference)
    assert (trainer.report.best_validation_f1
            == pytest.approx(reference.report.best_validation_f1,
                             abs=REFERENCE_ATOL))
    for trajectory in test[:20]:
        assert (model.detector().detect(trajectory).labels
                == reference_labels(reference, trajectory))


def test_batched_fine_tune_is_equivalent_at_batch_size_1(dataset, dataset_split):
    train, development, _ = dataset_split
    reference = _make_reference(dataset, train[:120], development)
    reference.train()
    trainer = _make_trainer(dataset, train[:120], development)
    trainer.train()

    reference.fine_tune(train[120:140], epochs=2)
    trainer.fine_tune(train[120:140], epochs=2)
    _assert_matches_reference(trainer, reference)


TABLE_IV_SWITCHES = ["use_rnel", "use_asdnet", "use_noisy_labels",
                     "use_local_reward", "use_global_reward",
                     "use_delayed_labeling", "use_pretrained_embeddings"]


@pytest.mark.parametrize("flag", TABLE_IV_SWITCHES)
def test_batch_size_1_matches_reference_under_each_ablation(
        dataset, dataset_split, pipeline, flag):
    """Every Table 4 row trains through the one engine: training and two
    fine-tuning epochs equal the reference with each switch turned off."""
    train, development, _ = dataset_split
    embeddings = np.random.default_rng(3).normal(
        scale=0.1, size=(len(pipeline.vocabulary), 12))
    overrides = dict(pretrained_embeddings=embeddings,
                     joint_trajectories=24, validation_interval=8,
                     **{flag: False})
    reference = _make_reference(dataset, train[:120], development, **overrides)
    reference.train()
    trainer = _make_trainer(dataset, train[:120], development, **overrides)
    trainer.train()
    _assert_matches_reference(trainer, reference)

    reference.fine_tune(train[120:132], epochs=2)
    trainer.fine_tune(train[120:132], epochs=2)
    _assert_matches_reference(trainer, reference)


def test_batch_size_1_matches_reference_where_rnel_fires(line_network):
    """The tiny grid city has no degree-1 junction, so RNEL never fixes a
    label there; on the line network with its bypass it fixes most of them."""
    routes = [[0, 1, 2]] * 3 + [[0, 3, 4, 2]]
    trips = [MatchedTrajectory(trajectory_id=i, segments=routes[i % 4],
                               start_time_s=600.0 * i) for i in range(28)]
    assert rnel(line_network, 3, 4, 1) == 1      # copy rule
    assert rnel(line_network, 4, 2, 0) == 0      # merge rule
    assert rnel(line_network, 0, 3, 0) is None   # the policy decides
    arguments = dict(
        network=line_network, historical=trips[:20],
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
        rsrnet_config=RSRNetConfig(embedding_dim=6, hidden_dim=6, nrf_dim=3,
                                   seed=5),
        asdnet_config=ASDNetConfig(label_embedding_dim=3, learning_rate=0.05,
                                   seed=6),
        training_config=TrainingConfig(
            pretrain_trajectories=12, pretrain_epochs=2, joint_trajectories=16,
            joint_epochs=2, validation_interval=4, seed=7))
    reference = ReferenceTrainer(**arguments)
    reference.train()
    trainer = RL4OASDTrainer(**arguments)
    trainer.train()
    _assert_matches_reference(trainer, reference)
    reference.fine_tune(trips[20:], epochs=2)
    trainer.fine_tune(trips[20:], epochs=2)
    _assert_matches_reference(trainer, reference)


# ------------------------------------------------------ the sampling rule
class _CountingGenerator:
    """A numpy ``Generator`` that counts the uniforms drawn via ``random``."""

    def __init__(self, seed):
        self._generator = np.random.default_rng(seed)
        self.uniforms = 0

    def random(self, size=None):
        self.uniforms += 1 if size is None else int(np.prod(size))
        return self._generator.random(size)

    def __getattr__(self, name):
        return getattr(self._generator, name)


def test_sample_labels_contract(rng):
    probabilities = rng.dirichlet([1.0, 1.0], size=9)
    counting = _CountingGenerator(4)
    labels = sample_labels(probabilities, counting)
    assert counting.uniforms == 9  # one per row, drawn in row order
    uniforms = np.random.default_rng(4).random(9)
    assert labels.tolist() == (uniforms >= probabilities[:, 0]).tolist()

    # A diverged policy raises instead of passing as a label, undrawn.
    for bad in (np.nan, np.inf):
        broken = probabilities.copy()
        broken[5, 1] = bad
        untouched = _CountingGenerator(4)
        with pytest.raises(ModelError):
            sample_labels(broken, untouched)
        with pytest.raises(ModelError):
            sample_labels(broken[5:6], untouched)
        assert untouched.uniforms == 0


def test_episode_draws_one_uniform_per_policy_decided_point(
        dataset, dataset_split):
    """One uniform per point the policy decides; none for RNEL-fixed points,
    endpoints or the forced labels of the warm start."""
    train, development, _ = dataset_split
    trainer = _make_trainer(dataset, train[:60], development,
                            pretrain_trajectories=10, joint_trajectories=4)
    trainer.train()
    preprocessed = [trainer.pipeline.preprocess(t) for t in train[60:66]]
    prep = trainer._prepare_batch(preprocessed, with_degrees=True)
    # The tiny grid city has no degree-1 junctions; plant some, so each of
    # the three RNEL rules gets to fix points of this batch.
    prep.out_degrees[:, 2::3] = 1
    prep.in_degrees[:, 3::3] = 1

    counting = trainer._rng = _CountingGenerator(9)
    labels = trainer._run_episode_batch(prep)[0]
    decided = 0
    for b, item in enumerate(preprocessed):
        assert labels[b, 0] == 0 and labels[b, len(item) - 1] == 0
        for i in range(1, len(item) - 1):
            fixed = rnel_from_degrees(prep.out_degrees[b, i],
                                      prep.in_degrees[b, i], labels[b, i - 1])
            if fixed is None:
                decided += 1
            else:
                assert labels[b, i] == fixed
    assert 0 < decided < sum(len(item) - 2 for item in preprocessed)
    assert counting.uniforms == decided
    # ... and nothing else was drawn from the generator.
    expected = np.random.default_rng(9)
    expected.random(decided)
    assert counting.bit_generator.state == expected.bit_generator.state

    forced = [list(item.noisy_labels) for item in preprocessed]
    trainer._run_episode_batch(prep, forced_labels=forced)
    assert counting.uniforms == decided
    assert counting.bit_generator.state == expected.bit_generator.state


# ---------------------------------------------------------- larger batches
def test_batched_training_with_ragged_batches(dataset, dataset_split):
    """Batch size 8 over trajectories of different lengths yields a usable
    model and the same report structure as batch size 1."""
    train, development, test = dataset_split
    lengths = {len(t) for t in train[:32]}
    assert len(lengths) > 1  # the batches really are ragged
    trainer = _make_trainer(dataset, train, development, batch_size=8)
    model = trainer.train()
    report = trainer.report
    assert len(report.pretrain_losses) == 40 * 2
    assert len(report.joint_losses) == 30
    assert len(report.episode_returns) == 30
    assert report.validation_f1
    assert np.isfinite(report.best_validation_f1)
    for trajectory in test[:5]:
        labels = model.detector().detect(trajectory).labels
        assert len(labels) == len(trajectory)
        assert set(labels) <= {0, 1}
        assert labels[0] == 0 and labels[-1] == 0


@pytest.mark.parametrize("flag", ["use_rnel", "use_asdnet", "use_noisy_labels",
                                  "use_local_reward", "use_global_reward"])
def test_batched_training_ablations_run(dataset, dataset_split, flag):
    train, development, test = dataset_split
    trainer = _make_trainer(dataset, train, development,
                            batch_size=4, pretrain_trajectories=16,
                            joint_trajectories=8, **{flag: False})
    model = trainer.train()
    result = model.detector().detect(test[0])
    assert len(result.labels) == len(test[0])


def test_training_config_validates_batch_size():
    with pytest.raises(ConfigurationError):
        TrainingConfig(batch_size=0).validate()


def test_explicit_fine_tune_batch_size_overrides_configured_size(
        dataset, dataset_split, monkeypatch):
    """fine_tune(batch_size=8) on a batch_size=1 trainer: 16 trips are
    exactly two episode batches of eight."""
    train, development, _ = dataset_split
    trainer = _make_trainer(dataset, train[:60], development,
                            pretrain_trajectories=10, joint_trajectories=4)
    trainer.train()
    batches = []
    original = RL4OASDTrainer._run_episode_batch

    def spy(self, prep, *args, **kwargs):
        batches.append(len(prep))
        return original(self, prep, *args, **kwargs)

    monkeypatch.setattr(RL4OASDTrainer, "_run_episode_batch", spy)
    trainer.fine_tune(train[60:76], batch_size=8)
    assert batches == [8, 8]


@pytest.mark.parametrize("invalid", [{"batch_size": 0}, {"epochs": 0}],
                         ids=["batch_size", "epochs"])
def test_fine_tune_rejects_invalid_batch_size(dataset, dataset_split, invalid):
    train, development, _ = dataset_split
    trainer = _make_trainer(dataset, train[:60], development)
    history = trainer.pipeline.history
    with pytest.raises(ModelError):
        trainer.fine_tune(train[60:70], **invalid)
    # Rejected before anything moved: a retry must not double the history.
    assert trainer.pipeline.history.version == history.version
    assert len(trainer.pipeline.history) == len(history) == 60


# ----------------------------------------------------- reporting paths
def test_training_report_summary_contents():
    report = TrainingReport(
        pretrain_losses=[0.5, 0.4],
        joint_losses=[0.3, 0.2],
        episode_returns=[1.0, 3.0],
        best_validation_f1=0.75,
        pretrain_seconds=1.5,
        joint_seconds=2.5,
    )
    summary = report.summary()
    assert summary["pretrain_seconds"] == 1.5
    assert summary["joint_seconds"] == 2.5
    assert summary["final_joint_loss"] == 0.2
    assert summary["mean_episode_return"] == pytest.approx(2.0)
    assert summary["best_validation_f1"] == 0.75
    assert report.total_seconds == pytest.approx(4.0)


def test_training_report_summary_handles_empty_runs():
    summary = TrainingReport().summary()
    assert np.isnan(summary["final_joint_loss"])
    assert np.isnan(summary["mean_episode_return"])
    assert np.isnan(summary["best_validation_f1"])
    assert summary["pretrain_seconds"] == 0.0


class _RecordingTrainer:
    """A stub trainer that records how fine_tune was invoked."""

    def __init__(self):
        self.calls = []

    def train(self):
        return object()

    def fine_tune(self, trajectories, epochs=1, batch_size=None):
        self.calls.append((len(trajectories), epochs, batch_size))


def test_online_learner_training_time_by_part():
    trainer = _RecordingTrainer()
    learner = OnlineLearner(trainer, fine_tune_epochs=2, batch_size=16)
    learner.initial_fit()
    first = learner.observe_part(1, [object()] * 5)
    second = learner.observe_part(2, [object()] * 3)
    times = learner.training_time_by_part()
    assert set(times) == {1, 2}
    assert times[1] == first.seconds and times[2] == second.seconds
    assert all(seconds >= 0 for seconds in times.values())
    # The learner's batch size reaches the trainer on every round.
    assert trainer.calls == [(5, 2, 16), (3, 2, 16)]


def test_online_learner_validates_batch_size(dataset, dataset_split):
    train, _, _ = dataset_split
    trainer = RL4OASDTrainer(dataset.network, train[:40])
    with pytest.raises(ModelError):
        OnlineLearner(trainer, batch_size=0)


def test_online_learner_batched_fine_tuning_workflow(dataset, dataset_split):
    """End to end: a learner fine-tuning in batches of 16."""
    train, development, test = dataset_split
    trainer = _make_trainer(dataset, train[:120], development,
                            pretrain_trajectories=20, joint_trajectories=8)
    learner = OnlineLearner(trainer, batch_size=16)
    learner.initial_fit()
    record = learner.observe_part(1, train[120:150])
    assert record.num_trajectories == 30
    assert learner.training_time_by_part()[1] == record.seconds
    labels = learner.detector().detect(test[0]).labels
    assert len(labels) == len(test[0])


# --------------------------------------------- batched validation + bucketing
def test_validation_pass_matches_detector_scoring(dataset, dataset_split):
    """The StreamEngine-batched validation pass scores exactly like the old
    one-trajectory-at-a-time OnlineDetector pass (labels are pinned equal)."""
    from repro.eval.metrics import evaluate_labelings

    train, development, _ = dataset_split
    trainer = _make_trainer(dataset, train, development)
    trainer.train()
    config = trainer.training_config
    reference = development[:10][: config.validation_sample]
    detector = trainer.model().detector()
    expected = evaluate_labelings(
        [trajectory.labels for trajectory in reference],
        [detector.detect(trajectory).labels for trajectory in reference]).f1
    assert trainer._validation_f1() == pytest.approx(expected)


def test_training_chunks_bucket_by_length(dataset, dataset_split):
    """Bucketed assembly sorts batches by length (stably) and cuts padding;
    batch size 1 keeps the sample order untouched."""
    train, development, _ = dataset_split
    sample = list(train[:17])

    bucketing = _make_trainer(dataset, train, development, batch_size=4)
    chunks = list(bucketing._training_chunks(sample, 4))
    flattened = [t for chunk in chunks for t in chunk]
    assert sorted(map(len, flattened)) == list(map(len, flattened))
    assert {t.trajectory_id for t in flattened} == {t.trajectory_id
                                                    for t in sample}
    # Stability: equal lengths keep their relative sample order.
    by_length = {}
    for trajectory in flattened:
        by_length.setdefault(len(trajectory), []).append(trajectory)
    positions = {id(t): i for i, t in enumerate(sample)}
    for group in by_length.values():
        indices = [positions[id(t)] for t in group]
        assert indices == sorted(indices)

    at_one = _make_trainer(dataset, train, development)
    assert [t for chunk in at_one._training_chunks(sample, 1)
            for t in chunk] == sample


def test_bucketed_batches_reduce_padding_waste(dataset, dataset_split):
    """The padded-cell count over an epoch shrinks under bucketing."""
    train, development, _ = dataset_split
    trainer = _make_trainer(dataset, train, development, batch_size=8)
    sample = list(train[:64])

    def padded_cells(chunks):
        total = 0
        for chunk in chunks:
            lengths = [len(t) for t in chunk]
            total += max(lengths) * len(lengths) - sum(lengths)
        return total

    plain = padded_cells(_chunks_list(sample, 8))
    bucketed = padded_cells(trainer._training_chunks(sample, 8))
    assert bucketed <= plain
    assert bucketed < plain or plain == 0


def _chunks_list(items, size):
    return [items[start:start + size] for start in range(0, len(items), size)]


def test_bucketed_training_runs_end_to_end(dataset, dataset_split):
    train, development, test = dataset_split
    trainer = _make_trainer(dataset, train, development, batch_size=8,
                            pretrain_trajectories=24, joint_trajectories=16)
    model = trainer.train()
    trainer.fine_tune(train[150:166], epochs=1)
    result = model.detector().detect(test[0])
    assert len(result.labels) == len(test[0])
