"""Tests of the baseline detectors, the VSAE family's GRU and the
threshold-adaptation protocol."""

import dataclasses

import numpy as np
import pytest

from paper.baselines import (
    CTSSScorer,
    DBTODScorer,
    GMVSAEScorer,
    IBOATDetector,
    SAEScorer,
    SDVSAEScorer,
    ThresholdedDetector,
    TransitionFrequencyScorer,
    VSAEScorer,
    tune_threshold,
)
from paper.baselines.adapt import labels_from_scores
from paper.baselines.ctss import discrete_frechet_points
from paper.baselines.gru import GRU
from paper.baselines.iboat import _contains_contiguous
from paper.baselines.vsae import AutoencoderConfig, SequenceAutoencoder, train_autoencoder
from paper.evaluation import evaluate_detector
from repro.exceptions import EvaluationError, NotFittedError
from repro.nn.module import Parameter
from repro.trajectory import MatchedTrajectory

from reference_networks import numerical_gradient, reference_sigmoid
from test_nn import assert_bit_equal


@pytest.fixture(scope="module")
def autoencoder(pipeline, dataset_split):
    train, _, _ = dataset_split
    return train_autoencoder(
        pipeline.vocabulary, train,
        AutoencoderConfig(embedding_dim=12, hidden_dim=12, latent_dim=6,
                          epochs=1, n_components=3, seed=1),
        max_trajectories=80,
    )


# --------------------------------------------------------------- adaptation
def test_labels_from_scores_protects_endpoints():
    labels = labels_from_scores([9.0, 0.1, 9.0, 9.0], threshold=1.0)
    assert labels == [0, 0, 1, 0]


def test_tune_threshold_separates_classes(pipeline, dataset_split):
    _, development, _ = dataset_split
    scorer = TransitionFrequencyScorer(pipeline)
    threshold = tune_threshold(scorer, development)
    assert 0.0 <= threshold <= 1.0


def test_tune_threshold_requires_labels(pipeline, dataset_split):
    train, development, _ = dataset_split
    scorer = TransitionFrequencyScorer(pipeline)
    with pytest.raises(EvaluationError):
        tune_threshold(scorer, [])
    unlabeled = dataclasses.replace(development[0], labels=None)
    with pytest.raises(EvaluationError):
        tune_threshold(scorer, [unlabeled])


def test_thresholded_detector_requires_tuning(pipeline, dataset_split):
    _, _, test = dataset_split
    detector = ThresholdedDetector(TransitionFrequencyScorer(pipeline))
    with pytest.raises(EvaluationError):
        detector.detect(test[0])


def test_thresholded_detector_detects(pipeline, dataset_split):
    _, development, test = dataset_split
    detector = ThresholdedDetector(TransitionFrequencyScorer(pipeline)).tune(development)
    result = detector.detect(test[0])
    assert len(result.labels) == len(test[0])
    assert len(result.scores) == len(test[0])
    assert result.spans == result.spans  # spans property is stable


# -------------------------------------------------------------------- IBOAT
def test_contains_contiguous():
    assert _contains_contiguous([1, 2, 3, 4], [2, 3])
    assert not _contains_contiguous([1, 2, 3, 4], [2, 4])
    assert _contains_contiguous([1, 2], [])
    assert not _contains_contiguous([1], [1, 2])


def test_iboat_labels_detours(pipeline, dataset_split):
    _, _, test = dataset_split
    detector = IBOATDetector(pipeline, support_threshold=0.2)
    anomalous = next(t for t in test if t.is_anomalous)
    result = detector.detect(anomalous)
    assert len(result.labels) == len(anomalous)
    assert result.labels[0] == 0 and result.labels[-1] == 0
    # The detour segments get low support, so at least part of it is flagged.
    flagged = {i for i, label in enumerate(result.labels) if label == 1}
    true_positions = {i for i, label in enumerate(anomalous.labels) if label == 1}
    assert flagged & true_positions


def test_iboat_support_and_validation(pipeline):
    detector = IBOATDetector(pipeline)
    assert detector.support([1, 2], [[1, 2, 3], [4, 5]]) == pytest.approx(0.5)
    assert detector.support([1], []) == 1.0
    with pytest.raises(EvaluationError):
        IBOATDetector(pipeline, support_threshold=1.5)


# -------------------------------------------------------------------- DBTOD
def test_dbtod_scores_rare_transitions_higher(dataset, dataset_split):
    train, _, test = dataset_split
    scorer = DBTODScorer(dataset.network, train)
    anomalous = next(t for t in test if t.is_anomalous)
    scores = scorer.scores(anomalous)
    assert len(scores) == len(anomalous)
    detour_scores = [s for s, label in zip(scores, anomalous.labels) if label == 1]
    normal_scores = [s for s, label in zip(scores[1:], anomalous.labels[1:])
                     if label == 0]
    assert np.mean(detour_scores) > np.mean(normal_scores)


def test_dbtod_validation(dataset):
    with pytest.raises(EvaluationError):
        DBTODScorer(dataset.network, [])


# --------------------------------------------------------------------- CTSS
def test_ctss_scores_peak_on_detours(pipeline, dataset_split):
    _, _, test = dataset_split
    scorer = CTSSScorer(pipeline)
    anomalous = next(t for t in test if t.is_anomalous)
    scores = scorer.scores(anomalous)
    assert len(scores) == len(anomalous)
    first_detour = anomalous.labels.index(1)
    assert max(scores[first_detour:]) > max(scores[:first_detour] or [0.0])


def test_ctss_normal_route_scores_near_zero(pipeline, dataset_split):
    _, _, test = dataset_split
    scorer = CTSSScorer(pipeline)
    normal = next(t for t in test if not t.is_anomalous)
    assert max(scorer.scores(normal)) < 500.0


@pytest.mark.parametrize("seed", range(4))
def test_ctss_prefix_scores_equal_the_frechet_reference(pipeline, seed):
    """CTSS grows the Fréchet coupling table a row per point; each prefix
    score must be the whole-polyline distance of ``discrete_frechet_points``
    from that prefix to the closest prefix of the reference."""
    rng = np.random.default_rng(seed)
    segment_ids = pipeline.network.segment_ids()
    route = [int(s) for s in rng.choice(segment_ids, size=rng.integers(1, 12))]
    reference = [int(s) for s in
                 rng.choice(segment_ids, size=rng.integers(1, 12))]
    scorer = CTSSScorer(pipeline)
    points = scorer._points(route)
    reference_points = scorer._points(reference)
    expected = [min(discrete_frechet_points(points[:i + 1],
                                            reference_points[:j + 1])
                    for j in range(len(reference)))
                for i in range(len(route))]
    trajectory = MatchedTrajectory(trajectory_id=seed, segments=route)
    assert scorer._scores_against(trajectory, reference) == expected


# -------------------------------------------------------------------- GRU
def test_gru_gradient_check():
    rng = np.random.default_rng(4)
    gru = GRU(3, 4, rng=rng)
    inputs = rng.normal(size=(4, 3))
    targets = np.array([0.1, 0.2, -0.4, 0.3])

    def loss_fn():
        hidden, _ = gru.forward(inputs)
        return float(((hidden[-1] - targets) ** 2).sum())

    hidden, caches = gru.forward(inputs)
    grad_hidden = np.zeros_like(hidden)
    grad_hidden[-1] = 2.0 * (hidden[-1] - targets)
    gru.zero_grad()
    gru.backward(grad_hidden, caches)
    numeric = numerical_gradient(loss_fn, gru.cell.weight_hidden)
    assert np.allclose(gru.cell.weight_hidden.grad, numeric, atol=1e-4)

    # The initial state's gradient, through every step.
    h0 = Parameter(rng.normal(size=4))

    def loss_from_h0():
        hidden, _ = gru.forward(inputs, h0=h0.value)
        return float(((hidden - targets) ** 2).sum())

    hidden, caches = gru.forward(inputs, h0=h0.value)
    _, grad_h0 = gru.backward(2.0 * (hidden - targets), caches)
    np.testing.assert_allclose(grad_h0, numerical_gradient(loss_from_h0, h0),
                               rtol=0, atol=1e-8)


def test_gru_step_bit_equal_to_two_sigmoid_calls():
    """One sigmoid over the contiguous ``[update | reset]`` block is the two
    per-gate calls it replaced, bit for bit."""
    rng = np.random.default_rng(5)
    cell = GRU(4, 6, rng=rng).cell
    cell.weight_hidden.value *= 6.0
    cell.bias.value += rng.normal(scale=2.0, size=18)
    x = rng.normal(scale=3.0, size=4)
    h_prev = rng.normal(size=6)
    projected_input = x @ cell.weight_input.value + cell.bias.value
    projected_hidden = h_prev @ cell.weight_hidden.value
    update_gate = reference_sigmoid(projected_input[:6] + projected_hidden[:6])
    reset_gate = reference_sigmoid(projected_input[6:12]
                                   + projected_hidden[6:12])
    candidate = np.tanh(projected_input[12:]
                        + reset_gate * projected_hidden[12:])
    h, cache = cell.forward(x, h_prev)
    assert_bit_equal(h, (1.0 - update_gate) * h_prev + update_gate * candidate)
    assert_bit_equal(cache["update_gate"], update_gate)
    assert_bit_equal(cache["reset_gate"], reset_gate)
    assert_bit_equal(cache["candidate"], candidate)


# ----------------------------------------------------------- autoencoders
def test_autoencoder_training_reduces_nll(pipeline, dataset_split):
    train, _, _ = dataset_split
    config = AutoencoderConfig(embedding_dim=10, hidden_dim=10, latent_dim=5,
                               epochs=1, seed=3)
    model = SequenceAutoencoder(len(pipeline.vocabulary), config)
    tokens = pipeline.vocabulary.tokens(train[0].segments)
    first = model.train_step(tokens)
    for _ in range(25):
        last = model.train_step(tokens)
    assert last < first


def test_autoencoder_gradients_match_finite_differences(monkeypatch):
    """``train_step``'s gradients are the loss's in every parameter — the
    decoder's initial state carries the loss through the latent into the
    encoder. Deterministic (no sampled latent) and unclipped, and the
    optimizer is held still so the gradients can be read."""
    config = AutoencoderConfig(embedding_dim=5, hidden_dim=4, latent_dim=3,
                               variational=False, grad_clip=1e9, seed=2)
    model = SequenceAutoencoder(15, config)
    monkeypatch.setattr(model._optimizer, "step", lambda: None)
    tokens = np.random.default_rng(4).integers(0, 15, size=12).tolist()
    model.train_step(tokens)

    def loss():
        mean, _, _ = model.encode(tokens)
        nll, _ = model.decode_nll(tokens, mean)
        return float(np.mean(nll))

    for name, parameter in model.named_parameters():
        np.testing.assert_allclose(
            parameter.grad, numerical_gradient(loss, parameter),
            rtol=0, atol=1e-8, err_msg=name)


def test_autoencoder_mixture_requires_training(pipeline):
    model = SequenceAutoencoder(len(pipeline.vocabulary), AutoencoderConfig())
    with pytest.raises(NotFittedError):
        model.fit_mixture()
    with pytest.raises(NotFittedError):
        model.mixture_means


def test_autoencoder_scorers_shapes(autoencoder, pipeline, dataset_split):
    _, _, test = dataset_split
    trajectory = test[0]
    for scorer_class in (SAEScorer, VSAEScorer, GMVSAEScorer, SDVSAEScorer):
        scorer = scorer_class(autoencoder, pipeline.vocabulary)
        scores = scorer.scores(trajectory)
        assert len(scores) == len(trajectory)
        assert all(np.isfinite(s) for s in scores)


def test_gmvsae_never_worse_than_sdvsae(autoencoder, pipeline, dataset_split):
    """GM-VSAE decodes from every component, so its best NLL is <= SD-VSAE's."""
    _, _, test = dataset_split
    gm = GMVSAEScorer(autoencoder, pipeline.vocabulary)
    sd = SDVSAEScorer(autoencoder, pipeline.vocabulary)
    for trajectory in test[:5]:
        gm_scores = np.asarray(gm.scores(trajectory))
        sd_scores = np.asarray(sd.scores(trajectory))
        assert np.all(gm_scores <= sd_scores + 1e-9)


# -------------------------------------------------------- end-to-end sanity
def test_every_baseline_evaluates(pipeline, dataset, dataset_split, autoencoder):
    train, development, test = dataset_split
    detectors = {
        "IBOAT": IBOATDetector(pipeline),
        "DBTOD": ThresholdedDetector(DBTODScorer(dataset.network, train)).tune(development),
        "CTSS": ThresholdedDetector(CTSSScorer(pipeline)).tune(development),
        "SAE": ThresholdedDetector(SAEScorer(autoencoder, pipeline.vocabulary)).tune(development),
    }
    for name, detector in detectors.items():
        run = evaluate_detector(detector, test[:30], name=name)
        assert 0.0 <= run.overall.f1 <= 1.0
