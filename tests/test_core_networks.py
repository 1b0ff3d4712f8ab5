"""Tests of RSRNet and ASDNet: their batch forms, finite differences and the
scalar reference of ``tests/reference_networks.py``."""

import numpy as np
import pytest

from repro.config import ASDNetConfig, RSRNetConfig
from repro.core import ASDNet, RSRNet
from repro.core.asdnet import BatchedEpisode
from repro.core.decision import policy_choices, sample_labels
from repro.exceptions import ModelError
from repro.nn import sequence_cross_entropy_from_logits

from reference_networks import greedy_action, numerical_gradient, rsrnet_step


@pytest.fixture
def rsrnet():
    return RSRNet(vocabulary_size=30,
                  config=RSRNetConfig(embedding_dim=12, hidden_dim=10, nrf_dim=6,
                                      seed=1))


@pytest.fixture
def asdnet(rsrnet):
    return ASDNet(representation_dim=rsrnet.representation_dim,
                  config=ASDNetConfig(label_embedding_dim=6, learning_rate=0.05,
                                      seed=2))


# ------------------------------------------------------------------- RSRNet
def test_rsrnet_forward_shapes(rsrnet):
    tokens = np.array([[1, 2, 3, 4, 5], [6, 7, 8, 0, 0]])
    nrf = np.array([[0, 0, 1, 1, 0], [0, 1, 0, 0, 0]])
    z, logits, _ = rsrnet.forward_batch_train(tokens, nrf, [5, 3])
    assert z.shape == (2, 5, rsrnet.representation_dim)
    assert logits.shape == (2, 5, 2)


def test_rsrnet_rejects_misaligned_inputs(rsrnet):
    with pytest.raises(ModelError):  # tokens and NRFs not aligned
        rsrnet.forward_batch_train([[1, 2, 3]], [[0, 1]], [3])
    with pytest.raises(ModelError):  # a length per sequence, each positive
        rsrnet.forward_batch_train([[1, 2, 3]], [[0, 1, 0]], [0])
    with pytest.raises(ModelError):  # no length beyond the padded horizon
        rsrnet.forward_batch_train([[1, 2, 3]], [[0, 1, 0]], [4])


def test_rsrnet_training_reduces_loss(rsrnet):
    tokens = [[1, 2, 3, 4, 5, 6]]
    nrf = [[0, 0, 1, 1, 0, 0]]
    labels = np.array([[0, 0, 1, 1, 0, 0]])

    def loss():
        _, logits, _ = rsrnet.forward_batch_train(tokens, nrf, [6])
        return sequence_cross_entropy_from_logits(logits, labels, [6])[0][0]

    first = loss()
    for _ in range(30):
        _, _, cache = rsrnet.forward_batch_train(tokens, nrf, [6])
        rsrnet.train_step_batch(labels, cache)
    assert loss() < first


def test_rsrnet_train_step_batch_gradients_match_finite_differences():
    """The gradients the training step accumulates on a ragged batch are
    those of the mean of the per-sequence losses, in every parameter."""
    net = RSRNet(vocabulary_size=9,
                 config=RSRNetConfig(embedding_dim=4, hidden_dim=3, nrf_dim=2,
                                     grad_clip=1e6, seed=3))
    lengths = [5, 2, 4]
    tokens = np.array([[1, 2, 3, 4, 5], [6, 7, 0, 0, 0], [8, 2, 6, 1, 0]])
    nrf = np.array([[0, 1, 1, 0, 0], [0, 0, 0, 0, 0], [0, 1, 0, 1, 0]])
    labels = np.array([[0, 1, 1, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0]])
    before = net.state_dict()
    _, _, cache = net.forward_batch_train(tokens, nrf, lengths)
    net.train_step_batch(labels, cache)
    analytic = {name: parameter.grad.copy()
                for name, parameter in net.named_parameters()}
    net.load_state_dict(before)

    def mean_loss():
        _, logits, _ = net.forward_batch_train(tokens, nrf, lengths)
        return float(np.mean(sequence_cross_entropy_from_logits(
            logits, labels, lengths)[0]))

    for name, parameter in net.named_parameters():
        np.testing.assert_allclose(
            analytic[name], numerical_gradient(mean_loss, parameter),
            rtol=0, atol=1e-8, err_msg=name)


def test_rsrnet_step_matches_forward(rsrnet):
    """The inference step produces the training forward's representations."""
    tokens = [3, 7, 9, 2]
    nrf = [0, 1, 1, 0]
    z_full, _, _ = rsrnet.forward_batch_train([tokens], [nrf], [4])
    hidden = np.zeros((1, rsrnet.config.hidden_dim))
    cell = np.zeros((1, rsrnet.config.hidden_dim))
    for i, (token, feature) in enumerate(zip(tokens, nrf)):
        z_step, hidden, cell = rsrnet.step_batch(
            hidden, cell, rsrnet.input_projection(token)[None, :], [feature])
        assert np.allclose(z_step[0], z_full[0, i], atol=1e-9)


def test_rsrnet_step_is_step_batch_at_batch_one(rsrnet):
    """The reference's one-point step is a batch of one through the fleet
    path, bit for bit."""
    tokens = [3, 7, 9, 2, 7]
    nrf = [0, 1, 1, 0, 1]
    h = c = np.zeros(rsrnet.config.hidden_dim)
    hidden = np.zeros((1, rsrnet.config.hidden_dim))
    cell = np.zeros((1, rsrnet.config.hidden_dim))
    for token, feature in zip(tokens, nrf):
        z_step, h, c = rsrnet_step(rsrnet, h, c, token, feature)
        z_batch, hidden, cell = rsrnet.step_batch(
            hidden, cell, rsrnet.input_projection(token)[None, :], [feature])
        assert z_step.tobytes() == z_batch[0].tobytes()
        assert h.tobytes() == hidden[0].tobytes()
        assert c.tobytes() == cell[0].tobytes()


def test_rsrnet_step_validates_nrf(rsrnet):
    state = np.zeros((1, rsrnet.config.hidden_dim))
    with pytest.raises(ModelError):
        rsrnet.step_batch(state, state, rsrnet.input_projection(1)[None, :], [2])


def test_rsrnet_pretrained_embeddings_used():
    table = np.full((30, 12), 0.5)
    net = RSRNet(vocabulary_size=30,
                 config=RSRNetConfig(embedding_dim=12, hidden_dim=8, nrf_dim=4),
                 pretrained_embeddings=table)
    assert np.allclose(net.segment_embedding.weight.value, 0.5)
    with pytest.raises(ModelError):
        RSRNet(vocabulary_size=30,
               config=RSRNetConfig(embedding_dim=12, hidden_dim=8, nrf_dim=4),
               pretrained_embeddings=np.zeros((30, 5)))


# ------------------------------------------------------------------- ASDNet
def _episode(asdnet, z, previous_labels, actions=None, rng=None):
    """One episode of decisions on the rows of ``z``: ``actions`` forced,
    or sampled from the policy with ``rng``."""
    probabilities = policy_choices(asdnet, z, previous_labels, greedy=False)
    if actions is None:
        actions = sample_labels(probabilities, rng)
    episode = BatchedEpisode(num_episodes=1)
    episode.append(np.zeros(len(z), dtype=np.int64), z, actions,
                   probabilities, previous_labels)
    return episode


def test_asdnet_state_and_actions(asdnet, rsrnet):
    z = np.random.default_rng(0).normal(size=(3, rsrnet.representation_dim))
    previous = [0, 1, 0]
    state_dim = rsrnet.representation_dim + asdnet.config.label_embedding_dim
    assert asdnet.build_states_batch(z, previous).shape == (3, state_dim)
    probabilities = policy_choices(asdnet, z, previous, greedy=False)
    assert probabilities.shape == (3, 2)
    assert probabilities.sum(axis=1) == pytest.approx([1.0, 1.0, 1.0])
    assert set(policy_choices(asdnet, z, previous, greedy=True)) <= {0, 1}
    sampled = sample_labels(probabilities, np.random.default_rng(1))
    assert set(sampled.tolist()) <= {0, 1}


def test_asdnet_validates_inputs(asdnet, rsrnet):
    z = np.zeros((1, rsrnet.representation_dim))
    with pytest.raises(ModelError):
        asdnet.build_states_batch(z, [3])
    with pytest.raises(ModelError):
        asdnet.build_states_batch(np.zeros((1, 3)), [0])
    with pytest.raises(ModelError):
        asdnet.build_states_batch(z[0], [0])
    with pytest.raises(ModelError):  # one return per episode
        asdnet.reinforce_update_batch(_episode(asdnet, z, [0], [1]), [1.0, 2.0])


def test_asdnet_greedy_action_is_the_cache_free_argmax(asdnet, rsrnet):
    """Detection's greedy choice is the argmax of the reference policy."""
    z = np.random.default_rng(5).normal(size=(20, rsrnet.representation_dim))
    for previous_label in (0, 1):
        assert policy_choices(asdnet, z, [previous_label] * 20,
                              greedy=True) == [
            greedy_action(asdnet, row, previous_label) for row in z]


def test_asdnet_behaviour_cloning_learns_mapping(asdnet, rsrnet):
    """Forced-action REINFORCE updates move the policy toward the forced labels."""
    rng = np.random.default_rng(3)
    z = np.stack([rng.normal(0.5, 0.1, size=rsrnet.representation_dim),
                  rng.normal(-0.5, 0.1, size=rsrnet.representation_dim)])
    for _ in range(150):
        asdnet.reinforce_update_batch(_episode(asdnet, z, [0, 0], [1, 0]),
                                      [1.5], use_baseline=False)
    assert policy_choices(asdnet, z, [0, 0], greedy=True) == [1, 0]


def test_asdnet_empty_episode_is_noop(asdnet):
    before = asdnet.policy.weight.value.copy()
    assert asdnet.reinforce_update_batch(BatchedEpisode(num_episodes=1),
                                         [1.0]) == 0.0
    assert np.allclose(asdnet.policy.weight.value, before)


def test_asdnet_baseline_suppresses_constant_returns(rsrnet):
    """With the moving-average baseline, a constant return carries no learning
    signal (advantage ~ 0), whereas without the baseline the same episodes keep
    moving the parameters."""
    z = np.ones((1, rsrnet.representation_dim)) * 0.3

    def total_movement(use_baseline: bool) -> float:
        net = ASDNet(rsrnet.representation_dim,
                     ASDNetConfig(label_embedding_dim=6, learning_rate=0.05, seed=4))
        rng = np.random.default_rng(5)
        start = net.policy.weight.value.copy()
        for _ in range(15):
            net.reinforce_update_batch(_episode(net, z, [0], rng=rng), [1.0],
                                       use_baseline=use_baseline)
        return float(np.abs(net.policy.weight.value - start).sum())

    assert total_movement(True) < total_movement(False)
