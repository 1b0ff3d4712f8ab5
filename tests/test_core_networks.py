"""Tests of RSRNet, ASDNet and the reward functions."""

import numpy as np
import pytest

from repro.config import ASDNetConfig, RSRNetConfig
from repro.core import ASDNet, RSRNet, global_reward, local_reward
from repro.core.asdnet import Episode
from repro.core.rewards import episode_return
from repro.exceptions import ModelError


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
    tokens = [1, 2, 3, 4, 5]
    nrf = [0, 0, 1, 1, 0]
    z, logits, _ = rsrnet.forward(tokens, nrf)
    assert z.shape == (5, rsrnet.representation_dim)
    assert logits.shape == (5, 2)
    proba = rsrnet.predict_proba(tokens, nrf)
    assert proba.shape == (5,)
    assert np.all((proba >= 0) & (proba <= 1))


def test_rsrnet_rejects_misaligned_inputs(rsrnet):
    with pytest.raises(ModelError):
        rsrnet.forward([1, 2, 3], [0, 1])
    with pytest.raises(ModelError):
        rsrnet.forward([], [])
    with pytest.raises(ModelError):
        rsrnet.train_step([1, 2], [0, 1], [0])


def test_rsrnet_training_reduces_loss(rsrnet):
    tokens = [1, 2, 3, 4, 5, 6]
    nrf = [0, 0, 1, 1, 0, 0]
    labels = [0, 0, 1, 1, 0, 0]
    first = rsrnet.loss(tokens, nrf, labels)
    for _ in range(30):
        rsrnet.train_step(tokens, nrf, labels)
    assert rsrnet.loss(tokens, nrf, labels) < first


def test_rsrnet_step_matches_forward(rsrnet):
    """The incremental (online) path produces the same representations as the
    whole-sequence forward pass."""
    tokens = [3, 7, 9, 2]
    nrf = [0, 1, 1, 0]
    z_full, _, _ = rsrnet.forward(tokens, nrf)
    state = rsrnet.begin_sequence()
    for i, (token, feature) in enumerate(zip(tokens, nrf)):
        z_step, state = rsrnet.step(state, token, feature)
        assert np.allclose(z_step, z_full[i], atol=1e-9)


def test_rsrnet_step_is_step_batch_at_batch_one(rsrnet):
    """Detector and engine share one recurrent step: the per-point path is
    bit-equal to a batch of one through the fleet path."""
    tokens = [3, 7, 9, 2, 7]
    nrf = [0, 1, 1, 0, 1]
    state = rsrnet.begin_sequence()
    hidden = np.zeros((1, rsrnet.config.hidden_dim))
    cell = np.zeros((1, rsrnet.config.hidden_dim))
    for token, feature in zip(tokens, nrf):
        z_step, state = rsrnet.step(state, token, feature)
        z_batch, hidden, cell = rsrnet.step_batch(
            hidden, cell, rsrnet.input_projection(token)[None, :], [feature])
        assert z_step.tobytes() == z_batch[0].tobytes()
        assert state.hidden.tobytes() == hidden[0].tobytes()
        assert state.cell.tobytes() == cell[0].tobytes()


def test_rsrnet_step_validates_nrf(rsrnet):
    state = rsrnet.begin_sequence()
    with pytest.raises(ModelError):
        rsrnet.step(state, 1, 2)


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


def test_rsrnet_classify_representation(rsrnet):
    z = np.zeros(rsrnet.representation_dim)
    probs = rsrnet.classify_representation(z)
    assert probs.shape == (2,)
    assert probs.sum() == pytest.approx(1.0)


# ------------------------------------------------------------------- ASDNet
def test_asdnet_state_and_actions(asdnet, rsrnet):
    z = np.random.default_rng(0).normal(size=rsrnet.representation_dim)
    state, _ = asdnet.build_state(z, previous_label=0)
    assert state.shape == (asdnet.state_dim,)
    probs = asdnet.action_probability(z, 0)
    assert probs.shape == (2,)
    assert probs.sum() == pytest.approx(1.0)
    action = asdnet.greedy_action(z, 0)
    assert action in (0, 1)
    sampled, step = asdnet.sample_action(z, 1)
    assert sampled in (0, 1)
    assert step.action == sampled


def test_asdnet_validates_inputs(asdnet, rsrnet):
    z = np.zeros(rsrnet.representation_dim)
    with pytest.raises(ModelError):
        asdnet.build_state(z, previous_label=3)
    with pytest.raises(ModelError):
        asdnet.build_state(np.zeros(3), previous_label=0)
    with pytest.raises(ModelError):
        asdnet.evaluate_action(z, 0, action=2)


def test_asdnet_greedy_action_is_the_cache_free_argmax(asdnet, rsrnet):
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.normal(size=rsrnet.representation_dim)
        for previous_label in (0, 1):
            state, _ = asdnet.build_state(z, previous_label)
            probabilities, _ = asdnet.action_probabilities(state)
            assert asdnet.greedy_action(z, previous_label) == int(
                np.argmax(probabilities))
    with pytest.raises(ModelError):
        asdnet.greedy_action(z, 2)
    with pytest.raises(ModelError):
        asdnet.greedy_action(np.zeros(3), 0)


def test_asdnet_behaviour_cloning_learns_mapping(asdnet, rsrnet):
    """Forced-action REINFORCE updates move the policy toward the forced labels."""
    rng = np.random.default_rng(3)
    z_anomalous = rng.normal(0.5, 0.1, size=rsrnet.representation_dim)
    z_normal = rng.normal(-0.5, 0.1, size=rsrnet.representation_dim)
    for _ in range(150):
        episode = Episode()
        episode.steps.append(asdnet.evaluate_action(z_anomalous, 0, 1))
        episode.steps.append(asdnet.evaluate_action(z_normal, 0, 0))
        asdnet.reinforce_update(episode, 1.5, use_baseline=False)
    assert asdnet.greedy_action(z_anomalous, 0) == 1
    assert asdnet.greedy_action(z_normal, 0) == 0


def test_asdnet_empty_episode_is_noop(asdnet):
    before = asdnet.policy.weight.value.copy()
    assert asdnet.reinforce_update(Episode(), 1.0) == 0.0
    assert np.allclose(asdnet.policy.weight.value, before)


def test_asdnet_baseline_suppresses_constant_returns(rsrnet):
    """With the moving-average baseline, a constant return carries no learning
    signal (advantage ~ 0), whereas without the baseline the same episodes keep
    moving the parameters."""
    z = np.ones(rsrnet.representation_dim) * 0.3

    def total_movement(use_baseline: bool) -> float:
        net = ASDNet(rsrnet.representation_dim,
                     ASDNetConfig(label_embedding_dim=6, learning_rate=0.05, seed=4))
        start = net.policy.weight.value.copy()
        for _ in range(15):
            episode = Episode()
            _, step = net.sample_action(z, 0)
            episode.steps.append(step)
            net.reinforce_update(episode, 1.0, use_baseline=use_baseline)
        return float(np.abs(net.policy.weight.value - start).sum())

    assert total_movement(True) < total_movement(False)


# ------------------------------------------------------------------- rewards
def test_local_reward_sign():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 0.1])
    assert local_reward(a, b, 0, 0) > 0
    assert local_reward(a, b, 0, 1) < 0
    assert local_reward(a, b, 0, 0) == pytest.approx(-local_reward(a, b, 1, 0))
    with pytest.raises(ModelError):
        local_reward(a, b, 0, 2)


def test_global_reward_range():
    assert global_reward(0.0) == 1.0
    assert 0.0 < global_reward(3.0) < 1.0
    assert global_reward(0.5) > global_reward(2.0)
    with pytest.raises(ModelError):
        global_reward(-1.0)


def test_episode_return_combines_terms():
    assert episode_return([1.0, 0.5], 0.8) == pytest.approx(0.75 + 0.8)
    assert episode_return([], 0.6) == pytest.approx(0.6)
    with pytest.raises(ModelError):
        episode_return([0.5], 1.5)
