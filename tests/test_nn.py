"""Tests of the numpy neural-network substrate, including gradient checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import ModelError
from repro.nn import (
    Adam,
    Embedding,
    Linear,
    LSTM,
    clip_gradients,
    cosine_similarity_rows,
    cross_entropy_from_logits,
    log_softmax,
    sigmoid,
    softmax,
)
from repro.config import ASDNetConfig, RSRNetConfig
from repro.core.asdnet import ASDNet
from repro.core.rsrnet import RSRNet
from repro.nn.module import Module, Parameter
from repro.nn.recurrent import LSTMCell

from paper.baselines.vsae import AutoencoderConfig, SequenceAutoencoder
from reference_networks import (ReferenceAdam, numerical_gradient,
                                reference_backward_batch, reference_lstm_step,
                                reference_sigmoid)


# ----------------------------------------------------------------- functional
def test_sigmoid_and_tanh_ranges():
    x = np.linspace(-50, 50, 101)
    s = sigmoid(x)
    assert np.all((s >= 0) & (s <= 1))
    assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)


def assert_bit_equal(actual, expected):
    """Same shape, float64, and the same bits (so -0.0 is not 0.0)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


SIGMOID_EDGE_VALUES = [
    0.0, -0.0, np.inf, -np.inf, 745.2, -745.2, 709.8, -709.8, 36.8, -36.8,
    5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-17, -1e-17, 1.0, -1.0,
]


def test_sigmoid_accepts_array_likes():
    assert sigmoid(0.5) == pytest.approx(0.6224593312018546)
    assert isinstance(sigmoid(0.5), np.float64)
    assert_bit_equal(sigmoid([0.5, -1.0]), sigmoid(np.array([0.5, -1.0])))
    assert_bit_equal(sigmoid([[1, -2], [0, 3]]),
                     reference_sigmoid(np.array([[1, -2], [0, 3]])))
    assert_bit_equal(sigmoid(np.array(-3)), reference_sigmoid(np.array(-3)))


def test_sigmoid_bit_equal_to_masked_reference_on_edge_values():
    edges = np.array(SIGMOID_EDGE_VALUES)
    assert_bit_equal(sigmoid(edges), reference_sigmoid(edges))
    for value in edges:  # 0-d inputs
        assert_bit_equal(sigmoid(np.array(value)),
                         reference_sigmoid(np.array(value)))
    assert sigmoid(np.array([745.2, -745.2, np.inf, -np.inf])).tolist() == [
        1.0, 0.0, 1.0, 0.0]
    assert np.isnan(sigmoid(np.array([np.nan, 1.0]))).tolist() == [True, False]
    rng = np.random.default_rng(0)
    matrix = rng.normal(scale=20.0, size=(7, 12))
    matrix[rng.integers(0, 7, len(edges)), rng.integers(0, 12, len(edges))] = edges
    for view in (matrix, matrix[:, 3:9], matrix[:, 9:], matrix[::2, ::3],
                 matrix.T, matrix[0], matrix[:, 5]):
        assert_bit_equal(sigmoid(view), reference_sigmoid(view))
    integers = np.arange(-40, 41)
    assert_bit_equal(sigmoid(integers), reference_sigmoid(integers))


def test_sigmoid_out_may_alias_its_input():
    rng = np.random.default_rng(1)
    gates = rng.normal(scale=5.0, size=(6, 16))
    expected = gates.copy()
    expected[:, :8] = reference_sigmoid(gates[:, :8])
    block = gates[:, :8]
    assert sigmoid(block, out=block) is block
    assert_bit_equal(gates, expected)  # columns 8.. untouched


@settings(max_examples=200)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=24))
@example([5e-324, -5e-324, 745.2, -745.2, 0.0, -0.0])
def test_sigmoid_bit_equal_to_masked_reference(values):
    x = np.array(values, dtype=np.float64)
    assert_bit_equal(sigmoid(x), reference_sigmoid(x))


def test_softmax_sums_to_one():
    probs = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1000.0]]), axis=1)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert probs[1, 2] == pytest.approx(1.0)


def test_log_softmax_matches_softmax():
    logits = np.array([0.3, -2.0, 1.5])
    assert np.allclose(np.exp(log_softmax(logits)), softmax(logits))


def test_cosine_similarity():
    a = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    b = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    assert cosine_similarity_rows(a, b) == pytest.approx([1.0, 0.0, 0.0])
    with pytest.raises(ModelError):
        cosine_similarity_rows(np.ones((1, 3)), np.ones((1, 4)))
    with pytest.raises(ModelError):
        cosine_similarity_rows(np.ones(3), np.ones(3))


def test_cross_entropy_from_logits_values_and_grad():
    logits = np.array([[2.0, 0.0], [0.0, 2.0]])
    loss, grad = cross_entropy_from_logits(logits, [0, 1])
    assert loss == pytest.approx(-np.log(softmax(np.array([2.0, 0.0]))[0]))
    assert grad.shape == logits.shape
    # Gradient pushes probability mass toward the target class.
    assert grad[0, 0] < 0 and grad[0, 1] > 0


def test_cross_entropy_rejects_bad_targets():
    with pytest.raises(ModelError):
        cross_entropy_from_logits(np.zeros((2, 2)), [0])
    with pytest.raises(ModelError):
        cross_entropy_from_logits(np.zeros((2, 2)), [0, 5])


# -------------------------------------------------------------------- module
def test_module_collects_parameters_recursively():
    class Child(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(np.zeros((2, 2)), name="w")

    class Parent(Module):
        def __init__(self):
            super().__init__()
            self.child = Child()
            self.b = Parameter(np.zeros(3), name="b")

    parent = Parent()
    assert len(parent.parameters()) == 2
    names = dict(parent.named_parameters())
    assert "child.w" in names and "b" in names
    assert sum(p.value.size for p in parent.parameters()) == 7


def test_state_dict_round_trip():
    layer = Linear(3, 2, rng=np.random.default_rng(0))
    state = layer.state_dict()
    other = Linear(3, 2, rng=np.random.default_rng(99))
    other.load_state_dict(state)
    assert np.allclose(other.weight.value, layer.weight.value)
    with pytest.raises(ModelError):
        other.load_state_dict({"weight": np.zeros((3, 2))})


# ------------------------------------------------------------ gradient checks
def test_linear_gradient_check():
    rng = np.random.default_rng(1)
    layer = Linear(4, 3, rng=rng)
    x = rng.normal(size=4)
    targets = [1]

    def loss_fn():
        out, _ = layer(x)
        loss, _ = cross_entropy_from_logits(out, targets)
        return loss

    layer.zero_grad()
    out, cache = layer(x)
    _, grad_logits = cross_entropy_from_logits(out, targets)
    layer.backward(grad_logits[0], cache)
    numeric = numerical_gradient(loss_fn, layer.weight)
    assert np.allclose(layer.weight.grad, numeric, atol=1e-5)


def test_embedding_gradient_accumulates_per_token():
    rng = np.random.default_rng(2)
    embedding = Embedding(5, 3, rng=rng)
    out, cache = embedding([1, 1, 4])
    grad = np.ones_like(out)
    embedding.backward(grad, cache)
    assert np.allclose(embedding.weight.grad[1], 2.0)
    assert np.allclose(embedding.weight.grad[4], 1.0)
    assert np.allclose(embedding.weight.grad[0], 0.0)
    with pytest.raises(ModelError):
        embedding([9])


def test_lstm_gradient_check():
    """Batched BPTT over a ragged batch — the path training runs — against
    central differences: every cell parameter and the inputs, and padded
    rows get a zero input gradient."""
    rng = np.random.default_rng(3)
    lstm = LSTM(3, 4, rng=rng)
    lengths = [5, 2, 4]
    inputs = rng.normal(size=(3, 5, 3))
    targets = rng.normal(size=(3, 5, 4))
    mask = (np.arange(5)[None, :] < np.array(lengths)[:, None])[:, :, None]

    def loss_fn():
        hidden, _ = lstm.forward_batch(inputs)
        return float((((hidden - targets) * mask) ** 2).sum())

    hidden, caches = lstm.forward_batch(inputs)
    lstm.zero_grad()
    grad_inputs = lstm.backward_batch(2.0 * (hidden - targets) * mask, caches)
    for parameter in lstm.parameters():
        numeric = numerical_gradient(loss_fn, parameter)
        np.testing.assert_allclose(parameter.grad, numeric, rtol=0, atol=1e-7)
    numeric_inputs = numerical_gradient(loss_fn, Parameter(inputs))
    np.testing.assert_allclose(grad_inputs, numeric_inputs, rtol=0, atol=1e-7)
    for row, n in enumerate(lengths):
        assert not grad_inputs[row, n:].any()


CACHED_GATES = ("input_gate", "forget_gate", "cell_candidate", "output_gate",
                "c", "tanh_c")


def _lstm_case(batch, input_dim=5, hidden_dim=7, seed=11):
    rng = np.random.default_rng(seed + batch)
    cell = LSTMCell(input_dim, hidden_dim, rng)
    # Large weights push pre-activations through both sigmoid branches and
    # into saturation.
    cell.weight_hidden.value *= 6.0
    cell.bias.value += rng.normal(scale=2.0, size=4 * hidden_dim)
    x = rng.normal(scale=3.0, size=(batch, input_dim))
    h_prev = rng.normal(size=(batch, hidden_dim))
    c_prev = rng.normal(scale=2.0, size=(batch, hidden_dim))
    return cell, x, h_prev, c_prev


@pytest.mark.parametrize("batch", [1, 2, 57, 64])
def test_lstm_forward_batch_bit_equal_to_reference(batch):
    cell, x, h_prev, c_prev = _lstm_case(batch)
    projections = cell.project_input(x)
    expected = reference_lstm_step(cell, projections, h_prev, c_prev)
    h, c = cell.forward_batch(projections, h_prev, c_prev)
    assert_bit_equal(h, expected["h"])
    assert_bit_equal(c, expected["c"])


@pytest.mark.parametrize("batch", [1, 2, 57, 64])
def test_lstm_forward_batch_cached_bit_equal_to_reference(batch):
    cell, x, h_prev, c_prev = _lstm_case(batch)
    expected = reference_lstm_step(cell, x @ cell.weight_input.value,
                                   h_prev, c_prev)
    h, c, cache = cell.forward_batch_cached(x, h_prev, c_prev)
    assert_bit_equal(h, expected["h"])
    assert_bit_equal(c, expected["c"])
    for name in CACHED_GATES:
        assert_bit_equal(cache[name], expected[name])
    assert cache["x"] is x and cache["h_prev"] is h_prev
    assert cache["c_prev"] is c_prev

    # backward_batch reads the cache's gate views exactly like fresh arrays.
    grad_h = np.random.default_rng(batch).normal(size=h.shape)
    grad_c = np.random.default_rng(batch + 1).normal(size=c.shape)
    cell.zero_grad()
    from_views = cell.backward_batch(grad_h, grad_c, cache)
    grads_from_views = [p.grad.copy() for p in cell.parameters()]
    copied = dict(cache, **{name: expected[name].copy()
                            for name in CACHED_GATES})
    cell.zero_grad()
    from_copies = cell.backward_batch(grad_h, grad_c, copied)
    for actual, wanted in zip(from_views, from_copies):
        assert_bit_equal(actual, wanted)
    for actual, parameter in zip(grads_from_views, cell.parameters()):
        assert_bit_equal(actual, parameter.grad)


@pytest.mark.parametrize("seed", range(4))
def test_lstm_backward_batch_bit_equal_to_the_per_gate_reference(seed):
    """Through whole BPTT passes over random ragged batches (padded steps
    with zero gradients, saturated gates), every step's ``(grad_x,
    grad_h_prev, grad_c_prev)`` and the accumulated parameter gradients
    equal the per-gate form's bit for bit — five batches a seed."""
    rng = np.random.default_rng(seed)
    for _ in range(5):
        batch, steps = int(rng.integers(1, 10)), int(rng.integers(1, 25))
        input_dim, hidden_dim = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        lstm = LSTM(input_dim, hidden_dim, rng)
        lstm.cell.weight_hidden.value *= 6.0
        lstm.cell.bias.value += rng.normal(scale=2.0, size=4 * hidden_dim)
        twin = LSTMCell(input_dim, hidden_dim)
        twin.load_state_dict(lstm.cell.state_dict())
        lengths = rng.integers(1, steps + 1, size=batch)
        grad_hidden = rng.normal(size=(batch, steps, hidden_dim))
        grad_hidden[np.arange(steps)[None, :] >= lengths[:, None]] = 0.0
        _, caches = lstm.forward_batch(
            rng.normal(scale=3.0, size=(batch, steps, input_dim)))
        grad_h_next = grad_c_next = np.zeros((batch, hidden_dim))
        for t in range(steps - 1, -1, -1):
            grad_h = grad_hidden[:, t] + grad_h_next
            outputs = lstm.cell.backward_batch(grad_h, grad_c_next, caches[t])
            expected = reference_backward_batch(twin, grad_h, grad_c_next,
                                                caches[t])
            for actual, wanted in zip(outputs, expected):
                assert_bit_equal(actual, wanted)
            _, grad_h_next, grad_c_next = outputs
        for actual, wanted in zip(lstm.cell.parameters(), twin.parameters()):
            assert_bit_equal(actual.grad, wanted.grad)


def test_lstm_forward_single_stream_bit_equal_to_reference():
    """The inference mode without the batch axis is the reference step, and
    it leaves its inputs untouched."""
    cell, x, h_prev, c_prev = _lstm_case(3)
    for row in range(3):
        expected = reference_lstm_step(
            cell, x[row] @ cell.weight_input.value, h_prev[row], c_prev[row])
        before = (h_prev[row].copy(), c_prev[row].copy())
        h, c = cell.forward_batch(cell.project_input(x[row]),
                                  h_prev[row], c_prev[row])
        assert_bit_equal(h, expected["h"])
        assert_bit_equal(c, expected["c"])
        assert_bit_equal(h_prev[row], before[0])
        assert_bit_equal(c_prev[row], before[1])


@pytest.mark.parametrize("steps", [0, 1, 2, 7])
def test_lstm_infer_bit_equal_to_a_loop_of_reference_steps(steps):
    """The path ``OnlineDetector.detect`` runs: 1-D states, one projection
    matrix, every row through the reference step."""
    cell, x, _, _ = _lstm_case(max(steps, 1))
    lstm = LSTM(cell.input_dim, cell.hidden_dim)
    lstm.cell = cell
    projections = cell.project_input(x[:steps])
    h = c = np.zeros(cell.hidden_dim)
    expected = np.empty((steps, cell.hidden_dim))
    for t in range(steps):
        step = reference_lstm_step(cell, projections[t], h, c)
        h, c = step["h"], step["c"]
        expected[t] = h
    assert_bit_equal(lstm.infer(projections)[0], expected)


@settings(max_examples=150, deadline=None)
@given(batch=st.one_of(st.none(), st.integers(1, 64)),
       hidden_dim=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
       exact=st.booleans())
def test_lstm_step_bit_equal_to_reference_on_sigmoid_edges(
        batch, hidden_dim, seed, exact):
    """Every gate block's pre-activations carry the sigmoid's edge values;
    with ``exact`` the recurrent term and bias are zero, so they reach the
    activations unchanged (bar the sign of a zero)."""
    rng = np.random.default_rng(seed)
    cell = LSTMCell(3, hidden_dim, rng)
    cell.weight_hidden.value *= 6.0
    cell.bias.value += rng.normal(scale=2.0, size=4 * hidden_dim)
    if exact:
        cell.weight_hidden.value[:] = 0.0
        cell.bias.value[:] = 0.0
    lead = () if batch is None else (batch,)
    input_term = rng.normal(scale=20.0, size=lead + (4, hidden_dim))
    blocks = input_term.reshape(-1, 4, hidden_dim)
    for gate in range(4):
        block = blocks[:, gate]  # a view: writes land in input_term
        planted = rng.permutation(SIGMOID_EDGE_VALUES)[:block.size]
        cells = rng.choice(block.size, len(planted), replace=False)
        block[np.unravel_index(cells, block.shape)] = planted
    input_term = input_term.reshape(lead + (4 * hidden_dim,))
    h_prev = rng.normal(size=lead + (hidden_dim,))
    c_prev = rng.normal(scale=2.0, size=lead + (hidden_dim,))

    expected = reference_lstm_step(cell, input_term, h_prev, c_prev)
    h, c, tanh_c, gates = cell._step(input_term, h_prev, c_prev)
    assert_bit_equal(h, expected["h"])
    assert_bit_equal(c, expected["c"])
    assert_bit_equal(tanh_c, expected["tanh_c"])
    for name, gate in zip(CACHED_GATES, gates):
        assert_bit_equal(gate, expected[name])


def test_lstm_forward_batch_rejects_wrong_shapes():
    cell = LSTMCell(3, 4)
    with pytest.raises(ModelError):
        cell.forward_batch(np.zeros((2, 15)), np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(ModelError):
        cell.forward_batch(np.zeros((2, 16)), np.zeros((3, 4)), np.zeros((3, 4)))
    with pytest.raises(ModelError):
        cell.forward_batch(np.zeros(16), np.zeros((1, 4)), np.zeros((1, 4)))
    with pytest.raises(ModelError):
        cell.forward_batch(np.zeros((2, 16)), np.zeros((2, 4)), np.zeros((2, 5)))


def test_lstm_rejects_wrong_shapes():
    lstm = LSTM(3, 4)
    with pytest.raises(ModelError):
        lstm.forward_batch(np.zeros((2, 5, 2)))
    with pytest.raises(ModelError):
        lstm.forward_batch(np.zeros((5, 3)))


# ---------------------------------------------------------------- optimizers
def test_adam_reduces_quadratic_loss():
    parameter = Parameter(np.array([5.0, -3.0]))
    optimizer = Adam([parameter], learning_rate=0.1)
    for _ in range(300):
        parameter.zero_grad()
        parameter.grad += 2 * parameter.value
        optimizer.step()
    assert np.allclose(parameter.value, 0.0, atol=1e-2)


def test_optimizer_validation():
    with pytest.raises(ModelError):
        Adam([], learning_rate=0.1)
    with pytest.raises(ModelError):
        Adam([Parameter(np.zeros(1))], learning_rate=0.0)
    with pytest.raises(ModelError):
        Adam([Parameter(np.zeros(1))], learning_rate=-1.0)


#: Parameter lists of the three model families the one ``Adam`` trains:
#: RSRNet (a 646-segment city, the perf fixture's shape), ASDNet over its
#: representation, and a GM-VSAE-family autoencoder.
ADAM_SHAPED_LIKE = {
    "rsrnet": lambda: RSRNet(646, RSRNetConfig()).parameters(),
    "asdnet": lambda: ASDNet(
        RSRNetConfig().hidden_dim + RSRNetConfig().nrf_dim,
        ASDNetConfig()).parameters(),
    "vsae": lambda: SequenceAutoencoder(60, AutoencoderConfig()).parameters(),
}


@pytest.mark.parametrize("family", sorted(ADAM_SHAPED_LIKE))
def test_flat_adam_bit_equal_to_the_per_array_reference(family):
    """Parameters and both moments after 60 steps on random gradients equal
    the per-array form bit for bit. The gradients span twelve orders of
    magnitude and leave some rows at exactly zero, as an embedding's
    untouched rows are; a clipped step and a state-dict reload between
    steps ride along."""
    rng = np.random.default_rng(len(family))
    flat = ADAM_SHAPED_LIKE[family]()
    copies = [Parameter(p.value.copy()) for p in flat]
    adam = Adam(flat, learning_rate=0.01)
    reference = ReferenceAdam(copies, learning_rate=0.01)
    for step in range(60):
        for parameter, copy in zip(flat, copies):
            grad = rng.normal(scale=10.0 ** rng.integers(-8, 4),
                              size=parameter.shape)
            if grad.ndim == 2:
                grad[rng.random(len(grad)) < 0.5] = 0.0
            parameter.zero_grad()
            copy.zero_grad()
            parameter.grad += grad
            copy.grad += grad
        if step % 7 == 3:
            clip_gradients(flat, 1.0)
            clip_gradients(copies, 1.0)
        if step == 30:  # a reload replaces value and grad arrays
            for parameter in flat:
                parameter.value = parameter.value.copy()
                parameter.grad = parameter.grad.copy()
        adam.step()
        reference.step()
    for parameter, copy in zip(flat, copies):
        assert_bit_equal(parameter.value, copy.value)
    assert_bit_equal(adam._m, np.concatenate([m.ravel() for m in reference.m]))
    assert_bit_equal(adam._v, np.concatenate([v.ravel() for v in reference.v]))


def test_clip_gradients_scales_down():
    parameters = [Parameter(np.zeros(4))]
    parameters[0].grad += np.array([3.0, 4.0, 0.0, 0.0])
    norm = clip_gradients(parameters, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(parameters[0].grad) == pytest.approx(1.0)
    with pytest.raises(ModelError):
        clip_gradients(parameters, max_norm=0.0)
