"""RSRNet and ASDNet one segment, one decision, one trajectory at a time.

The library keeps one form of each network: the padded-batch training form
and the route / batch inference form. This module is the tests' other
reading of the paper, the scalar form, written over the ``repro.nn`` layer
primitives (``Embedding`` / ``Linear`` forward and backward,
``cross_entropy_from_logits``, ``clip_gradients``) and the parameters of a
real :class:`~repro.core.rsrnet.RSRNet` / :class:`~repro.core.asdnet.ASDNet`.
The LSTM step (:func:`reference_lstm_step`) and its backpropagation through
time are spelled out here, the training forms keep their own Adam
(:class:`ReferenceAdam`, one pass per parameter array) and REINFORCE
baseline, and nothing is shared with ``LSTMCell._step``, the batch forms,
the flat ``repro.nn.Adam`` or :mod:`repro.core.decision` — which is what lets
``reference_detector.py`` and ``reference_trainer.py``, built on it, anchor
``OnlineDetector``, ``StreamEngine`` and ``RL4OASDTrainer``. Inputs are
trusted: nothing here re-checks shapes or label ranges.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import clip_gradients, cross_entropy_from_logits

#: Momentum of the moving-average REINFORCE baseline (ASDNet's).
BASELINE_MOMENTUM = 0.9


def numerical_gradient(f, parameter, eps=1e-5):
    """Central differences of the scalar ``f()`` in every entry of
    ``parameter.value`` — the reference of every backward pass."""
    grad = np.zeros_like(parameter.value)
    it = np.nditer(parameter.value, flags=["multi_index"])
    while not it.finished:
        index = it.multi_index
        original = parameter.value[index]
        parameter.value[index] = original + eps
        plus = f()
        parameter.value[index] = original - eps
        minus = f()
        parameter.value[index] = original
        grad[index] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


# ------------------------------------------------------------------- the LSTM
def reference_sigmoid(x):
    """The masked two-branch sigmoid the library shipped before the
    branch-free form; kept as the bit-level oracle for it."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    negative = ~positive
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[negative])
    out[negative] = exp_x / (1.0 + exp_x)
    return out


def reference_lstm_step(cell, input_term, h_prev, c_prev):
    """The LSTM step as the forward modes each spelled it out before they
    shared one kernel: same expression tree, masked sigmoid, every gate a
    fresh array. Returns everything a forward mode or its cache exposes."""
    h_dim = cell.hidden_dim
    gates = (input_term
             + h_prev @ cell.weight_hidden.value
             + cell.bias.value)
    input_gate = reference_sigmoid(gates[..., :h_dim])
    forget_gate = reference_sigmoid(gates[..., h_dim:2 * h_dim])
    cell_candidate = np.tanh(gates[..., 2 * h_dim:3 * h_dim])
    output_gate = reference_sigmoid(gates[..., 3 * h_dim:])
    c = forget_gate * c_prev + input_gate * cell_candidate
    tanh_c = np.tanh(c)
    return {
        "h": output_gate * tanh_c, "c": c, "tanh_c": tanh_c,
        "input_gate": input_gate, "forget_gate": forget_gate,
        "cell_candidate": cell_candidate, "output_gate": output_gate,
    }


def lstm_forward(cell, inputs: np.ndarray) -> Tuple[np.ndarray, List[dict]]:
    """Hidden states ``(T, H)`` of one sequence ``(T, D)`` from the zero
    state, and the per-step records :func:`lstm_backward` reads."""
    h = c = np.zeros(cell.hidden_dim)
    hidden = np.empty((len(inputs), cell.hidden_dim))
    steps = []
    for t, x in enumerate(inputs):
        step = reference_lstm_step(cell, x @ cell.weight_input.value, h, c)
        steps.append(dict(step, x=x, h_prev=h, c_prev=c))
        h, c = step["h"], step["c"]
        hidden[t] = h
    return hidden, steps


def lstm_backward(cell, grad_hidden: np.ndarray,
                  steps: List[dict]) -> np.ndarray:
    """Backpropagation through time for one sequence: adds the parameter
    gradients to ``cell``'s and returns the gradient of the inputs."""
    grad_inputs = np.empty((len(steps), cell.input_dim))
    grad_h_next = grad_c_next = np.zeros(cell.hidden_dim)
    for t in range(len(steps) - 1, -1, -1):
        step = steps[t]
        i, f = step["input_gate"], step["forget_gate"]
        g, o = step["cell_candidate"], step["output_gate"]
        tanh_c = step["tanh_c"]
        grad_h = grad_hidden[t] + grad_h_next
        grad_c = grad_c_next + grad_h * o * (1.0 - tanh_c ** 2)
        d_gates = np.concatenate([
            grad_c * g * i * (1.0 - i),
            grad_c * step["c_prev"] * f * (1.0 - f),
            grad_c * i * (1.0 - g ** 2),
            grad_h * tanh_c * o * (1.0 - o),
        ])
        cell.weight_input.grad += np.outer(step["x"], d_gates)
        cell.weight_hidden.grad += np.outer(step["h_prev"], d_gates)
        cell.bias.grad += d_gates
        grad_inputs[t] = cell.weight_input.value @ d_gates
        grad_h_next = cell.weight_hidden.value @ d_gates
        grad_c_next = grad_c * f
    return grad_inputs


def reference_backward_batch(cell, grad_h, grad_c, cache):
    """``LSTMCell.backward_batch`` as it was before it built the gate
    gradients on one buffer: every gate's gradient a fresh array, one
    ``concatenate``. The bit-level oracle of that kernel."""
    input_gate = cache["input_gate"]
    forget_gate = cache["forget_gate"]
    cell_candidate = cache["cell_candidate"]
    output_gate = cache["output_gate"]
    tanh_c = cache["tanh_c"]

    grad_output_gate = grad_h * tanh_c
    grad_c_total = grad_c + grad_h * output_gate * (1.0 - tanh_c ** 2)
    grad_input_gate = grad_c_total * cell_candidate
    grad_forget_gate = grad_c_total * cache["c_prev"]
    grad_cell_candidate = grad_c_total * input_gate

    d_gates = np.concatenate([
        grad_input_gate * input_gate * (1.0 - input_gate),
        grad_forget_gate * forget_gate * (1.0 - forget_gate),
        grad_cell_candidate * (1.0 - cell_candidate ** 2),
        grad_output_gate * output_gate * (1.0 - output_gate),
    ], axis=-1)
    cell.weight_input.grad += cache["x"].T @ d_gates
    cell.weight_hidden.grad += cache["h_prev"].T @ d_gates
    cell.bias.grad += d_gates.sum(axis=0)

    grad_x = d_gates @ cell.weight_input.value.T
    grad_h_prev = d_gates @ cell.weight_hidden.value.T
    return grad_x, grad_h_prev, grad_c_total * forget_gate


# ---------------------------------------------------------------- optimizer
class ReferenceAdam:
    """Adam one parameter array at a time, each update a chain of fresh
    arrays: ``repro.nn.Adam`` as it was before its moments went flat, and
    the bit-level oracle of the flat form's parameters and moments."""

    def __init__(self, parameters, learning_rate=1e-3, beta1=0.9,
                 beta2=0.999, eps=1e-8):
        self.parameters = list(parameters)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.steps = 0
        self.m = [np.zeros(p.value.shape) for p in self.parameters]
        self.v = [np.zeros(p.value.shape) for p in self.parameters]

    def step(self) -> None:
        self.steps += 1
        bias_correction1 = 1.0 - self.beta1 ** self.steps
        bias_correction2 = 1.0 - self.beta2 ** self.steps
        for parameter, m, v in zip(self.parameters, self.m, self.v):
            grad = parameter.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            parameter.value -= (self.learning_rate * m_hat
                                / (np.sqrt(v_hat) + self.eps))


# ------------------------------------------------------------------- RSRNet
def rsrnet_step(rsrnet, h: np.ndarray, c: np.ndarray, token: int, nrf: int
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One new segment: ``(z_i, h_i, c_i)`` from ``(h_{i-1}, c_{i-1})``."""
    cell = rsrnet.lstm.cell
    step = reference_lstm_step(
        cell, rsrnet.segment_embedding.vector(token) @ cell.weight_input.value,
        h, c)
    z = np.concatenate([step["h"], rsrnet.nrf_embedding.vector(nrf)])
    return z, step["h"], step["c"]


def hidden_states(rsrnet, tokens: Sequence[int]) -> np.ndarray:
    """``h_i`` of every segment of one route, shape ``(len(tokens), H)``:
    one input-projection matmul for the route, then the library's
    :meth:`~repro.nn.recurrent.LSTM.infer` from the zero state — the route
    pass ``OnlineDetector`` ran before it kept prefix states, and the one
    helper here that runs the library's kernel: it is the bit-level oracle
    of the states the detector stores."""
    return rsrnet.lstm.infer(rsrnet.lstm.cell.project_input(
        rsrnet.segment_embedding.vectors(tokens)))[0]


class ReferenceRSRNet:
    """Whole-trajectory forward, loss and gradient step of ``rsrnet``."""

    def __init__(self, rsrnet):
        self.rsrnet = rsrnet
        self.optimizer = ReferenceAdam(
            rsrnet.parameters(), learning_rate=rsrnet.config.learning_rate)

    def forward(self, tokens: Sequence[int], nrf: Sequence[int]):
        """``(z, logits, caches)`` of one trajectory; ``z`` is ``(n, D)``."""
        net = self.rsrnet
        embedded, embed_cache = net.segment_embedding(tokens)
        hidden, lstm_steps = lstm_forward(net.lstm.cell, embedded)
        nrf_embedded, nrf_cache = net.nrf_embedding(nrf)
        z = np.concatenate([hidden, nrf_embedded], axis=1)
        logits, classifier_cache = net.classifier(z)
        return z, logits, (embed_cache, lstm_steps, nrf_cache, classifier_cache)

    def loss(self, tokens, nrf, labels) -> float:
        _, logits, _ = self.forward(tokens, nrf)
        return cross_entropy_from_logits(logits, labels)[0]

    def train_step(self, tokens, nrf, labels) -> float:
        """One clipped Adam step against ``labels``; returns the loss."""
        net = self.rsrnet
        net.zero_grad()
        _, logits, caches = self.forward(tokens, nrf)
        embed_cache, lstm_steps, nrf_cache, classifier_cache = caches
        loss, grad_logits = cross_entropy_from_logits(logits, labels)
        grad_z = net.classifier.backward(grad_logits, classifier_cache)
        hidden_dim = net.config.hidden_dim
        net.nrf_embedding.backward(grad_z[:, hidden_dim:], nrf_cache)
        grad_embedded = lstm_backward(net.lstm.cell, grad_z[:, :hidden_dim],
                                      lstm_steps)
        net.segment_embedding.backward(grad_embedded, embed_cache)
        clip_gradients(net.parameters(), net.config.grad_clip)
        self.optimizer.step()
        return loss


# ------------------------------------------------------------------- ASDNet
def policy(asdnet, z: np.ndarray, previous_label: int):
    """``pi(. | [z ; v(previous_label)])`` and the caches of its backward."""
    label_vector, label_cache = asdnet.label_embedding([previous_label])
    logits, state_cache = asdnet.policy(np.concatenate([z, label_vector[0]]))
    probabilities = np.exp(logits - logits.max())
    return probabilities / probabilities.sum(), state_cache, label_cache


def greedy_action(asdnet, z: np.ndarray, previous_label: int) -> int:
    return int(np.argmax(policy(asdnet, z, previous_label)[0]))


class ReferenceASDNet:
    """Sampled or forced decisions of ``asdnet`` and its REINFORCE update,
    one episode at a time."""

    def __init__(self, asdnet):
        self.asdnet = asdnet
        self.optimizer = ReferenceAdam(
            asdnet.parameters(), learning_rate=asdnet.config.learning_rate)
        self.baseline: Optional[float] = None

    def decide(self, z, previous_label, rng=None, action=None):
        """``(action, decision)``: ``action`` drawn with ``rng.choice`` from
        the policy, or the forced one; ``decision`` is what
        :meth:`reinforce_update` learns from."""
        probabilities, state_cache, label_cache = policy(
            self.asdnet, z, previous_label)
        if action is None:
            action = int(rng.choice(2, p=probabilities))
        return action, (probabilities, action, state_cache, label_cache)

    def reinforce_update(self, decisions, value: float,
                         use_baseline: bool) -> None:
        """Equation 4 for one episode: gradients ``-A * d log pi(a|s)``,
        ``A`` the return less the moving-average baseline (or the return
        itself), then one clipped Adam step."""
        if not decisions:
            return
        advantage = value
        if use_baseline:
            if self.baseline is None:
                self.baseline = value
            advantage = value - self.baseline
            self.baseline = (BASELINE_MOMENTUM * self.baseline
                             + (1.0 - BASELINE_MOMENTUM) * value)
        net = self.asdnet
        net.zero_grad()
        for probabilities, action, state_cache, label_cache in decisions:
            grad_logits = probabilities.copy()
            grad_logits[action] -= 1.0
            grad_logits *= advantage
            grad_state = net.policy.backward(grad_logits, state_cache)
            net.label_embedding.backward(
                grad_state[None, net.representation_dim:], label_cache)
        clip_gradients(net.parameters(), net.config.grad_clip)
        self.optimizer.step()


# ------------------------------------------------- RNEL and the rewards
def rnel_from_degrees(out_degree: int, in_degree: int,
                      previous_label: int) -> Optional[int]:
    """The paper's three Road Network Enhanced Labeling rules over
    ``out_degree = e_{i-1}.out`` and ``in_degree = e_i.in``; ``None`` when
    the policy decides. The scalar reading of the rules, against which
    :func:`repro.core.decision.rnel_masks` and ``rnel_fixed_batch`` are
    pinned."""
    if out_degree == 1 and in_degree == 1:
        return previous_label
    if out_degree == 1 and in_degree > 1 and previous_label == 0:
        return 0
    if out_degree > 1 and in_degree == 1 and previous_label == 1:
        return 1
    return None


def rnel(network, previous_segment: int, segment: int,
         previous_label: int) -> Optional[int]:
    """:func:`rnel_from_degrees` of ``segment`` after ``previous_segment``."""
    return rnel_from_degrees(network.out_degree(previous_segment),
                             network.in_degree(segment), previous_label)


def local_reward(z_previous, z_current, label_previous, label_current) -> float:
    """Equation 2: ± the cosine similarity of adjacent representations,
    0 when either is (near) zero."""
    norm_previous = np.linalg.norm(z_previous)
    norm_current = np.linalg.norm(z_current)
    if norm_previous < 1e-12 or norm_current < 1e-12:
        return 0.0
    cosine = float(np.dot(z_previous, z_current)
                   / (norm_previous * norm_current))
    return cosine if label_previous == label_current else -cosine


def global_reward(rsrnet_loss: float) -> float:
    """Equation 3."""
    return 1.0 / (1.0 + rsrnet_loss)


def episode_return(local_rewards: Sequence[float], global_value: float) -> float:
    """Equation 5: the mean local reward plus the global reward."""
    if not local_rewards:
        return global_value
    return float(np.mean(local_rewards)) + global_value
