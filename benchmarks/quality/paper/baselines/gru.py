"""The GRU of the VSAE-family baselines, with explicit backpropagation
through time.

Built on the :mod:`repro.nn` primitives (``Module``, ``Parameter``, the
stable ``sigmoid``) like the library's LSTM; RSRNet does not use it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.nn.functional import sigmoid, tanh
from repro.nn.module import Module, Parameter, xavier_uniform


class GRUCell(Module):
    """A single GRU cell (Cho et al. 2014), used by the VSAE-family baselines."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if input_dim < 1 or hidden_dim < 1:
            raise ModelError("GRU dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight_input = Parameter(
            xavier_uniform(rng, input_dim, 3 * hidden_dim, (input_dim, 3 * hidden_dim)),
            name="gru.weight_input",
        )
        self.weight_hidden = Parameter(
            xavier_uniform(rng, hidden_dim, 3 * hidden_dim, (hidden_dim, 3 * hidden_dim)),
            name="gru.weight_hidden",
        )
        self.bias = Parameter(np.zeros(3 * hidden_dim), name="gru.bias")

    def forward(self, x: np.ndarray, h_prev: np.ndarray) -> Tuple[np.ndarray, dict]:
        """One step. Gate layout is ``[update, reset, candidate]``."""
        x = np.asarray(x, dtype=np.float64)
        h_dim = self.hidden_dim
        projected_input = x @ self.weight_input.value + self.bias.value
        projected_hidden = h_prev @ self.weight_hidden.value
        update_reset = sigmoid(projected_input[:2 * h_dim]
                               + projected_hidden[:2 * h_dim])
        update_gate, reset_gate = update_reset[:h_dim], update_reset[h_dim:]
        candidate = tanh(projected_input[2 * h_dim:]
                         + reset_gate * projected_hidden[2 * h_dim:])
        h = (1.0 - update_gate) * h_prev + update_gate * candidate
        cache = {
            "x": x, "h_prev": h_prev, "update_gate": update_gate,
            "reset_gate": reset_gate, "candidate": candidate,
            "projected_hidden_candidate": projected_hidden[2 * h_dim:],
        }
        return h, cache

    def backward(self, grad_h: np.ndarray, cache: dict) -> Tuple[np.ndarray, np.ndarray]:
        """One backward step. Returns ``(grad_x, grad_h_prev)``."""
        h_dim = self.hidden_dim
        update_gate = cache["update_gate"]
        reset_gate = cache["reset_gate"]
        candidate = cache["candidate"]
        h_prev = cache["h_prev"]

        grad_candidate = grad_h * update_gate
        grad_update = grad_h * (candidate - h_prev)
        grad_h_prev = grad_h * (1.0 - update_gate)

        d_candidate_pre = grad_candidate * (1.0 - candidate ** 2)
        d_update_pre = grad_update * update_gate * (1.0 - update_gate)
        grad_reset = d_candidate_pre * cache["projected_hidden_candidate"]
        d_reset_pre = grad_reset * reset_gate * (1.0 - reset_gate)

        d_projected_input = np.concatenate([d_update_pre, d_reset_pre, d_candidate_pre])
        d_projected_hidden = np.concatenate([
            d_update_pre, d_reset_pre, d_candidate_pre * reset_gate])

        self.weight_input.grad += np.outer(cache["x"], d_projected_input)
        self.weight_hidden.grad += np.outer(h_prev, d_projected_hidden)
        self.bias.grad += d_projected_input

        grad_x = self.weight_input.value @ d_projected_input
        grad_h_prev = grad_h_prev + self.weight_hidden.value @ d_projected_hidden
        return grad_x, grad_h_prev


class GRU(Module):
    """A GRU over a whole sequence with backpropagation through time."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim, rng)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim

    def forward(
        self, inputs: np.ndarray, h0: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, List[dict]]:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.input_dim:
            raise ModelError(
                f"inputs must have shape (T, {self.input_dim}), got {inputs.shape}")
        h = np.zeros(self.hidden_dim) if h0 is None else np.asarray(h0, dtype=np.float64)
        hidden_states = np.zeros((len(inputs), self.hidden_dim))
        caches: List[dict] = []
        for t, x in enumerate(inputs):
            h, cache = self.cell.forward(x, h)
            hidden_states[t] = h
            caches.append(cache)
        return hidden_states, caches

    def backward(self, grad_hidden: np.ndarray, caches: List[dict]
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Backpropagate gradients of every hidden state through time.

        Returns ``(grad_inputs, grad_h0)``: the gradient with respect to the
        inputs, shape ``(T, input_dim)``, and with respect to the initial
        hidden state ``h0``, shape ``(hidden_dim,)`` — what a model that
        computes ``h0`` (the VSAE decoder, from its latent) backpropagates.
        """
        grad_hidden = np.asarray(grad_hidden, dtype=np.float64)
        if grad_hidden.shape != (len(caches), self.hidden_dim):
            raise ModelError("grad_hidden shape must match the forward pass")
        grad_inputs = np.zeros((len(caches), self.input_dim))
        grad_h_next = np.zeros(self.hidden_dim)
        for t in range(len(caches) - 1, -1, -1):
            grad_x, grad_h_next = self.cell.backward(
                grad_hidden[t] + grad_h_next, caches[t])
            grad_inputs[t] = grad_x
        return grad_inputs, grad_h_next
