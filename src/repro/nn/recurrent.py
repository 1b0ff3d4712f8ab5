"""The recurrent layer of RSRNet: an LSTM.

The cell implements explicit forward/backward passes so the model can
backpropagate through time without an autograd engine.

It exposes two execution modes over one gate kernel
(:meth:`LSTMCell._step`: pre-activations summed into a fresh gate buffer,
``tanh`` of the candidate taken out, then one sigmoid over the whole buffer):

* **Inference** (:meth:`LSTMCell.forward_batch`) — one step from *precomputed
  input projections*, for a batch of independent streams or one stream
  without the batch axis, with no backward cache. Used by the fleet stream
  engine (where the projection of a road segment's embedding is shared across
  every vehicle on that segment); :meth:`LSTM.infer` runs it over one whole
  sequence, or the rest of one from a stored state, for
  :class:`~repro.core.detector.OnlineDetector`.
* **Training** (:meth:`LSTMCell.forward_batch_cached` /
  :meth:`LSTMCell.backward_batch`, wrapped by :meth:`LSTM.forward_batch` /
  :meth:`LSTM.backward_batch`) — one step for a batch of sequences *with* the
  BPTT cache, used by the training engine, whose batch of one is the paper's
  per-trajectory loop. Ragged batches are padded at the tail; padded
  positions need no explicit masking here because the loss functions zero
  their gradients, which keeps every recurrent gradient flowing out of a
  padded step identically zero.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import ModelError
from .functional import sigmoid
from .module import Module, Parameter, xavier_uniform


class LSTMCell(Module):
    """A single LSTM cell (Hochreiter & Schmidhuber 1997).

    Gate layout in the packed matrices is ``[input, forget, cell, output]``.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if input_dim < 1 or hidden_dim < 1:
            raise ModelError("LSTM dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight_input = Parameter(
            xavier_uniform(rng, input_dim, 4 * hidden_dim, (input_dim, 4 * hidden_dim)),
            name="lstm.weight_input",
        )
        self.weight_hidden = Parameter(
            xavier_uniform(rng, hidden_dim, 4 * hidden_dim, (hidden_dim, 4 * hidden_dim)),
            name="lstm.weight_hidden",
        )
        bias = np.zeros(4 * hidden_dim)
        # Positive forget-gate bias: standard trick to help gradient flow.
        bias[hidden_dim:2 * hidden_dim] = 1.0
        self.bias = Parameter(bias, name="lstm.bias")

    def _step(self, input_term: np.ndarray, h_prev: np.ndarray,
              c_prev: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The one gate kernel behind every forward mode.

        ``input_term`` is ``x @ W_in`` with any leading batch dimensions.
        The pre-activations are summed in a fresh gate buffer; ``tanh`` of
        the candidate block goes into its own array, then one sigmoid
        activates the whole buffer in place (the candidate block's sigmoid
        is never read). Returns ``(h, c, tanh_c, gates)``, the gates being
        three views of the buffer and the candidate array; the training
        mode keeps them as its BPTT cache, inference drops them.
        """
        h_dim = self.hidden_dim
        gates = h_prev @ self.weight_hidden.value
        np.add(input_term, gates, out=gates)
        gates += self.bias.value
        candidate = np.tanh(gates[..., 2 * h_dim:3 * h_dim])
        sigmoid(gates, out=gates)
        input_gate = gates[..., :h_dim]
        forget_gate = gates[..., h_dim:2 * h_dim]
        output_gate = gates[..., 3 * h_dim:]
        c = forget_gate * c_prev
        c += input_gate * candidate
        tanh_c = np.tanh(c)
        return (output_gate * tanh_c, c, tanh_c,
                (input_gate, forget_gate, candidate, output_gate))

    def project_input(self, x: np.ndarray) -> np.ndarray:
        """The input's contribution ``x @ W_in`` to the gate pre-activations.

        For a fixed input this vector never changes between steps, so callers
        that see the same input many times (e.g. the same road segment across
        a fleet of streams) can compute it once and cache it.
        """
        return np.asarray(x, dtype=np.float64) @ self.weight_input.value

    def forward_batch(
        self, input_projections: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One inference step from precomputed input projections.

        ``input_projections`` holds :meth:`project_input` of each stream's
        input, shape ``(B, 4 * hidden_dim)``; ``h_prev`` and ``c_prev`` have
        shape ``(B, hidden_dim)``. A single stream may drop the batch axis
        (``(4 * hidden_dim,)`` and ``(hidden_dim,)``). Returns ``(h, c)``;
        no backward cache is kept — this is the online detection path.
        """
        input_projections = np.asarray(input_projections, dtype=np.float64)
        h_prev = np.asarray(h_prev, dtype=np.float64)
        c_prev = np.asarray(c_prev, dtype=np.float64)
        h_dim = self.hidden_dim
        if (input_projections.ndim not in (1, 2)
                or input_projections.shape[-1] != 4 * h_dim):
            raise ModelError(
                f"input projections must have shape (B, {4 * h_dim}), "
                f"got {input_projections.shape}")
        if (h_prev.shape != c_prev.shape
                or h_prev.shape != input_projections.shape[:-1] + (h_dim,)):
            raise ModelError("hidden/cell states must have shape (B, hidden_dim)")
        return self._step(input_projections, h_prev, c_prev)[:2]

    def forward_batch_cached(
        self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, dict]:
        """One step for a batch of independent sequences, keeping the cache.

        ``x`` has shape ``(B, input_dim)``; ``h_prev`` and ``c_prev`` have
        shape ``(B, hidden_dim)``. Returns ``(h, c, cache)`` where the cache
        feeds :meth:`backward_batch`. This is the training counterpart of
        :meth:`forward_batch` (which takes precomputed input projections and
        builds no cache).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ModelError(
                f"inputs must have shape (B, {self.input_dim}), got {x.shape}")
        h, c, tanh_c, (input_gate, forget_gate, candidate, output_gate) = (
            self._step(x @ self.weight_input.value, h_prev, c_prev))
        return h, c, {
            "x": x, "h_prev": h_prev, "c_prev": c_prev,
            # The (B, 4H) buffer the three sigmoid gates are views of.
            "gates": input_gate.base,
            "input_gate": input_gate, "forget_gate": forget_gate,
            "cell_candidate": candidate, "output_gate": output_gate,
            "c": c, "tanh_c": tanh_c,
        }

    def backward_batch(
        self, grad_h: np.ndarray, grad_c: np.ndarray, cache: dict
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One backward step for a batch.

        All gradients have shape ``(B, hidden_dim)`` and the cache must come
        from :meth:`forward_batch_cached`. Returns
        ``(grad_x, grad_h_prev, grad_c_prev)``. Rows whose incoming gradients
        are zero (padded positions of ragged batches) contribute nothing to
        the parameter gradients.
        """
        gates = cache["gates"]
        cell_candidate = cache["cell_candidate"]
        tanh_c = cache["tanh_c"]
        h_dim = self.hidden_dim

        grad_c_total = grad_c + grad_h * cache["output_gate"] * (1.0 - tanh_c ** 2)
        # Back through the gate nonlinearities, on one (B, 4H) buffer: each
        # sigmoid gate's gradient times g * (1 - g) against the cached gate
        # buffer, then the candidate block overwritten with its tanh's.
        # Zeros, not empty: that block goes through both products first.
        d_gates = np.zeros(gates.shape)
        np.multiply(grad_c_total, cell_candidate, out=d_gates[:, :h_dim])
        np.multiply(grad_c_total, cache["c_prev"],
                    out=d_gates[:, h_dim:2 * h_dim])
        np.multiply(grad_h, tanh_c, out=d_gates[:, 3 * h_dim:])
        d_gates *= gates
        d_gates *= 1.0 - gates
        grad_candidate = d_gates[:, 2 * h_dim:3 * h_dim]
        np.multiply(grad_c_total, cache["input_gate"], out=grad_candidate)
        grad_candidate *= 1.0 - cell_candidate ** 2
        self.weight_input.grad += cache["x"].T @ d_gates
        self.weight_hidden.grad += cache["h_prev"].T @ d_gates
        self.bias.grad += d_gates.sum(axis=0)

        grad_x = d_gates @ self.weight_input.value.T
        grad_h_prev = d_gates @ self.weight_hidden.value.T
        return grad_x, grad_h_prev, grad_c_total * cache["forget_gate"]


class LSTM(Module):
    """An LSTM over a whole sequence with backpropagation through time."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, rng)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim

    def infer(self, input_projections: np.ndarray, h=None, c=None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Hidden and cell states of one sequence from its precomputed input
        projections.

        ``input_projections`` is :meth:`LSTMCell.project_input` of the whole
        sequence, shape ``(T, 4 * hidden_dim)`` — checked once here, then
        ``T`` cache-free gate kernels from ``(h, c)`` (default: the zero
        state). Returns the hidden and the cell states, each
        ``(T, hidden_dim)``; the inference counterpart of
        :meth:`forward_batch` for one sequence.
        """
        input_projections = np.asarray(input_projections, dtype=np.float64)
        if (input_projections.ndim != 2
                or input_projections.shape[1] != 4 * self.hidden_dim):
            raise ModelError(
                f"input projections must have shape (T, {4 * self.hidden_dim}), "
                f"got {input_projections.shape}")
        step = self.cell._step
        if h is None:
            h = c = np.zeros(self.hidden_dim)
        hidden_states = np.empty((len(input_projections), self.hidden_dim))
        cell_states = np.empty_like(hidden_states)
        for t, projection in enumerate(input_projections):
            h, c = step(projection, h, c)[:2]
            hidden_states[t] = h
            cell_states[t] = c
        return hidden_states, cell_states

    def forward_batch(self, inputs: np.ndarray) -> Tuple[np.ndarray, List[dict]]:
        """Run the LSTM over a batch of sequences, shape ``(B, T, input_dim)``,
        from the zero state.

        Ragged batches must be padded at the tail (any valid values); padded
        steps are rendered inert by zeroing their loss gradients before
        :meth:`backward_batch`. Returns the hidden states ``(B, T, hidden)``
        and the per-step caches.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[2] != self.input_dim:
            raise ModelError(
                f"inputs must have shape (B, T, {self.input_dim}), "
                f"got {inputs.shape}")
        batch, steps = inputs.shape[:2]
        h = c = np.zeros((batch, self.hidden_dim))
        hidden_states = np.zeros((batch, steps, self.hidden_dim))
        caches: List[dict] = []
        for t in range(steps):
            h, c, cache = self.cell.forward_batch_cached(inputs[:, t], h, c)
            hidden_states[:, t] = h
            caches.append(cache)
        return hidden_states, caches

    def backward_batch(self, grad_hidden: np.ndarray,
                       caches: List[dict]) -> np.ndarray:
        """Batched backpropagation through time.

        ``grad_hidden`` has shape ``(B, T, hidden_dim)`` with zeros at padded
        positions; the return value is the gradient with respect to the
        inputs, shape ``(B, T, input_dim)``.
        """
        grad_hidden = np.asarray(grad_hidden, dtype=np.float64)
        if not caches:
            raise ModelError("backward_batch needs the forward caches")
        batch = len(caches[0]["x"])
        if grad_hidden.shape != (batch, len(caches), self.hidden_dim):
            raise ModelError("grad_hidden shape must match the forward pass")
        grad_inputs = np.zeros((batch, len(caches), self.input_dim))
        grad_h_next = np.zeros((batch, self.hidden_dim))
        grad_c_next = np.zeros((batch, self.hidden_dim))
        for t in range(len(caches) - 1, -1, -1):
            grad_h = grad_hidden[:, t] + grad_h_next
            grad_x, grad_h_next, grad_c_next = self.cell.backward_batch(
                grad_h, grad_c_next, caches[t])
            grad_inputs[:, t] = grad_x
        return grad_inputs
