"""The Adam optimizer, plus global-norm gradient clipping."""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from ..exceptions import ModelError
from .module import Parameter


def clip_gradients(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm does not exceed ``max_norm``.

    Returns the pre-clipping norm.
    """
    if max_norm <= 0:
        raise ModelError("max_norm must be positive")
    total = 0.0
    for parameter in parameters:
        total += float((parameter.grad ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for parameter in parameters:
            parameter.grad *= scale
    return norm


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) over flat moments.

    Both moments are one vector over every parameter, in parameter order.
    A step gathers the gradients into a scratch vector with one
    ``concatenate``, runs the update once over the whole vector and
    subtracts each parameter's slice of it from its value: per element the
    same operations, in the same order, as one pass per parameter array
    (``tests/reference_networks.py`` keeps that form and pins the two
    bit-equal), at a few numpy calls per step instead of a dozen per array.
    Parameters are read at every step, never aliased into the vectors, so a
    :meth:`~repro.nn.module.Module.load_state_dict` between steps is safe.
    """

    def __init__(self, parameters: Iterable[Parameter], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if learning_rate <= 0:
            raise ModelError("learning_rate must be positive")
        self._parameters: List[Parameter] = list(parameters)
        if not self._parameters:
            raise ModelError("optimizer needs at least one parameter")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step = 0
        size = sum(p.value.size for p in self._parameters)
        # Calloc-backed (see Parameter.grad): no RAM until the first step.
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        # The gathered gradients, the update and each parameter's slice of
        # it shaped like its value: allocated by the first step, so a model
        # that never trains never holds them.
        self._grad = self._update = np.empty(0)
        self._updates: List[np.ndarray] = []

    def step(self) -> None:
        self._step += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step
        bias_correction2 = 1.0 - self.beta2 ** self._step
        if not self._updates:
            self._grad = np.empty_like(self._m)
            self._update = np.empty_like(self._m)
            ends = np.cumsum([p.value.size for p in self._parameters])
            self._updates = [
                self._update[end - p.value.size:end].reshape(p.value.shape)
                for p, end in zip(self._parameters, ends)]
        grad, update, m, v = self._grad, self._update, self._m, self._v
        np.concatenate([p.grad for p in self._parameters], axis=None, out=grad)
        m *= self.beta1
        np.multiply(1.0 - self.beta1, grad, out=update)
        m += update
        v *= self.beta2
        np.multiply(1.0 - self.beta2, grad, out=update)
        update *= grad
        v += update
        # update = lr * (m / bc1) / (sqrt(v / bc2) + eps); grad is free now.
        np.divide(m, bias_correction1, out=update)
        np.multiply(self.learning_rate, update, out=update)
        np.divide(v, bias_correction2, out=grad)
        np.sqrt(grad, out=grad)
        grad += self.eps
        update /= grad
        for parameter, parameter_update in zip(self._parameters, self._updates):
            parameter.value -= parameter_update

    def zero_grad(self) -> None:
        for parameter in self._parameters:
            parameter.zero_grad()
