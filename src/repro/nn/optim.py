"""Optimizers: SGD and Adam, plus global-norm gradient clipping."""

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


class SGD:
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Parameter], learning_rate: float,
                 momentum: float = 0.0):
        if learning_rate <= 0:
            raise ModelError("learning_rate must be positive")
        if not (0.0 <= momentum < 1.0):
            raise ModelError("momentum must be in [0, 1)")
        self._parameters: List[Parameter] = list(parameters)
        if not self._parameters:
            raise ModelError("optimizer needs at least one parameter")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.value) for p in self._parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self._parameters, self._velocity):
            if self.momentum > 0:
                velocity *= self.momentum
                velocity -= self.learning_rate * parameter.grad
                parameter.value += velocity
            else:
                parameter.value -= self.learning_rate * parameter.grad

    def zero_grad(self) -> None:
        for parameter in self._parameters:
            parameter.zero_grad()


class Adam:
    """Adam optimizer (Kingma & Ba, 2015)."""

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
        # Calloc-backed (see Parameter.grad): no RAM until the first step.
        self._m = [np.zeros(p.value.shape) for p in self._parameters]
        self._v = [np.zeros(p.value.shape) for p in self._parameters]

    def step(self) -> None:
        self._step += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step
        bias_correction2 = 1.0 - self.beta2 ** self._step
        for parameter, m, v in zip(self._parameters, self._m, self._v):
            grad = parameter.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            parameter.value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for parameter in self._parameters:
            parameter.zero_grad()
