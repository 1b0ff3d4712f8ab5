"""Minimal neural-network substrate in numpy.

The paper implements RSRNet and ASDNet with TensorFlow; no deep-learning
framework is available offline, so this package implements exactly the layers
the paper needs — embeddings, linear layers, an LSTM with full
backpropagation-through-time, softmax / cross-entropy losses, and the Adam
optimizer — on plain numpy arrays.

The API is intentionally small and explicit: modules own
:class:`~repro.nn.module.Parameter` objects holding ``value`` and ``grad``
arrays, forward passes return caches that the corresponding backward passes
consume, and optimizers update the parameters of a module tree in place.
"""

from .module import Module, Parameter
from .layers import Embedding, Linear
from .recurrent import LSTM, LSTMCell
from .losses import (
    cross_entropy_from_logits,
    sequence_cross_entropy_from_logits,
    softmax,
    log_softmax,
)
from .functional import cosine_similarity_rows, sigmoid, tanh
from .optim import Adam, clip_gradients

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LSTM",
    "LSTMCell",
    "softmax",
    "log_softmax",
    "cross_entropy_from_logits",
    "sequence_cross_entropy_from_logits",
    "cosine_similarity_rows",
    "sigmoid",
    "tanh",
    "Adam",
    "clip_gradients",
]
