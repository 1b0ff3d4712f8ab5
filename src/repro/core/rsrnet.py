"""RSRNet — the Road Segment Representation Network (Section IV-C).

For every road segment of a trajectory RSRNet produces a representation

``z_i = [h_i ; x^n_i]``

where ``h_i`` is the hidden state of an LSTM running over the trajectory's
traffic-context-feature (TCF) embeddings and ``x^n_i`` is the embedded normal
route feature (NRF). A linear classifier over ``z_i`` predicts the segment's
normal/anomalous label and is trained with cross-entropy against noisy labels
(pre-training) or the labels refined by ASDNet (joint training).

The network has two forms: the padded-batch training form
(:meth:`RSRNet.forward_batch_train`, :meth:`RSRNet.train_step_batch`), whose
batch of one is the paper's per-trajectory step, and the inference form —
:meth:`~repro.nn.recurrent.LSTM.infer` over one route's projections,
:meth:`RSRNet.step_batch` one segment per stream.
Inference callers keep ``h_i`` per route prefix
(:class:`~repro.core.stream.PrefixStates`); the two mutators,
:meth:`RSRNet.train_step_batch` and :meth:`RSRNet.load_state_dict`, bump the
:attr:`RSRNet.weights_version` such tables check.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..config import RSRNetConfig
from ..exceptions import ModelError
from ..nn.layers import Embedding, Linear
from ..nn.losses import sequence_cross_entropy_from_logits
from ..nn.module import Module
from ..nn.optim import Adam, clip_gradients
from ..nn.recurrent import LSTM


class RSRNet(Module):
    """The Road Segment Representation Network."""

    NUM_CLASSES = 2

    def __init__(
        self,
        vocabulary_size: int,
        config: Optional[RSRNetConfig] = None,
        pretrained_embeddings: Optional[np.ndarray] = None,
    ):
        super().__init__()
        self._config = (config or RSRNetConfig()).validate()
        config = self._config
        if vocabulary_size < 1:
            raise ModelError("vocabulary_size must be positive")
        rng = np.random.default_rng(config.seed)
        if pretrained_embeddings is not None:
            pretrained_embeddings = np.asarray(pretrained_embeddings, dtype=np.float64)
            if pretrained_embeddings.shape != (vocabulary_size, config.embedding_dim):
                raise ModelError(
                    "pretrained embeddings must have shape "
                    f"({vocabulary_size}, {config.embedding_dim})")
        self.segment_embedding = Embedding(
            vocabulary_size, config.embedding_dim, rng, initial=pretrained_embeddings)
        self.nrf_embedding = Embedding(2, config.nrf_dim, rng)
        self.lstm = LSTM(config.embedding_dim, config.hidden_dim, rng)
        self.classifier = Linear(config.hidden_dim + config.nrf_dim,
                                 self.NUM_CLASSES, rng)
        self._optimizer = Adam(self.parameters(), learning_rate=config.learning_rate)
        #: Bumped by every weight change; tables derived from the weights
        #: compare it with the version they were filled under.
        self.weights_version = 0

    # ------------------------------------------------------------ properties
    @property
    def config(self) -> RSRNetConfig:
        return self._config

    @property
    def representation_dim(self) -> int:
        """Dimension of the per-segment representation ``z_i``."""
        return self._config.hidden_dim + self._config.nrf_dim

    # ----------------------------------------------------- batched training
    def forward_batch_train(
        self,
        tokens: np.ndarray,
        nrf: np.ndarray,
        lengths: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray, dict]:
        """Whole-sequence forward pass over a padded batch, keeping caches.

        ``tokens`` and ``nrf`` have shape ``(B, T)`` (tail-padded with any
        valid indices) and ``lengths`` the true length of each sequence.
        Returns ``(z, logits, cache)`` with ``z`` of shape
        ``(B, T, hidden_dim + nrf_dim)`` and ``logits`` of shape
        ``(B, T, 2)``. The cache feeds :meth:`train_step_batch`, so the
        trainer can reuse one forward pass for the RL episode, the global
        reward, and the supervised gradient step.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        nrf = np.asarray(nrf, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if tokens.ndim != 2 or tokens.shape != nrf.shape:
            raise ModelError("tokens and normal route features must be "
                             "aligned (B, T) arrays")
        if lengths.shape != (len(tokens),) or lengths.min(initial=1) < 1:
            raise ModelError("lengths must be positive, one per sequence")
        if lengths.max(initial=0) > tokens.shape[1]:
            raise ModelError("a sequence length exceeds the padded horizon")
        embedded, embed_cache = self.segment_embedding(tokens)
        hidden, lstm_caches = self.lstm.forward_batch(embedded)
        nrf_embedded, nrf_cache = self.nrf_embedding(nrf)
        z = np.concatenate([hidden, nrf_embedded], axis=2)
        batch, steps, dim = z.shape
        logits_flat, classifier_cache = self.classifier(z.reshape(batch * steps, dim))
        logits = logits_flat.reshape(batch, steps, self.NUM_CLASSES)
        cache = {
            "embed_cache": embed_cache,
            "lstm_caches": lstm_caches,
            "nrf_cache": nrf_cache,
            "classifier_cache": classifier_cache,
            "z": z,
            "logits": logits,
            "lengths": lengths,
        }
        return z, logits, cache

    def train_step_batch(
        self,
        labels: np.ndarray,
        cache: dict,
        cross_entropy: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """One gradient step against per-sequence ``labels`` over a batch.

        ``labels`` has shape ``(B, T)`` (padding ignored) and ``cache`` comes
        from :meth:`forward_batch_train` run with the *current* weights. The
        minimised objective is the batch mean of the per-sequence mean
        cross-entropies, which at batch size 1 is the paper's per-trajectory
        objective. ``cross_entropy`` is that objective's ``(losses,
        grad_logits)`` when the caller already holds it for these labels
        and this cache (the trainer's global reward computes it); ``None``
        computes it here. Returns the per-sequence losses.
        """
        if cross_entropy is None:
            cross_entropy = sequence_cross_entropy_from_logits(
                cache["logits"], labels, cache["lengths"])
        losses, grad_logits = cross_entropy
        self.zero_grad()
        batch, steps, classes = grad_logits.shape
        grad_z_flat = self.classifier.backward(
            grad_logits.reshape(batch * steps, classes),
            cache["classifier_cache"])
        grad_z = grad_z_flat.reshape(batch, steps, -1)
        hidden_dim = self._config.hidden_dim
        grad_hidden = grad_z[:, :, :hidden_dim]
        grad_nrf = grad_z[:, :, hidden_dim:]
        self.nrf_embedding.backward(grad_nrf, cache["nrf_cache"])
        grad_embedded = self.lstm.backward_batch(grad_hidden, cache["lstm_caches"])
        self.segment_embedding.backward(grad_embedded, cache["embed_cache"])
        clip_gradients(self.parameters(), self._config.grad_clip)
        self._optimizer.step()
        self.weights_version += 1
        return losses

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self.weights_version += 1

    # ------------------------------------------------------------- inference
    def input_projection(self, token: int) -> np.ndarray:
        """The LSTM input projection of one segment token, shape ``(4 * H,)``.

        This is a pure function of the model weights and the token, so fleet
        engines cache it per road segment and share it across streams.
        """
        return self.lstm.cell.project_input(self.segment_embedding.vector(token))

    def step_batch(
        self,
        hidden: np.ndarray,
        cell: np.ndarray,
        input_projections: np.ndarray,
        nrf: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance a batch of independent recurrent states by one segment each.

        ``hidden`` and ``cell`` have shape ``(B, hidden_dim)``,
        ``input_projections`` holds :meth:`input_projection` of each stream's
        new segment (``(B, 4 * hidden_dim)``) and ``nrf`` the per-stream
        normal route features. Returns ``(z, new_hidden, new_cell)`` with
        ``z`` of shape ``(B, hidden_dim + nrf_dim)``: the fleet stream
        engine's one recurrent step per tick.
        """
        nrf = np.asarray(nrf, dtype=np.int64)
        if nrf.size and (nrf.min() < 0 or nrf.max() > 1):
            raise ModelError("normal route features must be 0 or 1")
        new_hidden, new_cell = self.lstm.cell.forward_batch(
            input_projections, hidden, cell)
        z = np.concatenate(  # rows of the table: nrf is checked above
            [new_hidden, self.nrf_embedding.weight.value[nrf]], axis=1)
        return z, new_hidden, new_cell
