"""The generative sequence-autoencoder baselines (Liu et al. 2020).

GM-VSAE detects anomalous trajectories via a generation scheme: an encoder
maps a trajectory to a latent route representation, a Gaussian-mixture prior
captures the categories of normal routes, and a decoder measures how well the
trajectory can be generated from those normal-route representations. The paper
compares four members of the family:

* **SAE** — a plain seq2seq autoencoder; the anomaly score is the
  reconstruction negative log-likelihood.
* **VSAE** — the variational version with a single Gaussian latent.
* **GM-VSAE** — the variational version whose prior is a Gaussian mixture; at
  detection time the trajectory is decoded from every mixture component and
  the best (lowest-NLL) component is used.
* **SD-VSAE** — the fast variant that only uses the single most responsible
  component.

All four share one numpy implementation (:class:`SequenceAutoencoder`) built
on the GRU of :mod:`.gru`; per-segment anomaly scores are the per-step
negative log-likelihoods, which is how the paper adapts these trajectory-level
detectors to the subtrajectory task. Training backpropagates the loss through
every decoder step into the decoder's initial state (the gradient
:meth:`.gru.GRU.backward` returns beside the input gradient), and from there
through the latent into the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.labeling.features import SegmentVocabulary
from repro.nn.layers import Embedding, Linear
from repro.nn.losses import cross_entropy_from_logits, log_softmax
from repro.nn.module import Module
from repro.nn.optim import Adam, clip_gradients
from repro.trajectory.models import MatchedTrajectory
from .base import ScoringDetector
from .gru import GRU


@dataclass
class AutoencoderConfig:
    """Hyper-parameters of the sequence autoencoder family."""

    embedding_dim: int = 32
    hidden_dim: int = 32
    latent_dim: int = 16
    learning_rate: float = 0.005
    epochs: int = 2
    variational: bool = True
    kl_weight: float = 0.05
    grad_clip: float = 5.0
    n_components: int = 4
    seed: int = 29


class SequenceAutoencoder(Module):
    """GRU encoder–decoder over road-segment token sequences."""

    def __init__(self, vocabulary_size: int, config: AutoencoderConfig):
        super().__init__()
        if vocabulary_size < 2:
            raise ModelError("vocabulary_size must be at least 2")
        rng = np.random.default_rng(config.seed)
        self._config = config
        self.vocabulary_size = vocabulary_size
        self.embedding = Embedding(vocabulary_size, config.embedding_dim, rng)
        self.encoder = GRU(config.embedding_dim, config.hidden_dim, rng)
        self.latent_mean = Linear(config.hidden_dim, config.latent_dim, rng)
        self.latent_logvar = Linear(config.hidden_dim, config.latent_dim, rng)
        self.latent_to_hidden = Linear(config.latent_dim, config.hidden_dim, rng)
        self.decoder = GRU(config.embedding_dim, config.hidden_dim, rng)
        self.output = Linear(config.hidden_dim, vocabulary_size, rng)
        self._optimizer = Adam(self.parameters(), learning_rate=config.learning_rate)
        self._rng = rng
        self._latent_means: List[np.ndarray] = []
        self._mixture_means: Optional[np.ndarray] = None
        self._mixture_weights: Optional[np.ndarray] = None

    # --------------------------------------------------------------- encode
    def encode(self, tokens: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, dict]:
        """Latent mean and log-variance of a token sequence."""
        embedded, embed_cache = self.embedding(list(tokens))
        hidden, encoder_caches = self.encoder.forward(embedded)
        final_hidden = hidden[-1]
        mean, mean_cache = self.latent_mean(final_hidden)
        logvar, logvar_cache = self.latent_logvar(final_hidden)
        cache = {
            "embed_cache": embed_cache,
            "encoder_caches": encoder_caches,
            "hidden_len": len(hidden),
            "mean_cache": mean_cache,
            "logvar_cache": logvar_cache,
        }
        return mean, logvar, cache

    # --------------------------------------------------------------- decode
    def decode_nll(self, tokens: Sequence[int], latent: np.ndarray
                   ) -> Tuple[List[float], dict]:
        """Per-step negative log-likelihood of decoding ``tokens`` from ``latent``.

        The decoder predicts token ``t`` from the previous token (teacher
        forcing) and a hidden state initialised from the latent.
        """
        tokens = list(tokens)
        initial_hidden_raw, init_cache = self.latent_to_hidden(latent)
        initial_hidden = np.tanh(initial_hidden_raw)
        # Decoder inputs: previous tokens, with the first step conditioned on
        # the first token itself (a start-of-sequence proxy).
        decoder_input_tokens = [tokens[0]] + tokens[:-1]
        embedded, embed_cache = self.embedding(decoder_input_tokens)
        hidden, decoder_caches = self.decoder.forward(embedded, h0=initial_hidden)
        logits, output_cache = self.output(hidden)
        log_probs = log_softmax(logits, axis=1)
        nll = [-float(log_probs[t, token]) for t, token in enumerate(tokens)]
        cache = {
            "init_cache": init_cache,
            "initial_hidden_raw": initial_hidden_raw,
            "embed_cache": embed_cache,
            "decoder_caches": decoder_caches,
            "output_cache": output_cache,
            "logits": logits,
            "tokens": tokens,
        }
        return nll, cache

    # ----------------------------------------------------------------- train
    def train_step(self, tokens: Sequence[int]) -> float:
        """One gradient step of the (variational) autoencoder on one sequence."""
        config = self._config
        self.zero_grad()
        mean, logvar, encode_cache = self.encode(tokens)
        if config.variational:
            std = np.exp(0.5 * logvar)
            epsilon = self._rng.normal(size=mean.shape)
            latent = mean + std * epsilon
        else:
            latent = mean
        nll, decode_cache = self.decode_nll(tokens, latent)
        reconstruction_loss = float(np.mean(nll))

        # ----- backward through the decoder -----
        loss, grad_logits = cross_entropy_from_logits(
            decode_cache["logits"], decode_cache["tokens"])
        grad_hidden = self.output.backward(grad_logits, decode_cache["output_cache"])
        # h0 = tanh(latent_to_hidden(z)): grad_h0 carries the loss into z.
        grad_decoder_inputs, grad_h0 = self.decoder.backward(
            grad_hidden, decode_cache["decoder_caches"])
        self.embedding.backward(grad_decoder_inputs, decode_cache["embed_cache"])
        grad_init_raw = grad_h0 * (1.0 - np.tanh(decode_cache["initial_hidden_raw"]) ** 2)
        grad_latent = self.latent_to_hidden.backward(
            grad_init_raw, decode_cache["init_cache"])

        # ----- backward through the latent and encoder -----
        grad_mean = grad_latent.copy()
        grad_logvar = np.zeros_like(logvar)
        kl = 0.0
        if config.variational:
            std = np.exp(0.5 * logvar)
            epsilon = (latent - mean) / np.maximum(std, 1e-8)
            grad_logvar = grad_latent * epsilon * 0.5 * std
            kl = float(0.5 * np.sum(np.exp(logvar) + mean ** 2 - 1.0 - logvar))
            grad_mean += config.kl_weight * mean
            grad_logvar += config.kl_weight * 0.5 * (np.exp(logvar) - 1.0)

        grad_final_hidden = self.latent_mean.backward(
            grad_mean, encode_cache["mean_cache"])
        grad_final_hidden += self.latent_logvar.backward(
            grad_logvar, encode_cache["logvar_cache"])
        grad_encoder_hidden = np.zeros((encode_cache["hidden_len"],
                                        self._config.hidden_dim))
        grad_encoder_hidden[-1] = grad_final_hidden
        grad_encoder_inputs, _ = self.encoder.backward(
            grad_encoder_hidden, encode_cache["encoder_caches"])
        self.embedding.backward(grad_encoder_inputs, encode_cache["embed_cache"])

        clip_gradients(self.parameters(), config.grad_clip)
        self._optimizer.step()
        self._latent_means.append(mean.copy())
        return reconstruction_loss + config.kl_weight * kl

    # ------------------------------------------------------------- mixtures
    def fit_mixture(self, n_components: Optional[int] = None, iterations: int = 20) -> None:
        """Fit a Gaussian mixture (k-means style) over the training latents."""
        if not self._latent_means:
            raise NotFittedError("sequence autoencoder")
        n_components = n_components or self._config.n_components
        latents = np.stack(self._latent_means)
        n_components = min(n_components, len(latents))
        rng = self._rng
        centres = latents[rng.choice(len(latents), size=n_components, replace=False)]
        for _ in range(iterations):
            distances = ((latents[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
            assignment = distances.argmin(axis=1)
            for component in range(n_components):
                members = latents[assignment == component]
                if len(members):
                    centres[component] = members.mean(axis=0)
        counts = np.bincount(assignment, minlength=n_components).astype(float)
        self._mixture_means = centres
        self._mixture_weights = counts / counts.sum()

    @property
    def mixture_means(self) -> np.ndarray:
        if self._mixture_means is None:
            raise NotFittedError("gaussian mixture")
        return self._mixture_means

    @property
    def mixture_weights(self) -> np.ndarray:
        if self._mixture_weights is None:
            raise NotFittedError("gaussian mixture")
        return self._mixture_weights


def train_autoencoder(
    vocabulary: SegmentVocabulary,
    historical: Sequence[MatchedTrajectory],
    config: Optional[AutoencoderConfig] = None,
    max_trajectories: int = 600,
) -> SequenceAutoencoder:
    """Train a :class:`SequenceAutoencoder` on historical trajectories."""
    config = config or AutoencoderConfig()
    model = SequenceAutoencoder(len(vocabulary), config)
    rng = np.random.default_rng(config.seed)
    sample_size = min(max_trajectories, len(historical))
    indices = rng.choice(len(historical), size=sample_size, replace=False)
    sample = [historical[i] for i in indices]
    for _ in range(config.epochs):
        for trajectory in sample:
            model.train_step(vocabulary.tokens(trajectory.segments))
    model.fit_mixture()
    return model


class _AutoencoderScorer(ScoringDetector):
    """Shared scoring logic of the autoencoder family."""

    def __init__(self, model: SequenceAutoencoder, vocabulary: SegmentVocabulary):
        self._model = model
        self._vocabulary = vocabulary

    def _latent_candidates(self, mean: np.ndarray) -> List[np.ndarray]:
        raise NotImplementedError

    def scores(self, trajectory: MatchedTrajectory) -> List[float]:
        tokens = self._vocabulary.tokens(trajectory.segments)
        mean, _, _ = self._model.encode(tokens)
        best_nll: Optional[np.ndarray] = None
        for latent in self._latent_candidates(mean):
            nll, _ = self._model.decode_nll(tokens, latent)
            nll = np.asarray(nll)
            best_nll = nll if best_nll is None else np.minimum(best_nll, nll)
        assert best_nll is not None
        return [float(v) for v in best_nll]


class SAEScorer(_AutoencoderScorer):
    """Plain seq2seq autoencoder: decode from the trajectory's own latent."""

    name = "SAE"

    def _latent_candidates(self, mean: np.ndarray) -> List[np.ndarray]:
        return [mean]


class VSAEScorer(_AutoencoderScorer):
    """Variational autoencoder with a single Gaussian latent."""

    name = "VSAE"

    def _latent_candidates(self, mean: np.ndarray) -> List[np.ndarray]:
        return [mean]


class GMVSAEScorer(_AutoencoderScorer):
    """Gaussian-mixture VSAE: decode from every normal-route component."""

    name = "GM-VSAE"

    def _latent_candidates(self, mean: np.ndarray) -> List[np.ndarray]:
        return [component for component in self._model.mixture_means]


class SDVSAEScorer(_AutoencoderScorer):
    """SD-VSAE: decode only from the most responsible mixture component."""

    name = "SD-VSAE"

    def _latent_candidates(self, mean: np.ndarray) -> List[np.ndarray]:
        means = self._model.mixture_means
        distances = ((means - mean[None, :]) ** 2).sum(axis=1)
        return [means[int(distances.argmin())]]
