"""Model persistence: checkpoints, snapshots and clones of RL4OASD models.

A checkpoint is everything needed to serve the model somewhere else: both
networks' ``state_dict`` snapshots plus their configurations, and the
preprocessing pipeline — whose pinned, versioned
:class:`~repro.history.HistorySnapshot` carries the SD-pair history the
detectors resolve normal routes against. The history *version* is persisted
explicitly alongside the pipeline, so a save → load round trip reproduces
labels exactly even for a model whose history was refreshed past the seed
(and the mismatch is detected if the pipeline blob ever disagrees). Training state that only
matters for *continuing* a run — optimizer moments, the REINFORCE baseline —
is deliberately not persisted: a loaded model detects identically to the
saved one (pinned by ``tests/test_checkpoint.py``), and resumed training
simply restarts its optimizers.

The same serialization feeds three consumers:

* :func:`save_model` / :func:`load_model` — durable checkpoints on disk
  (:meth:`RL4OASDModel.save` / :meth:`RL4OASDModel.load` delegate here);
* :func:`model_to_bytes` / :func:`model_from_bytes` — the blob a
  multi-process detection service ships to worker shards at spawn;
* :func:`clone_model` — a deep, independent copy backing the in-process
  service backend, so serving never aliases the caller's live model;
* :func:`weights_snapshot` — the small ``state_dict``-only payload a model
  hot-swap broadcasts to already-running shards.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Dict, TYPE_CHECKING, Union

import numpy as np

from ..exceptions import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.rl4oasd import RL4OASDModel

#: Bump when the payload layout changes incompatibly.
#: v2: the pipeline pins a versioned HistorySnapshot; ``history_version``
#: is persisted explicitly and checked on load.
#: v3: the corpus could live in a :class:`~repro.history.HistoryArchive`
#: instead of the checkpoint. v4: the history is always embedded. Only this
#: version is read.
CHECKPOINT_VERSION = 4

_MAGIC = "repro-rl4oasd-checkpoint"

#: A hot-swap payload: one ``state_dict`` per network.
WeightsSnapshot = Dict[str, Dict[str, np.ndarray]]


def weights_snapshot(model: "RL4OASDModel") -> WeightsSnapshot:
    """The ``state_dict`` snapshots of both networks, keyed by network name.

    This is the payload a hot-swap sends to every running shard — a few
    hundred kilobytes of weights, not the whole pipeline.
    """
    return {
        "rsrnet": model.rsrnet.state_dict(),
        "asdnet": model.asdnet.state_dict(),
    }


def _payload(model: "RL4OASDModel") -> dict:
    return {
        "magic": _MAGIC,
        "version": CHECKPOINT_VERSION,
        "rsrnet_state": model.rsrnet.state_dict(),
        "asdnet_state": model.asdnet.state_dict(),
        "rsrnet_config": model.rsrnet.config,
        "asdnet_config": model.asdnet.config,
        "vocabulary_size": len(model.pipeline.vocabulary),
        "training_config": model.training_config,
        "pipeline": model.pipeline,
        "history_version": model.pipeline.history.version,
        "report": model.report,
    }


def _restore(payload: dict) -> "RL4OASDModel":
    from ..core.asdnet import ASDNet
    from ..core.rl4oasd import RL4OASDModel
    from ..core.rsrnet import RSRNet

    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise CheckpointError("not an RL4OASD checkpoint")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})")
    rsrnet = RSRNet(vocabulary_size=payload["vocabulary_size"],
                    config=payload["rsrnet_config"])
    rsrnet.load_state_dict(payload["rsrnet_state"])
    asdnet = ASDNet(representation_dim=rsrnet.representation_dim,
                    config=payload["asdnet_config"])
    asdnet.load_state_dict(payload["asdnet_state"])
    pipeline = payload["pipeline"]
    if pipeline.history.version != payload["history_version"]:
        raise CheckpointError(
            f"checkpoint claims history version {payload['history_version']} "
            f"but its pipeline carries version {pipeline.history.version}")
    return RL4OASDModel(
        rsrnet=rsrnet,
        asdnet=asdnet,
        pipeline=pipeline,
        training_config=payload["training_config"],
        report=payload["report"],
    )


def model_to_bytes(model: "RL4OASDModel") -> bytes:
    """Serialize a model to a self-contained byte blob."""
    return pickle.dumps(_payload(model), protocol=pickle.HIGHEST_PROTOCOL)


def model_from_bytes(blob: bytes) -> "RL4OASDModel":
    """Rebuild a model from :func:`model_to_bytes` output."""
    try:
        payload = pickle.loads(blob)
    except Exception as error:
        raise CheckpointError(f"corrupt checkpoint blob: {error}") from error
    return _restore(payload)


def clone_model(model: "RL4OASDModel") -> "RL4OASDModel":
    """A deep, independent copy of a model (serialize/deserialize round trip).

    The clone shares nothing mutable with the original: fine-tuning one or
    hot-swapping weights into one never leaks into the other.
    """
    return model_from_bytes(model_to_bytes(model))


def save_model(model: "RL4OASDModel", path: Union[str, Path]) -> Path:
    """Write a model checkpoint to ``path``; returns the resolved path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(model_to_bytes(model))
    return path


def load_model(path: Union[str, Path]) -> "RL4OASDModel":
    """Load a model checkpoint previously written by :func:`save_model`."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"no checkpoint at {path}")
    return model_from_bytes(path.read_bytes())
