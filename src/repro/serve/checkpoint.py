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
#: v3: ``history_storage`` — ``"archived"`` when the history corpus lives
#: in a content-addressed :class:`~repro.history.HistoryArchive` and the
#: checkpoint references it by version instead of embedding it. Only this
#: version is read.
CHECKPOINT_VERSION = 3

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


def _payload(model: "RL4OASDModel", history_storage: str = "embedded") -> dict:
    pipeline = model.pipeline
    history_version = pipeline.history.version
    if history_storage == "archived":
        # Replace the corpus with an empty placeholder at the true version;
        # `_restore` rehydrates through the archive. The placeholder keeps
        # the pipeline blob structurally complete (vocabulary, config,
        # SD-index all persist as usual) while shedding its heaviest part.
        from ..history import HistorySnapshot

        pipeline = pipeline.with_history(HistorySnapshot(
            {}, pipeline.history.slots_per_day, history_version))
    elif history_storage != "embedded":
        raise CheckpointError(
            f"unknown history_storage {history_storage!r}; "
            f"use 'embedded' or 'archived'")
    return {
        "magic": _MAGIC,
        "version": CHECKPOINT_VERSION,
        "rsrnet_state": model.rsrnet.state_dict(),
        "asdnet_state": model.asdnet.state_dict(),
        "rsrnet_config": model.rsrnet.config,
        "asdnet_config": model.asdnet.config,
        "vocabulary_size": len(model.pipeline.vocabulary),
        "training_config": model.training_config,
        "pipeline": pipeline,
        "history_version": history_version,
        "history_storage": history_storage,
        "report": model.report,
    }


def _restore(payload: dict, archive=None) -> "RL4OASDModel":
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
    storage = payload["history_storage"]
    if storage == "archived":
        if archive is None:
            raise CheckpointError(
                "this checkpoint stores its history in an archive "
                f"(version {payload['history_version']}); pass archive= "
                "(a repro.history.HistoryArchive) to load it")
        pipeline = pipeline.with_history(
            archive.load(payload["history_version"]))
    elif storage != "embedded":
        raise CheckpointError(
            f"unknown history_storage {storage!r} in checkpoint")
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


def save_model(model: "RL4OASDModel", path: Union[str, Path],
               archive=None) -> Path:
    """Write a model checkpoint to ``path``; returns the resolved path.

    With ``archive`` (a :class:`~repro.history.HistoryArchive`) the history
    corpus is archived there — content-addressed, so consecutive saves of
    copy-on-write versions share their untouched group blobs — and the
    checkpoint references it by version (``history_storage="archived"``)
    instead of embedding it. Loading such a checkpoint needs the same (or a
    replicated) archive passed to :func:`load_model`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if archive is not None:
        archive.save(model.pipeline.history,
                     provenance={"source": "checkpoint", "path": str(path)})
        blob = pickle.dumps(_payload(model, history_storage="archived"),
                            protocol=pickle.HIGHEST_PROTOCOL)
    else:
        blob = model_to_bytes(model)
    path.write_bytes(blob)
    return path


def load_model(path: Union[str, Path], archive=None) -> "RL4OASDModel":
    """Load a model checkpoint previously written by :func:`save_model`.

    Reads embedded and archived checkpoints of the current format;
    ``archive`` is required for — and only read by — the archived form.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        payload = pickle.loads(path.read_bytes())
    except Exception as error:
        raise CheckpointError(f"corrupt checkpoint blob: {error}") from error
    return _restore(payload, archive=archive)
