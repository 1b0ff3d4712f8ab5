"""Model persistence tests: save/load round trips, snapshots and clones.

The satellite contract: a checkpoint round trip preserves *every* parameter
bit-exactly and the reloaded model produces label-identical detections —
through the single-stream detector, the fleet stream engine, and a detection
service built from the checkpoint.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import RL4OASDModel, replay_fleet
from repro.exceptions import CheckpointError, ModelError
from repro.serve import (CHECKPOINT_VERSION, clone_model, load_model,
                         model_from_bytes, model_to_bytes, save_model,
                         serve_fleet, weights_snapshot)


@pytest.fixture()
def checkpoint_path(trained_model, tmp_path):
    return trained_model.save(tmp_path / "checkpoints" / "model.ckpt")


def test_round_trip_preserves_every_parameter(trained_model, checkpoint_path):
    loaded = type(trained_model).load(checkpoint_path)
    for network in ("rsrnet", "asdnet"):
        original = getattr(trained_model, network).state_dict()
        restored = getattr(loaded, network).state_dict()
        assert set(original) == set(restored)
        for name, value in original.items():
            np.testing.assert_array_equal(restored[name], value,
                                          err_msg=f"{network}.{name}")
    assert loaded.training_config == trained_model.training_config
    assert (loaded.report.best_validation_f1
            == pytest.approx(trained_model.report.best_validation_f1))
    assert (len(loaded.pipeline.vocabulary)
            == len(trained_model.pipeline.vocabulary))


def test_round_trip_detections_are_label_identical(trained_model,
                                                   checkpoint_path,
                                                   dataset_split):
    _, _, test = dataset_split
    loaded = load_model(checkpoint_path)
    detector = trained_model.detector()
    loaded_detector = loaded.detector()
    for trajectory in test[:10]:
        reference = detector.detect(trajectory)
        result = loaded_detector.detect(trajectory)
        assert result.labels == reference.labels
        assert result.spans == reference.spans
    # The fleet engine built from the loaded model agrees too.
    engine_results = replay_fleet(loaded.stream_engine(), test[:10],
                                  concurrency=5)
    for trajectory, result in zip(test[:10], engine_results):
        assert result.labels == detector.detect(trajectory).labels


def test_service_from_checkpoint_matches(trained_model, checkpoint_path,
                                         dataset_split):
    _, _, test = dataset_split
    detector = trained_model.detector()
    with RL4OASDModel.load(checkpoint_path).detection_service(
            num_shards=2) as service:
        results = serve_fleet(service, test[:8], concurrency=4)
    for trajectory, result in zip(test[:8], results):
        assert result.labels == detector.detect(trajectory).labels


def test_save_creates_parent_directories(trained_model, tmp_path):
    path = save_model(trained_model, tmp_path / "a" / "b" / "model.ckpt")
    assert path.is_file()
    assert path.stat().st_size > 0


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(CheckpointError):
        load_model(tmp_path / "nothing.ckpt")


def test_load_corrupt_blob_raises():
    with pytest.raises(CheckpointError):
        model_from_bytes(b"not a checkpoint")


def test_load_foreign_pickle_raises():
    with pytest.raises(CheckpointError):
        model_from_bytes(pickle.dumps({"magic": "something-else"}))
    with pytest.raises(CheckpointError):
        model_from_bytes(pickle.dumps([1, 2, 3]))


def test_load_unsupported_version_raises(trained_model):
    payload = pickle.loads(model_to_bytes(trained_model))
    payload["version"] = CHECKPOINT_VERSION + 1
    with pytest.raises(CheckpointError):
        model_from_bytes(pickle.dumps(payload))


def test_clone_is_fully_independent(trained_model, dataset_split):
    _, _, test = dataset_split
    clone = clone_model(trained_model)
    assert clone.rsrnet is not trained_model.rsrnet
    assert clone.pipeline is not trained_model.pipeline
    expected = trained_model.detector().detect(test[0]).labels
    for parameter in clone.rsrnet.parameters():
        parameter.value += 5.0
    # Vandalizing the clone leaves the original intact.
    assert trained_model.detector().detect(test[0]).labels == expected


def test_round_trip_preserves_history_version(trained_model, checkpoint_path,
                                              dataset_split):
    """A checkpoint persists the pinned history version and restores it."""
    loaded = load_model(checkpoint_path)
    assert (loaded.pipeline.history.version
            == trained_model.pipeline.history.version)
    assert len(loaded.pipeline.history) == len(trained_model.pipeline.history)


def test_round_trip_with_refreshed_history_is_label_identical(trained_model,
                                                              dataset_split,
                                                              tmp_path):
    """Satellite: save -> load of a model whose history moved past the seed
    version reproduces labels exactly, on the fresh history and after both
    sides refresh again with the same data."""
    train, development, test = dataset_split
    model = clone_model(trained_model)
    model.pipeline.extend_history(development)
    assert model.pipeline.history.version == 2  # non-seed version
    path = model.save(tmp_path / "refreshed.ckpt")
    loaded = load_model(path)
    assert loaded.pipeline.history.version == 2
    assert len(loaded.pipeline.history) == len(model.pipeline.history)
    detector, loaded_detector = model.detector(), loaded.detector()
    for trajectory in test[:8]:
        assert (loaded_detector.detect(trajectory).labels
                == detector.detect(trajectory).labels)
    # Refresh both sides identically: still label-identical, same version.
    model.pipeline.extend_history(train[:30])
    loaded.pipeline.extend_history(train[:30])
    assert loaded.pipeline.history.version == model.pipeline.history.version == 3
    detector, loaded_detector = model.detector(), loaded.detector()
    for trajectory in test[:8]:
        assert (loaded_detector.detect(trajectory).labels
                == detector.detect(trajectory).labels)


def test_load_detects_history_version_mismatch(trained_model):
    payload = pickle.loads(model_to_bytes(trained_model))
    payload["history_version"] = 99
    with pytest.raises(CheckpointError):
        model_from_bytes(pickle.dumps(payload))


def test_weights_snapshot_shape_and_validation(trained_model):
    snapshot = weights_snapshot(trained_model)
    assert set(snapshot) == {"rsrnet", "asdnet"}
    trained_model.rsrnet.validate_state_dict(snapshot["rsrnet"])
    trained_model.asdnet.validate_state_dict(snapshot["asdnet"])
    with pytest.raises(ModelError):
        trained_model.rsrnet.validate_state_dict({"bogus": np.zeros(2)})
    truncated = dict(snapshot["rsrnet"])
    name = next(iter(truncated))
    truncated[name] = np.zeros((1, 1))
    with pytest.raises(ModelError):
        trained_model.rsrnet.validate_state_dict(truncated)
    # validate_state_dict never mutates the module.
    np.testing.assert_array_equal(
        trained_model.rsrnet.state_dict()[name], snapshot["rsrnet"][name])
