"""End-to-end integration tests across the whole library."""

import numpy as np
import pytest

from paper.baselines import CTSSScorer, ThresholdedDetector
from paper.embeddings import ToastEmbedder
from paper.evaluation import evaluate_detector
from repro.config import (
    ASDNetConfig,
    LabelingConfig,
    RSRNetConfig,
    TrainingConfig,
)
from repro.core import RL4OASDTrainer
from repro.datagen import tiny_dataset
from repro.labeling import PreprocessingPipeline
from repro.mapmatching import HMMMapMatcher


def test_raw_gps_to_detection_pipeline():
    """Raw GPS traces -> map matching -> preprocessing -> detection."""
    dataset = tiny_dataset(seed=13, include_raw=True)
    matcher = HMMMapMatcher(dataset.network)
    matched = []
    for raw in dataset.raw_trajectories[:60]:
        result = matcher.match(raw)
        if result.succeeded:
            matched.append(result.matched)
    assert len(matched) >= 50

    pipeline = PreprocessingPipeline(dataset.network, matched,
                                     LabelingConfig(alpha=0.35, delta=0.25))
    preprocessed = pipeline.preprocess(matched[0])
    assert len(preprocessed.tokens) == len(matched[0])


def test_rl4oasd_beats_a_baseline_end_to_end(dataset, dataset_split, trained_model,
                                             pipeline):
    """The trained model outperforms the tuned CTSS baseline on the tiny data."""
    _, development, test = dataset_split
    ctss = ThresholdedDetector(CTSSScorer(pipeline)).tune(development)
    ctss_run = evaluate_detector(ctss, test, name="CTSS")
    rl_run = evaluate_detector(trained_model.detector(), test, name="RL4OASD")
    assert rl_run.overall.f1 >= ctss_run.overall.f1 - 0.05


def test_pretrained_embeddings_plug_into_training(dataset, dataset_split):
    """Toast-style embeddings can initialise RSRNet's embedding layer."""
    train, development, test = dataset_split
    embedder = ToastEmbedder(dataset.network, 12, seed=13).fit()
    trainer = RL4OASDTrainer(
        dataset.network, train,
        labeling_config=LabelingConfig(alpha=0.35, delta=0.25),
        rsrnet_config=RSRNetConfig(embedding_dim=12, hidden_dim=12, nrf_dim=6),
        asdnet_config=ASDNetConfig(label_embedding_dim=6),
        training_config=TrainingConfig(pretrain_trajectories=30, pretrain_epochs=2,
                                       joint_trajectories=10, joint_epochs=1,
                                       validation_interval=10),
        pretrained_embeddings=embedder.embedding_matrix(),
        development_set=development[:10],
    )
    model = trainer.train()
    result = model.detector().detect(test[0])
    assert len(result.labels) == len(test[0])


def test_experiment_settings_prepare_city_and_format():
    """The experiment plumbing builds consistent splits and tables."""
    from paper.shared import format_table
    from repro.experiments.common import ExperimentSettings, prepare_city

    settings = ExperimentSettings(scale=0.15, dev_size=20)
    split = prepare_city("xian", settings)
    assert len(split.train) > len(split.test) > 0
    assert len(split.development) > 0
    train_ids = {t.trajectory_id for t in split.train}
    assert all(t.trajectory_id not in train_ids for t in split.test)

    table = format_table(["a", "b"], [["x", 0.5], ["yy", 1.0]], title="T")
    assert "T" in table and "0.500" in table


def test_unknown_city_rejected():
    from repro.experiments.common import prepare_city
    from repro.exceptions import ReproError

    with pytest.raises(ReproError):
        prepare_city("atlantis")


def test_fig6_reports_a_partition_it_cannot_run(dataset, dataset_split,
                                                monkeypatch):
    """A xi whose partition of the day leaves a training part empty stays in
    the Fig. 6 tables, marked skipped with the reason — it used to vanish."""
    from paper import fig6
    from repro.experiments.common import CitySplit, ExperimentSettings

    train, development, test = dataset_split
    morning = [t for t in train if t.start_time_s % 86400 < 43200]
    assert morning
    monkeypatch.setattr(
        fig6, "prepare_city", lambda *args, **kwargs: CitySplit(
            dataset=dataset, train=morning, development=development,
            test=test))
    result = fig6.run_fig6(ExperimentSettings(), xi_values=(2,),
                           xi_for_parts=2)
    assert result.f1_by_xi == {} and result.parts == []
    assert list(result.skipped) == [2]
    assert "part(s) 2 of 2" in result.skipped[2]
    table = result.format()
    assert "skipped" in table.splitlines()[3]  # the xi=2 cell of Fig. 6a
    assert f"xi=2 skipped: {result.skipped[2]}" in table
