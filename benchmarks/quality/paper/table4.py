"""Table IV — ablation study of RL4OASD's components."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.common import (ExperimentSettings, prepare_city,
                                      train_rl4oasd)

from .embeddings import ToastEmbedder
from .evaluation import evaluate_detector
from .shared import build_detectors, format_table, warm_start_agreement

#: Ablation rows of Table IV mapped to the trainer's switches.
ABLATIONS: Dict[str, dict] = {
    "RL4OASD": {},
    "w/o noisy labels": {"use_noisy_labels": False},
    "w/o road segment embeddings": {"use_pretrained_embeddings": False},
    "w/o RNEL": {"use_rnel": False},
    "w/o DL": {"use_delayed_labeling": False},
    "w/o local reward": {"use_local_reward": False},
    "w/o global reward": {"use_global_reward": False},
    "w/o ASDNet": {"use_asdnet": False},
}


@dataclass
class Table4Result:
    f1_by_variant: Dict[str, float]
    #: Per trained variant, the share of its test labels equal to its warm
    #: start (the heuristic "only transition frequency" row has none).
    warm_start_agreement: Dict[str, float]

    def format(self) -> str:
        rows: List[List[object]] = [
            [name, value, self.warm_start_agreement.get(name, "-")]
            for name, value in self.f1_by_variant.items()
        ]
        return format_table(["Effectiveness", "F1-score",
                             "Warm-start agreement"], rows,
                            title="Table IV — ablation study")


def run_table4(settings: Optional[ExperimentSettings] = None,
               city: str = "chengdu") -> Table4Result:
    """Train every ablation variant and score it on the same test set."""
    settings = settings or ExperimentSettings()
    split = prepare_city(city, settings)
    results: Dict[str, float] = {}
    agreement: Dict[str, float] = {}

    # Pre-trained road-segment embeddings; the trainer ignores them under
    # "w/o road segment embeddings" (random initialisation).
    embedding_matrix = ToastEmbedder(
        split.dataset.network, settings.embedding_dim, settings.seed,
    ).fit().embedding_matrix()

    for variant, overrides in ABLATIONS.items():
        model, _ = train_rl4oasd(split, settings,
                                 training_overrides=overrides,
                                 pretrained_embeddings=embedding_matrix)
        detector = model.detector()
        run = evaluate_detector(detector, split.test, name=variant)
        results[variant] = run.overall.f1
        agreement[variant] = warm_start_agreement(detector, split.test)

    # The "only transition frequency" row is the heuristic baseline.
    frequency_only = build_detectors(split, settings,
                                     ["TransitionFrequency"])
    run = evaluate_detector(frequency_only["TransitionFrequency"], split.test,
                            name="only transition frequency")
    results["only transition frequency"] = run.overall.f1
    return Table4Result(f1_by_variant=results,
                        warm_start_agreement=agreement)
