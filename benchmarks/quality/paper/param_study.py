"""Parameter study for alpha, delta and D (Section V-C / technical report).

The paper sweeps the noisy-label threshold ``alpha``, the normal-route
threshold ``delta`` and the delayed-labeling window ``D``, reporting the F1 of
the full model for each value. Training a full model per grid point is
expensive, so the harness keeps the model training small (pretraining-heavy)
and reuses one trained model for the ``D`` sweep, which only changes the
detector's post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core import OnlineDetector
from repro.experiments.common import (ExperimentSettings, prepare_city,
                                      train_rl4oasd)

from .evaluation import evaluate_detector
from .shared import format_table


@dataclass
class ParamStudyResult:
    f1_by_alpha: Dict[float, float]
    f1_by_delta: Dict[float, float]
    f1_by_delay: Dict[int, float]

    def format(self) -> str:
        blocks = []
        blocks.append(format_table(
            ["alpha"] + [f"{a:.2f}" for a in self.f1_by_alpha],
            [["F1"] + list(self.f1_by_alpha.values())],
            title="Parameter study — varying alpha"))
        blocks.append(format_table(
            ["delta"] + [f"{d:.2f}" for d in self.f1_by_delta],
            [["F1"] + list(self.f1_by_delta.values())],
            title="Parameter study — varying delta"))
        blocks.append(format_table(
            ["D"] + [str(d) for d in self.f1_by_delay],
            [["F1"] + list(self.f1_by_delay.values())],
            title="Parameter study — varying the delayed-labeling window D"))
        return "\n\n".join(blocks)

    def best_alpha(self) -> float:
        return max(self.f1_by_alpha, key=self.f1_by_alpha.get)

    def best_delta(self) -> float:
        return max(self.f1_by_delta, key=self.f1_by_delta.get)


def run_param_study(
    settings: Optional[ExperimentSettings] = None,
    city: str = "chengdu",
    alphas: Sequence[float] = (0.25, 0.35, 0.5),
    deltas: Sequence[float] = (0.2, 0.25, 0.4),
    delays: Sequence[int] = (0, 2, 4, 8, 12),
    quick_training: Optional[dict] = None,
) -> ParamStudyResult:
    """Sweep alpha, delta and D and report F1 for each value."""
    settings = settings or ExperimentSettings()
    quick = quick_training or {"joint_trajectories": 60, "joint_epochs": 1}
    split = prepare_city(city, settings)

    f1_by_alpha: Dict[float, float] = {}
    for alpha in alphas:
        model, _ = train_rl4oasd(split, settings,
                                 training_overrides=quick,
                                 labeling_overrides={"alpha": alpha})
        run = evaluate_detector(model.detector(), split.test, name=f"alpha={alpha}")
        f1_by_alpha[alpha] = run.overall.f1

    f1_by_delta: Dict[float, float] = {}
    for delta in deltas:
        model, _ = train_rl4oasd(split, settings,
                                 training_overrides=quick,
                                 labeling_overrides={"delta": delta})
        run = evaluate_detector(model.detector(), split.test, name=f"delta={delta}")
        f1_by_delta[delta] = run.overall.f1

    # One model, different delayed-labeling windows at detection time.
    model, trainer = train_rl4oasd(split, settings, training_overrides=quick)
    f1_by_delay: Dict[int, float] = {}
    for delay in delays:
        detector = OnlineDetector(
            rsrnet=model.rsrnet, asdnet=model.asdnet, pipeline=model.pipeline,
            use_rnel=True, delay_window=delay if delay > 0 else None,
        )
        run = evaluate_detector(detector, split.test, name=f"D={delay}")
        f1_by_delay[delay] = run.overall.f1

    return ParamStudyResult(f1_by_alpha=f1_by_alpha, f1_by_delta=f1_by_delta,
                            f1_by_delay=f1_by_delay)
