"""Shared configuration of the benchmark suite.

Every benchmark regenerates one table or figure of the paper via the
corresponding :mod:`repro.experiments` harness. The harness runs exactly once
per module (session-scoped fixtures); the ``benchmark`` fixture then times a
representative operation of that experiment (typically one online detection),
so ``pytest benchmarks/ --benchmark-only`` stays fast while still printing the
full reproduced artefacts.

The formatted tables are written to ``benchmarks/results/`` and echoed to
stdout (visible with ``pytest -s``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentSettings

RESULTS_DIR = Path(__file__).parent / "results"

#: Scale of the benchmark datasets; override with REPRO_BENCH_SCALE=0.5 etc.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))


def bench_settings(**overrides) -> ExperimentSettings:
    """Experiment settings shared by every benchmark."""
    defaults = dict(
        scale=BENCH_SCALE,
        dev_size=80,
        joint_trajectories=200,
        joint_epochs=2,
        pretrain_epochs=5,
        autoencoder_max_trajectories=200,
    )
    defaults.update(overrides)
    return ExperimentSettings(**defaults)


def record_result(name: str, text: str) -> Path:
    """Write a reproduced table/figure to benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")
    return path


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return bench_settings()
