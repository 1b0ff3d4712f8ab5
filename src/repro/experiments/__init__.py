"""The paper's experiment settings: cities, train / dev / test splits and
RL4OASD trainers at scaled-down sizes (:mod:`.common`).

The harnesses that regenerate the paper's tables and figures live outside
the library, in ``benchmarks/quality/paper/``, driven by
``benchmarks/quality/run.py``.
"""

from .common import ExperimentSettings, prepare_city, train_rl4oasd

__all__ = [
    "ExperimentSettings",
    "prepare_city",
    "train_rl4oasd",
]
