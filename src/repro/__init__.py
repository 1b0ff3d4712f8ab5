"""RL4OASD — online anomalous subtrajectory detection on road networks with
deep reinforcement learning (reproduction).

The package is organised bottom-up:

* :mod:`repro.roadnet` — road networks (graphs, builders, spatial index, routing)
* :mod:`repro.trajectory` — trajectory data model, SD pairs, similarity measures
* :mod:`repro.mapmatching` — HMM map matching of raw GPS traces
* :mod:`repro.datagen` — synthetic taxi-trajectory datasets with ground truth
* :mod:`repro.nn` — numpy neural-network substrate (LSTM, GRU, REINFORCE pieces)
* :mod:`repro.embeddings` — road-segment representation learning (Toast substitute)
* :mod:`repro.history` — versioned, hot-swappable normal-route history
  (immutable snapshots, copy-on-write refresh)
* :mod:`repro.labeling` — noisy labels and normal-route features
* :mod:`repro.core` — RSRNet, ASDNet, the RL4OASD trainer and the online detector
* :mod:`repro.serve` — the serving layer: sharded multi-worker detection
  service, checkpoints, model hot-swap
* :mod:`repro.ingest` — the raw-GPS streaming gateway: online incremental
  map matching feeding the detection service
* :mod:`repro.obs` — observability: mergeable metrics, sampled per-fix
  trace spans, Prometheus-style exposition and scrape endpoint
* :mod:`repro.baselines` — IBOAT, DBTOD, CTSS, SAE/VSAE/GM-VSAE/SD-VSAE, …
* :mod:`repro.eval` — F1/TF1 metrics, length grouping, the stage latency report
* :mod:`repro.experiments` — the paper's experiment settings: cities,
  splits and RL4OASD trainers at scaled-down sizes

The harnesses regenerating the paper's tables and figures live outside the
package, in ``benchmarks/quality/paper/``, run by
``benchmarks/quality/run.py``.

Quickstart::

    from repro.experiments.common import ExperimentSettings, prepare_city, train_rl4oasd
    from repro.eval import evaluate_detector

    split = prepare_city("chengdu", ExperimentSettings(scale=0.3))
    model, _ = train_rl4oasd(split)
    print(evaluate_detector(model.detector(), split.test).overall.f1)
"""

from .config import (
    ASDNetConfig,
    DataGenConfig,
    EmbeddingConfig,
    GatewayConfig,
    LabelingConfig,
    MapMatchingConfig,
    ObsConfig,
    RoadNetworkConfig,
    RSRNetConfig,
    TrainingConfig,
)
from .exceptions import ReproError

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "RoadNetworkConfig",
    "MapMatchingConfig",
    "DataGenConfig",
    "EmbeddingConfig",
    "LabelingConfig",
    "RSRNetConfig",
    "ASDNetConfig",
    "TrainingConfig",
    "GatewayConfig",
    "ObsConfig",
]
