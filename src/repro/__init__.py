"""RL4OASD — online anomalous subtrajectory detection on road networks with
deep reinforcement learning (reproduction).

The package is organised bottom-up:

* :mod:`repro.roadnet` — road networks (graphs, builders, spatial index, routing)
* :mod:`repro.trajectory` — trajectory data model, SD pairs, time slots
* :mod:`repro.mapmatching` — HMM map matching of raw GPS traces
* :mod:`repro.datagen` — synthetic taxi-trajectory datasets with ground truth
* :mod:`repro.nn` — numpy neural-network substrate (LSTM, REINFORCE pieces)
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
* :mod:`repro.eval` — F1/TF1 metrics, the stage latency report
* :mod:`repro.experiments` — the paper's experiment settings: cities,
  splits and RL4OASD trainers at scaled-down sizes

The harnesses regenerating the paper's tables and figures live outside the
package, in ``benchmarks/quality/paper/``, run by
``benchmarks/quality/run.py``; so do what only they use: the comparison
methods of Table III (IBOAT, DBTOD, CTSS, the VSAE family), the Toast
substitute that pre-trains road-segment embeddings, and the per-length-group
evaluation runner.

Quickstart::

    from repro.experiments.common import ExperimentSettings, prepare_city, train_rl4oasd
    from repro.eval import evaluate_labelings

    split = prepare_city("chengdu", ExperimentSettings(scale=0.3))
    model, _ = train_rl4oasd(split)
    detector = model.detector()
    print(evaluate_labelings([t.labels for t in split.test],
                             [detector.detect(t).labels for t in split.test]).f1)
"""

from .config import (
    ASDNetConfig,
    DataGenConfig,
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
    "LabelingConfig",
    "RSRNetConfig",
    "ASDNetConfig",
    "TrainingConfig",
    "GatewayConfig",
    "ObsConfig",
]
