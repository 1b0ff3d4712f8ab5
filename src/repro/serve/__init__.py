"""The serving layer: sharded, backpressure-aware fleet detection.

This package turns the batched engines of :mod:`repro.core` into a
deployable detector:

* :class:`~repro.serve.service.DetectionService` — shard N concurrent
  vehicle streams across worker engines (in-process or one OS process per
  shard), with bounded ingest queues, an explicit backpressure signal, and
  atomic control-plane hot-swap (``swap``: weights, the versioned
  normal-route history, or both) that never drops an in-flight stream.
* :func:`~repro.serve.service.serve_fleet` — replay a trajectory workload
  through a service (the benchmark/differential-test driver).
* :mod:`~repro.serve.checkpoint` — model persistence:
  :meth:`RL4OASDModel.save` / :meth:`RL4OASDModel.load` delegate here, and
  the multi-process backend ships its pickled model snapshots through it.
* :mod:`~repro.serve.metrics` — per-shard points, busy time, queue depth
  and cache hit rate, and their Prometheus exposition.
* :mod:`~repro.serve.sharding` — stable vehicle-to-shard assignment.
"""

from .backends import (ControlUpdate, IngestEvent, InProcessBackend,
                       ProcessBackend)
from .checkpoint import (CHECKPOINT_VERSION, clone_model, load_model,
                         model_from_bytes, model_to_bytes, save_model,
                         weights_snapshot)
from .metrics import (BusStats, GatewayStats, ServiceMetrics, ShardStats,
                      metrics_to_registry)
from .resultbus import BusCollector, ResultEnvelope, ShardResultBus
from .service import DetectionService, IngestStatus, serve_fleet
from .sharding import shard_of

__all__ = [
    "DetectionService",
    "IngestStatus",
    "serve_fleet",
    "ResultEnvelope",
    "ShardResultBus",
    "BusCollector",
    "BusStats",
    "ControlUpdate",
    "IngestEvent",
    "InProcessBackend",
    "ProcessBackend",
    "GatewayStats",
    "ServiceMetrics",
    "ShardStats",
    "metrics_to_registry",
    "shard_of",
    "CHECKPOINT_VERSION",
    "save_model",
    "load_model",
    "model_to_bytes",
    "model_from_bytes",
    "clone_model",
    "weights_snapshot",
]
