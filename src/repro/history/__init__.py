"""Versioned normal-route history with atomic fleet-wide hot-refresh.

The history subsystem is the single source of truth for the per-SD-pair
trajectory history every RL4OASD label is anchored in:

* :class:`HistorySnapshot` — an immutable, monotonically-versioned view
  (copy-on-write SD-pair maps with structural sharing, memoized derived
  statistics/route-tally caches that a refresh extends instead of drops).
* :class:`RouteHistoryStore` — mints snapshots: ``extend`` appends new
  trajectories copy-on-write, ``rebuild`` replaces the window wholesale.
* :class:`HistoryDelta` / :func:`apply_delta` / :func:`merge_deltas` — the
  delta control plane: each copy-on-write refresh doubles as a
  version-keyed delta of only the appended trajectories, the store keeps a
  bounded chain of them (:meth:`RouteHistoryStore.delta_chain`), and a
  receiver at the base version reproduces the successor snapshot
  bit-identically without ever shipping the corpus.
* :func:`snapshot_to_bytes` / :func:`snapshot_from_bytes` /
  :func:`clone_snapshot` (and the ``delta_*`` twins of the first two) —
  the serialization the serving layer's history ``swap`` broadcast rides on.
* :class:`HistoryArchive` — durable content-addressed persistence:
  per-group blobs shared across versions plus one provenance-stamped
  manifest per version (``save`` / ``load`` / ``gc``).
* :class:`RollForwardDriver` — scheduled windowed ``rebuild`` feeding
  ``swap`` on a tick, the production form of the paper's drift loop.

Readers (:class:`~repro.labeling.features.PreprocessingPipeline`,
:class:`~repro.core.stream.StreamEngine`,
:class:`~repro.serve.service.DetectionService`) pin a snapshot and refresh
to a newer one atomically — in-flight streams keep the version they opened
with until they finalize, so labels stay deterministic mid-stream.
"""

from .persistence import HistoryArchive
from .rollforward import RollForwardDriver, RollForwardStats
from .store import (HistoryDelta, HistorySnapshot, RouteHistoryStore,
                    apply_delta, clone_snapshot, delta_from_bytes,
                    delta_to_bytes, merge_deltas,
                    snapshot_from_bytes, snapshot_to_bytes)

__all__ = [
    "HistorySnapshot",
    "RouteHistoryStore",
    "HistoryDelta",
    "apply_delta",
    "merge_deltas",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
    "clone_snapshot",
    "delta_to_bytes",
    "delta_from_bytes",
    "HistoryArchive",
    "RollForwardDriver",
    "RollForwardStats",
]
