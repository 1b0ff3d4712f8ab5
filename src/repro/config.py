"""Configuration dataclasses for every component of the library.

The defaults follow Section V-A of the paper:

* noisy-label threshold ``alpha = 0.5``
* normal-route threshold ``delta = 0.4``
* delayed-labeling window ``D = 8``
* 24 time slots (one hour granularity)
* 128-dimensional embeddings / LSTM hidden units
* learning rates 0.01 (RSRNet) and 0.001 (ASDNet)
* 200 trajectories for pre-training, 10,000 for joint training, 5 epochs
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exceptions import ConfigurationError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class RoadNetworkConfig:
    """Parameters of the synthetic road network."""

    grid_rows: int = 24
    grid_cols: int = 24
    cell_length_m: float = 220.0
    diagonal_fraction: float = 0.15
    removal_fraction: float = 0.05
    speed_limit_range: tuple = (8.0, 17.0)
    seed: int = 7

    def validate(self) -> "RoadNetworkConfig":
        _require(self.grid_rows >= 2 and self.grid_cols >= 2,
                 "grid must be at least 2x2")
        _require(self.cell_length_m > 0, "cell_length_m must be positive")
        _require(0.0 <= self.diagonal_fraction <= 1.0,
                 "diagonal_fraction must be in [0, 1]")
        _require(0.0 <= self.removal_fraction < 0.5,
                 "removal_fraction must be in [0, 0.5)")
        return self


@dataclass(frozen=True)
class MapMatchingConfig:
    """Parameters of the HMM map matcher.

    ``distance_cache_size`` bounds the LRU cache of segment-pair network
    distances shared by every match (and, through
    :class:`~repro.mapmatching.online.OnlineMapMatcher`, by every vehicle of
    a streaming fleet); consecutive GPS points of many trajectories repeat
    the same segment pairs, so the cache is hot but must not grow without
    bound on a long-running gateway.

    ``routing_max_hops`` bounds the Dijkstra that fills a cache miss: the
    search answers ``inf`` once ``8 * routing_max_hops`` segments have been
    popped off its frontier without reaching the target. The factor is part
    of the result — it decides which candidate pairs count as unreachable —
    so it is documented here rather than "corrected"; values below 1 would
    make every pair unreachable and are rejected. A Viterbi column runs one
    search per predecessor segment (per-pair answers; counts per pair).
    """

    gps_sigma_m: float = 12.0
    transition_beta: float = 2.0
    candidate_radius_m: float = 60.0
    max_candidates: int = 8
    routing_max_hops: int = 60
    distance_cache_size: int = 65536

    def validate(self) -> "MapMatchingConfig":
        _require(self.gps_sigma_m > 0, "gps_sigma_m must be positive")
        _require(self.transition_beta > 0, "transition_beta must be positive")
        _require(self.candidate_radius_m > 0, "candidate_radius_m must be positive")
        _require(self.max_candidates >= 1, "max_candidates must be >= 1")
        _require(self.routing_max_hops >= 1, "routing_max_hops must be >= 1")
        _require(self.distance_cache_size >= 1,
                 "distance_cache_size must be >= 1")
        return self


@dataclass(frozen=True)
class DataGenConfig:
    """Parameters of the synthetic taxi-trajectory generator."""

    n_sd_pairs: int = 60
    trajectories_per_pair: int = 40
    anomaly_ratio: float = 0.08
    n_normal_routes: tuple = (1, 3)
    detour_length_range: tuple = (3, 10)
    max_detours_per_trajectory: int = 2
    sampling_period_s: tuple = (2.0, 4.0)
    gps_noise_m: float = 8.0
    min_route_length: int = 6
    max_route_length: int = 70
    seed: int = 11

    def validate(self) -> "DataGenConfig":
        _require(self.n_sd_pairs >= 1, "n_sd_pairs must be >= 1")
        _require(self.trajectories_per_pair >= 2,
                 "trajectories_per_pair must be >= 2")
        _require(0.0 <= self.anomaly_ratio <= 1.0,
                 "anomaly_ratio must be in [0, 1]")
        _require(self.n_normal_routes[0] >= 1, "need at least one normal route")
        _require(self.detour_length_range[0] >= 1,
                 "detour length must be at least one segment")
        _require(self.min_route_length >= 2, "routes need at least two segments")
        return self


@dataclass(frozen=True)
class LabelingConfig:
    """Parameters of data preprocessing (noisy labels and normal route features)."""

    alpha: float = 0.5
    delta: float = 0.4
    time_slots_per_day: int = 24
    min_slot_group_size: int = 10

    def validate(self) -> "LabelingConfig":
        _require(0.0 < self.alpha < 1.0, "alpha must be in (0, 1)")
        _require(0.0 < self.delta < 1.0, "delta must be in (0, 1)")
        _require(self.min_slot_group_size >= 1,
                 "min_slot_group_size must be >= 1")
        _require(1 <= self.time_slots_per_day <= 24,
                 "time_slots_per_day must be between 1 and 24")
        return self


@dataclass(frozen=True)
class RSRNetConfig:
    """Road Segment Representation Network hyper-parameters."""

    embedding_dim: int = 128
    hidden_dim: int = 128
    nrf_dim: int = 128
    learning_rate: float = 0.01
    grad_clip: float = 5.0
    seed: int = 17

    def validate(self) -> "RSRNetConfig":
        _require(self.embedding_dim >= 1, "embedding_dim must be >= 1")
        _require(self.hidden_dim >= 1, "hidden_dim must be >= 1")
        _require(self.learning_rate > 0, "learning_rate must be positive")
        return self


@dataclass(frozen=True)
class ASDNetConfig:
    """Anomalous Subtrajectory Detection Network hyper-parameters."""

    label_embedding_dim: int = 128
    learning_rate: float = 0.001
    grad_clip: float = 5.0
    seed: int = 19

    def validate(self) -> "ASDNetConfig":
        _require(self.label_embedding_dim >= 1,
                 "label_embedding_dim must be >= 1")
        _require(self.learning_rate > 0, "learning_rate must be positive")
        return self


@dataclass(frozen=True)
class TrainingConfig:
    """Joint training schedule of RSRNet and ASDNet (Section IV-D).

    ``batch_size`` selects how many trajectories share one vectorized
    training step (episodes run time-step-synchronously across the batch and
    each network takes one optimizer step per batch). The default of 1 is
    Algorithm 2 as the paper reads: one episode and one update of each
    network per trajectory, in sample order. Above 1, batches are assembled
    from length-sorted trajectories so ragged batches waste less padding (a
    batch's cost is ``B * max(n_b)``).
    """

    pretrain_trajectories: int = 200
    pretrain_epochs: int = 1
    joint_trajectories: int = 10000
    joint_epochs: int = 5
    batch_size: int = 1
    validation_interval: int = 100
    validation_sample: int = 100
    delayed_labeling_window: int = 8
    use_rnel: bool = True
    use_delayed_labeling: bool = True
    use_local_reward: bool = True
    use_global_reward: bool = True
    use_noisy_labels: bool = True
    use_pretrained_embeddings: bool = True
    use_asdnet: bool = True
    seed: int = 23

    def validate(self) -> "TrainingConfig":
        _require(self.pretrain_trajectories >= 1,
                 "pretrain_trajectories must be >= 1")
        _require(self.pretrain_epochs >= 1, "pretrain_epochs must be >= 1")
        _require(self.joint_epochs >= 1, "joint_epochs must be >= 1")
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(self.validation_interval >= 1, "validation_interval must be >= 1")
        _require(self.validation_sample >= 1, "validation_sample must be >= 1")
        _require(self.delayed_labeling_window >= 0,
                 "delayed_labeling_window must be >= 0")
        return self


@dataclass(frozen=True)
class ObsConfig:
    """Parameters of the observability plane (:mod:`repro.obs`).

    ``trace_sample_rate`` is the probability that one raw fix (gateway
    path) or one ingest event (direct service path) is traced through the
    pipeline's seven stages; 0 (the default) keeps tracing fully off the
    hot path — no context is ever allocated. ``keep_spans`` retains up to
    ``max_spans`` individual :class:`~repro.obs.Span` records per tracer
    for the JSONL export (stage histograms are always recorded for traced
    fixes, spans are the optional detail).
    """

    trace_sample_rate: float = 0.0
    keep_spans: bool = True
    max_spans: int = 10_000

    def validate(self) -> "ObsConfig":
        _require(0.0 <= self.trace_sample_rate <= 1.0,
                 "trace_sample_rate must be in [0, 1]")
        _require(self.max_spans >= 0, "max_spans must be >= 0")
        return self


@dataclass(frozen=True)
class GatewayConfig:
    """Parameters of the raw-GPS ingest gateway (:mod:`repro.ingest`).

    ``reorder_window`` is how many GPS fixes per vehicle the gateway buffers
    to repair out-of-order arrival (a fix arriving more than ``reorder_window``
    points late is dropped and counted). ``session_gap_s`` splits a vehicle's
    stream into separate trip sessions when consecutive fixes are further
    apart in time (each session becomes its own SD-pair stream in the
    detection service). ``max_pending_points`` bounds the online matcher's
    uncommitted lattice — the per-point commit-latency bound: when
    backpointer convergence has not committed a point after that many
    successors, emission is forced. ``ingest_batch`` groups the matched
    segments the gateway forwards into per-shard batched puts (1 flushes
    every one as a batch of one); ``max_retries`` / ``retry_wait_s``
    configure the backpressure retry loop.

    ``session_timeout_s`` is the wall-clock idle bound consulted by
    :meth:`GpsGateway.advance_clock`: a vehicle whose newest known fix is
    older than this is closed without waiting for a later fix or an explicit
    ``end`` (``None`` reuses ``session_gap_s``; an explicit value must be
    positive — 0 would close every vehicle on the first tick).
    ``max_vehicles`` bounds the per-vehicle state the gateway (and through
    it the online matcher) keeps: when a new vehicle would exceed the bound,
    the least recently active vehicle is closed and evicted (0 means
    unbounded).

    Every session closes through the service's results bus; a closing call
    returns the :class:`~repro.ingest.SessionResult`\\ s the bus holds after
    one pump, and :meth:`GpsGateway.poll_sessions` /
    :meth:`GpsGateway.drain_sessions` collect the rest. ``max_retries`` /
    ``retry_wait_s`` bound each close's queueing as they bound ingest.
    """

    reorder_window: int = 8
    session_gap_s: float = 300.0
    session_timeout_s: Optional[float] = None
    max_vehicles: int = 0
    max_pending_points: int = 64
    ingest_batch: int = 32
    max_retries: int = 10000
    retry_wait_s: float = 0.0005

    def validate(self) -> "GatewayConfig":
        _require(self.reorder_window >= 0, "reorder_window must be >= 0")
        _require(self.session_gap_s > 0, "session_gap_s must be positive")
        _require(self.session_timeout_s is None or self.session_timeout_s > 0,
                 "session_timeout_s must be positive when set "
                 "(None reuses session_gap_s)")
        _require(self.max_vehicles >= 0,
                 "max_vehicles must be >= 0 (0 means unbounded)")
        _require(self.max_pending_points >= 2,
                 "max_pending_points must be >= 2")
        _require(self.ingest_batch >= 1, "ingest_batch must be >= 1")
        _require(self.max_retries >= 1, "max_retries must be >= 1")
        _require(self.retry_wait_s >= 0, "retry_wait_s must be >= 0")
        return self

