"""Observability of the sharded detection service.

Every shard reports one :class:`ShardStats` (points labeled, batched ticks,
busy wall clock, queue depth, prefix-state hit rate, streams, weight swaps);
:class:`ServiceMetrics` rolls the fleet view together, and
:func:`metrics_to_registry` expresses it as the Prometheus exposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class ShardStats:
    """A point-in-time snapshot of one worker shard."""

    shard_id: int
    backend: str
    points_processed: int = 0
    ticks: int = 0
    busy_seconds: float = 0.0
    queue_depth: int = 0
    pending_points: int = 0
    streams_open: int = 0
    streams_finalized: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    swaps: int = 0
    history_version: int = 0
    history_refreshes: int = 0
    #: Memo values of the history lineage this shard serves (it restarts
    #: with a full-snapshot swap): derived from a whole SD-pair group on a
    #: miss, or extended across a refresh by what the refresh appended. A
    #: delta swap into a warm shard should add only to the second.
    #: In-process shards serve one shared pipeline, so each reports that
    #: one lineage — do not sum them; see ``ServiceMetrics.history_derived``.
    history_computed: int = 0
    history_extended: int = 0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def mean_tick_batch(self) -> float:
        """Average streams advanced per batched tick (the batching win)."""
        return self.points_processed / self.ticks if self.ticks else 0.0


@dataclass
class BusStats:
    """A point-in-time snapshot of one shard's results bus.

    Produced by :class:`~repro.serve.resultbus.ShardResultBus` and surfaced
    through :meth:`DetectionService.bus_stats` / :meth:`DetectionService.
    metrics`. ``depth`` is the outbox (published, not yet taken toward the
    facade); ``unacked`` the at-least-once retention window (taken, not yet
    acknowledged); ``lag`` their sum — how far the shard's publications run
    ahead of the facade's confirmed consumption. ``redelivered`` counts
    envelopes re-queued by a replay; a healthy run that never replays keeps
    it 0.
    """

    shard_id: int
    published: int = 0
    delivered: int = 0
    redelivered: int = 0
    acked_seq: int = 0
    depth: int = 0
    unacked: int = 0

    @property
    def lag(self) -> int:
        """Published envelopes not yet acknowledged by the facade."""
        return self.depth + self.unacked


@dataclass
class GatewayStats:
    """A point-in-time snapshot of a raw-GPS ingest gateway.

    Tracks the messy-input funnel (raw fixes in → reordered → matched →
    segments emitted into the service) and the online matcher's commit
    behaviour (convergence vs. window-forced commits, commit lag measured in
    follow-up points). Produced by :meth:`repro.ingest.GpsGateway.metrics`,
    which attaches it to the service's :class:`ServiceMetrics`.

    The ``distance_cache_*`` fields are the matcher's segment-pair distance
    cache read at snapshot time (nothing is counted per fix for them): pairs
    held now against ``MapMatchingConfig.distance_cache_size``, and lifetime
    pair hits, misses and evictions. A cache that never evicts and sits
    under half its bound also never reorders its rows on a hit (the cache's
    recency contract); these four numbers are how an operator checks that.
    """

    raw_points: int = 0
    matched_points: int = 0
    segments_emitted: int = 0
    late_dropped: int = 0
    duplicates_dropped: int = 0
    unmatched_dropped: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    sessions_dropped: int = 0
    sessions_broken: int = 0
    gap_splits: int = 0
    session_timeouts: int = 0
    vehicles_evicted: int = 0
    commits: int = 0
    forced_commits: int = 0
    max_commit_lag: int = 0
    mean_commit_lag: float = 0.0
    batched_flushes: int = 0
    reorder_buffered: int = 0
    distance_cache_pairs: int = 0
    distance_cache_hits: int = 0
    distance_cache_misses: int = 0
    distance_cache_evictions: int = 0

    @property
    def dropped_points(self) -> int:
        return (self.late_dropped + self.duplicates_dropped
                + self.unmatched_dropped)

    @property
    def drop_rate(self) -> float:
        return self.dropped_points / self.raw_points if self.raw_points else 0.0

    @property
    def forced_commit_rate(self) -> float:
        return self.forced_commits / self.commits if self.commits else 0.0

    def format(self) -> str:
        return (
            f"GpsGateway: {self.raw_points} raw fixes -> "
            f"{self.matched_points} matched -> "
            f"{self.segments_emitted} segments "
            f"(dropped {self.late_dropped} late, "
            f"{self.duplicates_dropped} duplicate, "
            f"{self.unmatched_dropped} unmatchable), "
            f"{self.sessions_closed} sessions closed "
            f"({self.gap_splits} gap splits, {self.session_timeouts} "
            f"timeouts, {self.sessions_dropped} empty, "
            f"{self.sessions_broken} broken, "
            f"{self.vehicles_evicted} vehicles evicted), "
            f"commit lag mean {self.mean_commit_lag:.1f} / "
            f"max {self.max_commit_lag} points "
            f"({self.forced_commit_rate:.1%} forced), "
            f"{self.batched_flushes} batched flushes")


@dataclass
class ServiceMetrics:
    """The fleet view: all shard snapshots plus service-level counters."""

    shards: List[ShardStats] = field(default_factory=list)
    accepted_ingests: int = 0
    rejected_ingests: int = 0
    batched_ingests: int = 0
    async_finalizes: int = 0
    model_version: int = 0
    history_version: int = 0
    history_refreshes: int = 0
    #: History refreshes that rode the delta control plane (only the
    #: appended trajectories on the wire) vs. full-snapshot broadcasts,
    #: plus the serialized history payload bytes across both forms — the
    #: numbers that certify delta swaps are actually cheap.
    delta_swaps: int = 0
    full_swaps: int = 0
    swap_payload_bytes: int = 0
    gateway: Optional[GatewayStats] = None
    bus: List[BusStats] = field(default_factory=list)
    results_delivered: int = 0
    results_duplicates: int = 0
    results_pending: int = 0
    #: Sequence-number gaps observed by the facade's :class:`BusCollector`
    #: — the at-least-once certificate. Zero means no result was ever lost.
    results_gaps: int = 0

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_points(self) -> int:
        return sum(shard.points_processed for shard in self.shards)

    @property
    def streams_open(self) -> int:
        return sum(shard.streams_open for shard in self.shards)

    @property
    def streams_finalized(self) -> int:
        return sum(shard.streams_finalized for shard in self.shards)

    @property
    def cache_hit_rate(self) -> float:
        hits = sum(shard.cache_hits for shard in self.shards)
        misses = sum(shard.cache_misses for shard in self.shards)
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def history_derived(self) -> Dict[str, int]:
        """History memo values ``computed`` from a whole group and
        ``extended`` across a refresh, each lineage counted once: worker
        processes own a pipeline each, in-process shards share one (and
        all report its counts)."""
        shards = self.shards
        if shards and shards[0].backend == "inprocess":
            shards = shards[:1]
        return {
            "computed": sum(shard.history_computed for shard in shards),
            "extended": sum(shard.history_extended for shard in shards)}

    @property
    def rejection_rate(self) -> float:
        total = self.accepted_ingests + self.rejected_ingests
        return self.rejected_ingests / total if total else 0.0

    @property
    def bus_lag(self) -> int:
        """Fleet-wide envelopes published but not yet acknowledged."""
        return sum(stats.lag for stats in self.bus)

    @property
    def bus_redelivered(self) -> int:
        return sum(stats.redelivered for stats in self.bus)

    def format(self) -> str:
        """A compact multi-line dashboard of the fleet (for logs/benchmarks)."""
        lines = [
            f"DetectionService: {self.num_shards} shard(s), "
            f"{self.total_points} points labeled, "
            f"{self.streams_finalized} trips finalized "
            f"({self.streams_open} in flight), "
            f"prefix-state hit rate {self.cache_hit_rate:.1%}, "
            f"backpressure rejections {self.rejected_ingests} "
            f"({self.rejection_rate:.1%}), "
            f"{self.batched_ingests} batched ingests, "
            f"model v{self.model_version}, "
            f"history v{self.history_version} "
            f"({self.history_refreshes} refreshes: "
            f"{self.delta_swaps} delta / {self.full_swaps} full, "
            f"{self.swap_payload_bytes} payload bytes)",
        ]
        for shard in self.shards:
            lines.append(
                f"  shard[{shard.shard_id}] ({shard.backend}): "
                f"{shard.points_processed} pts in {shard.ticks} ticks "
                f"(avg batch {shard.mean_tick_batch:.1f}), "
                f"queue {shard.queue_depth}, pending {shard.pending_points}, "
                f"prefix states {shard.cache_hit_rate:.1%}, "
                f"swaps {shard.swaps}, "
                f"history v{shard.history_version}")
        if self.bus:
            lines.append(
                f"  results bus: "
                f"{sum(s.published for s in self.bus)} published, "
                f"{self.results_delivered} accepted at the facade "
                f"({self.results_duplicates} duplicates dropped, "
                f"{self.bus_redelivered} redelivered), "
                f"lag {self.bus_lag}, pending {self.results_pending}, "
                f"{self.async_finalizes} async finalizes")
        if self.gateway is not None:
            lines.append(f"  {self.gateway.format()}")
        return "\n".join(lines)


def metrics_to_registry(metrics: ServiceMetrics, registry=None):
    """Express a :class:`ServiceMetrics` snapshot as a metrics registry.

    The one mapping between the ``format()`` dashboards and the Prometheus
    exposition: both read the same snapshot, so they can never disagree.
    Writes into a fresh :class:`repro.obs.MetricsRegistry` (or the one
    passed in) — callers merge the result with the trace registries for
    the full scrape payload. Snapshot semantics: call again for a newer
    view, never merge two views of the same service into one registry.
    """
    from ..obs.registry import MetricsRegistry

    registry = registry if registry is not None else MetricsRegistry()
    service_counters = {
        "repro_service_accepted_ingests_total":
            (metrics.accepted_ingests, "Ingest events accepted"),
        "repro_service_rejected_ingests_total":
            (metrics.rejected_ingests, "Ingest events rejected (backpressure)"),
        "repro_service_batched_ingests_total":
            (metrics.batched_ingests, "Batched ingest commands delivered"),
        "repro_service_async_finalizes_total":
            (metrics.async_finalizes, "Streams closed through the data plane"),
        "repro_service_history_refreshes_total":
            (metrics.history_refreshes, "Fleet-wide history hot-refreshes"),
        "repro_history_delta_swaps_total":
            (metrics.delta_swaps,
             "History refreshes broadcast as version-keyed deltas"),
        "repro_history_full_swaps_total":
            (metrics.full_swaps,
             "History refreshes broadcast as full snapshots"),
        "repro_history_swap_bytes_total":
            (metrics.swap_payload_bytes,
             "Serialized history payload bytes across all swaps"),
        "repro_service_results_delivered_total":
            (metrics.results_delivered, "Envelopes accepted at the facade"),
        "repro_service_results_duplicates_total":
            (metrics.results_duplicates,
             "Redelivered envelopes dropped by the watermark"),
        "repro_bus_gaps_total":
            (metrics.results_gaps,
             "Sequence gaps seen by the facade collector (0 = no loss)"),
    }
    for name, (value, help_text) in service_counters.items():
        registry.counter(name, help=help_text).inc(value)
    for how, count in metrics.history_derived.items():
        registry.counter("repro_history_derived_total", {"how": how},
                         help="Per-group statistics and route tallies "
                              "computed from a whole group, or extended by "
                              "what a refresh appended").inc(count)
    registry.gauge("repro_service_model_version",
                   help="Model version the shards serve").set(
        metrics.model_version)
    registry.gauge("repro_service_history_version",
                   help="History snapshot version the shards serve").set(
        metrics.history_version)
    registry.gauge("repro_service_results_pending",
                   help="Async closes still in flight").set(
        metrics.results_pending)

    for shard in metrics.shards:
        labels = {"shard": str(shard.shard_id)}
        registry.counter("repro_shard_points_processed_total", labels,
                         help="Points labeled by this shard").inc(
            shard.points_processed)
        registry.counter("repro_shard_ticks_total", labels,
                         help="Batched ticks run by this shard").inc(
            shard.ticks)
        registry.counter("repro_shard_busy_seconds_total", labels,
                         help="Wall clock this shard spent working").inc(
            shard.busy_seconds)
        registry.counter("repro_shard_streams_finalized_total", labels,
                         help="Streams closed by this shard").inc(
            shard.streams_finalized)
        registry.counter("repro_shard_cache_hits_total", labels,
                         help="Recurrent steps served from the prefix-state "
                              "table").inc(
            shard.cache_hits)
        registry.counter("repro_shard_cache_misses_total", labels,
                         help="Recurrent steps computed into the "
                              "prefix-state table").inc(
            shard.cache_misses)
        registry.counter("repro_shard_swaps_total", labels,
                         help="Control-plane swaps applied").inc(shard.swaps)
        registry.gauge("repro_shard_queue_depth", labels,
                       help="Commands waiting in the shard queue").set(
            shard.queue_depth)
        registry.gauge("repro_shard_pending_points", labels,
                       help="Points ingested but not yet labeled").set(
            shard.pending_points)
        registry.gauge("repro_shard_streams_open", labels,
                       help="Streams currently in flight").set(
            shard.streams_open)
        registry.gauge("repro_shard_history_version", labels,
                       help="History snapshot version this shard serves").set(
            shard.history_version)

    for bus in metrics.bus:
        labels = {"shard": str(bus.shard_id)}
        registry.counter("repro_bus_published_total", labels,
                         help="Envelopes published on the shard bus").inc(
            bus.published)
        registry.counter("repro_bus_delivered_total", labels,
                         help="Envelopes taken toward the facade").inc(
            bus.delivered)
        registry.counter("repro_bus_redelivered_total", labels,
                         help="Envelopes re-queued by a replay").inc(
            bus.redelivered)
        registry.gauge("repro_bus_acked_seq", labels,
                       help="Highest acknowledged sequence number").set(
            bus.acked_seq)
        registry.gauge("repro_bus_depth", labels,
                       help="Published, not yet taken").set(bus.depth)
        registry.gauge("repro_bus_unacked", labels,
                       help="Taken, not yet acknowledged").set(bus.unacked)

    gateway = metrics.gateway
    if gateway is not None:
        registry.counter("repro_gateway_raw_points_total",
                         help="Raw GPS fixes pushed into the gateway").inc(
            gateway.raw_points)
        registry.counter("repro_gateway_matched_points_total",
                         help="Fixes matched to a road segment").inc(
            gateway.matched_points)
        registry.counter("repro_gateway_segments_emitted_total",
                         help="Segments forwarded into the service").inc(
            gateway.segments_emitted)
        for reason, count in (("late", gateway.late_dropped),
                              ("duplicate", gateway.duplicates_dropped),
                              ("unmatchable", gateway.unmatched_dropped)):
            registry.counter("repro_gateway_dropped_points_total",
                             {"reason": reason},
                             help="Fixes dropped at the gateway").inc(count)
        for event, count in (("opened", gateway.sessions_opened),
                             ("closed", gateway.sessions_closed),
                             ("dropped", gateway.sessions_dropped),
                             ("broken", gateway.sessions_broken),
                             ("gap_split", gateway.gap_splits),
                             ("timeout", gateway.session_timeouts),
                             ("evicted", gateway.vehicles_evicted)):
            registry.counter("repro_gateway_sessions_total", {"event": event},
                             help="Session lifecycle events").inc(count)
        registry.counter("repro_gateway_commits_total",
                         help="Online match commits").inc(gateway.commits)
        registry.counter("repro_gateway_forced_commits_total",
                         help="Window-forced match commits").inc(
            gateway.forced_commits)
        registry.counter("repro_gateway_batched_flushes_total",
                         help="Batched ingest flushes").inc(
            gateway.batched_flushes)
        registry.gauge("repro_gateway_reorder_buffered",
                       help="Fixes held in reorder buffers").set(
            gateway.reorder_buffered)
        registry.gauge("repro_gateway_distance_cache_pairs",
                       help="Segment pairs held by the matcher's distance "
                            "cache").set(gateway.distance_cache_pairs)
        for name, count, what in (
                ("hits", gateway.distance_cache_hits, "served from"),
                ("misses", gateway.distance_cache_misses, "routed into"),
                ("evictions", gateway.distance_cache_evictions,
                 "evicted from")):
            registry.counter(
                f"repro_gateway_distance_cache_{name}_total",
                help=f"Segment pairs {what} the matcher's distance cache"
            ).inc(count)
    return registry
