"""Observability of the sharded detection service.

Every shard reports one :class:`ShardStats` (points labeled, batched ticks,
busy wall clock, queue depth, prefix-state hit rate, streams, weight swaps);
:class:`ServiceMetrics` rolls the fleet view together, and
:func:`metrics_to_registry` expresses it as the Prometheus exposition.

Each exported field declares its own exposition: :func:`counter` and
:func:`gauge` are ``dataclasses.field`` with the metric kind and help text,
and the metric is named ``repro_<scope>_<field>`` (plus ``_total`` for a
counter) after its class's ``metric_scope``. Adding a fleet metric is one
such field plus the code that fills it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import ClassVar, Dict, List, Optional, Tuple


def counter(help: str, name: Optional[str] = None,
            label: Optional[Tuple[str, str]] = None, default=0):
    """A stats field exported as a counter.

    ``name`` replaces the derived metric name; ``label`` is one fixed
    ``(key, value)`` pair on the field's sample, so fields sharing a
    ``name`` form one labelled family.
    """
    return field(default=default, metadata={
        "kind": "counter", "help": help, "name": name,
        "labels": (label,) if label else ()})


def gauge(help: str):
    """A stats field exported as a gauge (named without ``_total``)."""
    return field(default=0, metadata={
        "kind": "gauge", "help": help, "name": None, "labels": ()})


@lru_cache(maxsize=None)
def exported_fields(stats_type) -> Tuple[tuple, ...]:
    """``(attribute, kind, metric name, fixed labels, help)`` for each field
    of ``stats_type`` declared with :func:`counter` or :func:`gauge`."""
    exported = []
    for spec in fields(stats_type):
        kind = spec.metadata.get("kind")
        if kind is not None:
            name = spec.metadata["name"] or (
                f"repro_{stats_type.metric_scope}_{spec.name}"
                + ("_total" if kind == "counter" else ""))
            exported.append((spec.name, kind, name, spec.metadata["labels"],
                             spec.metadata["help"]))
    return tuple(exported)


@dataclass
class ShardStats:
    """A point-in-time snapshot of one worker shard."""

    metric_scope: ClassVar[str] = "shard"

    shard_id: int
    backend: str
    points_processed: int = counter("Points labeled by this shard")
    ticks: int = counter("Batched ticks run by this shard")
    busy_seconds: float = counter("Wall clock this shard spent working",
                                  default=0.0)
    queue_depth: int = gauge("Commands waiting in the shard queue")
    pending_points: int = gauge("Points ingested but not yet labeled")
    streams_open: int = gauge("Streams currently in flight")
    streams_finalized: int = counter("Streams closed by this shard")
    cache_hits: int = counter(
        "Recurrent steps served from the prefix-state table")
    cache_misses: int = counter(
        "Recurrent steps computed into the prefix-state table")
    swaps: int = counter("Control-plane swaps applied")
    history_version: int = gauge(
        "History snapshot version this shard serves")
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

    metric_scope: ClassVar[str] = "bus"

    shard_id: int
    published: int = counter("Envelopes published on the shard bus")
    delivered: int = counter("Envelopes taken toward the facade")
    redelivered: int = counter("Envelopes re-queued by a replay")
    acked_seq: int = gauge("Highest acknowledged sequence number")
    depth: int = gauge("Published, not yet taken")
    unacked: int = gauge("Taken, not yet acknowledged")

    @property
    def lag(self) -> int:
        """Published envelopes not yet acknowledged by the facade."""
        return self.depth + self.unacked


def _dropped(reason: str):
    return counter("Fixes dropped at the gateway",
                   "repro_gateway_dropped_points_total", ("reason", reason))


def _session(event: str):
    return counter("Session lifecycle events",
                   "repro_gateway_sessions_total", ("event", event))


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

    metric_scope: ClassVar[str] = "gateway"

    raw_points: int = counter("Raw GPS fixes pushed into the gateway")
    matched_points: int = counter("Fixes matched to a road segment")
    segments_emitted: int = counter("Segments forwarded into the service")
    late_dropped: int = _dropped("late")
    duplicates_dropped: int = _dropped("duplicate")
    unmatched_dropped: int = _dropped("unmatchable")
    sessions_opened: int = _session("opened")
    sessions_closed: int = _session("closed")
    sessions_dropped: int = _session("dropped")
    sessions_broken: int = _session("broken")
    gap_splits: int = _session("gap_split")
    session_timeouts: int = _session("timeout")
    vehicles_evicted: int = _session("evicted")
    commits: int = counter("Online match commits")
    forced_commits: int = counter("Window-forced match commits")
    max_commit_lag: int = 0
    mean_commit_lag: float = 0.0
    batched_flushes: int = counter("Batched ingest flushes")
    reorder_buffered: int = gauge("Fixes held in reorder buffers")
    distance_cache_pairs: int = gauge(
        "Segment pairs held by the matcher's distance cache")
    distance_cache_hits: int = counter(
        "Segment pairs served from the matcher's distance cache")
    distance_cache_misses: int = counter(
        "Segment pairs routed into the matcher's distance cache")
    distance_cache_evictions: int = counter(
        "Segment pairs evicted from the matcher's distance cache")

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
    """The fleet view: all shard snapshots plus service-level counters.

    :class:`~repro.serve.service.DetectionService` counts into one of these
    as it runs; :meth:`~repro.serve.service.DetectionService.metrics`
    copies it with the shard, bus and result fields filled in.
    """

    metric_scope: ClassVar[str] = "service"

    shards: List[ShardStats] = field(default_factory=list)
    accepted_ingests: int = counter("Ingest events accepted")
    rejected_ingests: int = counter("Ingest events rejected (backpressure)")
    batched_ingests: int = counter("Batched ingest commands delivered")
    async_finalizes: int = counter("Streams closed through the data plane")
    model_version: int = gauge("Model version the shards serve")
    history_version: int = gauge("History snapshot version the shards serve")
    history_refreshes: int = counter("Fleet-wide history hot-refreshes")
    #: History refreshes that rode the delta control plane (only the
    #: appended trajectories on the wire) vs. full-snapshot broadcasts,
    #: plus the serialized history payload bytes across both forms — the
    #: numbers that certify delta swaps are actually cheap.
    delta_swaps: int = counter(
        "History refreshes broadcast as version-keyed deltas",
        "repro_history_delta_swaps_total")
    full_swaps: int = counter("History refreshes broadcast as full snapshots",
                              "repro_history_full_swaps_total")
    swap_payload_bytes: int = counter(
        "Serialized history payload bytes across all swaps",
        "repro_history_swap_bytes_total")
    gateway: Optional[GatewayStats] = None
    bus: List[BusStats] = field(default_factory=list)
    results_delivered: int = counter("Envelopes accepted at the facade")
    results_duplicates: int = counter(
        "Redelivered envelopes dropped by the watermark")
    results_pending: int = gauge("Async closes still in flight")
    #: Sequence-number gaps observed by the facade's :class:`BusCollector`
    #: — the at-least-once certificate. Zero means no result was ever lost.
    results_gaps: int = counter(
        "Sequence gaps seen by the facade collector (0 = no loss)",
        "repro_bus_gaps_total")

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
    _export(registry, metrics)
    for how, count in metrics.history_derived.items():
        registry.counter("repro_history_derived_total", {"how": how},
                         help="Per-group statistics and route tallies "
                              "computed from a whole group, or extended by "
                              "what a refresh appended").inc(count)
    for stats in (*metrics.shards, *metrics.bus):
        _export(registry, stats, (("shard", str(stats.shard_id)),))
    if metrics.gateway is not None:
        _export(registry, metrics.gateway)
    return registry


def _export(registry, stats, labels: Tuple[Tuple[str, str], ...] = ()):
    """Write every declared field of one stats object into ``registry``."""
    for attr, kind, name, fixed, help_text in exported_fields(type(stats)):
        metric = getattr(registry, kind)(name, labels + fixed, help=help_text)
        if kind == "counter":
            metric.inc(getattr(stats, attr))
        else:
            metric.set(getattr(stats, attr))
