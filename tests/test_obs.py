"""Tests of the observability plane (:mod:`repro.obs`).

Three layers:

* **Primitives** — counters/gauges/histograms merge exactly (hypothesis
  pins merge associativity and commutativity, the property the process
  backend's ship-registries-home design rests on), the seeded reservoir
  matches inline Algorithm-R, and everything survives a pickle round trip.
* **Exposition** — ``render_prometheus`` golden output, the
  ``parse_prometheus`` inverse, and the stdlib scrape endpoint.
* **Pipeline wiring** — a traced gateway→service→bus run covers all seven
  ``STAGES`` on both backends, spans keep
  pipeline order per trace, tracing never changes a label, rate 0 records
  nothing and allocates nothing on the hot path, and the text exposition
  always agrees with the ``ServiceMetrics``/``GatewayStats`` dashboards.
"""

from __future__ import annotations

import json
import pickle
import random
import tracemalloc
import urllib.request
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GatewayConfig, ObsConfig
from repro.datagen import sample_gps_trace
from repro.exceptions import ConfigurationError, ServiceError
from repro.ingest import GpsGateway, serve_raw_fleet
from repro.mapmatching import HMMMapMatcher
from repro.obs import (Counter, Gauge, Histogram, MetricsRegistry,
                       MetricsServer, Reservoir, STAGE_LATENCY_METRIC,
                       STAGES, TraceContext, Tracer, default_latency_buckets,
                       parse_prometheus, render_prometheus, timestamp,
                       write_spans_jsonl)
from repro.serve import serve_fleet

BUCKETS = (0.001, 0.01, 0.1, 1.0)
samples_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    max_size=50)


def histogram_of(values, name="h"):
    histogram = Histogram(name, buckets=BUCKETS)
    for value in values:
        histogram.observe(value)
    return histogram


def assert_histograms_equal(left, right):
    assert left.counts == right.counts
    assert left.count == right.count
    assert left.total == pytest.approx(right.total)
    assert left.minimum == right.minimum
    assert left.maximum == right.maximum


# ------------------------------------------------------------- primitives
def test_counter_merges_by_addition_and_rejects_decrements():
    a = Counter("c")
    a.inc()
    a.inc(2.5)
    b = Counter("c")
    b.inc(4)
    a.merge(b)
    assert a.value == 7.5
    with pytest.raises(ValueError):
        a.inc(-1)


def test_gauge_merge_takes_the_incoming_value():
    facade, shard = Gauge("g"), Gauge("g")
    facade.set(3)
    shard.set(11)
    facade.merge(shard)
    assert facade.value == 11.0


def test_histogram_bucketing_and_exact_side_channels():
    histogram = histogram_of([0.001, 0.0005, 0.05, 0.5, 99.0])
    # Upper bounds are inclusive (bisect_left): 0.001 lands in its bucket.
    assert histogram.counts == [2, 0, 1, 1, 1]
    assert histogram.count == 5
    assert histogram.total == pytest.approx(0.001 + 0.0005 + 0.05 + 0.5 + 99)
    assert histogram.minimum == 0.0005
    assert histogram.maximum == 99.0
    assert histogram.mean == pytest.approx(histogram.total / 5)


def test_histogram_rejects_unsorted_buckets_and_foreign_merges():
    with pytest.raises(ValueError):
        Histogram("h", buckets=(1.0, 0.5))
    with pytest.raises(ValueError):
        Histogram("h", buckets=(1.0, 1.0, 2.0))
    left = Histogram("h", buckets=BUCKETS)
    right = Histogram("h", buckets=BUCKETS[:-1])
    with pytest.raises(ValueError):
        left.merge(right)


def test_empty_histogram_reports_zeros():
    histogram = Histogram("h", buckets=BUCKETS)
    assert histogram.count == 0
    assert histogram.mean == 0.0
    assert histogram.minimum == 0.0
    assert histogram.maximum == 0.0
    assert histogram.quantile(0.99) == 0.0


@given(samples_strategy, samples_strategy)
def test_histogram_merge_is_commutative(left_values, right_values):
    ab = histogram_of(left_values)
    ab.merge(histogram_of(right_values))
    ba = histogram_of(right_values)
    ba.merge(histogram_of(left_values))
    assert_histograms_equal(ab, ba)


@given(samples_strategy, samples_strategy, samples_strategy)
def test_histogram_merge_is_associative(a_values, b_values, c_values):
    left = histogram_of(a_values)
    left.merge(histogram_of(b_values))
    left.merge(histogram_of(c_values))
    bc = histogram_of(b_values)
    bc.merge(histogram_of(c_values))
    right = histogram_of(a_values)
    right.merge(bc)
    assert_histograms_equal(left, right)


@given(samples_strategy)
def test_histogram_merge_equals_single_stream(values):
    """Sharded observation merged home == one histogram fed everything."""
    merged = Histogram("h", buckets=BUCKETS)
    merged.merge(histogram_of(values[0::2]))
    merged.merge(histogram_of(values[1::2]))
    assert_histograms_equal(merged, histogram_of(values))


@given(samples_strategy.filter(lambda values: len(values) > 0))
def test_histogram_quantiles_are_ordered_and_clamped(values):
    histogram = histogram_of(values)
    quantiles = [histogram.quantile(q) for q in (0.0, 0.5, 0.95, 0.99, 1.0)]
    assert quantiles == sorted(quantiles)
    for value in quantiles:
        assert histogram.minimum <= value <= histogram.maximum
    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_default_latency_buckets_are_log_spaced_and_validated():
    buckets = default_latency_buckets()
    assert len(buckets) == 26
    assert buckets[0] == pytest.approx(1e-6)
    for lower, upper in zip(buckets, buckets[1:]):
        assert upper == pytest.approx(lower * 2.0)
    with pytest.raises(ValueError):
        default_latency_buckets(start=0.0)
    with pytest.raises(ValueError):
        default_latency_buckets(factor=1.0)


def test_registry_get_or_create_identity_and_kind_conflicts():
    registry = MetricsRegistry()
    counter = registry.counter("ingests", help="Ingest events")
    assert registry.counter("ingests") is counter
    assert registry.get("ingests") is counter
    assert registry.help_text("ingests") == "Ingest events"
    labeled = registry.counter("ingests", {"shard": "0"})
    assert labeled is not counter
    with pytest.raises(TypeError):
        registry.gauge("ingests")
    with pytest.raises(TypeError):
        registry.histogram("ingests")
    assert len(registry) == 2


def test_registry_merge_semantics_and_pickle_round_trip():
    shard = MetricsRegistry()
    shard.counter("points", {"shard": "1"}, help="points").inc(7)
    shard.gauge("depth", {"shard": "1"}).set(3)
    shard.histogram("latency", buckets=BUCKETS).observe(0.05)
    shipped = pickle.loads(pickle.dumps(shard))  # the worker reply hop

    facade = MetricsRegistry()
    facade.counter("points", {"shard": "1"}).inc(5)
    facade.gauge("depth", {"shard": "1"}).set(99)
    facade.histogram("latency", buckets=BUCKETS).observe(0.5)
    facade.merge(shipped)

    assert facade.counter("points", {"shard": "1"}).value == 12
    assert facade.gauge("depth", {"shard": "1"}).value == 3  # newer wins
    merged = facade.histogram("latency", buckets=BUCKETS)
    assert merged.count == 2
    assert merged.counts == [0, 0, 1, 1, 0]
    assert facade.help_text("points") == "points"


def test_reservoir_matches_inline_algorithm_r():
    """Same seed, same draws: the shared class is behavior-identical to the
    inline sampler the commit-lag reservoir used before the refactor."""
    values = list(range(1000))
    reservoir = Reservoir(cap=32, seed=0x1A6)
    reservoir.extend(values)

    rng = random.Random(0x1A6)
    inline, count = [], 0
    for value in values:
        count += 1
        if len(inline) < 32:
            inline.append(value)
            continue
        slot = rng.randrange(count)
        if slot < 32:
            inline[slot] = value

    assert reservoir.samples == inline
    assert reservoir.count == 1000
    assert len(reservoir) == 32
    with pytest.raises(ValueError):
        Reservoir(cap=0)


# ------------------------------------------------------------- exposition
def test_render_prometheus_golden():
    registry = MetricsRegistry()
    registry.counter("requests_total", help="Requests served").inc(3)
    registry.gauge("queue_depth", {"shard": "0"}).set(2)
    histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0),
                                   help="Request latency")
    histogram.observe(0.05)
    histogram.observe(0.5)
    histogram.observe(5.0)
    assert render_prometheus(registry) == (
        "# HELP latency_seconds Request latency\n"
        "# TYPE latency_seconds histogram\n"
        'latency_seconds_bucket{le="0.1"} 1\n'
        'latency_seconds_bucket{le="1"} 2\n'
        'latency_seconds_bucket{le="+Inf"} 3\n'
        "latency_seconds_sum 5.55\n"
        "latency_seconds_count 3\n"
        "# TYPE queue_depth gauge\n"
        'queue_depth{shard="0"} 2\n'
        "# HELP requests_total Requests served\n"
        "# TYPE requests_total counter\n"
        "requests_total 3\n")


def test_parse_prometheus_inverts_the_rendering():
    registry = MetricsRegistry()
    registry.counter("events_total", {"kind": 'quo"ted', "shard": "1"}).inc(4)
    registry.gauge("level").set(-2.5)
    histogram = registry.histogram("wait_seconds", buckets=BUCKETS)
    for value in (0.0005, 0.05, 2.0):
        histogram.observe(value)
    samples = parse_prometheus(render_prometheus(registry))
    assert samples[("events_total",
                    (("kind", 'quo"ted'), ("shard", "1")))] == 4
    assert samples[("level", ())] == -2.5
    assert samples[("wait_seconds_count", ())] == 3
    assert samples[("wait_seconds_sum", ())] == pytest.approx(2.0505)
    assert samples[("wait_seconds_bucket", (("le", "0.001"),))] == 1
    assert samples[("wait_seconds_bucket", (("le", "+Inf"),))] == 3


def test_parse_prometheus_rejects_garbage_and_duplicates():
    with pytest.raises(ValueError):
        parse_prometheus("justoneword\n")
    with pytest.raises(ValueError):
        parse_prometheus('bad{le=unquoted} 1\n')
    with pytest.raises(ValueError):
        parse_prometheus("dup 1\ndup 2\n")


def test_metrics_server_serves_scrapes():
    registry = MetricsRegistry()
    registry.counter("scrapes_total").inc(1)
    with MetricsServer(lambda: render_prometheus(registry)) as server:
        assert server.port > 0
        with urllib.request.urlopen(server.url, timeout=5) as response:
            assert response.status == 200
            assert "version=0.0.4" in response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        assert parse_prometheus(body)[("scrapes_total", ())] == 1
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/nope", timeout=5)


# ----------------------------------------------------------------- tracer
def test_tracer_validates_rate_and_samples_at_rate_one():
    with pytest.raises(ValueError):
        Tracer(sample_rate=1.5)
    tracer = Tracer(sample_rate=1.0)
    first = tracer.sample(1.0)
    second = tracer.sample(2.0)
    assert first == TraceContext(1, 1.0)
    assert second == TraceContext(2, 2.0)
    assert tracer.sampled == 2


def test_tracer_observe_records_histogram_and_spans():
    tracer = Tracer(sample_rate=1.0, site="facade")
    trace = tracer.sample(10.0)
    trace = tracer.observe("shard_queue", trace, 10.25)
    assert trace == TraceContext(1, 10.25)  # re-stamped for the next hop
    tracer.observe("engine_tick", trace, 10.75)
    histogram = tracer.registry.get(STAGE_LATENCY_METRIC,
                                    {"stage": "shard_queue"})
    assert histogram.count == 1
    assert histogram.total == pytest.approx(0.25)
    spans = tracer.take_spans()
    assert [(s.stage, s.site, s.duration_s) for s in spans] == [
        ("shard_queue", "facade", pytest.approx(0.25)),
        ("engine_tick", "facade", pytest.approx(0.5))]
    assert tracer.take_spans() == []  # drained exactly once


def test_tracer_span_retention_is_bounded():
    tracer = Tracer(sample_rate=1.0, max_spans=2)
    trace = tracer.sample(0.0)
    for hop in range(5):
        trace = tracer.observe("engine_tick", trace, float(hop + 1))
    assert len(tracer.spans) == 2
    assert tracer.span_overflow == 3
    silent = Tracer(sample_rate=1.0, keep_spans=False)
    silent.observe("finalize", silent.sample(0.0), 1.0)
    assert silent.take_spans() == []
    assert silent.registry.get(STAGE_LATENCY_METRIC,
                               {"stage": "finalize"}).count == 1


def test_rate_zero_sampling_is_allocation_free():
    """The zero-cost-when-off claim, measured: at rate 0 the hot path
    allocates nothing inside repro/obs/trace.py."""
    tracer = Tracer()  # default rate 0
    now = timestamp()
    assert tracer.sample(now) is None  # warm up any lazy caches
    tracemalloc.start()
    try:
        for _ in range(2000):
            tracer.sample(now)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    hot_path_bytes = sum(
        stat.size for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.endswith("trace.py"))
    assert hot_path_bytes == 0
    assert tracer.sampled == 0
    assert tracer.take_spans() == []


def test_write_spans_jsonl_sorts_one_trace_per_flame_line(tmp_path):
    tracer = Tracer(sample_rate=1.0, site="shard-0")
    second = tracer.sample(5.0)
    first = tracer.sample(1.0)
    tracer.observe("engine_tick", second, 6.0)
    first = tracer.observe("shard_queue", first, 2.0)
    tracer.observe("engine_tick", first, 3.0)
    path = tmp_path / "spans.jsonl"
    assert write_spans_jsonl(tracer.take_spans(), path) == 3
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(row["trace_id"], row["stage"]) for row in rows] == [
        (1, "engine_tick"), (2, "shard_queue"), (2, "engine_tick")]
    assert all(row["site"] == "shard-0" for row in rows)


def test_obs_config_validation():
    assert ObsConfig().validate().trace_sample_rate == 0.0
    with pytest.raises(ConfigurationError):
        ObsConfig(trace_sample_rate=2.0).validate()


# -------------------------------------------------------- pipeline wiring
STAGE_ORDER = {stage: index for index, stage in enumerate(STAGES)}


def clean_raws(dataset, trajectories, seed=0):
    rng = np.random.default_rng(seed)
    return [sample_gps_trace(dataset.network, truth.segments,
                             truth.start_time_s, rng, gps_noise_m=1.0,
                             trajectory_id=truth.trajectory_id)
            for truth in trajectories]


def assert_stage_coverage(service, stages=STAGES):
    registry = service.obs_registry()
    for stage in stages:
        histogram = registry.get(STAGE_LATENCY_METRIC, {"stage": stage})
        assert histogram is not None and histogram.count > 0, \
            f"stage {stage!r} recorded no latency observations"
        assert histogram.minimum >= 0.0


def assert_spans_keep_pipeline_order(spans):
    by_trace = defaultdict(list)
    for span in spans:
        by_trace[span.trace_id].append(span)
    assert by_trace, "no spans recorded"
    for trace_spans in by_trace.values():
        trace_spans.sort(key=lambda span: span.start_t)
        indices = [STAGE_ORDER[span.stage] for span in trace_spans]
        assert indices == sorted(indices), trace_spans


def assert_exposition_agrees_with_dashboards(text, service, gateway=None):
    samples = parse_prometheus(text)  # raises on malformed output
    metrics = service.metrics()
    assert samples[("repro_service_accepted_ingests_total", ())] \
        == metrics.accepted_ingests
    assert samples[("repro_service_results_delivered_total", ())] \
        == metrics.results_delivered
    assert samples[("repro_service_model_version", ())] \
        == metrics.model_version
    for shard in metrics.shards:
        key = (("shard", str(shard.shard_id)),)
        assert samples[("repro_shard_points_processed_total", key)] \
            == shard.points_processed
        assert samples[("repro_shard_streams_finalized_total", key)] \
            == shard.streams_finalized
    for bus in metrics.bus:
        key = (("shard", str(bus.shard_id)),)
        assert samples[("repro_bus_published_total", key)] == bus.published
    if gateway is not None:
        stats = gateway.stats()
        assert samples[("repro_gateway_raw_points_total", ())] \
            == stats.raw_points
        assert samples[("repro_gateway_matched_points_total", ())] \
            == stats.matched_points
        assert samples[("repro_gateway_sessions_total",
                        (("event", "closed"),))] == stats.sessions_closed
        assert samples[("repro_gateway_dropped_points_total",
                        (("reason", "late"),))] == stats.late_dropped
        # The matcher's distance cache: scraped == dashboard == the cache
        # itself.
        fields = ("pairs", "hits", "misses", "evictions")
        scraped = [samples[("repro_gateway_distance_cache_" + field
                            + ("" if field == "pairs" else "_total"), ())]
                   for field in fields]
        assert scraped == [getattr(stats, "distance_cache_" + field)
                           for field in fields]
        cache = gateway.matcher.matcher.distance_cache
        assert scraped == [len(cache), cache.hits, cache.misses,
                           cache.evictions]
        assert 0 < stats.distance_cache_pairs <= stats.distance_cache_misses
        assert stats.distance_cache_hits > 0
        assert stats.distance_cache_evictions == 0


@pytest.mark.fleet
@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_traced_gateway_run_covers_all_seven_stages(trained_model, dataset,
                                                    dataset_split, backend):
    """Acceptance: at sample rate 1.0 a gateway→service→bus run lands
    observations in every stage histogram, on both backends, and the
    exposition agrees with the format() dashboards."""
    _, _, test = dataset_split
    raws = clean_raws(dataset, test[:6], seed=29)
    matcher = HMMMapMatcher(dataset.network)
    with trained_model.detection_service(
            num_shards=2, backend=backend,
            obs=ObsConfig(trace_sample_rate=1.0)) as service:
        gateway = GpsGateway(service, matcher,
                             GatewayConfig(async_sessions=True))
        outputs = serve_raw_fleet(gateway, raws, concurrency=4)
        assert sum(len(sessions) for sessions in outputs) == len(raws)

        assert_stage_coverage(service)
        spans = service.drain_spans()
        assert {span.stage for span in spans} == set(STAGES)
        assert_spans_keep_pipeline_order(spans)
        assert service.drain_spans() == []  # exactly-once drain

        for stage in STAGES:
            report = service.stage_latency(stage)
            assert report.count > 0
            assert report.as_dict()["count"] == report.count
            assert 0.0 <= report.p50 <= report.p95 <= report.p99
            assert report.unit == "s"
            assert "latency" in report.format()

        assert_exposition_agrees_with_dashboards(
            gateway.metrics_text(), service, gateway)
        with pytest.raises(ServiceError):
            service.stage_latency("no_such_stage")


@pytest.mark.fleet
@pytest.mark.parametrize("backend, rates", [("inprocess", (0.05, 1.0)),
                                            ("process", (1.0,))],
                         ids=["inprocess", "process"])
def test_tracing_never_changes_labels(trained_model, dataset_split, backend,
                                      rates):
    """Tracing only observes: one fleet through a 2-shard service gives the
    same labels untraced as traced at each sample rate."""
    _, _, test = dataset_split

    def run(obs):
        with trained_model.detection_service(num_shards=2, backend=backend,
                                             obs=obs) as service:
            results = serve_fleet(service, test, concurrency=8)
            sampled = service.tracer.sampled if obs is not None else 0
        return [result.labels for result in results], sampled

    untraced, _ = run(None)
    for rate in rates:
        labels, sampled = run(ObsConfig(trace_sample_rate=rate))
        assert sampled > 0
        assert labels == untraced


@pytest.mark.fleet
def test_rate_zero_service_records_no_traces(trained_model, dataset_split):
    """ObsConfig defaults (rate 0): no stage histogram and no span ever
    materialises."""
    _, _, test = dataset_split
    with trained_model.detection_service(num_shards=2,
                                         obs=ObsConfig()) as service:
        for index, truth in enumerate(test[:4]):
            for position, segment in enumerate(truth.segments):
                if position == 0:
                    service.ingest_blocking(index, segment,
                                            start_time_s=truth.start_time_s)
                else:
                    service.ingest_blocking(index, segment)
            service.finalize(index)
        assert service.tracer is not None
        assert service.tracer.sampled == 0
        registry = service.obs_registry()
        for stage in STAGES:
            assert registry.get(STAGE_LATENCY_METRIC, {"stage": stage}) \
                is None
        assert service.drain_spans() == []


@pytest.mark.fleet
def test_metrics_text_works_without_obs_config(trained_model, dataset_split):
    """metrics_text() is a registry view of metrics() even on a service
    built with no observability config at all."""
    _, _, test = dataset_split
    with trained_model.detection_service(num_shards=1) as service:
        truth = test[0]
        for position, segment in enumerate(truth.segments):
            if position == 0:
                service.ingest_blocking(0, segment,
                                        start_time_s=truth.start_time_s)
            else:
                service.ingest_blocking(0, segment)
        service.finalize(0)
        assert service.tracer is None
        assert_exposition_agrees_with_dashboards(service.metrics_text(),
                                                 service)


@pytest.mark.fleet
def test_service_scrape_endpoint_and_span_export(trained_model, dataset,
                                                 dataset_split, tmp_path):
    """start_metrics_server serves a live parseable scrape; export_spans
    writes the drained spans as valid JSONL."""
    _, _, test = dataset_split
    raws = clean_raws(dataset, test[:3], seed=37)
    matcher = HMMMapMatcher(dataset.network)
    with trained_model.detection_service(
            num_shards=1, obs=ObsConfig(trace_sample_rate=1.0)) as service:
        gateway = GpsGateway(service, matcher,
                             GatewayConfig(async_sessions=True))
        serve_raw_fleet(gateway, raws, concurrency=2)
        server = service.start_metrics_server()
        with urllib.request.urlopen(server.url, timeout=5) as response:
            samples = parse_prometheus(response.read().decode("utf-8"))
        stage_counts = [value for (name, labels), value in samples.items()
                        if name == STAGE_LATENCY_METRIC + "_count"]
        assert stage_counts and all(count > 0 for count in stage_counts)

        path = tmp_path / "spans.jsonl"
        written = service.export_spans(path)
        assert written > 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == written
        assert {row["stage"] for row in rows} <= set(STAGES)
        keys = [(row["trace_id"], row["start_t"]) for row in rows]
        assert keys == sorted(keys)
    # The scrape server is closed with the service.
    with pytest.raises(OSError):
        urllib.request.urlopen(server.url, timeout=2)
