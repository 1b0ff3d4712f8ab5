"""The scrape time-series layer: recorder, store, window arithmetic."""

import threading

import pytest

from repro.obs import (MetricsRegistry, MetricsServer, ScrapePoint,
                       ScrapeRecorder, SeriesStore, render_prometheus)
from repro.obs.timeseries import load_series, scrape


def _point(t, **values):
    """Shorthand: unlabeled samples from keyword args."""
    return ScrapePoint(float(t), {(name, ()): float(value)
                                  for name, value in values.items()})


def _labeled(t, samples):
    return ScrapePoint(float(t), {
        (name, tuple(sorted(labels.items()))): float(value)
        for name, labels, value in samples})


class TestSeriesStore:
    def test_value_and_total_distinguish_absent_from_zero(self):
        store = SeriesStore([_point(0, up=0)])
        assert store.value("up") == 0
        assert store.value("down") is None

    def test_total_sums_label_sets(self):
        store = SeriesStore([_labeled(0, [
            ("queue", {"shard": "0"}, 3),
            ("queue", {"shard": "1"}, 5),
        ])])
        assert store.value("queue") == 8
        assert store.value("queue", {"shard": "1"}) == 5

    def test_window_bounds_chain(self):
        store = SeriesStore([_point(i, c=i) for i in range(11)])
        bounds = store.window_bounds(5)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        for (_, end), (start, _) in zip(bounds, bounds[1:]):
            assert end == start  # deltas chain exactly

    def test_window_bounds_short_series(self):
        assert SeriesStore([_point(0, c=0)]).window_bounds(5) == []
        assert len(SeriesStore([_point(0, c=0),
                                _point(1, c=1)]).window_bounds(5)) == 1

    def test_rate_windows(self):
        store = SeriesStore([_point(i, c=100 * i) for i in range(6)])
        rates = store.rate_windows("c", 5)
        assert len(rates) == 5
        assert all(window.rate == pytest.approx(100.0) for window in rates)
        assert sum(window.delta for window in rates) == \
            store.counter_delta("c")

    def test_max_over_time_across_labels(self):
        store = SeriesStore([
            _labeled(0, [("g", {"shard": "0"}, 1), ("g", {"shard": "1"}, 9)]),
            _labeled(1, [("g", {"shard": "0"}, 4), ("g", {"shard": "1"}, 2)]),
        ])
        assert store.max_over_time("g") == 9

    def test_histogram_window_quantile_from_bucket_deltas(self):
        def snapshot(t, le_01, le_1, inf):
            return _labeled(t, [
                ("lat_bucket", {"le": "0.1", "stage": "tick"}, le_01),
                ("lat_bucket", {"le": "1", "stage": "tick"}, le_1),
                ("lat_bucket", {"le": "+Inf", "stage": "tick"}, inf),
            ])
        # Whole run: 100 obs <=0.1, 10 more <=1. Second half adds only
        # slow observations, so the window quantile degrades while the
        # first window stays fast.
        store = SeriesStore([
            snapshot(0, 0, 0, 0),
            snapshot(1, 100, 100, 100),
            snapshot(2, 100, 110, 110),
        ])
        assert store.histogram_count("lat", {"stage": "tick"}) == 110
        assert store.histogram_quantile(0.5, "lat", {"stage": "tick"},
                                        start=0, end=1) == \
            pytest.approx(0.1)
        assert store.histogram_quantile(0.5, "lat", {"stage": "tick"},
                                        start=1, end=2) == pytest.approx(1.0)
        assert store.histogram_quantile(0.99, "lat", {"stage": "tick"},
                                        start=1, end=2) == pytest.approx(1.0)

    def test_histogram_sums_across_shards(self):
        store = SeriesStore([
            _labeled(0, [("lat_bucket", {"le": "+Inf", "shard": "0"}, 0),
                         ("lat_bucket", {"le": "+Inf", "shard": "1"}, 0)]),
            _labeled(1, [("lat_bucket", {"le": "+Inf", "shard": "0"}, 7),
                         ("lat_bucket", {"le": "+Inf", "shard": "1"}, 5)]),
        ])
        assert store.histogram_count("lat") == 12

    def test_quantile_no_observations_is_none(self):
        store = SeriesStore([_point(0, other=1), _point(1, other=2)])
        assert store.histogram_quantile(0.99, "lat") is None


class TestRecorder:
    def test_records_and_persists_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        counter = registry.counter("ticks_total", help="ticks")
        registry.gauge("depth", {"shard": "0"}).set(4)
        path = tmp_path / "series.jsonl"
        with MetricsServer(lambda: render_prometheus(registry)) as server:
            recorder = ScrapeRecorder(server.url, interval_s=0.05, path=path)
            recorder.start()
            counter.inc(10)
            store = recorder.stop(final_scrape=True)
        assert len(store) >= 1
        assert recorder.errors == 0
        assert store.value("ticks_total", index=-1) == 10
        loaded = load_series(path)
        assert len(loaded) == len(store)
        assert loaded.points[-1].samples == store.points[-1].samples
        assert loaded.value("depth", {"shard": "0"}) == 4

    def test_scrape_errors_counted_not_fatal(self):
        recorder = ScrapeRecorder("http://127.0.0.1:9/metrics",
                                  interval_s=0.05, timeout_s=0.2)
        assert recorder.scrape_once() is None
        assert recorder.errors == 1
        assert recorder.last_error
        assert len(recorder.store) == 0

    def test_scrape_function_timestamps(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3)
        clock = iter([123.0]).__next__
        with MetricsServer(lambda: render_prometheus(registry)) as server:
            point = scrape(server.url, clock=clock)
        assert point.time_s == 123.0
        assert point.samples[("c_total", ())] == 3

    def test_concurrent_reads_while_recording(self):
        """The store lock keeps appends and store reads coherent."""
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        with MetricsServer(lambda: render_prometheus(registry)) as server:
            recorder = ScrapeRecorder(server.url, interval_s=0.01)
            recorder.start()
            for _ in range(50):
                counter.inc()
                _ = len(recorder.store)
            store = recorder.stop(final_scrape=True)
        values = [point.samples[("c_total", ())] for point in store.points]
        assert values == sorted(values)  # counter observed monotonically
