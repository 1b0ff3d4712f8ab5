"""SLO rule parsing and evaluation over recorded series."""

import pytest

from repro.obs import (HealthReport, ScrapePoint, SeriesStore,
                       default_soak_rules, evaluate_rules, parse_rule,
                       parse_rules)


def _store(samples_by_time):
    points = []
    for t, samples in samples_by_time:
        points.append(ScrapePoint(float(t), {
            (name, tuple(sorted(labels.items()))): float(value)
            for name, labels, value in samples}))
    return SeriesStore(points)


def _flat(metric, values, dt=1.0):
    return _store([(i * dt, [(metric, {}, value)])
                   for i, value in enumerate(values)])


class TestParsing:
    def test_parse_rule_with_labels_and_params(self):
        rule = parse_rule('quantile lat{stage="tick"} q=0.5 max=2 windows=3')
        assert rule.kind == "quantile"
        assert rule.metric == "lat"
        assert rule.labels == {"stage": "tick"}
        assert rule.params == {"q": 0.5, "max": 2.0, "windows": 3.0}

    def test_spec_round_trips(self):
        line = 'quantile lat{stage="tick"} q=0.5 max=2'
        rule = parse_rule(line)
        again = parse_rule(rule.spec)
        assert again.kind == rule.kind
        assert again.metric == rule.metric
        assert again.labels == rule.labels
        assert again.params == rule.params

    def test_comments_and_blanks_skipped(self):
        rules = parse_rules("""
        # a comment
        zero gaps_total  # trailing comment

        samples min=3
        """)
        assert [rule.kind for rule in rules] == ["zero", "samples"]

    @pytest.mark.parametrize("bad", [
        "frobnicate x",               # unknown kind
        "zero",                       # missing metric
        "ceiling depth",              # missing required max=
        "quantile lat windows=2",     # missing required max=
        "zero depth max",             # parameter without =
        "zero depth max=abc",         # non-numeric parameter
    ])
    def test_bad_rules_raise(self, bad):
        with pytest.raises(ValueError):
            parse_rule(bad)

    def test_parse_equal_rule_with_two_metrics(self):
        line = ('equal sessions_total{event="closed"} '
                'results_delivered_total')
        rule = parse_rule(line)
        assert (rule.kind, rule.metric, rule.labels) == (
            "equal", "sessions_total", {"event": "closed"})
        assert rule.other == "results_delivered_total"
        assert rule.final and not parse_rule("zero gaps_total").final
        assert rule.spec == line
        assert parse_rule(rule.spec) == rule
        with pytest.raises(ValueError, match="two metrics"):
            parse_rule('equal sessions_total{event="closed"}')
        with pytest.raises(ValueError, match="bad parameter"):
            parse_rule("equal a_total b_total c_total")
        with pytest.raises(ValueError, match="bad metric"):
            parse_rule("equal a_total {b}")


class TestEvaluation:
    def test_zero_rule(self):
        rules = parse_rules("zero gaps_total")
        assert evaluate_rules(_flat("gaps_total", [0, 0, 0]), rules).passed
        assert not evaluate_rules(_flat("gaps_total", [0, 0, 2]),
                                  rules).passed
        # Absent metric fails: a vanished certificate is not a pass.
        assert not evaluate_rules(_flat("other", [0]), rules).passed

    def test_zero_rule_sums_labels(self):
        store = _store([(0, [("gaps_total", {"shard": "0"}, 0),
                             ("gaps_total", {"shard": "1"}, 1)])])
        assert not evaluate_rules(store,
                                  parse_rules("zero gaps_total")).passed

    def test_label_selectors_match_supersets_and_sum(self):
        """A selector matches every series whose labels contain it, and the
        matches are summed, whatever the rule."""
        store = _store([(0, [("gaps_total", {"event": "x", "shard": "0"}, 0),
                             ("gaps_total", {"event": "y", "shard": "0"}, 5)])])
        report = evaluate_rules(store, parse_rules('zero gaps_total{event="x"}'))
        assert report.passed
        assert report.results[0].observed == "final value 0"
        assert not evaluate_rules(
            store, parse_rules('zero gaps_total{event="y"}')).passed

        equal = parse_rules('equal sessions_total{event="closed"} '
                            'delivered_total{kind="trip"}')
        closed = [("sessions_total", {"event": "closed", "shard": "0"}, 3),
                  ("sessions_total", {"event": "closed", "shard": "1"}, 4),
                  ("sessions_total", {"event": "opened", "shard": "0"}, 9),
                  ("delivered_total", {"kind": "trip", "shard": "0"}, 7)]
        report = evaluate_rules(_store([(0, closed)]), equal)
        assert report.passed
        assert report.results[0].observed == "final values 7 and 7"

        slope = parse_rules('slope rss{pid="1"} max_growth=0.25 skip=0.25')
        leaking = _store([(i, [("rss", {"pid": "1", "role": "shard"},
                                100 + 20 * i),
                               ("rss", {"pid": "2", "role": "shard"}, 100)])
                          for i in range(12)])
        report = evaluate_rules(leaking, slope)
        assert not report.passed
        assert report.results[0].observed.startswith("fitted growth")

    def test_equal_rule_compares_final_label_summed_values(self):
        rules = parse_rules('equal sessions_total{event="closed"} '
                            'delivered_total')

        def store(closed, delivered):
            return _store([(0, [("sessions_total", {"event": "closed"}, 0),
                                ("delivered_total", {"shard": "0"}, 0)]),
                           (1, [("sessions_total", {"event": "closed"},
                                 closed),
                                ("sessions_total", {"event": "opened"}, 99),
                                ("delivered_total", {"shard": "0"}, 4),
                                ("delivered_total", {"shard": "1"},
                                 delivered - 4)])])

        passing = evaluate_rules(store(7, 7), rules)
        assert passing.passed
        assert passing.results[0].observed == "final values 7 and 7"
        failing = evaluate_rules(store(7, 6), rules)
        assert not failing.passed
        assert failing.results[0].observed == "final values 7 and 6"
        # Only the final scrape counts: equal earlier, apart at the end.
        assert not evaluate_rules(_store([(0, [
            ("sessions_total", {"event": "closed"}, 3),
            ("delivered_total", {}, 3)]), (1, [
                ("sessions_total", {"event": "closed"}, 4),
                ("delivered_total", {}, 3)])]), rules).passed

    def test_equal_rule_fails_on_a_missing_series(self):
        rules = parse_rules('equal sessions_total{event="closed"} '
                            'delivered_total')
        for samples, absent in (
                ([("delivered_total", {}, 0)], "sessions_total"),
                ([("sessions_total", {"event": "opened"}, 0),
                  ("delivered_total", {}, 0)], "sessions_total"),
                ([("sessions_total", {"event": "closed"}, 0)],
                 "delivered_total")):
            report = evaluate_rules(_store([(0, samples)]), rules)
            assert not report.passed
            assert report.results[0].observed == (
                f"{absent} absent from the final scrape")
        assert not evaluate_rules(SeriesStore(), rules).passed

    def test_ceiling_rule(self):
        rules = parse_rules("ceiling depth max=10")
        assert evaluate_rules(_flat("depth", [1, 10, 3]), rules).passed
        assert not evaluate_rules(_flat("depth", [1, 11, 3]), rules).passed

    def test_samples_rule(self):
        rules = parse_rules("samples min=3")
        assert not evaluate_rules(_flat("c", [1, 2]), rules).passed
        assert evaluate_rules(_flat("c", [1, 2, 3]), rules).passed

    def test_throughput_flatness(self):
        rules = parse_rules("throughput c_total flatness=0.8 windows=3")
        steady = _flat("c_total", [0, 100, 200, 300, 400, 500, 600])
        assert evaluate_rules(steady, rules).passed
        # Collapses in the last third: 300/s ... then nothing.
        sagging = _flat("c_total", [0, 300, 600, 900, 905, 906, 907])
        assert not evaluate_rules(sagging, rules).passed

    def test_throughput_short_series_vacuous(self):
        rules = parse_rules("throughput c_total windows=5")
        assert evaluate_rules(_flat("c_total", [0]), rules).passed

    def test_throughput_never_advancing_fails(self):
        rules = parse_rules("throughput c_total windows=3")
        assert not evaluate_rules(_flat("c_total", [5, 5, 5, 5]),
                                  rules).passed

    def test_quantile_rule_windows(self):
        def snapshot(t, fast, slow):
            return (t, [("lat_bucket", {"le": "0.1"}, fast),
                        ("lat_bucket", {"le": "+Inf"}, fast + slow)])
        fast_store = _store([snapshot(0, 0, 0), snapshot(1, 100, 0),
                             snapshot(2, 200, 1)])
        rules = parse_rules("quantile lat q=0.9 max=0.1 windows=2")
        assert evaluate_rules(fast_store, rules).passed
        slow_store = _store([snapshot(0, 0, 0), snapshot(1, 100, 0),
                             snapshot(2, 100, 50)])
        assert not evaluate_rules(slow_store, rules).passed

    def test_quantile_no_observations_vacuous(self):
        rules = parse_rules("quantile lat max=1")
        assert evaluate_rules(_flat("other", [1, 2, 3]), rules).passed

    def test_slope_rule(self):
        rules = parse_rules("slope rss max_growth=0.25 skip=0.25")
        flat = _flat("rss", [100] * 12)
        assert evaluate_rules(flat, rules).passed
        leaking = _flat("rss", [100 + 20 * i for i in range(12)])
        assert not evaluate_rules(leaking, rules).passed
        # Warmup growth alone is forgiven: skip drops the first quarter.
        warmup = _flat("rss", [50, 80, 100] + [104] * 9)
        assert evaluate_rules(warmup, rules).passed

    def test_report_format_and_dict(self):
        rules = parse_rules("zero gaps_total\nceiling depth max=1")
        store = _store([(0, [("gaps_total", {}, 0), ("depth", {}, 5)])])
        report = evaluate_rules(store, rules)
        assert isinstance(report, HealthReport)
        assert not report.passed
        assert report.verdict == "fail"
        text = report.format()
        assert "RED" in text and "1/2" in text and "FAIL" in text
        payload = report.as_dict()
        assert payload["status"] == "fail"
        assert len(payload["checks"]) == 2
        assert payload["checks"][0]["passed"] is True


class TestDefaults:
    def test_default_soak_rules_parse_and_cover_the_criteria(self):
        rules = default_soak_rules()
        kinds = [rule.kind for rule in rules]
        assert "samples" in kinds
        assert "throughput" in kinds
        assert "slope" in kinds
        metrics = {rule.metric for rule in rules}
        assert "repro_bus_gaps_total" in metrics
        assert "repro_gateway_raw_points_total" in metrics
        assert "repro_process_rss_bytes" in metrics
        # The ruleset is its own documentation: every spec re-parses.
        for rule in rules:
            parse_rule(rule.spec)

    def test_default_soak_rules_conserve_sessions(self):
        conservation = [rule for rule in default_soak_rules()
                        if rule.kind == "equal"]
        assert [rule.spec for rule in conservation] == [
            'equal repro_gateway_sessions_total{event="closed"} '
            'repro_service_results_delivered_total']

    def test_empty_recording_never_goes_green(self):
        report = evaluate_rules(SeriesStore(), default_soak_rules())
        assert not report.passed
