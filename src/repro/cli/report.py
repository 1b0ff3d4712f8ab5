"""``repro report`` — dashboard + SLO verdict from a recorded scrape series.

Reads the JSONL a :class:`~repro.obs.ScrapeRecorder` wrote, renders the
text dashboard the soak harness prints live, re-evaluates the SLO rules
(the ``<record>.rules`` sidecar the soak wrote, an explicit ``--rules``
file, or the defaults) and exits 0/1 on the verdict — so a recording can
be judged long after the run, by the same arithmetic.
"""

from __future__ import annotations

from pathlib import Path

from ..obs.health import default_soak_rules, evaluate_rules, parse_rules
from ..obs.timeseries import SeriesStore, load_series

__all__ = ["register", "render_dashboard", "run"]

#: Counters worth a per-window rate row on the dashboard.
_RATE_METRICS = (
    ("repro_gateway_raw_points_total", "raw fixes"),
    ("repro_shard_points_processed_total", "points labeled"),
    ("repro_service_results_delivered_total", "results delivered"),
)
#: Gauges whose max-over-time bounds the run's resource footprint.
_GAUGE_METRICS = (
    ("repro_shard_queue_depth", "shard queue depth"),
    ("repro_gateway_reorder_buffered", "reorder buffered"),
    ("repro_service_results_pending", "results pending"),
    ("repro_shard_streams_open", "streams open"),
)


def _fmt_count(value) -> str:
    if value is None:
        return "absent"
    return f"{value:,.0f}" if value == int(value) else f"{value:,.1f}"


def render_dashboard(store: SeriesStore, windows: int = 5) -> str:
    """The recorded run as an operator-facing text dashboard."""
    lines = [f"Recorded series: {len(store)} scrape(s) over "
             f"{store.duration_s:.1f}s"]
    for metric, label in _RATE_METRICS:
        total = store.counter_delta(metric)
        if total is None:
            continue
        rates = store.rate_windows(metric, windows)
        windows_text = " ".join(f"{window.rate:,.0f}/s" for window in rates)
        lines.append(f"  {label}: {_fmt_count(total)} total"
                     + (f"  [{windows_text}]" if windows_text else ""))
    gaps = store.value("repro_bus_gaps_total")
    duplicates = store.value("repro_service_results_duplicates_total")
    if gaps is not None:
        lines.append(f"  bus gaps: {_fmt_count(gaps)}  "
                     f"(duplicates dropped: {_fmt_count(duplicates)})")
    for metric, label in _GAUGE_METRICS:
        peak = store.max_over_time(metric)
        if peak is not None:
            lines.append(f"  max {label}: {_fmt_count(peak)}")
    quantiles = store.quantile_windows(0.99, "repro_stage_latency_seconds",
                                       {"stage": "engine_tick"},
                                       windows=windows)
    observed = [f"{value * 1000:.1f}ms" if value is not None else "-"
                for _, _, value in quantiles]
    if any(value is not None for _, _, value in quantiles):
        lines.append("  engine_tick p99 per window: " + " ".join(observed))
    rss = store.series("repro_process_rss_bytes")
    if rss:
        lines.append(f"  RSS: {rss[0][1] / 1e6:,.0f}MB -> "
                     f"{rss[-1][1] / 1e6:,.0f}MB")
    if store.points:
        info_labels = next((dict(labels) for (name, labels), _
                            in store.points[-1].samples.items()
                            if name == "repro_info"), {})
        if "version" in info_labels:
            lines.append(f"  producer: repro {info_labels['version']}")
    return "\n".join(lines)


def load_rules(record_path: Path, rules_path=None):
    """The rules to judge a recording by: explicit file, sidecar, defaults."""
    if rules_path is not None:
        return parse_rules(Path(rules_path).read_text(encoding="utf-8"))
    sidecar = Path(str(record_path) + ".rules")
    if sidecar.exists():
        return parse_rules(sidecar.read_text(encoding="utf-8"))
    return default_soak_rules()


def run(args) -> int:
    store = load_series(args.record)
    rules = load_rules(Path(args.record), args.rules)
    print(render_dashboard(store, windows=args.windows))
    report = evaluate_rules(store, rules)
    print(report.format())
    return 0 if report.passed else 1


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "report",
        help="render a dashboard + SLO verdict from a recorded series",
        description="Evaluate a ScrapeRecorder JSONL recording: text "
                    "dashboard, SLO rule verdict, exit code 0/1.")
    parser.add_argument("record", help="JSONL file written by repro soak "
                                       "--record (or a ScrapeRecorder)")
    parser.add_argument("--rules", default=None,
                        help="SLO rules file (default: <record>.rules "
                             "sidecar, else the built-in soak rules)")
    parser.add_argument("--windows", type=int, default=5,
                        help="windows for rates/quantiles (default 5)")
    parser.set_defaults(func=run)
