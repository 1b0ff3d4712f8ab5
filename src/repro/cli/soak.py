"""``repro soak`` — sustained-load harness judged by its own scrape surface.

Drives millions of synthetic raw GPS fixes through the full online stack
(gateway with online matching → sharded ``DetectionService`` →
``OnlineLearner`` fine-tuning across concept-drift part boundaries) while
a :class:`~repro.obs.ScrapeRecorder` polls the harness's *own*
``/metrics`` endpoint over HTTP. The verdict — flat throughput, bounded
queues and memory, zero bus gaps — is computed **only** from the recorded
scrapes (:mod:`repro.obs.health`); the driver never reads privileged
in-process state into the report, so the numbers an operator would see
are exactly the numbers the harness certifies.

Threading: the serving objects' ``metrics_text`` talks to the shard
backends and must run on the driver thread; the driver refreshes a
:class:`~repro.obs.RenderCache` between rounds and the HTTP thread serves
the cached snapshot. ``/healthz`` live-evaluates the same SLO rules, but
the final ones, over whatever the recorder has seen so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..config import GatewayConfig, ObsConfig
from ..experiments.common import ExperimentSettings
from ..ingest import GpsGateway
from ..mapmatching import HMMMapMatcher
from ..obs.exposition import MetricsServer, RenderCache
from ..obs.health import HealthReport, default_soak_rules, evaluate_rules
from ..obs.timeseries import ScrapeRecorder, SeriesStore
from ..trajectory.models import RawTrajectory
from .common import WorkloadStream, build_fleet, smoke_settings
from .report import render_dashboard

__all__ = ["SoakOptions", "SoakHarness", "register", "run"]

#: ``--smoke`` preset: the CI-sized soak (~50k fixes, process backend).
SMOKE_FIXES = 50_000
#: A run whose fix budget is spent before the recorder holds the scrapes
#: its rules need keeps admitting load until it does — a verdict needs a
#: series, however fast the stack has become — but for no longer than this
#: many times what those scrapes nominally take.
EXTENSION_CEILING = 10.0


@dataclass
class SoakOptions:
    """Everything the harness needs; built from CLI args or directly."""

    fixes: Optional[int] = 1_000_000  # None = endless (serve mode)
    duration_s: Optional[float] = None
    city: str = "chengdu"
    smoke: bool = False
    shards: int = 2
    backend: str = "process"
    queue_depth: int = 1024
    concurrency: int = 64
    ingest_batch: int = 32
    drift_parts: int = 2
    fine_tune_trips: int = 16
    trace_sample_rate: float = 0.02
    scrape_interval_s: float = 0.5
    windows: int = 5
    flatness: float = 0.8
    rss_growth: float = 0.25
    min_samples: int = 8
    port: int = 0
    record: Optional[str] = None
    rules_file: Optional[str] = None
    quiet: bool = False
    #: Scheduled history roll-forward: every ``roll_forward_s`` seconds the
    #: learner's history is rebuilt from the trips observed in the last
    #: ``roll_window_s`` seconds and swapped into the service (None = off).
    roll_forward_s: Optional[float] = None
    roll_window_s: float = 600.0
    roll_archive: Optional[str] = None

    @classmethod
    def from_args(cls, args) -> "SoakOptions":
        """The options :func:`add_soak_arguments` parsed into ``args``."""
        return cls(
            fixes=args.fixes,
            duration_s=args.duration,
            city=args.city,
            smoke=args.smoke,
            shards=args.shards,
            backend=args.backend,
            queue_depth=args.queue_depth,
            concurrency=args.concurrency,
            ingest_batch=args.ingest_batch,
            drift_parts=args.drift_parts,
            fine_tune_trips=args.fine_tune_trips,
            trace_sample_rate=args.trace_sample_rate,
            scrape_interval_s=args.scrape_interval,
            windows=args.windows,
            flatness=args.flatness,
            port=args.port,
            record=args.record,
            rules_file=args.rules,
            quiet=args.quiet,
            roll_forward_s=args.roll_forward,
            roll_window_s=args.roll_window,
            roll_archive=args.roll_archive,
        )


class SoakHarness:
    """One soak run: build, drive, scrape, judge. ``run()`` returns the
    :class:`~repro.obs.HealthReport` the exit code is derived from."""

    def __init__(self, options: SoakOptions):
        self.options = options
        self.fixes_pushed = 0
        self.sessions_done = 0
        self.fine_tunes = 0
        self.roller = None
        self.recorder: Optional[ScrapeRecorder] = None
        self.server: Optional[MetricsServer] = None

    # ------------------------------------------------------------------ build
    def _settings(self) -> ExperimentSettings:
        if self.options.smoke:
            return smoke_settings()
        return ExperimentSettings()

    def _rules(self):
        if self.options.rules_file:
            from ..obs.health import parse_rules
            return parse_rules(Path(self.options.rules_file)
                               .read_text(encoding="utf-8"))
        return default_soak_rules(
            queue_depth=self.options.queue_depth,
            flatness=self.options.flatness,
            windows=self.options.windows,
            rss_growth=self.options.rss_growth,
            min_samples=self.options.min_samples,
        )

    def _scrapes_needed(self) -> int:
        """Scrapes a recording must hold before its verdict means anything.

        The ``samples`` rule's minimum, and two scrape intervals for each
        of the windows the throughput and quantile rules cut the series
        into: a scrape serves a snapshot up to half an interval old, so a
        window of a single interval reports that staleness as much as it
        reports a rate.
        """
        return max(self.options.min_samples, 2 * self.options.windows + 1)

    def _say(self, message: str) -> None:
        if not self.options.quiet:
            print(message, flush=True)

    # -------------------------------------------------------------------- run
    def run(self) -> HealthReport:
        options = self.options
        rules = self._rules()
        self._say(f"[soak] training part-0 model "
                  f"({options.city}, drift parts {options.drift_parts}, "
                  f"{'smoke' if options.smoke else 'full'} settings)...")
        fleet = build_fleet(city=options.city, settings=self._settings(),
                            drift_parts=options.drift_parts)
        workload = WorkloadStream(fleet)
        service = fleet.learner.model.detection_service(
            num_shards=options.shards, backend=options.backend,
            queue_depth=options.queue_depth,
            obs=ObsConfig(trace_sample_rate=options.trace_sample_rate,
                          keep_spans=False))
        fleet.learner.attach_service(service)
        self.roller = None
        if options.roll_forward_s:
            from ..history import HistoryArchive, RollForwardDriver

            # Sharing the learner's pipeline keeps versions monotone
            # across both refresh paths: delta publishes between rolls,
            # one full-snapshot swap per roll.
            self.roller = RollForwardDriver(
                fleet.learner.model.pipeline,
                interval_s=options.roll_forward_s,
                window_s=options.roll_window_s,
                archive=(HistoryArchive(options.roll_archive)
                         if options.roll_archive else None))
            self.roller.attach_service(service)
            self._say(f"[soak] history roll-forward every "
                      f"{options.roll_forward_s:g}s over a "
                      f"{options.roll_window_s:g}s window"
                      + (f", archiving to {options.roll_archive}"
                         if options.roll_archive else ""))
        gateway = GpsGateway(
            service, HMMMapMatcher(fleet.network),
            GatewayConfig(ingest_batch=options.ingest_batch))
        cache = RenderCache(gateway.metrics_text)
        cache.refresh()  # seed on the driver thread before serving starts

        live_rules = [rule for rule in rules if not rule.final]

        def health() -> HealthReport:
            recorder = self.recorder
            store = recorder.store if recorder else SeriesStore()
            return evaluate_rules(store, live_rules)

        self.server = MetricsServer(cache, port=options.port, health=health)
        self.recorder = ScrapeRecorder(self.server.url,
                                       interval_s=options.scrape_interval_s,
                                       path=options.record)
        self._say(f"[soak] metrics endpoint {self.server.url} "
                  f"(healthz/ready alongside), scraping every "
                  f"{options.scrape_interval_s}s"
                  + (f", recording to {options.record}"
                     if options.record else ""))
        self.recorder.start()
        try:
            self._drive(fleet, workload, gateway, cache)
            self.sessions_done += len(gateway.drain_sessions(timeout_s=120.0))
            gateway.pump()
            cache.refresh()
        finally:
            store = self.recorder.stop(final_scrape=True)
            self.server.close()
            service.close()
        if options.record:
            sidecar = Path(str(options.record) + ".rules")
            sidecar.write_text(
                "\n".join(rule.spec for rule in rules) + "\n",
                encoding="utf-8")
            self._say(f"[soak] rules sidecar written to {sidecar}")
        report = evaluate_rules(store, rules)
        self._say("")
        self._say(render_dashboard(store, windows=options.windows))
        self._say(f"  driver: {self.fixes_pushed:,} fixes pushed, "
                  f"{self.sessions_done:,} sessions completed, "
                  f"{self.fine_tunes} fine-tune round(s), "
                  f"{self.recorder.errors} scrape error(s)"
                  + (f", {self.roller.stats.rolls} history roll(s)"
                     if self.roller is not None else ""))
        self._say("")
        self._say(report.format())
        return report

    # ------------------------------------------------------------- the driver
    def _drive(self, fleet, workload: WorkloadStream, gateway: GpsGateway,
               cache: RenderCache) -> None:
        """The round-based fleet loop (one fix per active vehicle per round).

        Memory discipline: per-vehicle state is only the trips currently
        in flight (<= concurrency), session results are counted and
        dropped, and admission is budgeted by *committed* fixes so the
        run lands on the target without an unbounded tail. The budget is
        a floor, not the run length: admission goes on past it until the
        recorder holds the scrapes the verdict needs (``_scrapes_needed``,
        under ``EXTENSION_CEILING``), so the run is long enough to judge
        by construction.
        """
        options = self.options
        active: Dict[int, Tuple[RawTrajectory, int]] = {}
        next_vehicle = 0
        committed = 0
        target = options.fixes
        deadline = (time.monotonic() + options.duration_s
                    if options.duration_s else None)
        boundaries = []
        if target is not None and options.drift_parts > 1:
            boundaries = [round(k * target / options.drift_parts)
                          for k in range(1, options.drift_parts)]
        next_part = 1
        refresh_interval = max(options.scrape_interval_s / 2, 0.05)
        next_refresh = 0.0
        next_progress = 0

        scrapes_needed = self._scrapes_needed()
        extension_ends = time.monotonic() + (
            EXTENSION_CEILING * scrapes_needed * options.scrape_interval_s)

        def admitting() -> bool:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                return False
            if target is None or committed < target:
                return True
            return (len(self.recorder.store) < scrapes_needed
                    and now < extension_ends)

        while True:
            while len(active) < options.concurrency and admitting():
                raw = workload.next_raw()
                vehicle = next_vehicle
                next_vehicle += 1
                active[vehicle] = (raw, 1)
                committed += len(raw.points)
                self.sessions_done += len(gateway.push_point(
                    vehicle, raw.points[0],
                    start_time_s=raw.start_time_s))
                self.fixes_pushed += 1
            if not active:
                break
            finished = []
            for vehicle, (raw, cursor) in active.items():
                if cursor < len(raw.points):
                    self.sessions_done += len(
                        gateway.push_point(vehicle, raw.points[cursor]))
                    self.fixes_pushed += 1
                    active[vehicle] = (raw, cursor + 1)
                else:
                    finished.append(vehicle)
            gateway.pump()
            if finished:
                still_known = set(gateway.active_vehicles)
                for vehicle in finished:
                    del active[vehicle]
                    if vehicle in still_known:
                        self.sessions_done += len(gateway.end(vehicle))
            self.sessions_done += len(gateway.poll_sessions())
            while boundaries and self.fixes_pushed >= boundaries[0]:
                boundaries.pop(0)
                part = next_part
                next_part += 1
                workload.set_part(part)
                trips = fleet.train_parts[part % fleet.n_parts]
                fleet.learner.observe_part(
                    part, trips[:options.fine_tune_trips])
                self.fine_tunes += 1
                if self.roller is not None:
                    self.roller.observe(trips[:options.fine_tune_trips],
                                        time.monotonic())
                swaps = gateway.service.metrics()
                self._say(f"[soak] part boundary at "
                          f"{self.fixes_pushed:,} fixes -> fine-tuned on "
                          f"part {part % fleet.n_parts} "
                          f"({min(len(trips), options.fine_tune_trips)} "
                          f"trips), weights+history swapped "
                          f"({swaps.delta_swaps} delta / "
                          f"{swaps.full_swaps} full so far, "
                          f"{swaps.swap_payload_bytes:,} history payload "
                          f"bytes)")
            now = time.monotonic()
            if self.roller is not None and self.roller.tick(now) is not None:
                stats = self.roller.stats
                self._say(f"[soak] history rolled forward to "
                          f"v{stats.last_version} "
                          f"({stats.window_trajectories} window trips, "
                          f"roll #{stats.rolls})")
            if now >= next_refresh:
                cache.refresh()
                next_refresh = now + refresh_interval
            if target is not None and self.fixes_pushed >= next_progress:
                self._say(f"[soak] {self.fixes_pushed:,}/{target:,} fixes "
                          f"({self.sessions_done:,} sessions done)")
                next_progress += max(target // 10, 1)


def run(args) -> int:
    options = SoakOptions.from_args(args)
    if args.smoke and args.fixes == 1_000_000:
        options.fixes = SMOKE_FIXES
    report = SoakHarness(options).run()
    return 0 if report.passed else 1


def add_soak_arguments(parser,
                       fixes_default: Optional[int] = 1_000_000) -> None:
    """The knobs ``soak`` and ``serve`` share."""
    parser.add_argument("--fixes", type=int, default=fixes_default,
                        help="raw GPS fixes to push (admission-budgeted); "
                             f"default {fixes_default}")
    parser.add_argument("--duration", type=float, default=None,
                        help="stop admitting new trips after this many "
                             "seconds (combines with --fixes)")
    parser.add_argument("--city", default="chengdu",
                        choices=("chengdu", "xian"))
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI preset: ~{SMOKE_FIXES:,} fixes, "
                             "seconds-scale training")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--backend", default="process",
                        choices=("process", "inprocess"))
    parser.add_argument("--queue-depth", type=int, default=1024)
    parser.add_argument("--concurrency", type=int, default=64,
                        help="vehicles in flight per round")
    parser.add_argument("--ingest-batch", type=int, default=32)
    parser.add_argument("--drift-parts", type=int, default=2,
                        help="day parts; the stream and fine-tuning rotate "
                             "through them")
    parser.add_argument("--fine-tune-trips", type=int, default=16,
                        help="trips per observe_part fine-tuning round")
    parser.add_argument("--trace-sample-rate", type=float, default=0.02,
                        help="stage-latency trace sampling probability")
    parser.add_argument("--scrape-interval", type=float, default=0.5,
                        help="seconds between scrapes of our own endpoint")
    parser.add_argument("--windows", type=int, default=5,
                        help="SLO evaluation windows over the recording")
    parser.add_argument("--flatness", type=float, default=0.8,
                        help="last-window rate floor relative to the peak")
    parser.add_argument("--port", type=int, default=0,
                        help="metrics endpoint port (0 = pick a free one)")
    parser.add_argument("--record", default=None,
                        help="append scraped samples to this JSONL file "
                             "(judge it later with 'repro report')")
    parser.add_argument("--rules", default=None,
                        help="SLO rules file overriding the defaults")
    parser.add_argument("--roll-forward", type=float, default=None,
                        metavar="SECONDS",
                        help="rebuild the history from a sliding window of "
                             "recent trips every SECONDS and swap it into "
                             "the service (default: off)")
    parser.add_argument("--roll-window", type=float, default=600.0,
                        metavar="SECONDS",
                        help="sliding-window width the roll-forward rebuilds "
                             "from (default 600)")
    parser.add_argument("--roll-archive", default=None, metavar="DIR",
                        help="archive each rolled history version to this "
                             "content-addressed directory")
    parser.add_argument("--quiet", action="store_true")


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "soak",
        help="sustained-load run judged by scraping its own /metrics",
        description="Drive synthetic raw GPS fixes through gateway -> "
                    "sharded DetectionService -> OnlineLearner under "
                    "concept drift, record the run by scraping the "
                    "harness's own metrics endpoint, and exit 0/1 on the "
                    "SLO verdict.")
    add_soak_arguments(parser)
    parser.set_defaults(func=run)
