"""The traced run: the per-layer ledger, measured from outside the program.

A traced run laps the workload twice — first exactly like the measured
run (tracing off), then with the harness's span recorder around every call
into a layer and the built-in ``repro.obs`` tracer sampling at 5 % — and
adds direct probes of layers the workload's driver cannot see (nn kernels,
a bare ``StreamEngine``, the offline matcher, idle transport round trips).
Nothing under ``src/`` is edited. Times are calibrated like the end-to-end
metrics: span seconds are scaled by the traced laps' calibrated/wall ratio.

Every metric in ``LAYER_METRICS`` is printed by every traced run; a layer
that is not on a workload's path reads 0 there (it did no work).
"""

import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.config import ObsConfig
from repro.core import RL4OASDModel
from repro.history import snapshot_to_bytes
from repro.mapmatching import HMMMapMatcher
from repro.obs import STAGES

from fixture import FLEET_SIZE, Fixture
from measure import (Lap, cpu_seconds, driver_stats, run_laps, throughput,
                     timed)
from spans import LAP_SPAN, SpanRecorder, direct_call
from workloads import (WORKLOADS, DriftRefresh, FleetDrive, FleetService,
                       Ledger, RawGateway)

TRACE_SAMPLE_RATE = 0.05
MAX_TRACED_LAPS = 10
#: Laps whose spans are written to the JSONL file (a gateway lap alone is
#: ~20k spans; the ledger itself is computed from every traced lap).
MAX_WRITTEN_LAPS = 3

#: name, unit, better — the contract with BENCHMARK.json ``per_layer``.
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("nn.lstm_forward_batch_us.b1", "us", "lower"),
    ("nn.lstm_forward_batch_us.b64", "us", "lower"),
    ("core.rsrnet_step_batch_us.b64", "us", "lower"),
    ("core.asdnet_policy_batch_us.b64", "us", "lower"),
    ("core.detect_us_per_point", "us", "lower"),
    ("core.engine_ingest_us_per_point", "us", "lower"),
    ("core.engine_tick_us_per_point", "us", "lower"),
    ("core.engine_finalize_us_per_trip", "us", "lower"),
    ("core.tick_batch_mean", "count", "higher"),
    ("core.segment_cache_hit_rate", "ratio", "higher"),
    ("core.fine_tune_ms_p50", "ms", "lower"),
    ("core.fine_tune_points_per_s", "1/s", "higher"),
    ("serve.ingest_many_us_per_point", "us", "lower"),
    ("serve.pump_us_per_point", "us", "lower"),
    ("serve.finalize_async_us_per_trip", "us", "lower"),
    ("serve.poll_results_us_per_trip", "us", "lower"),
    ("serve.facade_overhead_ratio", "ratio", "higher"),
    ("serve.ingest_retries_per_kpoint", "count", "lower"),
    ("serve.swap_ms_p50", "ms", "lower"),
    ("serve.delta_swap_ratio", "ratio", "higher"),
    ("transport.ingest_bytes_per_point", "bytes", "lower"),
    ("transport.result_bytes_per_trip", "bytes", "lower"),
    ("transport.request_rtt_us_p50", "us", "lower"),
    ("transport.process_vs_inproc_ratio", "ratio", "higher"),
    ("transport.worker_cpu_share", "ratio", "lower"),
    ("transport.parent_busy_share", "ratio", "lower"),
    ("bus.published", "count", "higher"),
    ("bus.redelivered", "count", "lower"),
    ("bus.gaps", "count", "lower"),
    ("bus.drain_batch_mean", "count", "higher"),
    ("mapmatching.online_push_us_per_fix", "us", "lower"),
    ("mapmatching.finish_us_per_trip", "us", "lower"),
    ("mapmatching.offline_match_us_per_fix", "us", "lower"),
    ("mapmatching.distance_cache_hit_rate", "ratio", "higher"),
    ("mapmatching.commit_lag_points_p95", "count", "lower"),
    ("mapmatching.forced_commit_ratio", "ratio", "lower"),
    ("ingest.push_point_us_per_fix", "us", "lower"),
    ("ingest.gateway_self_us_per_fix", "us", "lower"),
    ("ingest.end_us_per_trip", "us", "lower"),
    ("ingest.fixes_dropped", "count", "lower"),
    ("ingest.batched_flushes", "count", "lower"),
    ("history.extend_ms_p50", "ms", "lower"),
    ("history.delta_bytes_per_swap", "bytes", "lower"),
    ("history.snapshot_bytes", "bytes", "lower"),
    ("result_ms_p95", "ms", "lower"),
    ("refresh_ms_p50", "ms", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "higher"),
] + [(f"obs.stage_ms_p50.{stage}", "ms", "lower") for stage in STAGES] + [
    ("obs.metrics_text_ms", "ms", "lower"),
    ("driver.self_us_per_point", "us", "lower"),
    ("driver.coverage", "ratio", "higher"),
    ("driver.speed_factor_p50", "ratio", "lower"),
    ("driver.speed_factor_max", "ratio", "lower"),
    ("driver.raw_points_per_s", "1/s", "higher"),
    ("driver.laps", "count", "higher"),
    ("fixture.build_s", "s", "lower"),
]


def _per_call_us(action, calls: int, kernel_time) -> Tuple[float, float]:
    """Calibrated microseconds per call of ``action`` repeated ``calls`` times."""
    def loop():
        for _ in range(calls):
            action()

    _, wall, factor, kernel_time = timed(loop, kernel_time)
    return wall / factor / calls * 1e6, kernel_time


def kernel_probes(model: RL4OASDModel, values: Dict[str, float],
                  kernel_time) -> float:
    """Direct calls of the batched nn / core kernels at the fleet's shapes."""
    cell = model.rsrnet.lstm.cell
    hidden_dim = cell.hidden_dim
    rng = np.random.default_rng(0)
    for batch, calls in ((1, 3000), (FLEET_SIZE, 800)):
        projections = rng.standard_normal((batch, 4 * hidden_dim))
        hidden = rng.standard_normal((batch, hidden_dim)) * 0.1
        cell_state = rng.standard_normal((batch, hidden_dim)) * 0.1
        values[f"nn.lstm_forward_batch_us.b{batch}"], kernel_time = (
            _per_call_us(lambda: cell.forward_batch(projections, hidden,
                                                    cell_state),
                         calls, kernel_time))
    nrf = [0, 1] * (FLEET_SIZE // 2)
    values["core.rsrnet_step_batch_us.b64"], kernel_time = _per_call_us(
        lambda: model.rsrnet.step_batch(hidden, cell_state, projections, nrf),
        600, kernel_time)
    z, _, _ = model.rsrnet.step_batch(hidden, cell_state, projections, nrf)
    values["core.asdnet_policy_batch_us.b64"], kernel_time = _per_call_us(
        lambda: model.asdnet.policy_logits_batch(z, nrf), 1500, kernel_time)
    return kernel_time


def engine_probe(model: RL4OASDModel, drive: FleetDrive, rounds: List[tuple],
                 values: Dict[str, float], kernel_time) -> Tuple[float, float]:
    """The rounds a service lap sent, through a bare ``StreamEngine``.

    Returns the engine's calibrated points/s (the denominator of
    ``serve.facade_overhead_ratio``) and the kernel time to chain.
    """
    engine = model.stream_engine()
    recorder = SpanRecorder()
    # finalize_many drains the closing streams through fleet-wide ticks, so
    # most ticks run inside it: wrapping tick itself attributes them to the
    # tick, and leaves finalize its own (self) time.
    recorder.wrap(engine, "tick", "core.engine_tick")

    def ingest_round(events) -> None:
        for event in events:
            engine.ingest(event.vehicle_id, event.segment,
                          destination=event.destination,
                          start_time_s=event.start_time_s,
                          trajectory_id=event.trajectory_id)

    def lap() -> None:
        # The order one service round applies them in: queued events,
        # then the finalize marker, then the tick.
        for events, closing in rounds:
            if events:
                recorder.call("core.engine_ingest", None, ingest_round,
                              events)
            if closing:
                recorder.call("core.engine_finalize", None,
                              engine.finalize_many, closing)
            engine.tick()

    lap()  # warm the segment cache and the normal-route caches
    recorder.spans.clear()
    laps = []
    for _ in range(3):
        _, wall, factor, kernel_time = timed(lap, kernel_time)
        laps.append(Lap(drive.points, wall, factor))
    scale = (sum(lap.calibrated_s for lap in laps)
             / sum(lap.wall_s for lap in laps))
    totals = recorder.totals()
    points, trips = 3 * drive.points, 3 * len(drive.trips)
    values["core.engine_ingest_us_per_point"] = (
        totals["core.engine_ingest"]["total_s"] * scale / points * 1e6)
    values["core.engine_tick_us_per_point"] = (
        totals["core.engine_tick"]["total_s"] * scale / points * 1e6)
    values["core.engine_finalize_us_per_trip"] = (
        totals["core.engine_finalize"]["self_s"] * scale / trips * 1e6)
    values["core.tick_batch_mean"] = engine.points_processed / engine.ticks
    values["core.segment_cache_hit_rate"] = engine.cache.hit_rate
    return throughput(laps), kernel_time


def byte_audit(fleet: FleetService, values: Dict[str, float]):
    """The first lap of a fresh in-process service, counting what crosses
    the facade; returns the lap's output and its rounds as sent.

    Exact and repeatable: ``pickle.dumps`` of the very batches the driver
    hands to ``ingest_many`` / ``finalize_async`` and of the envelope lists
    ``poll_results`` returns — on the fixed lockstep schedule (on the
    process backend the grouping into rounds follows result timing) and
    from bus sequence number 1 (later laps pickle larger integers).
    """
    audit = {"rounds": [], "ingest_bytes": 0, "result_bytes": 0}
    output = fleet.lap(direct_call, audit=audit)
    values["transport.ingest_bytes_per_point"] = (
        audit["ingest_bytes"] / output.points)
    values["transport.result_bytes_per_trip"] = (
        audit["result_bytes"] / len(output.labels))
    return output, audit["rounds"]


def transport_probe(workload: FleetService, fixture: Fixture,
                    process_points_per_s: float, values: Dict[str, float],
                    kernel_time) -> float:
    """Idle request round trip, and the same fleet without the transport."""
    service = workload.service
    round_trips = []
    for _ in range(200):
        started = time.perf_counter()
        service.bus_stats()
        round_trips.append(time.perf_counter() - started)
    inproc = WORKLOADS["fleet_inproc"](fixture)
    inproc.setup()
    try:
        byte_audit(inproc, values)  # doubles as the twin's warm-up lap
        laps, kernel_time = run_laps(lambda: inproc.lap(direct_call), 0.0, 4,
                                     4, kernel_time, lambda output: None)
    finally:
        inproc.close()
    factor = statistics.median(lap.factor for lap in laps)
    values["transport.request_rtt_us_p50"] = (
        statistics.median(round_trips) / factor * 1e6)
    values["transport.process_vs_inproc_ratio"] = (
        process_points_per_s / throughput(laps))
    return kernel_time


def traced_run(workload, fixture: Fixture, seconds: float, fixture_s: float,
               results_dir: Path) -> dict:
    """Untraced baseline laps, traced laps, probes; see the module docstring."""
    values = {name: 0.0 for name, _, _ in LAYER_METRICS}
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    ledger = Ledger(workload)

    # ---- baseline: the measured run's laps, tracing off
    workload.setup()
    rounds: List[tuple] = []
    if isinstance(workload, FleetService) and workload.backend == "inprocess":
        warm, rounds = byte_audit(workload, values)
    else:
        warm = workload.lap(direct_call)
    ledger.check(warm)
    trips_per_lap = len(warm.labels)
    worker_pids = workload.worker_pids()
    cpu_before = (time.process_time(),
                  sum(cpu_seconds(pid) for pid in worker_pids))
    baseline, _ = run_laps(lambda: workload.lap(direct_call), seconds * 0.4,
                           3, 40, None, ledger.check, workload.kernel)
    kernel_time = None  # probes calibrate on the driver's own CPU
    lap_wall = sum(lap.wall_s for lap in baseline)
    if worker_pids:
        values["transport.parent_busy_share"] = (
            (time.process_time() - cpu_before[0]) / lap_wall)
        values["transport.worker_cpu_share"] = (
            (sum(cpu_seconds(pid) for pid in worker_pids) - cpu_before[1])
            / lap_wall)
    baseline_points_per_s = throughput(baseline)
    values.update(driver_stats(baseline))
    values["fixture.build_s"] = fixture_s
    if isinstance(workload, FleetService) and workload.backend == "process":
        kernel_time = transport_probe(workload, fixture,
                                      baseline_points_per_s, values,
                                      kernel_time)
    workload.close()

    # ---- traced: span recorder around every call, built-in tracer sampling
    recorder = SpanRecorder()
    workload.setup(obs=ObsConfig(trace_sample_rate=TRACE_SAMPLE_RATE))
    ledger.check(workload.lap(direct_call))
    workload.instrument(recorder)

    def traced_lap():
        recorder.lap += 1
        return recorder.call(LAP_SPAN, None, workload.lap, recorder.call)

    traced, _ = run_laps(traced_lap, seconds * 0.3, 3, MAX_TRACED_LAPS, None,
                         ledger.check, workload.kernel)
    scale = (sum(lap.calibrated_s for lap in traced)
             / sum(lap.wall_s for lap in traced))
    points = sum(lap.points for lap in traced)
    trips = trips_per_lap * len(traced)
    totals = recorder.totals()

    def share(span: str, per: int, which: str = "total_s") -> float:
        entry = totals.get(span)
        return entry[which] * scale / per * 1e6 if entry else 0.0

    def median_ms(span: str) -> float:
        durations = recorder.durations(span)
        return statistics.median(durations) * scale * 1e3 if durations else 0.0

    values["obs.trace_overhead_ratio"] = (throughput(traced)
                                          / baseline_points_per_s)
    values["driver.coverage"] = recorder.coverage()
    values["driver.self_us_per_point"] = share(LAP_SPAN, points, "self_s")
    values["core.detect_us_per_point"] = share("core.detect", points)
    values["serve.ingest_many_us_per_point"] = share("serve.ingest_many",
                                                     points)
    values["serve.pump_us_per_point"] = share("serve.pump", points)
    values["serve.finalize_async_us_per_trip"] = share("serve.finalize_async",
                                                       trips)
    values["serve.poll_results_us_per_trip"] = share("serve.poll_results",
                                                     trips)
    values["mapmatching.online_push_us_per_fix"] = share("mapmatching.push",
                                                         points)
    values["mapmatching.finish_us_per_trip"] = share("mapmatching.finish",
                                                     trips)
    values["ingest.push_point_us_per_fix"] = share("ingest.push_point", points)
    values["ingest.gateway_self_us_per_fix"] = share("ingest.push_point",
                                                     points, "self_s")
    values["ingest.end_us_per_trip"] = share("ingest.end", trips)
    values["core.fine_tune_ms_p50"] = median_ms("core.fine_tune")
    values["history.extend_ms_p50"] = median_ms("history.extend")
    values["serve.swap_ms_p50"] = median_ms("serve.swap")
    values["serve.ingest_retries_per_kpoint"] = (
        sum(lap.extras.get("retries", 0) for lap in traced) / points * 1e3)

    service = getattr(workload, "service", None)
    if service is not None:
        metrics = service.metrics()
        bus = service.bus_stats()[0]
        values["bus.published"] = bus.published
        values["bus.redelivered"] = bus.redelivered
        values["bus.gaps"] = metrics.results_gaps
        polls = sum(lap.extras.get("polls", 0) for lap in traced)
        if polls:
            values["bus.drain_batch_mean"] = trips / polls
        for stage in STAGES:
            report = service.stage_latency(stage)
            if report.count:
                values[f"obs.stage_ms_p50.{stage}"] = report.p50 * 1e3
        render = (workload.gateway.metrics_text
                  if isinstance(workload, RawGateway)
                  else service.metrics_text)
        renders = []
        for _ in range(5):
            started = time.perf_counter()
            render()
            renders.append(time.perf_counter() - started)
        values["obs.metrics_text_ms"] = (statistics.median(renders) * scale
                                         * 1e3)
    model = fixture.load_model()
    kernel_time = kernel_probes(model, values, kernel_time)
    if isinstance(workload, FleetService) and workload.backend == "inprocess":
        engine_points_per_s, kernel_time = engine_probe(
            model, workload.drive, rounds, values, kernel_time)
        values["serve.facade_overhead_ratio"] = (baseline_points_per_s
                                                 / engine_points_per_s)
    if isinstance(workload, RawGateway):
        online = workload.gateway.matcher
        values["mapmatching.distance_cache_hit_rate"] = (
            workload.matcher.distance_cache.hit_rate)
        values["mapmatching.commit_lag_points_p95"] = float(np.percentile(
            online.commit_lag_samples, 95))
        values["mapmatching.forced_commit_ratio"] = (
            online.forced_commits / online.commits)
        values["ingest.fixes_dropped"] = traced[-1].extras["fixes_dropped"]
        values["ingest.batched_flushes"] = traced[-1].extras["batched_flushes"]
        offline = HMMMapMatcher(fixture.network)
        offline.match_many(workload.fleet.clean)  # warm its distance cache
        _, wall, factor, kernel_time = timed(
            lambda: offline.match_many(workload.fleet.clean), kernel_time)
        values["mapmatching.offline_match_us_per_fix"] = (
            wall / factor / sum(len(trace) for trace in workload.fleet.clean)
            * 1e6)
    if isinstance(workload, DriftRefresh):
        swaps = metrics.delta_swaps + metrics.full_swaps
        values["serve.delta_swap_ratio"] = metrics.delta_swaps / swaps
        values["history.delta_bytes_per_swap"] = (metrics.swap_payload_bytes
                                                  / swaps)
        values["history.snapshot_bytes"] = len(snapshot_to_bytes(
            workload.live.pipeline.history))
        # The warm-up lap's refresh ran before the recorder was attached.
        tuned_points = sum(len(trip) for trip in workload.new_trips[
            workload.NEW_TRIPS:workload.refreshes * workload.NEW_TRIPS])
        values["core.fine_tune_points_per_s"] = tuned_points / (
            totals["core.fine_tune"]["total_s"] * scale)
    recorder.unwrap_all()
    checked, wrong = workload.final_check()
    ledger.attempted += checked
    ledger.failed += wrong

    written = recorder.write_jsonl(
        results_dir / f"trace_{workload.name}.jsonl", MAX_WRITTEN_LAPS)
    info = {
        "trace.spans_recorded": (len(recorder.spans), "count"),
        "trace.spans_written": (written, "count"),
        "trace.traced_laps": (len(traced), "count"),
        "trace.baseline_points_per_s": (baseline_points_per_s, "1/s"),
    }
    for name, entry in sorted(totals.items()):
        info[f"span.{name}.share_of_lap"] = (
            entry["self_s"] / totals[LAP_SPAN]["total_s"], "ratio")
    return {"metrics": {name: (values[name], units[name]) for name in values},
            "info": info, "ledger": ledger}
