"""Service throughput: the sharded DetectionService vs. one StreamEngine.

Replays the same fleet workload several ways — one batched ``StreamEngine``
(the single-engine baseline), an in-process service through the synchronous
wrapper and through the raw asyncio driver (``serve_fleet_async``; facade
overhead, no IPC), and a multi-process service at 1/2/4 shards — verifies
every path produces identical labels, reports points/sec for each, and
exercises the backpressure path (a one-command queue fills, the driver
retries, no stream is lost).

Sharding pays through parallelism, so what the numbers show depends on the
machine: on a single core the process backend only adds IPC cost, while on a
multicore host the shards' ticks overlap and the service overtakes the
single engine. The facade-overhead floor always arms (it measures batching,
not parallelism); the scaling assertions only arm when enough cores are
present (and every floor can be tuned for noisy shared runners):

* ``REPRO_BENCH_MIN_INPROC_RATIO`` — required points/sec ratio of the
  1-shard in-process service over the bare single engine (default 0.6):
  how much of the raw engine the batched command/result planes keep;
* ``REPRO_BENCH_MIN_SERVICE_SCALING`` — required points/sec ratio of the
  4-shard service over the 1-shard service (default 1.2);
* ``REPRO_BENCH_MIN_SERVICE_SPEEDUP`` — required ratio of the best
  multi-shard service over the single-engine baseline (default 1.0).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py -s
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from repro.core import replay_fleet
from repro.eval import measure_async_throughput, measure_throughput
from repro.experiments.common import prepare_city, train_rl4oasd
from repro.serve import serve_fleet, serve_fleet_async

from conftest import bench_settings, maybe_record_json, record_result

CONCURRENCY = 128
WORKLOAD_TRIPS = 256
SHARD_COUNTS = (1, 2, 4)
#: Cores needed before the parallel-scaling assertions arm.
MIN_CORES_FOR_SCALING = 4
MIN_INPROC_RATIO = float(
    os.environ.get("REPRO_BENCH_MIN_INPROC_RATIO", "0.6"))
MIN_SERVICE_SCALING = float(
    os.environ.get("REPRO_BENCH_MIN_SERVICE_SCALING", "1.2"))
MIN_SERVICE_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_SERVICE_SPEEDUP", "1.0"))


@pytest.fixture(scope="module")
def service_throughput():
    result = run_bench()
    record_result("service_throughput", result["text"])
    return result


def _measure_service(model, workload, total_points, *, num_shards, backend,
                     queue_depth=1024, name=None):
    """points/sec of one service configuration over the workload."""
    with model.detection_service(num_shards=num_shards, backend=backend,
                                 queue_depth=queue_depth) as service:
        started = time.perf_counter()
        results = serve_fleet(service, workload, concurrency=CONCURRENCY)
        elapsed = time.perf_counter() - started
        metrics = service.metrics()
    report = metrics.throughput_report(
        name=name or f"DetectionService ({backend}, {num_shards} shard(s))",
        total_seconds=elapsed)
    assert report.total_points == total_points
    assert metrics.results_pending == 0
    assert metrics.results_duplicates == 0
    return report, results, metrics


def _measure_service_async(model, workload, total_points, *, num_shards,
                           backend, name):
    """Same fleet, driven on the raw asyncio entry point.

    ``serve_fleet`` is ``asyncio.run(serve_fleet_async(...))``, so this row
    should land within noise of the synchronous one — printing both keeps
    the wrapper honest in the recorded results.
    """
    with model.detection_service(num_shards=num_shards, backend=backend,
                                 queue_depth=1024) as service:
        report, results = measure_async_throughput(
            lambda: serve_fleet_async(service, workload,
                                      concurrency=CONCURRENCY),
            total_points, name=name, num_trajectories=len(workload))
        metrics = service.metrics()
    assert metrics.results_pending == 0
    assert metrics.results_delivered == len(workload)
    return report, results, metrics


def _exercise_backpressure(model, workload):
    """A queue of depth 1 must fill (the bound counts commands: a round's
    ingest batch leaves no room for the finalize that follows it); retries
    must still deliver everything."""
    fleet = workload[:32]
    with model.detection_service(num_shards=1, backend="inprocess",
                                 queue_depth=1) as service:
        results = serve_fleet(service, fleet, concurrency=16)
        metrics = service.metrics()
    complete = (len(results) == len(fleet)
                and all(len(result.labels) == len(trajectory)
                        for trajectory, result in zip(fleet, results)))
    return metrics.rejected_ingests, complete, results


def run_bench(smoke: bool = False):
    if smoke:
        settings = bench_settings(scale=0.15, joint_trajectories=30,
                                  joint_epochs=1, pretrain_epochs=2)
        shard_counts, trips = (1,), 64
    else:
        settings = bench_settings(joint_trajectories=100)
        shard_counts, trips = SHARD_COUNTS, WORKLOAD_TRIPS
    split = prepare_city("chengdu", settings)
    model, _ = train_rl4oasd(split, settings)
    workload = [split.test[i % len(split.test)] for i in range(trips)]
    total_points = sum(len(trajectory) for trajectory in workload)

    engine = model.stream_engine()
    single, single_results = measure_throughput(
        lambda: replay_fleet(engine, workload, concurrency=64),
        total_points, name="StreamEngine (single, 64 streams)",
        num_trajectories=len(workload))

    mismatches = 0
    rows = [single]
    inproc, inproc_results, _ = _measure_service(
        model, workload, total_points, num_shards=1, backend="inprocess",
        name="DetectionService (inprocess, 1 shard)")
    rows.append(inproc)
    mismatches += sum(1 for a, b in zip(single_results, inproc_results)
                      if a.labels != b.labels)

    inproc_async, async_results, _ = _measure_service_async(
        model, workload, total_points, num_shards=1, backend="inprocess",
        name="DetectionService (inprocess, 1 shard, async driver)")
    rows.append(inproc_async)
    mismatches += sum(1 for a, b in zip(single_results, async_results)
                      if a.labels != b.labels)

    by_shards = {}
    for num_shards in shard_counts:
        report, results, metrics = _measure_service(
            model, workload, total_points, num_shards=num_shards,
            backend="process")
        by_shards[num_shards] = report
        rows.append(report)
        mismatches += sum(1 for a, b in zip(single_results, results)
                          if a.labels != b.labels)
        last_metrics = metrics

    rejected, complete, _ = _exercise_backpressure(model, workload)

    best = max(by_shards.values(), key=lambda r: r.points_per_second)
    scaling = (by_shards[max(by_shards)].points_per_second
               / by_shards[min(by_shards)].points_per_second)
    speedup = best.speedup_over(single)
    inproc_ratio = inproc.speedup_over(single)
    cores = os.cpu_count() or 1
    text_lines = [
        "Sharded detection service throughput"
        + (" (smoke)" if smoke else ""),
        f"  workload: {len(workload)} trips, {total_points} points, "
        f"concurrency {CONCURRENCY}, {cores} core(s)",
    ]
    text_lines.extend(f"  {report.format()}" for report in rows)
    text_lines.extend([
        f"  inprocess 1-shard vs single engine: {inproc_ratio:.2f}x "
        f"(floor {MIN_INPROC_RATIO:.2f}x)",
        f"  scaling {min(by_shards)}->{max(by_shards)} shards: "
        f"{scaling:.2f}x   best service vs single engine: {speedup:.2f}x",
        f"  label mismatches: {mismatches}",
        f"  backpressure: {rejected} rejections ridden out, "
        f"all streams complete: {complete}",
        f"  last run cache hit rate: {last_metrics.cache_hit_rate:.1%}",
    ])
    return {
        "text": "\n".join(text_lines),
        "mismatches": mismatches,
        "rejected": rejected,
        "complete": complete,
        "inproc_ratio": inproc_ratio,
        "scaling": scaling,
        "speedup": speedup,
        "cores": cores,
        "smoke": smoke,
        "single": single,
        "by_shards": by_shards,
    }


def test_service_matches_single_engine_labels(service_throughput):
    assert service_throughput["mismatches"] == 0


def test_inprocess_facade_overhead_is_bounded(service_throughput):
    """Batched command/result planes must keep the 1-shard in-process
    service at >= ``MIN_INPROC_RATIO`` of the bare engine's points/sec."""
    assert service_throughput["inproc_ratio"] >= MIN_INPROC_RATIO, \
        service_throughput["text"]


def test_backpressure_path_loses_no_stream(service_throughput):
    assert service_throughput["rejected"] > 0
    assert service_throughput["complete"]


def test_multi_shard_scaling(service_throughput):
    """4 shards must out-run 1 shard — and the single-engine baseline — when
    the host actually has cores to scale onto."""
    if service_throughput["cores"] < MIN_CORES_FOR_SCALING:
        pytest.skip(f"needs >= {MIN_CORES_FOR_SCALING} cores to measure "
                    f"parallel scaling, host has {service_throughput['cores']}")
    assert service_throughput["scaling"] >= MIN_SERVICE_SCALING, \
        service_throughput["text"]
    assert service_throughput["speedup"] >= MIN_SERVICE_SPEEDUP, \
        service_throughput["text"]


def test_bench_service_round(benchmark, service_throughput):
    """Time one fleet round through a 2-shard in-process service."""
    model_settings = bench_settings(scale=0.15, joint_trajectories=30,
                                    joint_epochs=1, pretrain_epochs=2)
    split = prepare_city("chengdu", model_settings)
    model, _ = train_rl4oasd(split, model_settings)
    service = model.detection_service(num_shards=2, backend="inprocess",
                                      queue_depth=4096)
    feeds = []
    for vehicle in range(32):
        trajectory = split.test[vehicle % len(split.test)]
        service.ingest_blocking(vehicle, trajectory.segments[0],
                                destination=trajectory.destination,
                                start_time_s=trajectory.start_time_s)
        feeds.append((vehicle, trajectory.segments))
    cursor = [1]

    def service_round():
        position = cursor[0]
        cursor[0] += 1
        for vehicle, segments in feeds:
            service.ingest_blocking(vehicle, segments[position % len(segments)])
        service.pump()

    benchmark(service_round)
    service.close()


def main() -> None:
    smoke = "--smoke" in sys.argv
    result = run_bench(smoke=smoke)
    print(result["text"])
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "service_throughput.txt").write_text(
        result["text"] + "\n", encoding="utf-8")
    maybe_record_json("service_throughput", result)
    if result["mismatches"]:
        raise SystemExit("label mismatch between service and single engine")
    if not (result["rejected"] > 0 and result["complete"]):
        raise SystemExit("backpressure path was not exercised cleanly")
    if result["inproc_ratio"] < MIN_INPROC_RATIO:
        raise SystemExit(
            f"inprocess/engine ratio {result['inproc_ratio']:.2f}x below "
            f"the {MIN_INPROC_RATIO:.2f}x floor")
    if smoke:
        return
    if result["cores"] >= MIN_CORES_FOR_SCALING:
        if result["scaling"] < MIN_SERVICE_SCALING:
            raise SystemExit(
                f"scaling {result['scaling']:.2f}x below the "
                f"{MIN_SERVICE_SCALING:.1f}x floor")
        if result["speedup"] < MIN_SERVICE_SPEEDUP:
            raise SystemExit(
                f"best service speedup {result['speedup']:.2f}x below the "
                f"{MIN_SERVICE_SPEEDUP:.1f}x floor")
    else:
        print(f"[scaling assertions skipped: "
              f"{result['cores']} < {MIN_CORES_FOR_SCALING} cores]")


if __name__ == "__main__":
    main()
