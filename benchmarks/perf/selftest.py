"""``run.py --selftest``: the harness checking itself (< 20 s).

Estimator maths on synthetic laps, span self-time arithmetic, seed →
input-digest determinism, BENCHMARK.json against the code's own metric
lists, and a 3-lap smoke of every workload with no failed operation.
"""

import json
import statistics
from pathlib import Path

from fixture import Fixture
from layers import LAYER_METRICS
from measure import Lap, latency_ms, throughput
from spans import LAP_SPAN, SpanRecorder
from workloads import WORKLOADS


def check(condition: bool, what: str) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        raise SystemExit(f"selftest failed: {what}")


def estimator_maths() -> None:
    # The same work seen on a nominal host and on one running 1.5x slow:
    # wall times differ by the factor, calibrated estimates must not.
    samples = [0.001 * (1 + (index % 50) / 100) for index in range(400)]

    def laps(factor):
        return [Lap(1000, 0.1 * factor, factor,
                    [sample * factor for sample in samples])
                for _ in range(9)]

    nominal, slow = laps(1.0), laps(1.5)
    check(abs(throughput(nominal) - 10000.0) < 1e-6,
          "throughput of a 0.1 s / 1000 point lap is 10000 points/s")
    check(abs(throughput(nominal) - throughput(slow)) < 1e-6,
          "speed factor 1.0 and 1.5 give equal calibrated throughput")
    check(all(abs(a - b) < 1e-9 for a, b in zip(latency_ms(nominal)[:2],
                                                latency_ms(slow)[:2])),
          "speed factor 1.0 and 1.5 give equal calibrated latency")
    check(abs(latency_ms(nominal)[0] - statistics.median(samples) * 1e3)
          < 1e-9, "per-lap p50 equals the sample median")
    short = [Lap(10, 0.1, 1.0, [0.001] * 64) for _ in range(8)]
    check(latency_ms(short)[2] == 512,
          "laps with < 200 samples are pooled into blocks, none dropped")


def span_arithmetic() -> None:
    recorder = SpanRecorder()

    def inner():
        return sum(range(2000))

    def outer():
        recorder.call("inner", None, inner)
        recorder.call("inner", None, inner)

    recorder.lap = 0
    recorder.call(LAP_SPAN, None, outer)
    totals = recorder.totals()
    check(totals["inner"]["calls"] == 2 and totals[LAP_SPAN]["calls"] == 1,
          "every call is one span")
    check(abs(totals[LAP_SPAN]["self_s"] - (totals[LAP_SPAN]["total_s"]
                                            - totals["inner"]["total_s"]))
          < 1e-12, "self time = span minus its children")
    check(0.0 < recorder.coverage() < 1.0,
          "coverage is the share of the lap inside call spans")
    check([span[3] for span in recorder.spans] == [-1, 0, 0],
          "child spans name their parent")


def manifest_matches_code(repo_root: Path, end_to_end_names,
                          run_seconds: int) -> None:
    manifest = json.loads((repo_root / "BENCHMARK.json").read_text())
    check(manifest["run_seconds"] == run_seconds,
          "BENCHMARK.json run_seconds = the harness's run length")
    check([w["name"] for w in manifest["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the five workloads")
    check([m["name"] for m in manifest["end_to_end"]] == list(end_to_end_names),
          "BENCHMARK.json end_to_end = the measured run's metrics")
    check([(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
          == LAYER_METRICS, "BENCHMARK.json per_layer = LAYER_METRICS")


def run(repo_root: Path, workdir: Path, measured_run,
        run_seconds: int) -> int:
    print("estimators")
    estimator_maths()
    print("spans")
    span_arithmetic()
    print("inputs")
    fixture = Fixture(7, workdir)
    check(fixture.cross_check_references() == 0,
          "OnlineDetector and StreamEngine references agree on every trip")
    workloads = {name: build(fixture) for name, build in WORKLOADS.items()}
    again = {name: build(fixture).input_digest()
             for name, build in WORKLOADS.items()}
    check(all(workloads[name].input_digest() == again[name]
              for name in WORKLOADS), "same seed, same generated inputs")
    fixture.seed = 8
    check(all(build(fixture).input_digest() != again[name]
              for name, build in WORKLOADS.items()),
          "another seed, other generated inputs")
    print("workloads (3 laps each)")
    end_to_end_names = None
    for name, workload in workloads.items():
        try:
            result = measured_run(workload, seconds=0.0, setup_repeats=1,
                                  min_laps=3, max_laps=3)
        finally:
            workload.close()
        ledger = result["ledger"]
        end_to_end_names = result["metrics"].keys()
        check(ledger.failed == 0 and ledger.attempted > 0
              and result["info"]["bus.gaps"][0] == 0,
              f"{name}: {ledger.attempted} operations, none failed, "
              "bus.gaps 0")
    print("manifest")
    manifest_matches_code(repo_root, end_to_end_names, run_seconds)
    print("selftest passed")
    return 0
