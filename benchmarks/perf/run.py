"""Calibrated-lap perf benchmark of the RL4OASD stack (see README.md).

    python3 benchmarks/perf/run.py --workload fleet_inproc --seed 7
    python3 benchmarks/perf/run.py --workload raw_gateway --trace 1
    python3 benchmarks/perf/run.py                 # all five workloads
    python3 benchmarks/perf/run.py --aa 3          # A/A self-check
    python3 benchmarks/perf/run.py --selftest

A single-workload run prints every metric by name with its unit and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``.
"""

import os

# BLAS threads are pinned before numpy is imported (shard workers inherit
# the environment): unpinned OpenBLAS runs 64x256 matmuls on two threads,
# which doubles the run's exposure to whatever else the host is doing.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent
RESULTS_DIR = PERF_DIR / "results"
SOURCE_DIR = REPO_ROOT / "src"

if not (SOURCE_DIR / "repro" / "__init__.py").exists():
    sys.stderr.write(f"perf benchmark: no system under test at {SOURCE_DIR} "
                     "(run from a checkout of the repository)\n")
    raise SystemExit(2)
sys.path.insert(0, str(SOURCE_DIR))
sys.path.insert(0, str(PERF_DIR))

from fixture import Fixture  # noqa: E402
from layers import LAYER_METRICS, traced_run  # noqa: E402
from measure import (driver_stats, fingerprint, latency_ms,  # noqa: E402
                     peak_rss_mb, pin_driver, run_laps, throughput, timed)
from spans import direct_call  # noqa: E402
from workloads import WORKLOADS, Ledger, bus_gaps  # noqa: E402

LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
#: How long the timed laps of one run last: ``run_seconds`` of
#: BENCHMARK.json, which the benchmark driver hands back as ``--seconds``.
#: Runs started any other way (all workloads, ``--aa``) always use it.
RUN_SECONDS = 20
SETUP_REPEATS = 5
MIN_LAPS = 8
MAX_LAPS = 400


def measured_run(workload, seconds: float, setup_repeats: int,
                 min_laps: int = MIN_LAPS, max_laps: int = MAX_LAPS) -> dict:
    """Bring the system up ``setup_repeats`` times, then lap it, tracing off."""
    ledger = Ledger(workload)
    setups = []
    kernel_time = None
    for repeat in range(setup_repeats):
        if repeat:
            workload.close()

        def bring_up():
            workload.setup()
            return workload.lap(direct_call)

        output, wall, factor, kernel_time = timed(bring_up, kernel_time,
                                                  workload.kernel)
        ledger.check(output)
        setups.append(wall / factor)
    laps, _ = run_laps(lambda: workload.lap(direct_call), seconds, min_laps,
                       max_laps, kernel_time, ledger.check, workload.kernel)
    checked, wrong = workload.final_check()
    ledger.attempted += checked
    ledger.failed += wrong
    p50, _, samples = latency_ms(laps)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "points_per_s": (throughput(laps), "1/s"),
        "result_ms_p50": (p50, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload.worker_pids()), "MB"),
    }
    info = {name: (value, LAYER_UNITS[name])
            for name, value in driver_stats(laps).items()}
    info["driver.latency_samples"] = (samples, "count")
    info["bus.gaps"] = (bus_gaps(workload), "count")
    return {"metrics": metrics, "info": info, "ledger": ledger, "laps": laps}


def scratch_dir() -> Path:
    """A private directory inside the checkout (checkpoint, child results)."""
    workdir = PERF_DIR / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def run_workload(args) -> int:
    started = time.perf_counter()
    _, worker_cpu = pin_driver()
    workdir = scratch_dir()
    workload = None
    try:
        fixture = Fixture(args.seed, workdir, worker_cpu)
        workload = WORKLOADS[args.workload](fixture)
        reference_mismatches = fixture.cross_check_references()
        fixture_s = time.perf_counter() - started
        if args.trace:
            run = traced_run(workload, fixture, args.seconds, fixture_s,
                             RESULTS_DIR)
        else:
            run = measured_run(workload, args.seconds, SETUP_REPEATS)
            run["info"]["fixture.build_s"] = (fixture_s,
                                              LAYER_UNITS["fixture.build_s"])
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = run["ledger"]
    gaps = {**run["metrics"], **run["info"]}["bus.gaps"][0]
    correct = (ledger.failed == 0 and gaps == 0 and reference_mismatches == 0)
    host = fingerprint(REPO_ROOT, args.seed, args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {int(bool(args.trace))}  input_digest "
          f"{workload.input_digest()[:16]}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, (value, unit) in {**run["metrics"], **run["info"]}.items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    print(f"  ops_attempted {ledger.attempted}  ops_failed {ledger.failed}  "
          f"reference_mismatches {reference_mismatches}  "
          f"labels_digest {ledger.labels_digest}")
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }
    if args.json:
        payload = dict(result, workload=args.workload, trace=bool(args.trace),
                       host=host, labels_digest=ledger.labels_digest,
                       input_digest=workload.input_digest(),
                       info={name: {"value": value, "unit": unit}
                             for name, (value, unit) in run["info"].items()})
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(payload, indent=2,
                                              sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_child(workload: str, seed: int, trace: int) -> dict:
    """One single-workload run in a fresh process (peak RSS is per process)."""
    out = PERF_DIR / ".work" / f"child-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(PERF_DIR / "run.py"), "--workload",
               workload, "--seed", str(seed), "--trace", str(trace), "--json",
               str(out)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
        if not out.exists():
            raise RuntimeError(f"{workload} seed {seed} produced no result:\n"
                               f"{done.stdout}\n{done.stderr}")
        payload = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
    payload["exit_code"] = done.returncode
    payload["text"] = done.stdout
    return payload


def run_all(args) -> int:
    """Every workload once, each in its own process; optional JSON file."""
    results = {}
    for name in WORKLOADS:
        payload = run_child(name, args.seed, args.trace)
        print(payload.pop("text"), end="")
        results[name] = payload
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(results, indent=2,
                                              sort_keys=True) + "\n")
    return max(payload["exit_code"] for payload in results.values())


def spread(values) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def aa_check(args) -> int:
    """Two interleaved sets of ``--aa`` runs of the same code, compared.

    Applies the driver's acceptance rule per workload and end-to-end
    metric: each set's spread (except ``setup_s``'s) and the shift between
    the two sets' medians must stay within the metric's bound. A pairing
    that does not is marked ``DEMOTE``. BENCHMARK.json gates every
    end-to-end metric on every workload, so demoting means moving the
    metric to ``per_layer`` for all of them (as was done with
    ``result_ms_p95``, still printed here without a bound) or measuring
    the pairing more steadily.
    """
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    gated = manifest["end_to_end"] + [
        {"name": "result_ms_p95", "better": "lower", "bound": None},
        {"name": "driver.raw_points_per_s", "better": "higher", "bound": None}]
    table, supported = {}, True
    for name in ([args.workload] if args.workload else list(WORKLOADS)):
        sets = ({}, {})
        for repeat in range(args.aa):
            for which in (0, 1):  # interleaved: A B A B ...
                seed = args.seed + 2 * repeat + which
                payload = run_child(name, seed, 0)
                if payload["exit_code"]:
                    print(payload["text"])
                    return payload["exit_code"]
                for key, entry in {**payload["metrics"],
                                   **payload["info"]}.items():
                    sets[which].setdefault(key, []).append(entry["value"])
                print(f"  {name} seed {seed} set {'AB'[which]}: " + "  ".join(
                    f"{key}={entry['value']:.4g}"
                    for key, entry in payload["metrics"].items()))
        table[name] = {}
        for metric in gated:
            key, bound = metric["name"], metric["bound"]
            first, second = sets[0][key], sets[1][key]
            medians = statistics.median(first), statistics.median(second)
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            spreads = (spread(first), spread(second))
            row = {"median_a": medians[0], "median_b": medians[1],
                   "b_worse_by": worse, "spread_a": spreads[0],
                   "spread_b": spreads[1], "bound": bound}
            verdict = ""
            if bound is not None:
                row["within_bound"] = abs(worse) <= bound and (
                    key == "setup_s" or max(spreads) <= bound)
                supported = supported and row["within_bound"]
                verdict = "ok" if row["within_bound"] else "DEMOTE"
            table[name][key] = row
            print(f"{name:14s} {key:24s} A {medians[0]:12.4f}  "
                  f"B {medians[1]:12.4f}  B worse by {worse:+7.2%}  spread "
                  f"{spreads[0]:6.2%} / {spreads[1]:6.2%}  bound {bound}  "
                  f"{verdict}")
    out = Path(args.json) if args.json else RESULTS_DIR / "aa.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "host": fingerprint(REPO_ROOT, args.seed, RUN_SECONDS),
        "runs_per_set": args.aa, "table": table}, indent=2, sort_keys=True)
        + "\n")
    print(f"[A/A table written to {out}]")
    return 0 if supported else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed laps of a single-workload "
                             "run last; the benchmark driver passes "
                             "BENCHMARK.json's run_seconds, the default")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run printing the per-layer ledger")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full result to this file")
    parser.add_argument("--aa", type=int, nargs="?", const=3, metavar="K",
                        choices=range(2, 51),
                        help="A/A self-check: two sets of K runs per workload")
    parser.add_argument("--selftest", action="store_true",
                        help="check the harness itself (< 20 s)")
    args = parser.parse_args(argv)
    if args.selftest:
        import selftest
        pin_driver()
        workdir = scratch_dir()
        try:
            return selftest.run(REPO_ROOT, workdir, measured_run,
                                RUN_SECONDS)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.aa:
        return aa_check(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
