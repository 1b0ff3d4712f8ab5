"""Calibrated laps, estimators and host bookkeeping of the perf benchmark.

Nothing here knows a workload: a *lap* is any callable returning
``(points, latency_samples, results)``; this module times it between two
runs of the frozen calibration kernel, keeps the garbage collector out of
the timed region, and reduces the laps to the reported numbers.
"""

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from calibration import K0, kernel, speed_factor

#: A latency percentile is only taken over at least this many samples, so
#: p95 always has >= 10 samples beyond it; workloads whose lap yields fewer
#: pool consecutive laps into blocks of this size.
MIN_LATENCY_SAMPLES = 200

#: Which laps speak for a run. What this host does to a lap is one-sided:
#: a neighbour's burst slows the workload by up to 40 % while the kernel
#: slows by 10 %, and nothing makes a lap faster than the code allows. The
#: quartile of laps on the fast side (75th percentile of throughput, 25th
#: of a latency) therefore repeats better between runs than the median
#: over laps does: a third less spread in a loud hour, the same in a quiet
#: one (table in README.md). A change to the code moves every lap, so it
#: moves this quartile as it moves the median.
FAST_QUARTILE = 25.0

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Lap:
    """One timed lap: raw wall time plus the host speed factor around it."""

    points: int
    wall_s: float
    factor: float
    samples_s: List[float] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def calibrated_s(self) -> float:
        return self.wall_s / self.factor


def pin_driver() -> Tuple[Optional[int], Optional[int]]:
    """Pin this process to one CPU; returns ``(driver_cpu, spare_cpu)``.

    The two vCPUs of this host speed up and slow down independently
    (their kernel times correlate at 0.14), so a lap and the kernel runs
    that calibrate it must sit on the same one. The spare CPU is where a
    shard worker goes. ``(None, None)`` where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[-1], (cpus[0] if len(cpus) > 1 else None)


def kernel_on(cpu: int) -> Callable[[], float]:
    """The calibration kernel, run on ``cpu`` instead of the driver's."""
    def run() -> float:
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            return kernel()
        finally:
            os.sched_setaffinity(0, home)

    return run


def timed(action: Callable[[], object], kernel_before: Optional[float] = None,
          kernel: Callable[[], float] = kernel
          ) -> Tuple[object, float, float, float]:
    """Run ``action`` once between two kernel runs, GC parked outside.

    Returns ``(value, wall_s, factor, kernel_after)``; pass the returned
    ``kernel_after`` as the next call's ``kernel_before`` so consecutive
    laps share the kernel run between them.
    """
    if kernel_before is None:
        kernel_before = kernel()
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        value = action()
        wall = time.perf_counter() - started
    finally:
        gc.enable()
    kernel_after = kernel()
    return value, wall, speed_factor(kernel_before, kernel_after), kernel_after


def run_laps(lap: Callable[[], object], seconds: float, min_laps: int,
             max_laps: int, kernel_before: Optional[float],
             on_output: Callable[[object], None],
             kernel: Callable[[], float] = kernel
             ) -> Tuple[List[Lap], float]:
    """Repeat ``lap`` for ``seconds`` (within the lap-count limits).

    ``lap`` returns an object with ``points``, ``samples_s`` and ``extras``;
    ``on_output`` sees each one after its timing ended (correctness checks
    live there, outside the timed region). Returns the laps and the last
    kernel time, for the next ``timed`` call to reuse.
    """
    laps: List[Lap] = []
    deadline = time.perf_counter() + seconds
    while len(laps) < max_laps and (len(laps) < min_laps
                                    or time.perf_counter() < deadline):
        output, wall, factor, kernel_before = timed(lap, kernel_before,
                                                    kernel)
        laps.append(Lap(output.points, wall, factor, output.samples_s,
                        output.extras))
        on_output(output)
    return laps, kernel_before


def throughput(laps: Sequence[Lap]) -> float:
    """Fast quartile over laps of points per calibrated second."""
    return float(np.percentile([lap.points / lap.calibrated_s for lap in laps],
                               100.0 - FAST_QUARTILE))


def raw_throughput(laps: Sequence[Lap]) -> float:
    """Median over laps of points per wall-clock second (uncalibrated)."""
    return statistics.median(lap.points / lap.wall_s for lap in laps)


def driver_stats(laps: Sequence[Lap]) -> dict:
    """The ungated figures of ``laps``: the latency tail, how loud the host
    was, and, where a lap carries a refresh, its calibrated median."""
    factors = [lap.factor for lap in laps]
    stats = {
        "result_ms_p95": latency_ms(laps)[1],
        "driver.raw_points_per_s": raw_throughput(laps),
        "driver.speed_factor_p50": statistics.median(factors),
        "driver.speed_factor_max": max(factors),
        "driver.laps": len(laps),
    }
    if "refresh_s" in laps[0].extras:
        stats["refresh_ms_p50"] = statistics.median(
            lap.extras["refresh_s"] / lap.factor for lap in laps) * 1e3
    return stats


def latency_ms(laps: Sequence[Lap]) -> Tuple[float, float, int]:
    """``(p50_ms, p95_ms, samples)`` of the laps' calibrated latencies.

    Percentiles are taken per lap and the fast quartile over laps is
    reported (see ``FAST_QUARTILE``), so laps that sat in a slow host state
    cannot own the tail. Laps yielding fewer than ``MIN_LATENCY_SAMPLES``
    samples are pooled into blocks of consecutive laps first (each sample
    calibrated by its own lap's factor).
    """
    blocks: List[List[float]] = []
    current: List[float] = []
    for lap in laps:
        current.extend(sample / lap.factor for sample in lap.samples_s)
        if len(current) >= MIN_LATENCY_SAMPLES:
            blocks.append(current)
            current = []
    if not blocks:  # a run too short for one full block: use what there is
        blocks = [current]
    if not blocks[0]:
        raise ValueError("no latency samples recorded")
    p50, p95 = np.percentile(
        [np.percentile(block, (50, 95)) for block in blocks], FAST_QUARTILE,
        axis=0)
    samples = sum(len(block) for block in blocks)
    return float(p50) * 1e3, float(p95) * 1e3, samples


def peak_rss_mb(extra_pids: Sequence[int] = ()) -> float:
    """Peak resident set of this process plus the given live children, MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in extra_pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue  # the worker already exited
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def fingerprint(repo_root: Path, seed: int, seconds: float) -> dict:
    """What two result files must agree on before their numbers compare."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    commit = "unknown"
    if (repo_root / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(repo_root), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=False)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "kernel_k0_s": K0,
    }
