"""Table VI — cold-start study (dropping historical trajectories)."""

import pytest

from repro.experiments.table6 import run_table6

from conftest import bench_settings, record_result


@pytest.fixture(scope="module")
def table6():
    settings = bench_settings(joint_trajectories=120)
    result = run_table6(settings, drop_rates=(0.0, 0.4, 0.8))
    record_result("table6_cold_start", result.format())
    return result


def test_graceful_degradation(table6):
    """Effectiveness degrades only mildly as history is dropped (paper: ~6%)."""
    f1 = table6.f1_by_drop_rate
    assert f1[0.8] > 0.5 * f1[0.0]

