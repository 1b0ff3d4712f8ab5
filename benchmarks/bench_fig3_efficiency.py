"""Figure 3 — overall online detection efficiency (average runtime per point)."""

import pytest

from repro.experiments.fig3 import run_fig3

from conftest import bench_settings, record_result


@pytest.fixture(scope="module")
def fig3():
    settings = bench_settings(joint_trajectories=100)
    result = run_fig3(settings, max_trajectories=40)
    record_result("fig3_efficiency", result.format())
    return result


def test_rl4oasd_meets_online_budget(fig3):
    """RL4OASD processes each newly generated point well within the 2 s sampling rate."""
    for city, by_method in fig3.per_point_ms.items():
        assert by_method["RL4OASD"] < 100.0  # milliseconds


def test_ctss_is_slowest_of_the_family(fig3):
    """CTSS (quadratic Fréchet) should be slower than the lightweight DBTOD."""
    for city, by_method in fig3.per_point_ms.items():
        assert by_method["CTSS"] > by_method["DBTOD"]
