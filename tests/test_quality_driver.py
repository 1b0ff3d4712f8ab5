"""The paper-artefact driver ``benchmarks/quality/run.py``: every claim it
checks fails on a result that violates it, and an unknown artefact name is
refused."""

from __future__ import annotations

import copy
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from paper.fig3 import Fig3Result
from paper.fig4 import Fig4Result
from paper.fig5 import Fig5Case, Fig5Result
from paper.fig6 import DriftPartResult, Fig6Result
from paper.fig7 import Fig7Case, Fig7Result
from paper.param_study import ParamStudyResult
from paper.table2 import Table2Result
from paper.table3 import Table3Result
from paper.table4 import Table4Result
from paper.table5 import Table5Result, Table5Row
from paper.table6 import Table6Result

DRIVER = Path(__file__).resolve().parent.parent / "benchmarks" / "quality" / "run.py"


@pytest.fixture(scope="module")
def driver():
    spec = importlib.util.spec_from_file_location("quality_run", DRIVER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(f1):
    return SimpleNamespace(overall=SimpleNamespace(f1=f1))


TABLE3_METHODS = ("IBOAT", "DBTOD", "GM-VSAE", "SD-VSAE", "SAE", "VSAE",
                  "CTSS", "RL4OASD")
ABLATION_ROWS = ("RL4OASD", "w/o noisy labels", "w/o road segment embeddings",
                 "w/o RNEL", "w/o DL", "w/o local reward", "w/o global reward",
                 "w/o ASDNet", "only transition frequency")


def passing_results():
    """One result per artefact that satisfies every claim."""
    table3_runs = {name: _run(0.5) for name in TABLE3_METHODS}
    table3_runs["RL4OASD"] = _run(0.7)
    return {
        "table2_dataset_stats": Table2Result(statistics={
            "chengdu-like": SimpleNamespace(num_trajectories=1000,
                                            anomalous_ratio=0.05),
            "xian-like": SimpleNamespace(num_trajectories=700,
                                         anomalous_ratio=0.10)}),
        "table3_effectiveness": Table3Result(
            runs={"chengdu-like": dict(table3_runs),
                  "xian-like": dict(table3_runs)},
            warm_start_agreement={"chengdu-like": 1.0, "xian-like": 1.0}),
        "table4_ablation": Table4Result(
            f1_by_variant={name: 0.7 for name in ABLATION_ROWS},
            warm_start_agreement={}),
        "table5_scaling": Table5Result(rows=[
            Table5Row(150, 1.0, 0.1, 5.0, 0.6),
            Table5Row(600, 4.0, 0.4, 20.0, 0.7)]),
        "table6_cold_start": Table6Result(
            f1_by_drop_rate={0.0: 0.7, 0.4: 0.68, 0.8: 0.66}),
        "fig3_efficiency": Fig3Result(per_point_ms={
            "chengdu-like": {"RL4OASD": 0.02, "CTSS": 0.5, "DBTOD": 0.01}}),
        "fig4_scalability": Fig4Result(per_trajectory_ms={
            "chengdu-like": {"RL4OASD": {"G1": 0.5, "G2": 1.0}}}),
        "fig5_case_study": Fig5Result(cases=[Fig5Case(
            sd_pair=(1, 2), ground_truth=[0, 1, 0],
            predictions={"CTSS": [0, 1, 0], "RL4OASD": [0, 1, 0]},
            f1={"CTSS": 1.0, "RL4OASD": 1.0})]),
        "fig6_concept_drift": Fig6Result(
            f1_by_xi={1: 0.7}, training_time_by_xi={1: 0.0}, xi_for_parts=2,
            parts=[DriftPartResult(0, 0.4, 0.4, 0.0),
                   DriftPartResult(1, 0.2, 0.3, 0.3)]),
        "fig7_drift_case": Fig7Result(cases=[
            Fig7Case(part, (1, 2), [0, 0], [0, 0], [0, 0], 0.0, 0.0)
            for part in (0, 1)]),
        "param_study": ParamStudyResult(
            f1_by_alpha={0.25: 0.6, 0.35: 0.7, 0.5: 0.5},
            f1_by_delta={0.2: 0.6, 0.25: 0.7, 0.4: 0.5},
            f1_by_delay={0: 0.6, 4: 0.7, 8: 0.7}),
    }


def _set(mapping, key, value):
    mapping[key] = value


#: claim -> (artefact, how to doctor a passing result so the claim breaks)
VIOLATIONS = {
    "table2_statistics_shape": ("table2_dataset_stats", lambda r: setattr(
        r.statistics["xian-like"], "anomalous_ratio", 0.01)),
    "rl4oasd_beats_every_baseline": ("table3_effectiveness", lambda r: _set(
        r.runs["xian-like"], "CTSS", _run(0.7))),
    "rl4oasd_absolute_quality": ("table3_effectiveness", lambda r: _set(
        r.runs["chengdu-like"], "RL4OASD", _run(0.6))),
    "all_baselines_present": ("table3_effectiveness", lambda r: r.runs[
        "chengdu-like"].pop("SAE")),
    "full_model_is_best_or_close": ("table4_ablation", lambda r: _set(
        r.f1_by_variant, "only transition frequency", 0.76)),
    "every_ablation_row_present": ("table4_ablation", lambda r: r.f1_by_variant
                                   .pop("w/o DL")),
    "costs_grow_with_data_size": ("table5_scaling", lambda r: setattr(
        r.rows[-1], "training_seconds", 3.9)),
    "f1_is_reasonable_at_every_size": ("table5_scaling", lambda r: setattr(
        r.rows[0], "f1", 0.3)),
    "graceful_degradation": ("table6_cold_start", lambda r: _set(
        r.f1_by_drop_rate, 0.8, 0.35)),
    "rl4oasd_meets_online_budget": ("fig3_efficiency", lambda r: _set(
        r.per_point_ms["chengdu-like"], "RL4OASD", 100.0)),
    "ctss_is_slowest_of_the_family": ("fig3_efficiency", lambda r: _set(
        r.per_point_ms["chengdu-like"], "CTSS", 0.01)),
    "longer_groups_cost_more": ("fig4_scalability", lambda r: _set(
        r.per_trajectory_ms["chengdu-like"]["RL4OASD"], "G2", 0.4)),
    "case_study_has_cases": ("fig5_case_study", lambda r: r.cases.clear()),
    "rl4oasd_at_least_as_good_on_average": ("fig5_case_study", lambda r: _set(
        r.cases[0].f1, "RL4OASD", 0.74)),
    "fine_tuning_tracks_drift": ("fig6_concept_drift", lambda r: setattr(
        r.parts[1], "f1_ft", 0.14)),
    "fine_tuning_is_fast": ("fig6_concept_drift", lambda r: setattr(
        r.parts[1], "fine_tune_seconds", 300.0)),
    "cases_cover_both_parts": ("fig7_drift_case", lambda r: r.cases.pop()),
    "labels_align_with_ground_truth_length": ("fig7_drift_case", lambda r: r
                                              .cases[1].ft_labels.append(0)),
    "sweeps_cover_requested_values": ("param_study", lambda r: _set(
        r.f1_by_delay, 12, 0.1)),
    "moderate_thresholds_win": ("param_study", lambda r: _set(
        r.f1_by_alpha, 0.5, 0.8)),
}


def test_every_claim_is_covered(driver):
    claims = {claim.__name__ for _, claims in driver.ARTEFACTS.values()
              for claim in claims}
    assert len(claims) == 20
    assert claims == set(VIOLATIONS)


def test_passing_results_pass(driver):
    for artefact, result in passing_results().items():
        verdicts = driver.check(artefact, result)
        assert all(passed for passed, _ in verdicts.values()), (artefact,
                                                                verdicts)


@pytest.mark.parametrize("claim", sorted(VIOLATIONS))
def test_a_violated_claim_fails(driver, claim):
    artefact, doctor = VIOLATIONS[claim]
    result = copy.deepcopy(passing_results()[artefact])
    doctor(result)
    verdicts = driver.check(artefact, result)
    assert verdicts[claim][0] is False
    assert all(passed for name, (passed, _) in verdicts.items()
               if name != claim)


def test_a_claim_that_raises_fails_with_the_error(driver):
    result = passing_results()["table4_ablation"]
    del result.f1_by_variant["only transition frequency"]
    passed, detail = driver.check("table4_ablation",
                                  result)["full_model_is_best_or_close"]
    assert passed is False and "KeyError" in detail


def test_unknown_artefact_exits_nonzero():
    completed = subprocess.run(
        [sys.executable, str(DRIVER), "table2_dataset_stats", "table9"],
        capture_output=True, text=True, timeout=120)
    assert completed.returncode == 2
    assert "table9" in completed.stderr
