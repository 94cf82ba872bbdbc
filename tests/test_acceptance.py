"""Acceptance suite: one test per criterion, each printing a PASS line.

The expensive fixtures (selection runs and the Monte Carlo reference) are
module-scoped and shared across criteria. Everything runs single-threaded
with fixed seeds, so reruns are reproducible.
"""
import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_selection_matches
from seprep.als import FitConfig, fit_fixed
from seprep.cli import _REF_SEED, ERROR_COLUMNS, ExperimentConfig, cmd_fit
from seprep.model import mean, standard_deviation
from seprep.problems import (
    MANUFACTURED_MEAN,
    MANUFACTURED_VAR,
    elliptic_problem,
    elliptic_sample,
    elliptic_solve_batch,
    manufactured_sample,
    mc_baseline,
)
from seprep.selection import per_degree_seeds, select_model

SEEDS = [0, 1, 2, 3, 4]
R_GRID = [1, 2, 3, 4, 5]
M_GRID = [1, 2, 3, 4]
TRUE_MEAN = MANUFACTURED_MEAN
TRUE_STD = math.sqrt(MANUFACTURED_VAR)
SELECTION_REFERENCE = Path(__file__).parent / "data" / "selection_reference.json"


@pytest.fixture(scope="module")
def manufactured_runs():
    runs = {}
    t0 = time.perf_counter()
    for seed in SEEDS:
        data = manufactured_sample(1000, seed)
        cfg = FitConfig(rank_max=max(R_GRID), degree=max(M_GRID), rng_seed=seed)
        runs[seed] = select_model(data, R_GRID, M_GRID, cfg)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def elliptic_ctx():
    problem = elliptic_problem()
    t0 = time.perf_counter()
    rng = np.random.default_rng(_REF_SEED)

    def ref_sampler(n, seed):
        del seed
        return elliptic_solve_batch(problem, rng.uniform(-1.0, 1.0, (n, problem.dims)))

    reference = mc_baseline(ref_sampler, 200000, _REF_SEED)
    return problem, reference, time.perf_counter() - t0


@pytest.fixture(scope="module")
def elliptic_runs(elliptic_ctx):
    problem, _, _ = elliptic_ctx
    runs = {}
    times = {}
    for n in (200, 600):
        t0 = time.perf_counter()
        for seed in SEEDS:
            data = elliptic_sample(problem, n, seed)
            cfg = FitConfig(rank_max=max(R_GRID), degree=max(M_GRID), rng_seed=seed)
            runs[(n, seed)] = (select_model(data, R_GRID, M_GRID, cfg), data)
        times[n] = time.perf_counter() - t0
    return runs, times


def test_criterion_1_manufactured_statistics(manufactured_runs):
    runs, wall = manufactured_runs
    mean_errs, std_errs = [], []
    for seed in SEEDS:
        model = runs[seed].chosen_model()
        mean_errs.append(abs(mean(model) - TRUE_MEAN) / TRUE_MEAN)
        std_errs.append(abs(standard_deviation(model) - TRUE_STD) / TRUE_STD)
    med_mean = float(np.median(mean_errs))
    med_std = float(np.median(std_errs))
    ok = med_mean < 1e-2 and med_std < 5e-2 and wall < 120.0
    print(
        f"\nACCEPTANCE 1: {'PASS' if ok else 'FAIL'} - manufactured N=1000: "
        f"median mean err {med_mean:.2e} (<1e-2), median std err {med_std:.2e} "
        f"(<5e-2), runtime {wall:.0f}s (<120s)"
    )
    assert med_mean < 1e-2
    assert med_std < 5e-2
    assert wall < 120.0


def test_criterion_2_rank_degree_selection(manufactured_runs):
    runs, _ = manufactured_runs
    chosen = [runs[seed].chosen for seed in SEEDS]
    hits = sum(1 for pair in chosen if pair == (3, 3))
    max_rank = max(pair[0] for pair in chosen)
    ok = hits >= 3 and max_rank <= 5
    print(
        f"\nACCEPTANCE 2: {'PASS' if ok else 'FAIL'} - selection at N=1000: "
        f"(3,3) chosen in {hits}/5 seeds (need >=3), max rank {max_rank} (<=5); "
        f"choices {chosen}"
    )
    assert hits >= 3
    assert max_rank <= 5


def test_criterion_3_elliptic_rank_selection(elliptic_runs):
    runs, _ = elliptic_runs
    lines = []
    ok = True
    for n in (200, 600):
        hits = sum(1 for seed in SEEDS if runs[(n, seed)][0].chosen[0] == 1)
        lines.append(f"N={n}: r=1 in {hits}/5")
        ok = ok and hits >= 4
    print(
        f"\nACCEPTANCE 3: {'PASS' if ok else 'FAIL'} - elliptic rank selection: "
        + "; ".join(lines) + " (need >=4/5 each)"
    )
    for n in (200, 600):
        assert sum(1 for seed in SEEDS if runs[(n, seed)][0].chosen[0] == 1) >= 4


def test_criterion_4_elliptic_beats_monte_carlo(elliptic_ctx, elliptic_runs):
    _, ref, ref_wall = elliptic_ctx
    runs, times = elliptic_runs
    sep_errs, mc_errs = [], []
    for seed in SEEDS:
        report, data = runs[(600, seed)]
        model = report.chosen_model()
        sep_errs.append(abs(standard_deviation(model) - ref.std) / ref.std)
        mc_errs.append(abs(float(data.outputs.std(ddof=1)) - ref.std) / ref.std)
    med_sep = float(np.median(sep_errs))
    med_mc = float(np.median(mc_errs))
    guard = 3.0 * ref.stderr_std / ref.std
    wall = ref_wall + times[600]
    ok = med_sep + guard < med_mc and wall < 600.0
    print(
        f"\nACCEPTANCE 4: {'PASS' if ok else 'FAIL'} - elliptic N=600 std error: "
        f"separated {med_sep:.4f} + 3*ref-noise {guard:.4f} < MC {med_mc:.4f}; "
        f"runtime {wall:.0f}s (<600s)"
    )
    assert med_sep + guard < med_mc
    assert wall < 600.0


def test_criterion_5_regularization_effect():
    results = {}
    for seed in SEEDS:
        data = manufactured_sample(200, seed)
        init_seed = per_degree_seeds(seed, [2])[2]
        errs = {}
        for penalty in ("second_moment", "diag_scale", "none"):
            cfg = FitConfig(rank_max=5, degree=2, rng_seed=seed, penalty=penalty)
            model, _ = fit_fixed(data, 5, cfg, init_seed)
            errs[penalty] = abs(standard_deviation(model) - TRUE_STD) / TRUE_STD
        results[seed] = errs
    beats_unreg = sum(
        1 for e in results.values() if e["second_moment"] <= e["none"]
    )
    beats_diag = sum(
        1 for e in results.values() if e["second_moment"] <= e["diag_scale"]
    )
    ok = beats_unreg >= 4 and beats_diag >= 3
    print(
        f"\nACCEPTANCE 5: {'PASS' if ok else 'FAIL'} - over-ranked (r=5, M=2) at "
        f"N=200: second-moment penalty beats none in {beats_unreg}/5 (need >=4), "
        f"beats diag-scale in {beats_diag}/5 (need >=3)"
    )
    assert beats_unreg >= 4
    assert beats_diag >= 3


def test_selections_within_stated_tolerance(manufactured_runs, elliptic_runs):
    # the result tolerance every change to the fit is held to: on all 15
    # fixture selections the chosen and runner-up (r, M) are the recorded
    # ones and their EI_max matches to 1e-9 relative
    recorded = json.loads(SELECTION_REFERENCE.read_text())
    reports = [(recorded["manufactured"]["1000"][str(seed)], manufactured_runs[0][seed])
               for seed in SEEDS]
    reports += [(recorded["elliptic"][str(n)][str(seed)], elliptic_runs[0][(n, seed)][0])
                for n in (200, 600) for seed in SEEDS]
    for want, report in reports:
        assert_selection_matches(report, want)
    print(f"\nTOLERANCE: PASS - {len(reports)} selections match {SELECTION_REFERENCE.name}")


def test_criterion_6_invariant_suites():
    # the property suites live in the module tests; re-run them here so the
    # acceptance gate exercises every listed invariant in one place
    import test_als
    import test_model
    import test_regularize

    checks = [
        ("ALS residual monotonicity", test_als.test_sweep_monotone_unregularized),
        ("normal-equation residual", test_als.test_normal_equation_residual_every_solve),
        ("penalty norm equals second moment", test_regularize.test_penalty_norm_equals_second_moment),
        ("mean vs Monte Carlo", lambda: test_model.test_mean_and_second_moment_match_monte_carlo("hermite")),
        ("GCV trace vs explicit hat matrix", test_regularize.test_stacked_gcv_matches_explicit_hat_matrix),
        ("perturbation bound (200 trials)", test_regularize.test_perturbation_bound_holds),
        ("rank-1 exact recovery", test_als.test_exact_recovery_success_rate),
    ]
    for name, check in checks:
        check()
    print(
        "\nACCEPTANCE 6: PASS - invariant suites: "
        + ", ".join(name for name, _ in checks)
    )


def test_criterion_7_deterministic_outputs(tmp_path):
    def run(out_dir):
        config = ExperimentConfig(
            problem="manufactured",
            sample_sizes=[200],
            seeds=[1],
            r_grid=[1, 2],
            m_grid=[2, 3],
            output_dir=str(out_dir),
        )
        assert cmd_fit(config) == 0
        return out_dir

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")

    def rows(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    identical = True
    for r1, r2 in zip(rows(a / "errors.csv"), rows(b / "errors.csv")):
        for col in ERROR_COLUMNS:
            if col == "wall_time_s":
                continue  # timing is the one inherently non-reproducible column
            identical = identical and r1[col] == r2[col]
    for name in ("model_N200_seed1.json", "selection_N200_seed1.json", "reference.json"):
        identical = identical and (a / name).read_bytes() == (b / name).read_bytes()
    print(
        f"\nACCEPTANCE 7: {'PASS' if identical else 'FAIL'} - repeated single-thread "
        "run: identical CSV result columns and byte-identical JSON artifacts"
    )
    assert identical
