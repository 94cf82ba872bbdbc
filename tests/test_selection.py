import dataclasses
import json
import math

import numpy as np
import pytest

from seprep.als import FitConfig, FitDiagnostics, RankRecord, fit_fixed
from seprep.errors import ProtocolError, SelectionError, SeprepError
from seprep.model import SampleSet, evaluate_batch
from seprep.problems import manufactured_sample
from seprep.regularize import RegularizationState
from seprep.selection import SelectionReport, ei_max_for_rank, per_degree_seeds, select_model
from helpers import random_model


def _state(ei):
    return RegularizationState(
        lambda_=0.1, sigma_hat=0.0, error_indicator=ei, hat_trace=1.0,
    )


def _diag_with(eis, dims=3):
    rec = RankRecord(
        rank=1, residual_trace=[1.0], reg_states=[_state(e) for e in eis],
        sweeps=1, candidate=0, model=None,
    )
    return FitDiagnostics(per_rank=[rec], seed=0, degree=1, n_samples=10, dims=dims)


def test_ei_max_takes_the_largest():
    assert ei_max_for_rank(_diag_with([0.2, 0.5, 0.3]), 1) == 0.5


def test_ei_max_propagates_infinity():
    assert ei_max_for_rank(_diag_with([0.2, math.inf, 0.3]), 1) == math.inf


def test_ei_max_missing_rank():
    with pytest.raises(ProtocolError):
        ei_max_for_rank(_diag_with([0.1, 0.2, 0.3]), 2)


def test_ei_max_requires_regularized_records():
    diag = _diag_with([0.1, 0.2, 0.3])
    diag.per_rank[0].reg_states = [None, None, None]
    with pytest.raises(ProtocolError):
        ei_max_for_rank(diag, 1)


def test_ei_max_wrong_record_count():
    with pytest.raises(ProtocolError):
        ei_max_for_rank(_diag_with([0.1, 0.2], dims=3), 1)


def _toy_data(seed=0, n=150, dims=3):
    rng = np.random.default_rng(seed)
    truth = random_model(rng, dims=dims, rank=1, degree=2)
    pts = rng.standard_normal((n, dims))
    out = evaluate_batch(truth, pts) + 0.01 * rng.standard_normal(n)
    return SampleSet(pts, out, "hermite")


def _fast_config(seed=0):
    return FitConfig(
        rank_max=2, degree=2, rng_seed=seed,
        init_candidates=2, candidate_burn_sweeps=5, max_sweeps_per_rank=40,
    )


def test_single_pair_grid_is_chosen():
    data = _toy_data()
    report = select_model(data, [1], [2], _fast_config())
    assert report.chosen == (1, 2)
    assert report.grid == [(1, 2)]


def test_selection_requires_regularization():
    data = _toy_data()
    cfg = dataclasses.replace(_fast_config(), regularize=False)
    with pytest.raises(SelectionError):
        select_model(data, [1], [2], cfg)


def test_selection_deterministic_and_serializable():
    data = _toy_data()
    cfg = _fast_config(seed=11)
    rep1 = select_model(data, [1, 2], [1, 2], cfg)
    rep2 = select_model(data, [1, 2], [1, 2], cfg)
    assert rep1.chosen == rep2.chosen
    assert rep1.ei_max == rep2.ei_max
    for pair in rep1.grid:
        assert np.array_equal(rep1.models[pair].coeffs, rep2.models[pair].coeffs)
    doc = json.dumps(rep1.to_dict())
    back = SelectionReport.from_dict(json.loads(doc))
    assert back.chosen == rep1.chosen
    assert back.ei_max == rep1.ei_max
    assert np.array_equal(back.chosen_model().coeffs, rep1.chosen_model().coeffs)


def test_chosen_pair_attains_minimum_with_parsimonious_ties():
    data = _toy_data(seed=3)
    report = select_model(data, [1, 2], [1, 2], _fast_config(seed=5))
    finite = {p: v for p, v in report.ei_max.items() if math.isfinite(v)}
    best = min(finite.values())
    assert report.ei_max[report.chosen] == best
    for pair in sorted(report.grid):
        if report.ei_max[pair] == best:
            assert report.chosen == pair
            break


def test_refit_from_stored_seed_reproduces_model():
    data = _toy_data(seed=7)
    cfg = _fast_config(seed=21)
    report = select_model(data, [1, 2], [1, 2], cfg)
    r, m = report.chosen
    refit_cfg = dataclasses.replace(cfg, degree=m, rank_max=2)
    model, diag = fit_fixed(data, 2, refit_cfg, report.degree_seeds[m])
    stored = report.models[(r, m)]
    refit = diag.rank_record(r).model
    assert np.array_equal(refit.coeffs, stored.coeffs)
    assert np.array_equal(refit.scales, stored.scales)
    # ei recomputed from the diagnostics equals the logged table entry
    assert ei_max_for_rank(diag, r) == report.ei_max[(r, m)]


def test_degree_zero_in_the_grid_loses_without_aborting():
    # with degree 0 every factor is a constant: above rank one the term Gram is
    # singular and surplus terms decay until their scales underflow; those
    # pairs must lose on their indicators while the search runs to the end
    for seed in (0, 1, 2):
        data = manufactured_sample(60, seed=seed)
        report = select_model(data, [1, 2, 3, 4], [0, 2], FitConfig(rank_max=4, degree=0))
        assert math.isfinite(report.ei_max[(1, 0)])
        for r in (2, 3, 4):
            assert report.ei_max[(r, 0)] > 1e6
        assert report.chosen[1] == 2


def _fault_variant(case):
    base = manufactured_sample(60, seed=0)
    x, y = base.inputs, base.outputs
    if case == "duplicates":
        x, y = np.repeat(x[:5], 12, axis=0), np.repeat(y[:5], 12)
    elif case == "constant":
        y = np.full(60, 0.55)
    elif case == "zero":
        y = np.zeros(60)
    elif case == "huge":
        y = 1e200 * y
    elif case.startswith("n"):  # (r, M) = (2, 2) has 6 unknowns per direction
        n = int(case[1:])
        x, y = x[:n], y[:n]
    return SampleSet(x, y, base.family)


@pytest.mark.parametrize("case", ["duplicates", "constant", "zero", "huge", "n6", "n5"])
def test_degenerate_data_ends_in_a_report_or_a_typed_error(case):
    cfg = FitConfig(rank_max=2, degree=2, rng_seed=0, init_candidates=2,
                    candidate_burn_sweeps=3, max_sweeps_per_rank=20)
    try:
        report = select_model(_fault_variant(case), [1, 2], [1, 2], cfg)
    except SeprepError:
        return
    assert report.chosen in report.grid
    assert math.isfinite(report.ei_max[report.chosen])


def test_all_zero_outputs_are_refused_before_any_fit(monkeypatch):
    import seprep.selection

    def no_fit(*args, **kwargs):
        raise AssertionError("select_model fitted all-zero outputs")

    monkeypatch.setattr(seprep.selection, "fit_fixed", no_fit)
    with pytest.raises(SelectionError, match="every output is zero"):
        select_model(_fault_variant("zero"), [1, 2], [1, 2], _fast_config())


def test_per_degree_seeds_are_stable():
    a = per_degree_seeds(123, [1, 2, 3])
    b = per_degree_seeds(123, [1, 2, 3])
    assert a == b
    assert len(set(a.values())) == 3


def test_noiseless_benchmark_never_overshoots_generating_rank():
    # the generating representation has five orthogonal terms, so even with
    # the grid extended past it the chosen rank must stay at or below five
    data = manufactured_sample(1000, seed=1, noisy=False)
    cfg = FitConfig(rank_max=6, degree=4, rng_seed=1)
    report = select_model(data, [1, 2, 3, 4, 5, 6], [1, 2, 3, 4], cfg)
    assert report.chosen[0] <= 5
