import dataclasses
import json
import logging
import math

import numpy as np
import pytest

import seprep.selection
from seprep import als
from seprep.als import FitConfig, FitDiagnostics, RankRecord, fit_fixed
from seprep.errors import SelectionError, SeprepError
from seprep.model import SampleSet, evaluate_batch
from seprep.problems import manufactured_sample
from seprep.regularize import RegularizationState
from seprep.selection import SelectionReport, per_degree_seeds, select_model
from helpers import random_model, selection_summary


def _state(ei):
    return RegularizationState(
        lambda_=0.1, sigma_hat=0.0, error_indicator=ei, hat_trace=1.0, grid_index=3,
    )


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
    cfg = dataclasses.replace(_fast_config(), penalty="none")
    with pytest.raises(SelectionError):
        select_model(data, [1], [2], cfg)


def test_unknown_penalty_is_refused():
    with pytest.raises(ValueError, match="penalty must be one of"):
        FitConfig(rank_max=1, degree=1, penalty="identity")


def _select_on_indicators(monkeypatch, eis_per_rank):
    """select_model over ranks 1..len(eis_per_rank) and degree 2, on a fit
    whose rank-r final sweep recorded the error indicators eis_per_rank[r - 1]."""
    def handmade_fit(data, r, config, init_seed):
        records = [
            RankRecord(rank=i + 1, residual_trace=[1.0], reg_states=[_state(e) for e in eis],
                       candidate=0, converged=True, model=None)
            for i, eis in enumerate(eis_per_rank)
        ]
        return None, FitDiagnostics(per_rank=records)

    monkeypatch.setattr(seprep.selection, "fit_fixed", handmade_fit)
    return select_model(_toy_data(), range(1, len(eis_per_rank) + 1), [2], _fast_config())


def test_ei_max_is_the_largest_indicator_of_the_final_sweep(monkeypatch):
    report = _select_on_indicators(monkeypatch, [[0.2, 0.5, 0.3], [0.4, 0.4, 0.4]])
    assert report.ei_max == {(1, 2): 0.5, (2, 2): 0.4}
    assert report.chosen == (2, 2)


def test_infinite_indicator_is_kept_and_loses(monkeypatch):
    report = _select_on_indicators(monkeypatch, [[0.2, math.inf, 0.3], [0.9, 0.9, 0.9]])
    assert report.ei_max[(1, 2)] == math.inf
    assert report.chosen == (2, 2)


def test_every_indicator_infinite_is_a_selection_error(monkeypatch):
    with pytest.raises(SelectionError, match="infinite error indicator"):
        _select_on_indicators(monkeypatch, [[math.inf, 0.1], [0.2, math.inf]])


def test_selection_log_names_the_runner_up_and_cap_stops(caplog, monkeypatch):
    # a two-sweep cap stops every rank fit before it converges
    cfg = dataclasses.replace(_fast_config(), candidate_burn_sweeps=2, max_sweeps_per_rank=2)
    with caplog.at_level(logging.INFO, logger="seprep.selection"):
        report = select_model(_toy_data(), [1, 2], [1, 2], cfg)
    summary = selection_summary(report)
    chosen, runner_up = tuple(summary["chosen"]), tuple(summary["runner_up"])
    assert caplog.messages[-1] == (
        f"selected (r, M) = {chosen} with EI_max = {summary['ei_max']:.4g} "
        f"(stopped at max_sweeps_per_rank); runner-up {runner_up} with EI_max = "
        f"{summary['runner_up_ei_max']:.4g} (stopped at max_sweeps_per_rank)"
    )
    # fits that stopped on sweep_tol, and a grid with no finite runner-up
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="seprep.selection"):
        _select_on_indicators(monkeypatch, [[0.2, 0.5], [0.4, math.inf]])
    assert caplog.messages[-1] == (
        "selected (r, M) = (1, 2) with EI_max = 0.5 (converged); runner-up none")


@pytest.mark.parametrize("r_grid", [[0, 1], [-2, 3]])
def test_rank_below_one_is_refused_before_any_fit(monkeypatch, r_grid):
    def no_fit(*args, **kwargs):
        raise AssertionError("select_model fitted with a rank below one")

    monkeypatch.setattr(seprep.selection, "fit_fixed", no_fit)
    with pytest.raises(ValueError, match="ranks must be >= 1"):
        select_model(_toy_data(), r_grid, [2], _fast_config())


def test_names_the_benchmark_tracer_reads(monkeypatch):
    # perfbench/tracing.py patches these module attributes and reads these
    # fields; a renamed one would make its metrics read 0 without an error
    seen = {}

    def record(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            seen.setdefault(name, []).append((args, result))
            return result

        monkeypatch.setattr(module, name, wrapper)

    record(seprep.selection, "fit_fixed")
    record(als, "TikhonovPath")
    record(als, "gcv_select_lambda")
    cfg = FitConfig(rank_max=2, degree=2, rng_seed=0)
    cfg = dataclasses.replace(cfg, init_candidates=2, candidate_burn_sweeps=3,
                              max_sweeps_per_rank=10)
    select_model(_toy_data(), [1, 2], [1, 2], cfg)
    assert len(seen["fit_fixed"]) == 2  # one fit per degree
    assert len(seen["TikhonovPath"]) == len(seen["gcv_select_lambda"]) > 0
    for args, (_, diag) in seen["fit_fixed"]:
        assert args[2].max_sweeps_per_rank == 10
        for r in (1, 2):
            rec = diag.per_rank[r - 1]
            assert rec.rank == r
            assert rec.sweeps == len(rec.residual_trace)
    # one call covers a stack of direction solves: one lambda and grid row each
    for _, sel in seen["gcv_select_lambda"]:
        for lam, grid in zip(np.atleast_1d(sel.lambda_), np.atleast_2d(sel.grid), strict=True):
            assert grid[0] <= lam <= grid[-1]


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


@pytest.mark.parametrize("part, remove, add, named", [
    # the config of a report written before one penalty field replaced two flags
    ("config", ["penalty"], {"regularize": True, "l_identity": False},
     r"config has unknown keys \['l_identity', 'regularize'\] and missing keys \['penalty'\]"),
    (None, ["chosen"], {}, r"report has unknown keys \[\] and missing keys \['chosen'\]"),
    (None, [], {"notes": ""}, r"report has unknown keys \['notes'\]"),
], ids=["old-config", "no-chosen", "unknown-key"])
def test_report_document_with_wrong_keys_is_refused(part, remove, add, named):
    doc = select_model(_toy_data(), [1], [1], _fast_config(seed=11)).to_dict()
    target = doc if part is None else doc[part]
    for key in remove:
        del target[key]
    target.update(add)
    with pytest.raises(ValueError, match=named):
        SelectionReport.from_dict(doc)


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
    rec = diag.per_rank[r - 1]
    assert np.array_equal(rec.model.coeffs, stored.coeffs)
    assert np.array_equal(rec.model.scales, stored.scales)
    # ei recomputed from the diagnostics equals the logged table entry
    assert max(s.error_indicator for s in rec.reg_states) == report.ei_max[(r, m)]


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


def _degenerate_config():
    return FitConfig(rank_max=2, degree=2, rng_seed=0, init_candidates=2,
                     candidate_burn_sweeps=3, max_sweeps_per_rank=20)


@pytest.mark.parametrize("case", ["duplicates", "constant", "zero", "huge", "n6", "n5"])
def test_degenerate_data_ends_in_a_report_or_a_typed_error(case):
    try:
        report = select_model(_fault_variant(case), [1, 2], [1, 2], _degenerate_config())
    except SeprepError:
        return
    assert report.chosen in report.grid
    assert math.isfinite(report.ei_max[report.chosen])


def test_huge_outputs_pick_the_unscaled_pair():
    # outputs of order 1e200 square past the double range; the fit works on
    # outputs scaled into [0.5, 1), so it selects as it does unscaled
    huge = select_model(_fault_variant("huge"), [1, 2], [1, 2], _degenerate_config())
    plain = select_model(manufactured_sample(60, seed=0), [1, 2], [1, 2], _degenerate_config())
    assert huge.chosen == plain.chosen


def test_all_zero_outputs_are_refused_before_any_fit(monkeypatch):
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
