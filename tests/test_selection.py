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


def _toy_data(seed=0, n=150, dims=3, rank=1):
    rng = np.random.default_rng(seed)
    truth = random_model(rng, dims=dims, rank=rank, degree=2)
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


def _select_on_indicators(monkeypatch, eis_per_rank, r_grid=None):
    """select_model over r_grid (default ranks 1..len(eis_per_rank)) and degree 2,
    on a fit whose rank-r final sweep recorded the error indicators
    eis_per_rank[r - 1]; like fit_fixed, the fit ends where stop says so."""
    def handmade_fit(data, r, config, init_seed, *, stop=None):
        records = []
        for i, eis in enumerate(eis_per_rank[:r]):
            records.append(RankRecord(rank=i + 1, residual_trace=[1.0],
                                      reg_states=[_state(e) for e in eis],
                                      candidate=0, converged=True, model=None))
            if stop is not None and stop(records[-1]):
                break
        return None, FitDiagnostics(per_rank=records)

    monkeypatch.setattr(seprep.selection, "fit_fixed", handmade_fit)
    if r_grid is None:
        r_grid = range(1, len(eis_per_rank) + 1)
    return select_model(_toy_data(), r_grid, [2], _fast_config())


@pytest.fixture(scope="module")
def stopped_report():
    # a rank-2 truth: degree 1's ladder stops at r = 2, degree 2's at r = 3,
    # so rank 4 is fitted for neither
    data = _toy_data(seed=1, rank=2)
    return data, select_model(data, [1, 2, 3, 4], [1, 2], _fast_config())


def test_stopped_ladders_keep_the_bits_of_a_full_ladder(stopped_report):
    data, report = stopped_report
    assert report.grid == [(r, m) for m in (1, 2) for r in (1, 2, 3, 4)]
    assert sorted(report.ei_max) == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]
    for m, seed in report.degree_seeds.items():
        cfg = dataclasses.replace(_fast_config(), degree=m, rank_max=4)
        _, full = fit_fixed(data, 4, cfg, seed)
        eis = [max(s.error_indicator for s in rec.reg_states) for rec in full.per_rank]
        # the first rank whose EI_max is not below the best finite lower one
        top = next((r for r in (2, 3, 4)
                    if math.isfinite(min(eis[:r - 1])) and not eis[r - 1] < min(eis[:r - 1])), 4)
        assert sorted(r for r, mm in report.ei_max if mm == m) == list(range(1, top + 1))
        for r in range(1, top + 1):
            rec = full.per_rank[r - 1]
            assert report.ei_max[(r, m)] == eis[r - 1]
            assert report.residuals[(r, m)] == rec.residual
            assert np.array_equal(report.models[(r, m)].coeffs, rec.model.coeffs)
            assert np.array_equal(report.models[(r, m)].scales, rec.model.scales)


@pytest.mark.parametrize("eis, r_grid, fitted", [
    # stops at the first rank not below the best lower one, equal included
    ([0.5, 0.3, 0.4, 0.2], None, [1, 2, 3]),
    ([0.5, 0.5, 0.1], None, [1, 2]),
    ([0.5, 0.3, 0.2, 0.1], None, [1, 2, 3, 4]),
    # only grid ranks are compared: 0.35 is below off-grid rank 3's 0.4,
    # but not below grid rank 2's 0.3
    ([0.5, 0.3, 0.4, 0.35, 0.1], [1, 2, 4, 5], [1, 2, 4]),
    # off-grid ranks are fitted but never compared: rank 2's 0.1 does not
    # make rank 3 stop, and rank 2's 0.9 does not stop the ladder
    ([0.5, 0.1, 0.4, 0.3], [1, 3, 4], [1, 3, 4]),
    ([0.5, 0.9, 0.6, 0.3], [1, 3, 4], [1, 3]),
    # with no finite EI_max below it a rank never stops the ladder
    ([math.inf, 0.5, 0.4], None, [1, 2, 3]),
    ([math.inf, math.inf, 0.3, 0.2], None, [1, 2, 3, 4]),
    ([math.inf, 0.5, math.inf, 0.1], None, [1, 2, 3]),
], ids=["rises", "ties", "falls", "off-grid-between", "off-grid-low", "off-grid-high",
        "inf-first", "inf-twice", "inf-after-finite"])
def test_ladder_stops_at_the_first_rank_not_below_the_best_lower(
        monkeypatch, eis, r_grid, fitted):
    report = _select_on_indicators(monkeypatch, [[e] for e in eis], r_grid)
    grid_ranks = list(r_grid or range(1, len(eis) + 1))
    assert report.grid == [(r, 2) for r in grid_ranks]
    assert report.ei_max == {(r, 2): eis[r - 1] for r in fitted}
    assert set(report.residuals) == set(report.models) == set(report.ei_max)


def test_each_early_stop_is_logged_before_the_selection(caplog, monkeypatch):
    with caplog.at_level(logging.INFO, logger="seprep.selection"):
        _select_on_indicators(monkeypatch, [[0.5], [0.3], [0.4], [0.2]])
    assert caplog.messages == [
        "M = 2: rank ladder stopped at r = 3 with EI_max = 0.4, not below r = 2 "
        "with EI_max = 0.3; ranks above 3 not fitted",
        "selected (r, M) = (2, 2) with EI_max = 0.3 (converged); runner-up (3, 2) "
        "with EI_max = 0.4 (converged)",
    ]
    # a ladder that reaches the top of the grid logs no stop
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="seprep.selection"):
        _select_on_indicators(monkeypatch, [[0.5], [0.3], [0.4]])
    assert len(caplog.messages) == 1 and caplog.messages[0].startswith("selected")


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
    with pytest.raises(ValueError, match="r_grid must be an integer >= 1"):
        select_model(_toy_data(), r_grid, [2], _fast_config())


@pytest.mark.parametrize("r_grid, M_grid, named", [
    ([1, 2.5], [2], "r_grid must be an integer >= 1, got 2.5"),
    ([1, 2.7], [2], "r_grid must be an integer >= 1, got 2.7"),
    ([1, 2.0], [2], "r_grid must be an integer >= 1, got 2.0"),
    ([True, 2], [2], "r_grid must be an integer >= 1, got True"),
    ([1], [1, 2.5], "M_grid must be an integer >= 0, got 2.5"),
    ([1], [1.9], "M_grid must be an integer >= 0, got 1.9"),
    ([1], [True], "M_grid must be an integer >= 0, got True"),
    ([1], [2, -1], "M_grid must be an integer >= 0, got -1"),
], ids=["r-fraction", "r-fraction-2.7", "r-integral-float", "r-bool",
        "M-fraction", "M-fraction-1.9", "M-bool", "M-below-least"])
def test_grid_entries_follow_the_one_count_rule(monkeypatch, r_grid, M_grid, named):
    # every entry is checked before the grid is sorted and deduplicated, so
    # [1, 2.7] is not fitted as ranks 1 and 2, nor [True, 2] as [1, 2]; ranks
    # below one are test_rank_below_one_is_refused_before_any_fit's cases
    def no_fit(*args, **kwargs):
        raise AssertionError("select_model fitted a grid with a bad entry")

    monkeypatch.setattr(seprep.selection, "fit_fixed", no_fit)
    with pytest.raises(ValueError, match=f"^{named}$"):
        select_model(_toy_data(), r_grid, M_grid, _fast_config())


def test_numpy_integer_grids_select_as_python_ints():
    data = _toy_data()
    plain = select_model(data, [1, 2], [1, 2], _fast_config())
    numpy = select_model(data, np.array([2, 1]), [np.int64(1), np.int64(2)], _fast_config())
    assert json.dumps(numpy.to_dict()) == json.dumps(plain.to_dict())
    assert all(type(x) is int for pair in numpy.grid for x in pair)


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


def test_stopped_report_round_trips(stopped_report):
    _, report = stopped_report
    back = SelectionReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert back.grid == report.grid
    assert back.chosen == report.chosen
    assert back.ei_max == report.ei_max
    assert back.residuals == report.residuals
    assert back.models.keys() == report.models.keys()
    for pair, model in report.models.items():
        assert np.array_equal(back.models[pair].coeffs, model.coeffs)
        assert np.array_equal(back.models[pair].scales, model.scales)
    assert back.to_dict() == report.to_dict()


@pytest.mark.parametrize("case", ["outside-grid", "unmatched-tables", "chosen-not-fitted"])
def test_report_document_with_malformed_tables_is_refused(stopped_report, case):
    _, report = stopped_report
    doc = json.loads(json.dumps(report.to_dict()))
    if case == "outside-grid":
        for name in ("ei_max", "residuals", "models"):
            doc[name]["9,2"] = doc[name]["1,2"]
        named = r"ei_max holds \(9, 2\), which is outside its grid"
    elif case == "unmatched-tables":
        del doc["models"]["2,1"]
        named = r"ei_max holds \(2, 1\) and models does not"
    else:
        doc["chosen"] = [4, 2]  # in the grid, above where degree 2's ladder stopped
        named = r"chose \(4, 2\), which is not a fitted pair"
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
    # singular and surplus terms decay until their scales underflow; rank two
    # must lose on its indicator, which stops the degree's ladder there, and
    # the search must still run through the other degree
    for seed in (0, 1, 2):
        data = manufactured_sample(60, seed=seed)
        report = select_model(data, [1, 2, 3, 4], [0, 2], FitConfig(rank_max=4, degree=0))
        assert math.isfinite(report.ei_max[(1, 0)])
        assert report.ei_max[(2, 0)] > 1e6
        for r in (3, 4):
            assert (r, 0) not in report.ei_max
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
