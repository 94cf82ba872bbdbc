import dataclasses
import json
import logging
import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import seprep.selection
from seprep import als
from seprep.als import FitConfig, FitDiagnostics, RankRecord, fit_fixed
from seprep.errors import ConditioningError, SelectionError, SeprepError
from seprep.model import SampleSet, evaluate_batch
from seprep.problems import manufactured_sample
from seprep.regularize import RegularizationState
from seprep.selection import SelectionReport, per_degree_seeds, select_model
from helpers import fit_constants, random_model, selection_summary


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


# for speed, a test that fits with _fast_config races 2 candidates for 5
# burn-in sweeps and caps each rank at 40 sweeps; the other fits here keep
# the fit's own race and cap
_FAST_RACE = {"candidates": 2, "burn_sweeps": 5, "max_sweeps": 40}


@pytest.fixture
def fast_race():
    with fit_constants(**_FAST_RACE):
        yield


def _fast_config(seed=0):
    return FitConfig(rank_max=2, degree=2, rng_seed=seed)


@pytest.mark.usefixtures("fast_race")
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
                                      reg_states=[_state(e) for e in eis], candidate=0,
                                      converged=True, jittered_solves=0, redrawn_terms=0,
                                      model=None))
            if stop is not None and stop(records):
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
    with fit_constants(**_FAST_RACE):
        return data, select_model(data, [1, 2, 3, 4], [1, 2], _fast_config())


@pytest.mark.usefixtures("fast_race")
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


@pytest.mark.usefixtures("fast_race")
def test_rank_max_is_read_by_no_selection_fit(stopped_report):
    # each degree's ladder tops out at max(r_grid) whatever rank_max says,
    # and the report keeps the caller's config
    data, _ = stopped_report
    low, high = (select_model(data, [1, 2, 3], [1, 2],
                              dataclasses.replace(_fast_config(), rank_max=k)) for k in (1, 5))
    assert (low.config.rank_max, high.config.rank_max) == (1, 5)
    assert low.ei_max == high.ei_max and low.residuals == high.residuals
    assert low.models.keys() == high.models.keys()
    for pair, model in low.models.items():
        assert np.array_equal(model.coeffs, high.models[pair].coeffs)
        assert np.array_equal(model.scales, high.models[pair].scales)


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


@pytest.mark.usefixtures("fast_race")
def test_selection_log_names_the_runner_up_and_cap_stops(caplog, monkeypatch):
    # a two-sweep cap stops every rank fit before it converges
    with fit_constants(max_sweeps=2), caplog.at_level(logging.INFO, logger="seprep.selection"):
        report = select_model(_toy_data(), [1, 2], [1, 2], _fast_config())
    summary = selection_summary(report)
    chosen, runner_up = tuple(summary["chosen"]), tuple(summary["runner_up"])
    assert caplog.messages[-1] == (
        f"selected (r, M) = {chosen} with EI_max = {summary['ei_max']:.4g} "
        f"(stopped at max_sweeps_per_rank); runner-up {runner_up} with EI_max = "
        f"{summary['runner_up_ei_max']:.4g} (stopped at max_sweeps_per_rank)"
    )
    # fits that stopped on the sweep tolerance, and a grid with no finite runner-up
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
    ([], [2], "rank and degree grids must be non-empty"),
    ([1], [], "rank and degree grids must be non-empty"),
], ids=["r-fraction", "r-fraction-2.7", "r-integral-float", "r-bool",
        "M-fraction", "M-fraction-1.9", "M-bool", "M-below-least", "r-empty", "M-empty"])
def test_grid_entries_follow_the_one_count_rule(monkeypatch, r_grid, M_grid, named):
    # every entry is checked before the grid is sorted and deduplicated, so
    # [1, 2.7] is not fitted as ranks 1 and 2, nor [True, 2] as [1, 2]; ranks
    # below one are test_rank_below_one_is_refused_before_any_fit's cases
    def no_fit(*args, **kwargs):
        raise AssertionError("select_model fitted a grid with a bad entry")

    monkeypatch.setattr(seprep.selection, "fit_fixed", no_fit)
    with pytest.raises(ValueError, match=f"^{named}$"):
        select_model(_toy_data(), r_grid, M_grid, _fast_config())


@pytest.mark.usefixtures("fast_race")
def test_a_rank_off_the_grid_is_fitted_and_never_scored(monkeypatch):
    # a grid of [1, 3] grows the fit through rank 2, which the ladder stop
    # passes over and the report leaves out
    fitted = []

    def recording_fit(*args, **kwargs):
        model, diag = fit_fixed(*args, **kwargs)
        fitted.append([rec.rank for rec in diag.per_rank])
        return model, diag

    monkeypatch.setattr(seprep.selection, "fit_fixed", recording_fit)
    report = select_model(_toy_data(), [1, 3], [2], _fast_config())
    assert fitted == [[1, 2, 3]]
    assert report.grid == [(1, 2), (3, 2)]
    assert sorted(report.ei_max) == [(1, 2), (3, 2)]


@pytest.mark.usefixtures("fast_race")
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
    with fit_constants(candidates=2, burn_sweeps=3, max_sweeps=10):
        select_model(_toy_data(), [1, 2], [1, 2], cfg)
        # the tracer counts cap hits against the cap it reads through the
        # config, while the cap is in force
        assert [args[2].max_sweeps_per_rank for args, _ in seen["fit_fixed"]] == [10, 10]
    assert len(seen["fit_fixed"]) == 2  # one fit per degree
    assert len(seen["TikhonovPath"]) == len(seen["gcv_select_lambda"]) > 0
    for _, (_, diag) in seen["fit_fixed"]:
        for r in (1, 2):
            rec = diag.per_rank[r - 1]
            assert rec.rank == r
            assert rec.sweeps == len(rec.residual_trace)
    # one call covers a stack of direction solves: one lambda and grid row each
    for _, sel in seen["gcv_select_lambda"]:
        for lam, grid in zip(np.atleast_1d(sel.lambda_), np.atleast_2d(sel.grid), strict=True):
            assert grid[0] <= lam <= grid[-1]


def _fits_warn_their_process(monkeypatch):
    """Make each degree's fit warn "fitted in process <pid>" before it runs."""
    real = seprep.selection._fit_degree

    def fit(*args):
        warnings.warn(f"fitted in process {os.getpid()}")
        return real(*args)

    monkeypatch.setattr(seprep.selection, "_fit_degree", fit)


def _fit_processes(warned) -> list:
    """The process ids that _fits_warn_their_process's warnings name, in order."""
    return [int(str(w.message).split()[-1]) for w in warned
            if str(w.message).startswith("fitted in process")]


@pytest.mark.usefixtures("fast_race")
def test_pooled_selection_equals_serial(monkeypatch, caplog, capfd):
    # on 8 samples degree 1's ladder stops at r = 2 and degree 2's at r = 3,
    # whose 9 unknowns per direction solve make it underdetermined
    data = _toy_data(seed=0, rank=2, n=8)
    _fits_warn_their_process(monkeypatch)
    printer = logging.StreamHandler()
    logging.getLogger().addHandler(printer)
    runs = []
    try:
        for cpus in (1, 2):
            monkeypatch.setattr(seprep.selection, "_usable_cpus", lambda: cpus)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="seprep"), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = select_model(data, [1, 2, 3, 4], [1, 2], _fast_config())
            assert multiprocessing.active_children() == []
            runs.append((json.dumps(report.to_dict()), caplog.records[:], caught,
                         capfd.readouterr().err))
    finally:
        logging.getLogger().removeHandler(printer)
    (serial, serial_logs, serial_warned, _), (pooled, pooled_logs, pooled_warned, printed) = runs
    assert pooled == serial
    assert sorted(json.loads(pooled)["ei_max"]) == ["1,1", "1,2", "2,1", "2,2", "3,2"]
    assert ([(r.name, r.levelno, r.getMessage()) for r in pooled_logs]
            == [(r.name, r.levelno, r.getMessage()) for r in serial_logs])
    stops = [r for r in pooled_logs if "rank ladder stopped" in r.getMessage()]
    assert [r.getMessage()[:5] for r in stops] == ["M = 1", "M = 2"]
    assert pooled_logs[-1].getMessage().startswith("selected")
    # the pooled fits ran in other processes, the serial ones in this one,
    # and this process made every log record either way
    assert [p != os.getpid() for p in _fit_processes(pooled_warned)] == [True, True]
    assert _fit_processes(serial_warned) == [os.getpid()] * 2
    assert all(r.process == os.getpid() for r in pooled_logs + serial_logs)
    for warned in (serial_warned, pooled_warned):
        assert [(w.category, w.filename) for w in warned
                if "underdetermined" in str(w.message)] == [(UserWarning, __file__)]
    for r in stops:
        assert printed.count(r.getMessage()) == 1


def test_a_worker_error_keeps_its_type_and_no_worker_outlives_it(monkeypatch):
    # degrees 2 and 3 both fail inside fit_fixed, in the workers; the lowest
    # one's error is raised, as the serial loop would raise it
    real_stop = seprep.selection._ladder_stop

    def failing_stop(r_grid, m, records):
        if m > 1:
            raise ConditioningError(f"degree {m} fails")
        return real_stop(r_grid, m, records)

    monkeypatch.setattr(seprep.selection, "_ladder_stop", failing_stop)
    for cpus in (1, 2):
        monkeypatch.setattr(seprep.selection, "_usable_cpus", lambda: cpus)
        with fit_constants(**_FAST_RACE), \
                pytest.raises(ConditioningError, match="^degree 2 fails$"):
            select_model(_toy_data(), [1, 2], [1, 2, 3], _fast_config())
        assert multiprocessing.active_children() == []
    # an error of any type keeps the warnings its degree issued before it:
    # degree 2 warns and then fails with a ValueError, and degree 3's
    # warning, which a worker may have issued, is never handed on
    monkeypatch.setattr(seprep.selection, "_ladder_stop", real_stop)
    real_fit = seprep.selection._fit_degree

    def warning_fit(data, r_grid, config, m, seed):
        warnings.warn(f"degree {m} starts")
        if m == 2:
            raise ValueError("degree 2 is no count")
        return real_fit(data, r_grid, config, m, seed)

    monkeypatch.setattr(seprep.selection, "_fit_degree", warning_fit)
    for cpus in (1, 2):
        monkeypatch.setattr(seprep.selection, "_usable_cpus", lambda: cpus)
        with fit_constants(**_FAST_RACE), warnings.catch_warnings(record=True) as caught, \
                pytest.raises(ValueError, match="^degree 2 is no count$"):
            warnings.simplefilter("always")
            select_model(_toy_data(), [1, 2], [1, 2, 3], _fast_config())
        assert multiprocessing.active_children() == []
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (UserWarning, "degree 1 starts", __file__), (UserWarning, "degree 2 starts", __file__)]


@pytest.mark.usefixtures("fast_race")
def test_a_dead_worker_is_a_typed_error_and_no_worker_outlives_it(monkeypatch):
    # a worker that dies mid-fit (killed by the OOM killer, say) breaks the
    # pool; the first degree left without a result raises SeprepError naming
    # that degree, which may be either one, as its fits run side by side
    monkeypatch.setattr(seprep.selection, "_usable_cpus", lambda: 2)
    real, caller = seprep.selection._fit_degree, os.getpid()

    def dying_fit(data, r_grid, config, m, seed):
        if os.getpid() == caller:
            raise AssertionError("a fit ran in the calling process")
        if m == 2:
            os._exit(1)
        return real(data, r_grid, config, m, seed)

    monkeypatch.setattr(seprep.selection, "_fit_degree", dying_fit)
    with pytest.raises(SeprepError, match=r"^M = [12]: a fit worker process ended abruptly "
                                          r"before this degree's fit returned$") as info:
        select_model(_toy_data(), [1, 2], [1, 2], _fast_config())
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("fast_race")
def test_a_second_thread_keeps_the_fits_in_this_process(monkeypatch, caplog):
    # forking a process that runs another thread can copy a lock that
    # thread holds, so the fits run inline, in this process
    monkeypatch.setattr(seprep.selection, "_usable_cpus", lambda: 2)
    _fits_warn_their_process(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with caplog.at_level(logging.INFO, logger="seprep"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            select_model(_toy_data(seed=0, rank=2, n=8), [1, 2, 3, 4], [1, 2], _fast_config())
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert any("underdetermined" in str(w.message) for w in caught)
    stops = [r for r in caplog.records if "rank ladder stopped" in r.getMessage()]
    assert len(stops) == 2
    assert _fit_processes(caught) == [os.getpid()] * 2


@pytest.mark.usefixtures("fast_race")
def test_a_platform_other_than_linux_fits_in_this_process(monkeypatch):
    # the pool was measured on Linux only, and macOS may fork a process whose
    # system libraries run threads; elsewhere the fits run inline
    monkeypatch.setattr(seprep.selection, "_usable_cpus", lambda: 2)
    _fits_warn_their_process(monkeypatch)
    reports, processes = [], []
    for platform in ("darwin", "linux"):
        monkeypatch.setattr(sys, "platform", platform)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports.append(select_model(_toy_data(), [1, 2], [1, 2], _fast_config()).to_dict())
        processes.append([p == os.getpid() for p in _fit_processes(caught)])
    assert processes == [[True, True], [False, False]]
    assert reports[0] == reports[1]


@pytest.mark.usefixtures("fast_race")
def test_a_degree_logs_the_same_lines_at_one_and_two_cpus(monkeypatch, caplog):
    # from rank 2 on, degree 0's term Grams are rank one and need jitter, so
    # its ladder logs a stop line and a WARNING with its totals; each degree's
    # lines are logged by this process from the fit's records, pooled or not
    logs = []
    for cpus in (1, 2):
        monkeypatch.setattr(seprep.selection, "_usable_cpus", lambda: cpus)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="seprep"):
            select_model(_toy_data(), [1, 2, 3], [0, 2], _fast_config())
        logs.append([(r.name, r.levelno, r.process, r.getMessage()) for r in caplog.records])
    assert logs[0] == logs[1]
    patterns = [(logging.INFO, r"M = 0: rank ladder stopped at r = 2 "),
                (logging.WARNING, r"M = 0: summed over its fitted ranks, jittered_solves = "
                                  r"[1-9]\d* and redrawn_terms = \d+$"),
                (logging.INFO, r"M = 2: rank ladder stopped at r = 2 "),
                (logging.INFO, r"selected \(r, M\) = ")]
    assert len(logs[0]) == len(patterns)
    for (_, level, process, message), (want, pattern) in zip(logs[0], patterns):
        assert (level, process) == (want, os.getpid()) and re.match(pattern, message), message


@pytest.mark.usefixtures("fast_race")
def test_a_replaced_fit_runs_in_this_process(monkeypatch):
    # a wrapper put in fit_fixed's place, as the benchmark's tracer puts
    # one, records into this process's memory only if the fits run here
    fitted = []

    def recording_fit(*args, **kwargs):
        fitted.append(args[2].degree)
        return fit_fixed(*args, **kwargs)

    monkeypatch.setattr(seprep.selection, "fit_fixed", recording_fit)
    monkeypatch.setattr(seprep.selection, "_usable_cpus", lambda: 2)
    select_model(_toy_data(), [1, 2], [1, 2], _fast_config())
    assert fitted == [1, 2]


@pytest.mark.usefixtures("fast_race")
def test_selections_from_one_line_warn_once_either_way(monkeypatch):
    # the warnings registry of the caller's line is kept between calls: the
    # fits' warnings are held in the workers only, never in this process
    data = _toy_data(seed=0, rank=2, n=8)
    for cpus in (1, 2):
        monkeypatch.setattr(seprep.selection, "_usable_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(2):
                select_model(data, [1, 2, 3, 4], [1, 2], _fast_config())
        assert [w.filename for w in caught if "underdetermined" in str(w.message)] == [__file__]


def _chosen_pair(_):
    with fit_constants(**_FAST_RACE):
        return select_model(_toy_data(), [1, 2], [1, 2], _fast_config()).chosen


@pytest.mark.usefixtures("fast_race")
def test_a_pool_worker_selects_inline(monkeypatch):
    # a multiprocessing.Pool worker is daemonic and may start no child, so
    # a selection it runs fits its degrees inline and chooses the same pair
    monkeypatch.setattr(seprep.selection, "_usable_cpus", lambda: 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        chosen = pool.map(_chosen_pair, [0])
    assert chosen == [select_model(_toy_data(), [1, 2], [1, 2], _fast_config()).chosen]


@pytest.mark.usefixtures("fast_race")
def test_selection_deterministic_and_serializable():
    data = _toy_data()
    cfg = _fast_config(seed=11)
    rep1 = select_model(data, [1, 2], [1, 2], cfg)
    rep2 = select_model(data, [1, 2], [1, 2], cfg)
    assert rep1.chosen == rep2.chosen
    assert rep1.ei_max == rep2.ei_max
    for pair in rep1.grid:
        assert np.array_equal(rep1.models[pair].coeffs, rep2.models[pair].coeffs)
    assert json.dumps(rep1.to_dict()) == json.dumps(rep2.to_dict())


@pytest.mark.usefixtures("fast_race")
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


def test_report_derives_chosen_by_the_tie_rule():
    # no fit reaches an exact EI_max tie, so the tables are built by hand;
    # (1, 1) is infinite in each, and an infinite pair never wins
    cfg = FitConfig(rank_max=3, degree=2, rng_seed=4)
    grid = [(r, m) for m in (1, 2) for r in (1, 2, 3)]

    def report(ei_max):
        return SelectionReport(grid=grid, ei_max=ei_max, residuals={}, models={}, config=cfg)

    # a tie across ranks goes to the smaller rank
    assert report({(3, 1): 0.5, (2, 1): 0.5, (1, 1): math.inf, (1, 2): 0.7}).chosen == (2, 1)
    # a tie across degrees goes to the smaller degree
    assert report({(2, 2): 0.5, (2, 1): 0.5, (1, 1): math.inf, (1, 2): 0.7}).chosen == (2, 1)
    # rank decides before degree
    tied = report({(2, 1): 0.5, (1, 2): 0.5, (1, 1): math.inf})
    assert tied.chosen == (1, 2)
    assert tied.degree_seeds == per_degree_seeds(cfg.rng_seed, [1, 2])
    with pytest.raises(SelectionError, match=r"^every \(rank, degree\) pair produced an "
                                             r"infinite error indicator"):
        report({(1, 1): math.inf, (2, 1): math.inf, (1, 2): math.inf})


@pytest.mark.usefixtures("fast_race")
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


def _degenerate_select(data):
    # two candidates with a three-sweep burn-in, 20 sweeps in all
    with fit_constants(candidates=2, burn_sweeps=3, max_sweeps=20):
        return select_model(data, [1, 2], [1, 2], FitConfig(rank_max=2, degree=2, rng_seed=0))


@pytest.mark.parametrize("case", ["duplicates", "constant", "zero", "huge", "n6", "n5"])
def test_degenerate_data_ends_in_a_report_or_a_typed_error(case):
    try:
        report = _degenerate_select(_fault_variant(case))
    except SeprepError:
        return
    assert report.chosen in report.grid
    assert math.isfinite(report.ei_max[report.chosen])


def test_huge_outputs_pick_the_unscaled_pair():
    # outputs of order 1e200 square past the double range; the fit works on
    # outputs scaled into [0.5, 1), so it selects as it does unscaled
    huge = _degenerate_select(_fault_variant("huge"))
    plain = _degenerate_select(manufactured_sample(60, seed=0))
    assert huge.chosen == plain.chosen


# Run in a fresh interpreter with SciPy blocked: a None entry in sys.modules
# makes every `import scipy...` raise ImportError, in forked workers too. Each
# degree fit appends its process id to argv[1]/pids; prints, for the pooled
# and the inline selection, whether its fits ran outside the calling process.
# argv[2] names the call that loaded SciPy on demand before NumPy did it all.
_SCIPY_BLOCKED_SCRIPT = textwrap.dedent("""
    import json, os, sys
    sys.modules["scipy"] = None
    import numpy as np
    from seprep import cli, selection
    from seprep.als import FitConfig, fit_fixed
    from seprep.basis import BasisSpec, Family, gauss_quadrature
    from seprep.model import evaluate_batch, moment
    from seprep.problems import (EllipticProblem, elliptic_sample, manufactured_model,
                                 manufactured_sample)

    out = sys.argv[1]
    pid_file = os.path.join(out, "pids")
    evaluate_batch(manufactured_model(), np.zeros((3, 10)))
    elliptic_sample(EllipticProblem(dims=4), 5, seed=0)
    fit_degree = selection._fit_degree

    def logged_fit_degree(*args):
        with open(pid_file, "a") as f:
            f.write(f"{os.getpid()}\\n")
        return fit_degree(*args)

    selection._fit_degree = logged_fit_degree
    data = manufactured_sample(60, seed=0)
    pids = {}
    for cpus, how in ((2, "pooled"), (1, "inline")):
        selection._usable_cpus = lambda: cpus
        report = selection.select_model(data, [1], [1, 2], FitConfig(rank_max=1, degree=1))
        with open(pid_file) as f:
            pids[how] = sorted({int(line) != os.getpid() for line in f})
        os.remove(pid_file)
    if sys.argv[2] == "moment":
        moment(report.models[report.chosen], 3)
    else:
        fit_fixed(data, 1, FitConfig(rank_max=1, degree=1, penalty="none"), 0)
    for family in Family:
        for n_points in (1, 40):
            gauss_quadrature(BasisSpec(family, 1), n_points)
    smoke = ["--n", "60", "--seeds", "0"]
    assert cli.main(["fit", "--problem", "elliptic", *smoke, "--r-max", "2", "--m-grid", "1,2",
                     "--ref-samples", "2000", "--out", os.path.join(out, "fit")]) == 0
    assert cli.main(["baselines", "--problem", "manufactured", *smoke, "--pc-degree", "1",
                     "--out", os.path.join(out, "baselines")]) == 0
    print(json.dumps(pids))
""")


@pytest.mark.parametrize("on_demand", ["moment", "unregularized fit_fixed"])
def test_seprep_runs_with_scipy_blocked(tmp_path, on_demand):
    # NumPy is the one runtime dependency: import, evaluation, the elliptic
    # problem, pooled and inline selection, Gauss rules, the fit and baselines
    # commands and either a moment or an unregularized fit run without SciPy
    src = Path(seprep.selection.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED_SCRIPT, str(tmp_path), on_demand],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"pooled": [True], "inline": [False]}


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
