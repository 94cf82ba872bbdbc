"""Rank and degree selection driven by the per-direction error indicator.

For each candidate degree, one fit grows the rank along the rank grid; at
every visited grid rank the largest error indicator observed during the
final sweep (EI_max) is recorded. A degree's ladder stops at the first grid
rank whose EI_max is not below the best finite EI_max of its lower grid
ranks (patience one), so the ranks above it are not fitted. This stop rule
is this package's own: the source paper does not say how the (r, M) grid
is searched, and the rule can miss a degree's own minimum further up. The
chosen pair minimizes EI_max over the fitted pairs, with ties broken toward
the smaller rank and then the smaller degree. The degrees' ladders are
independent fits, so on a host with a second CPU they may run in forked
worker processes (see _fit_degrees); every bit of the report is the same
either way.
"""
from __future__ import annotations

import dataclasses
import logging
import math
import multiprocessing
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .als import FitConfig, _user_stacklevel, fit_fixed
from .basis import _check_count
from .errors import SelectionError, SeprepError
from .model import SampleSet, SeparatedModel, _usable_cpus, model_to_dict

__all__ = ["SelectionReport", "select_model", "per_degree_seeds"]

logger = logging.getLogger(__name__)

# most fit workers: 2 is the count measured (two took 0.58-0.67x the serial
# time of manufactured-select on a 2-core host, BLAS at one thread); more
# CPUs are untested
_FIT_WORKERS = 2

# the fit as imported, told apart from a wrapper put in its place
_FIT_FIXED = fit_fixed


def per_degree_seeds(base_seed: int, degrees) -> dict:
    """Independent, reproducible child seeds, one per candidate degree."""
    children = np.random.SeedSequence(base_seed).spawn(len(degrees))
    return {
        int(m): int(child.generate_state(1, dtype=np.uint64)[0])
        for m, child in zip(degrees, children)
    }


def _ei_max(rec) -> float:
    """The largest error indicator of a rank's final sweep."""
    return max(s.error_indicator for s in rec.reg_states)


def _ladder_stop(r_grid, m, records):
    """The stop line of degree m's rank ladder after records, its fitted ranks in order, or None.

    With patience one, the ladder stops at the first rank of r_grid below
    its top whose EI_max is not below the best finite EI_max of the lower
    grid ranks; the line names that rank and the lowest grid rank that set
    that best EI_max. Ranks off the grid, and grid ranks with no finite
    EI_max below them, never stop the ladder.
    """
    best, best_r = math.inf, None
    for rec in records:
        if rec.rank not in r_grid:
            continue
        ei = _ei_max(rec)
        if ei < best:
            best, best_r = ei, rec.rank
        elif math.isfinite(best) and rec.rank < r_grid[-1]:
            return (f"M = {m}: rank ladder stopped at r = {rec.rank} with EI_max = {ei:.4g}, "
                    f"not below r = {best_r} with EI_max = {best:.4g}; ranks above "
                    f"{rec.rank} not fitted")
    return None


def _fit_degree(data: SampleSet, r_grid, config: FitConfig, m: int, seed: int):
    """Degree m's rank ladder, fitted from seed until _ladder_stop ends it: its diag.per_rank."""
    _, diag = fit_fixed(data, r_grid[-1], dataclasses.replace(config, degree=m), seed,
                        stop=lambda records: _ladder_stop(r_grid, m, records) is not None)
    return diag.per_rank


def _logged(r_grid, m: int, per_rank) -> list:
    """Degree m's per_rank, once its stop line and any Gram jitter or re-draw totals are logged."""
    line = _ladder_stop(r_grid, m, per_rank)
    if line is not None:
        logger.info("%s", line)
    jittered = sum(rec.jittered_solves for rec in per_rank)
    redrawn = sum(rec.redrawn_terms for rec in per_rank)
    if jittered or redrawn:
        logger.warning("M = %d: summed over its fitted ranks, jittered_solves = %d and "
                       "redrawn_terms = %d", m, jittered, redrawn)
    return per_rank


def _fit_degree_held(*args):
    """_fit_degree in a worker process: (its result or the exception it
    raised, the warnings it issued, which no warnings filter has judged)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = _fit_degree(*args)
        except Exception as exc:
            outcome = exc
    return outcome, [w.message for w in caught]


def _fit_degrees(data: SampleSet, r_grid, M_grid, config: FitConfig) -> list:
    """_fit_degree's result for each degree of M_grid in order, each from its
    seed of per_degree_seeds; fitted in a fork pool where one may run, and
    inline otherwise.

    The pool runs when all of these hold: the platform is Linux, where it
    was measured (CPython calls fork unsafe on macOS); the affinity mask has
    a second CPU and M_grid a second degree; the caller runs one Python thread
    and is not a daemonic process (a multiprocessing.Pool worker, which may
    start no child); and fit_fixed is the one this module imported, not a
    wrapper put in its place (a tracer's, say), whose records a worker would
    keep in its own memory. It has min(CPUs, degrees, _FIT_WORKERS) workers,
    takes the highest degree first, and is shut down, its children joined,
    before this returns or raises. `taskset -c 0` forces the inline path.

    A fit logs nothing, so this process logs each degree's lines (_logged)
    as soon as it has its records: after each inline fit, and pooled, as
    each degree is collected in degree order, after the warnings its worker
    held are issued again, naming the caller's frame; a failed degree raises
    its exception, with its own type, in place of its lines. So the log, the
    warnings and the error are the same either way. A worker that dies
    (killed by the OOM killer, say) breaks the pool: the first degree left
    without a result raises SeprepError naming that degree, chained from
    the BrokenProcessPool.
    """
    seeds = per_degree_seeds(config.rng_seed, M_grid)
    workers = min(_usable_cpus(), _FIT_WORKERS, len(M_grid))
    if (workers < 2 or fit_fixed is not _FIT_FIXED or sys.platform != "linux"
            or threading.active_count() > 1 or multiprocessing.current_process().daemon):
        return [_logged(r_grid, m, _fit_degree(data, r_grid, config, m, seeds[m]))
                for m in M_grid]
    # fork, not spawn: a spawned worker would import numpy and seprep afresh
    # on every call; forking with one thread copies no lock another thread holds.
    # Higher degrees take longer, so they go first
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {m: pool.submit(_fit_degree_held, data, r_grid, config, m, seeds[m])
                   for m in reversed(M_grid)}
        fits = []
        for m in M_grid:
            try:
                outcome, warned = futures[m].result()
            except BrokenProcessPool as exc:
                raise SeprepError(f"M = {m}: a fit worker process ended abruptly "
                                  "before this degree's fit returned") from exc
            for message in warned:
                warnings.warn(message, stacklevel=_user_stacklevel())
            if isinstance(outcome, Exception):
                raise outcome
            fits.append(_logged(r_grid, m, outcome))
        return fits


@dataclass
class SelectionReport:
    """Everything the rank/degree search produced, keyed by (rank, degree).

    grid is the requested grid. ei_max, residuals and models hold the fitted
    pairs only: a pair above the rank where its degree's ladder stopped is
    absent from all three. chosen is not an argument: it is the pair with
    the smallest finite EI_max, ties going to the smaller rank and then the
    smaller degree, and a table with no finite EI_max raises SelectionError.
    config is the caller's, and each degree's fit seed derives from
    config.rng_seed (see degree_seeds), so the report stores no seed of its
    own. to_dict writes a report; nothing reads one back.
    """

    grid: list
    ei_max: dict
    residuals: dict
    models: dict
    chosen: tuple = dataclasses.field(init=False)
    config: FitConfig

    def __post_init__(self):
        # (EI_max, (rank, degree)) in the tie rule's order, best first
        self._ranked = sorted((ei, p) for p, ei in self.ei_max.items() if math.isfinite(ei))
        if not self._ranked:
            raise SelectionError(
                f"every (rank, degree) pair produced an infinite error indicator: {self.ei_max}"
            )
        self.chosen = self._ranked[0][1]

    @property
    def degree_seeds(self) -> dict:
        """The seed each degree's fit started from, as select_model derives it."""
        return per_degree_seeds(self.config.rng_seed, sorted({m for _, m in self.grid}))

    def chosen_model(self) -> SeparatedModel:
        return self.models[self.chosen]

    def to_dict(self) -> dict:
        def key(pair):
            return f"{pair[0]},{pair[1]}"

        fitted = [p for p in self.grid if p in self.ei_max]
        return {
            "grid": [list(p) for p in self.grid],
            "ei_max": {key(p): self.ei_max[p] for p in fitted},
            "residuals": {key(p): self.residuals[p] for p in fitted},
            "models": {key(p): model_to_dict(self.models[p]) for p in fitted},
            "chosen": list(self.chosen),
            "config": dataclasses.asdict(self.config),
        }


def select_model(
    data: SampleSet, r_grid, M_grid, config: FitConfig
) -> SelectionReport:
    """Search (rank, degree) pairs and pick the one with the smallest EI_max.

    For each degree in M_grid one fit, on config with only its degree
    replaced, grows the rank towards max(r_grid) from its own derived seed;
    every fitted rank in r_grid contributes one EI_max value. The fit stops
    at the first grid rank whose EI_max is not below the best finite EI_max
    of that degree's lower grid ranks, and the pairs above it are left out
    of the report. This stop rule (patience one, fixed here) is this
    package's own; the source paper does not say how the grid is searched.
    Infinite indicators are kept (and lose); if every fitted pair is
    infinite, selection fails loudly with the table attached. All-zero
    outputs are refused before any fit, since every indicator would be
    infinite, and so is penalty "none" (SelectionError), which leaves the
    indicator undefined. Every grid entry is a count (ranks >= 1, degrees
    >= 0), checked before the grids are sorted and deduplicated.

    The degrees' fits run in forked worker processes where _fit_degrees
    says a pool may run (a second CPU, among other conditions), and here,
    one after the other, otherwise (`taskset -c 0` forces that). This
    process logs each degree's lines from its fit's records, so the report,
    the log, the warnings and a fit's error are the same either way, and no
    worker outlives the call. The last INFO line names the chosen pair and
    the runner-up with their EI_max, and says for each whether its rank
    converged or stopped at max_sweeps_per_rank.
    """
    r_grid = sorted({_check_count("r_grid", r, 1) for r in r_grid})
    M_grid = sorted({_check_count("M_grid", m, 0) for m in M_grid})
    if not r_grid or not M_grid:
        raise ValueError("rank and degree grids must be non-empty")
    if config.penalty == "none":
        raise SelectionError("EI-based selection requires regularization to be enabled")
    if not np.any(data.outputs):
        raise SelectionError("every output is zero: no rank or degree can be selected")
    ei_max: dict = {}
    residuals: dict = {}
    models: dict = {}
    capped: dict = {}
    for m, per_rank in zip(M_grid, _fit_degrees(data, r_grid, M_grid, config)):
        for rec in per_rank:
            if rec.rank in r_grid:
                pair = (rec.rank, m)
                ei_max[pair] = _ei_max(rec)
                residuals[pair] = rec.residual
                models[pair] = rec.model
                capped[pair] = not rec.converged
    report = SelectionReport(
        grid=[(r, m) for m in M_grid for r in r_grid],
        ei_max=ei_max,
        residuals=residuals,
        models=models,
        config=config,
    )
    pairs = [f"{p} with EI_max = {ei:.4g} "
             f"({'stopped at max_sweeps_per_rank' if capped[p] else 'converged'})"
             for ei, p in report._ranked[:2]]
    logger.info("selected (r, M) = %s; runner-up %s", pairs[0], (pairs + ["none"])[1])
    return report
