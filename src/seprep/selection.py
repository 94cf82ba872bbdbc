"""Rank and degree selection driven by the per-direction error indicator.

For each candidate degree, one fit grows the rank along the rank grid; at
every visited grid rank the largest error indicator observed during the
final sweep (EI_max) is recorded. A degree's ladder stops at the first grid
rank whose EI_max is not below the best finite EI_max of its lower grid
ranks (patience one), so the ranks above it are not fitted. This stop rule
is this package's own: the source paper does not say how the (r, M) grid
is searched, and the rule can miss a degree's own minimum further up. The
chosen pair minimizes EI_max over the fitted pairs, with ties broken toward
the smaller rank and then the smaller degree.
"""
from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .als import FitConfig, fit_fixed
from .basis import _check_count
from .errors import SelectionError
from .model import SampleSet, SeparatedModel, _check_keys, model_from_dict, model_to_dict

__all__ = ["SelectionReport", "select_model", "per_degree_seeds"]

logger = logging.getLogger(__name__)


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


def _ladder_stop(r_grid):
    """fit_fixed's stop predicate for one degree's rank ladder, with patience one.

    It stops at the first rank of r_grid whose EI_max is not below the best
    finite EI_max of the lower grid ranks. Ranks off the grid, and grid
    ranks with no finite EI_max below them, never stop the ladder.
    """
    best = math.inf

    def stop(rec) -> bool:
        nonlocal best
        if rec.rank not in r_grid:
            return False
        ei = _ei_max(rec)
        if math.isfinite(best) and not ei < best:
            return True
        best = min(best, ei)
        return False

    return stop


@dataclass
class SelectionReport:
    """Everything the rank/degree search produced, keyed by (rank, degree).

    grid is the requested grid. ei_max, residuals and models hold the fitted
    pairs only: a pair above the rank where its degree's ladder stopped is
    absent from all three.
    """

    grid: list
    ei_max: dict
    residuals: dict
    models: dict
    chosen: tuple
    base_seed: int
    degree_seeds: dict
    config: FitConfig

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
            "base_seed": self.base_seed,
            "degree_seeds": {str(m): s for m, s in self.degree_seeds.items()},
            "config": dataclasses.asdict(self.config),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SelectionReport":
        def unkey(s):
            r, m = s.split(",")
            return (int(r), int(m))

        _check_keys(doc, [f.name for f in dataclasses.fields(cls)], "selection report")
        _check_keys(doc["config"], [f.name for f in dataclasses.fields(FitConfig)],
                   "selection report config")
        grid = [tuple(p) for p in doc["grid"]]
        tables = {name: {unkey(k): v for k, v in doc[name].items()}
                  for name in ("ei_max", "residuals", "models")}
        fitted = set(tables["ei_max"])
        for name, table in tables.items():
            outside = sorted(set(table) - set(grid))
            if outside:
                raise ValueError(f"selection report {name} holds {outside[0]}, "
                                 f"which is outside its grid")
            unmatched = sorted(set(table) ^ fitted)
            if unmatched:
                pair = unmatched[0]
                has, lacks = ("ei_max", name) if pair in fitted else (name, "ei_max")
                raise ValueError(f"selection report {has} holds {pair} and {lacks} does not")
        chosen = tuple(doc["chosen"])
        if chosen not in fitted:
            raise ValueError(f"selection report chose {chosen}, which is not a fitted pair")
        return cls(
            grid=grid,
            ei_max=tables["ei_max"],
            residuals=tables["residuals"],
            models={p: model_from_dict(v) for p, v in tables["models"].items()},
            chosen=chosen,
            base_seed=doc["base_seed"],
            degree_seeds={int(k): v for k, v in doc["degree_seeds"].items()},
            config=FitConfig(**doc["config"]),
        )


def select_model(
    data: SampleSet, r_grid, M_grid, config: FitConfig
) -> SelectionReport:
    """Search (rank, degree) pairs and pick the one with the smallest EI_max.

    For each degree in M_grid one fit grows the rank towards max(r_grid)
    from its own derived seed; every fitted rank in r_grid contributes one
    EI_max value. The fit stops at the first grid rank whose EI_max is not
    below the best finite EI_max of that degree's lower grid ranks, and the
    pairs above it are left out of the report. This stop rule (patience
    one, fixed here) is this package's own; the source paper does not say
    how the grid is searched. Infinite indicators are kept (and lose); if
    every fitted pair is infinite, selection fails loudly with the table
    attached. All-zero outputs are refused before any fit, since every
    indicator would be infinite. Every grid entry is a count (ranks >= 1,
    degrees >= 0), checked before the grids are sorted and deduplicated.
    """
    r_grid = sorted({_check_count("r_grid", r, 1) for r in r_grid})
    M_grid = sorted({_check_count("M_grid", m, 0) for m in M_grid})
    if not r_grid or not M_grid:
        raise ValueError("rank and degree grids must be non-empty")
    if config.penalty == "none":
        raise SelectionError("EI-based selection requires regularization to be enabled")
    if not np.any(data.outputs):
        raise SelectionError("every output is zero: no rank or degree can be selected")
    seeds = per_degree_seeds(config.rng_seed, M_grid)
    ei_max: dict = {}
    residuals: dict = {}
    models: dict = {}
    capped: dict = {}
    for m in M_grid:
        cfg_m = dataclasses.replace(config, degree=m, rank_max=max(r_grid))
        _, diag = fit_fixed(data, max(r_grid), cfg_m, seeds[m], stop=_ladder_stop(r_grid))
        fitted = [r for r in r_grid if r <= len(diag.per_rank)]
        for r in fitted:
            rec = diag.per_rank[r - 1]
            pair = (r, m)
            ei_max[pair] = _ei_max(rec)
            residuals[pair] = rec.residual
            models[pair] = rec.model
            capped[pair] = not rec.converged
        if fitted[-1] < r_grid[-1]:
            top = fitted[-1]
            best_ei, best_r = min((ei_max[(r, m)], r) for r in fitted[:-1])
            logger.info("M = %d: rank ladder stopped at r = %d with EI_max = %.4g, not below "
                        "r = %d with EI_max = %.4g; ranks above %d not fitted",
                        m, top, ei_max[(top, m)], best_r, best_ei, top)
    grid = [(r, m) for m in M_grid for r in r_grid]
    # ties resolve toward smaller rank, then smaller degree
    ranked = sorted((ei, p) for p, ei in ei_max.items() if math.isfinite(ei))
    if not ranked:
        raise SelectionError(
            f"every (rank, degree) pair produced an infinite error indicator: {ei_max}"
        )
    chosen = ranked[0][1]
    pairs = [f"{p} with EI_max = {ei:.4g} "
             f"({'stopped at max_sweeps_per_rank' if capped[p] else 'converged'})"
             for ei, p in ranked[:2]]
    logger.info("selected (r, M) = %s; runner-up %s", pairs[0], (pairs + ["none"])[1])
    return SelectionReport(
        grid=grid,
        ei_max=ei_max,
        residuals=residuals,
        models=models,
        chosen=chosen,
        base_seed=config.rng_seed,
        degree_seeds=seeds,
        config=config,
    )
