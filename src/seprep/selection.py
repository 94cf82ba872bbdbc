"""Rank and degree selection driven by the per-direction error indicator.

For each candidate degree, one fit grows the rank over the whole rank grid;
at every visited rank the largest error indicator observed during the final
sweep is recorded. The chosen pair minimizes that quantity over the grid,
with ties broken toward the smaller rank and then the smaller degree.
"""
from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .als import FitConfig, fit_fixed
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


@dataclass
class SelectionReport:
    """Everything the rank/degree search produced, keyed by (rank, degree)."""

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

        return {
            "grid": [list(p) for p in self.grid],
            "ei_max": {key(p): self.ei_max[p] for p in self.grid},
            "residuals": {key(p): self.residuals[p] for p in self.grid},
            "models": {key(p): model_to_dict(self.models[p]) for p in self.grid},
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
        return cls(
            grid=grid,
            ei_max={unkey(k): v for k, v in doc["ei_max"].items()},
            residuals={unkey(k): v for k, v in doc["residuals"].items()},
            models={unkey(k): model_from_dict(v) for k, v in doc["models"].items()},
            chosen=tuple(doc["chosen"]),
            base_seed=doc["base_seed"],
            degree_seeds={int(k): v for k, v in doc["degree_seeds"].items()},
            config=FitConfig(**doc["config"]),
        )


def select_model(
    data: SampleSet, r_grid, M_grid, config: FitConfig
) -> SelectionReport:
    """Search (rank, degree) pairs and pick the one with the smallest EI_max.

    For each degree in M_grid one fit grows the rank to max(r_grid) from its
    own derived seed; every visited rank in r_grid contributes one EI_max
    value. Infinite indicators are kept (and lose); if every pair is
    infinite, selection fails loudly with the full table attached. All-zero
    outputs are refused before any fit, since every indicator would be infinite.
    """
    r_grid = sorted(set(int(r) for r in r_grid))
    M_grid = sorted(set(int(m) for m in M_grid))
    if not r_grid or not M_grid:
        raise ValueError("rank and degree grids must be non-empty")
    if r_grid[0] < 1:
        raise ValueError(f"ranks must be >= 1, got {r_grid[0]}")
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
        _, diag = fit_fixed(data, max(r_grid), cfg_m, seeds[m])
        for r in r_grid:
            rec = diag.per_rank[r - 1]
            pair = (r, m)
            ei_max[pair] = max(s.error_indicator for s in rec.reg_states)
            residuals[pair] = rec.residual
            models[pair] = rec.model
            capped[pair] = not rec.converged
    grid = [(r, m) for m in M_grid for r in r_grid]
    # ties resolve toward smaller rank, then smaller degree
    ranked = sorted((ei_max[p], p) for p in grid if math.isfinite(ei_max[p]))
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
