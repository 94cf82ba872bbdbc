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

from .als import FitConfig, FitDiagnostics, fit_fixed
from .errors import ProtocolError, SelectionError
from .model import SampleSet, SeparatedModel, model_from_dict, model_to_dict

__all__ = ["SelectionReport", "ei_max_for_rank", "select_model", "per_degree_seeds"]

logger = logging.getLogger(__name__)


def ei_max_for_rank(diagnostics: FitDiagnostics, r: int) -> float:
    """Largest error indicator over the final sweep's direction solves at rank r."""
    try:
        record = diagnostics.rank_record(r)
    except KeyError:
        raise ProtocolError(f"diagnostics carry no record for rank {r}") from None
    states = record.reg_states
    if not states or any(s is None for s in states):
        raise ProtocolError(
            f"rank {r} diagnostics lack regularization records "
            "(was the fit run with regularization enabled?)"
        )
    if len(states) != diagnostics.dims:
        raise ProtocolError(
            f"rank {r} final sweep recorded {len(states)} direction solves, "
            f"expected {diagnostics.dims}"
        )
    return max(s.error_indicator for s in states)


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
    if not config.regularize:
        raise SelectionError("EI-based selection requires regularization to be enabled")
    if not np.any(data.outputs):
        raise SelectionError("every output is zero: no rank or degree can be selected")
    seeds = per_degree_seeds(config.rng_seed, M_grid)
    ei_max: dict = {}
    residuals: dict = {}
    models: dict = {}
    for m in M_grid:
        cfg_m = dataclasses.replace(config, degree=m, rank_max=max(r_grid))
        _, diag = fit_fixed(data, max(r_grid), cfg_m, seeds[m])
        for r in r_grid:
            rec = diag.rank_record(r)
            pair = (r, m)
            ei_max[pair] = ei_max_for_rank(diag, r)
            residuals[pair] = rec.residual
            models[pair] = rec.model
    grid = [(r, m) for m in M_grid for r in r_grid]
    ordered = sorted(grid)  # ties resolve toward smaller rank, then smaller degree
    chosen = None
    best = math.inf
    for pair in ordered:
        if ei_max[pair] < best:
            best = ei_max[pair]
            chosen = pair
    if chosen is None:
        raise SelectionError(
            f"every (rank, degree) pair produced an infinite error indicator: {ei_max}"
        )
    logger.info("selected (r, M) = %s with EI_max = %.4g", chosen, best)
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
