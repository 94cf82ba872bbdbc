"""Alternating least-squares fitting of separated surrogates.

One sweep solves a linear least-squares problem per input dimension while
all other dimensions are frozen, normalizes the updated factors against the
sample set, and moves on. Ranks grow one term at a time: each new term is
drawn from the seeded stream several times and the candidate whose early
sweeps reach the lowest residual is kept, which makes the otherwise
fragile warm-started rank increase reproducible and robust.
"""
from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular

from .basis import BasisSpec, eval_basis_batch
from .errors import (
    ConditioningError,
    DegenerateFactorError,
    DegenerateModelError,
    InvariantError,
)
from .model import SampleSet, SeparatedModel, empirical_norm
from .regularize import (
    DEFAULT_LAMBDA_FLOOR,
    RegularizationState,
    TikhonovPath,
    _check_finite,
    gcv_select_lambda,
)

__all__ = ["FitConfig", "RankRecord", "FitDiagnostics", "sweep", "fit_fixed"]

logger = logging.getLogger(__name__)

_MONOTONE_RTOL = 1e-10
_NORMAL_EQ_RTOL = 1e-8
_LAMBDA_GRID_SIZE = 50  # GCV grid points per direction solve
_INIT_PERTURBATION = 0.3  # noise scale of a new term's initial coefficients

_PENALTIES = ("second_moment", "diag_scale", "none")


@dataclass
class FitConfig:
    """Knobs for the alternating fit.

    sweep_tol is the relative residual decrease per full sweep below which a
    rank is considered converged; max_sweeps_per_rank caps the loop. penalty
    picks the Tikhonov penalty of every direction solve: "second_moment"
    (the surrogate's second moment), "diag_scale" (the diag(s^2) comparison
    penalty) or "none" (plain least squares, which leaves the error
    indicator undefined). The candidate fields control the per-rank restart
    protocol: each new term is initialized init_candidates times (unit
    constant coefficient plus scaled normal noise, normalized per
    direction), every candidate runs candidate_burn_sweeps sweeps, and the
    lowest-residual one is kept and swept to convergence.
    """

    rank_max: int
    degree: int
    max_sweeps_per_rank: int = 600
    sweep_tol: float = 1e-5
    penalty: str = "second_moment"
    rng_seed: int = 0
    lambda_floor_rel: float = DEFAULT_LAMBDA_FLOOR
    init_candidates: int = 8
    candidate_burn_sweeps: int = 15

    def __post_init__(self):
        if self.rank_max < 1:
            raise ValueError("rank_max must be >= 1")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if not 0.0 < self.sweep_tol < 1.0:
            raise ValueError("sweep_tol must lie in (0, 1)")
        if self.penalty not in _PENALTIES:
            raise ValueError(f"penalty must be one of {_PENALTIES}, got {self.penalty!r}")
        for name in ("max_sweeps_per_rank", "init_candidates", "candidate_burn_sweeps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class RankRecord:
    """Diagnostics for one rank of the growth ladder."""

    rank: int
    residual_trace: list
    reg_states: list
    candidate: int
    model: SeparatedModel

    @property
    def residual(self) -> float:
        return self.residual_trace[-1]

    @property
    def sweeps(self) -> int:
        return len(self.residual_trace)


@dataclass
class FitDiagnostics:
    """Per-rank records of one fit; per_rank[r - 1] belongs to rank r."""

    per_rank: list


def _check_normal_equation(lhs, Atu):
    """Fail when the solved coefficients leave the normal equation unsatisfied."""
    err = np.linalg.norm(lhs - Atu)
    if err > _NORMAL_EQ_RTOL * max(np.linalg.norm(Atu), 1e-300):
        raise ConditioningError(
            f"normal-equation residual {err:.3e} exceeds tolerance; the system is "
            "numerically singular (consider enabling regularization or reducing rank/degree)"
        )


def _solve_spd(Mm: np.ndarray, Atu: np.ndarray) -> np.ndarray:
    """Cholesky solve with an eigendecomposition pseudo-solve fallback."""
    try:
        C = cholesky(Mm, lower=False, check_finite=False)
        return solve_triangular(
            C,
            solve_triangular(C, Atu, trans="T", lower=False, check_finite=False),
            lower=False,
            check_finite=False,
        )
    except LinAlgError:
        w, V = np.linalg.eigh(Mm)
        cut = 1e-12 * np.trace(Mm)
        winv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
        return V @ (winv * (V.T @ Atu))


def _gram_cholesky(G: np.ndarray) -> np.ndarray:
    """Cholesky of the term Gram matrix, with one jitter retry before giving up."""
    try:
        return cholesky(G, lower=False, check_finite=False)
    except LinAlgError:
        jitter = 1e-14 * max(np.trace(G), 1e-300)
        try:
            Rg = cholesky(G + jitter * np.eye(G.shape[0]), lower=False)
            logger.warning("term Gram matrix required jitter %.2e to factor", jitter)
            return Rg
        except LinAlgError:
            w = np.linalg.eigvalsh(G)
            raise DegenerateModelError(
                f"surrogate second moment is numerically zero "
                f"(min Gram eigenvalue {w[0]:.3e})"
            ) from None


def _direction_solve(A, u, G, m, config):
    """Solve one direction; every direction solve of the package runs here.

    With G None the plain normal equation A^T A c = A^T u is solved. Otherwise
    G is the r x r term Gram matrix and the penalty factor is L = chol(G) (x) I
    on the m-function basis; lambda is picked by GCV along the path. A
    non-finite A^T A diagonal or A^T u (factor overflow) raises
    ConditioningError. Returns (coefficients, RegularizationState or None,
    squared residual norm).
    """
    n_samples = u.shape[0]
    if G is None:
        AtA = A.T @ A
        Atu = A.T @ u
        _check_finite(AtA, Atu)
        c = _solve_spd(AtA, Atu)
        _check_normal_equation(AtA @ c, Atu)
        res = A @ c - u
        return c, None, float(res @ res)
    R = _gram_cholesky(G)
    path = TikhonovPath(A, u, R, m)
    sel = gcv_select_lambda(path, _LAMBDA_GRID_SIZE, config.lambda_floor_rel)
    lam = sel.lambda_
    c = path.solve(lam)
    # the penalty the path solves is R^T R (x) I: G itself, or G plus the
    # jitter _gram_cholesky added when G is singular
    penalty = (lam * lam) * (R.T @ (R @ c.reshape(R.shape[0], m))).ravel()
    _check_normal_equation(path.AtA @ c + penalty, path.Atu)
    res = A @ c - u
    rn2 = float(res @ res)
    sig = np.sqrt(rn2 / (n_samples - sel.hat_trace)) if n_samples > sel.hat_trace else float("inf")
    wmin = float(np.linalg.eigvalsh(G)[0])
    norm_c = float(np.linalg.norm(c))
    if lam > 0.0 and norm_c > 0.0 and np.isfinite(sig) and wmin > 0.0:
        # |L^-1|_2 = 1/sqrt(min eig of G) for the Kronecker-structured factor
        ei = float(np.sqrt(n_samples) / lam / np.sqrt(wmin) * sig / norm_c)
    else:
        # routine on deliberately over-ranked fits, so keep the log quiet; the
        # sentinel itself is preserved in the diagnostics record
        logger.debug(
            "error indicator undefined (lambda=%.3g, |c|=%.3g, sigma=%.3g, "
            "min gram eig=%.3g); using +inf", lam, norm_c, sig, wmin,
        )
        ei = float("inf")
    state = RegularizationState(
        lambda_=lam, sigma_hat=float(sig), error_indicator=ei, hat_trace=sel.hat_trace
    )
    return c, state, rn2


class _Fitter:
    """Workspace for one fit: cached basis values and the mutable model state."""

    def __init__(self, data: SampleSet, config: FitConfig, rng: np.random.Generator):
        self.data = data
        self.config = config
        self.rng = rng
        self.basis = BasisSpec(data.family, config.degree)
        self.n = data.n
        self.d = data.dims
        self.m1 = config.degree + 1
        self.psi = np.ascontiguousarray(
            np.swapaxes(eval_basis_batch(self.basis, data.inputs), 0, 1)
        )  # (d, N, M+1)
        self.u = data.outputs
        self.u_norm = empirical_norm(data.outputs) if np.any(data.outputs) else 1.0
        self.coeffs = np.zeros((self.d, 0, self.m1))
        self.scales = np.zeros(0)
        self.factors = np.zeros((self.d, self.n, 0))
        self._monotone_prev = None

    # -- state management -------------------------------------------------

    def snapshot(self):
        return self.coeffs.copy(), self.scales.copy(), self.factors.copy()

    def restore(self, state):
        self.coeffs, self.scales, self.factors = (a.copy() for a in state)
        self._monotone_prev = None

    def model(self) -> SeparatedModel:
        return SeparatedModel(self.basis, self.scales.copy(), self.coeffs.copy())

    def set_model(self, model: SeparatedModel):
        self.coeffs = model.coeffs.copy()
        self.scales = model.scales.copy()
        self.factors = np.einsum("knm,krm->knr", self.psi, self.coeffs)
        self._monotone_prev = None

    def add_term(self):
        """Draw one new term from the stream: unit constant plus scaled noise."""
        new = _INIT_PERTURBATION * self.rng.standard_normal((self.d, 1, self.m1))
        new[:, 0, 0] += 1.0
        self.coeffs = np.concatenate([self.coeffs, new], axis=1)
        self.scales = np.append(self.scales, 1.0)
        r = self.coeffs.shape[1]
        for k in range(self.d):
            v = self.psi[k] @ self.coeffs[k, r - 1]
            nrm = empirical_norm(v)
            if nrm == 0.0:
                raise DegenerateFactorError("drawn initial factor has zero empirical norm")
            self.coeffs[k, r - 1] /= nrm
        self.factors = np.einsum("knm,krm->knr", self.psi, self.coeffs)

    def _reinit_dead_terms(self, k: int, dead: np.ndarray):
        """Redraw direction-k coefficients of collapsed terms from the stream."""
        logger.warning(
            "terms %s collapsed to zero in direction %d; reinitializing them",
            dead.tolist(), k,
        )
        for l in dead:
            while True:
                draw = _INIT_PERTURBATION * self.rng.standard_normal(self.m1)
                draw[0] += 1.0
                v = self.psi[k] @ draw
                nrm = empirical_norm(v)
                if nrm > 0.0:
                    self.coeffs[k, l] = draw / nrm
                    break
        self._monotone_prev = None

    # -- sweeps ------------------------------------------------------------

    def sweep_once(self):
        """One full pass over all directions; returns (residual, states)."""
        cfg = self.config
        d, n, r = self.d, self.n, self.coeffs.shape[1]
        grams = [self.coeffs[i] @ self.coeffs[i].T for i in range(d)]
        suf_f = np.ones((d, n, r))
        suf_g = [None] * d
        suf_g[d - 1] = np.ones((r, r))
        for k in range(d - 2, -1, -1):
            np.multiply(suf_f[k + 1], self.factors[k + 1], out=suf_f[k])
            suf_g[k] = suf_g[k + 1] * grams[k + 1]
        left_f = np.ones((n, r))
        left_g = np.ones((r, r))
        states = []
        rn2 = 0.0
        for k in range(d):
            excl = left_f * suf_f[k]
            A = (excl * self.scales[None, :])[:, :, None] * self.psi[k][:, None, :]
            A = A.reshape(n, r * self.m1)
            if cfg.penalty == "none":
                G = None
            elif cfg.penalty == "diag_scale":
                G = np.diag(self.scales**2)
            else:
                G = np.outer(self.scales, self.scales) * left_g * suf_g[k]
            c, state, rn2 = _direction_solve(A, self.u, G, self.m1, cfg)
            states.append(state)
            if G is None:
                resid = np.sqrt(rn2 / n)
                prev = self._monotone_prev
                slack = prev * _MONOTONE_RTOL + 1e-12 * self.u_norm if prev is not None else 0.0
                if prev is not None and resid > prev + slack:
                    raise InvariantError(
                        f"residual increased across an unregularized direction solve "
                        f"({prev:.6e} -> {resid:.6e})"
                    )
                self._monotone_prev = resid
            cmat = c.reshape(r, self.m1)
            vals = self.psi[k] @ cmat.T
            norms = np.sqrt(np.mean(vals * vals, axis=0))
            # a term dies when its norm, or its scale times that norm, reaches
            # zero: decaying terms of over-ranked fits underflow to scale 0
            alive = self.scales * norms != 0.0
            dead = np.flatnonzero(~alive)
            if dead.size:
                self.scales[alive] = self.scales[alive] * norms[alive]
                self.coeffs[k][alive] = cmat[alive] / norms[alive, None]
                self._reinit_dead_terms(k, dead)
            else:
                self.scales *= norms
                self.coeffs[k] = cmat / norms[:, None]
            self.factors[k] = self.psi[k] @ self.coeffs[k].T
            grams[k] = self.coeffs[k] @ self.coeffs[k].T
            left_g = left_g * grams[k]
            left_f = left_f * self.factors[k]
        return float(np.sqrt(rn2 / n)), states

    def _sweep_until(self, trace: list, cap: int, states=None):
        """Sweep until converged or until trace holds cap residuals.

        Converged means the relative residual decrease over one sweep fell
        below sweep_tol. Returns (the last sweep's states, or `states` when
        no sweep ran, converged).
        """
        tol = self.config.sweep_tol
        while len(trace) < cap:
            resid, states = self.sweep_once()
            trace.append(resid)
            if len(trace) > 1 and trace[-2] > 0.0 and (trace[-2] - trace[-1]) / trace[-2] < tol:
                return states, True
        return states, False

    def run_rank(self) -> RankRecord:
        """Grow by one term, race seeded candidates, converge the winner.

        The winner has the lowest burn-in residual; ties go to the earliest draw.
        """
        cfg = self.config
        base = self.snapshot()
        best = None
        for idx in range(cfg.init_candidates):
            self.restore(base)
            self.add_term()
            trace = []
            states, converged = self._sweep_until(
                trace, min(cfg.candidate_burn_sweeps, cfg.max_sweeps_per_rank)
            )
            if best is None or trace[-1] < best[0][-1]:
                best = (trace, idx, self.snapshot(), self._monotone_prev, states, converged)
        trace, idx, state, mono, states, converged = best
        self.restore(state)
        self._monotone_prev = mono
        if not converged:
            states, _ = self._sweep_until(trace, cfg.max_sweeps_per_rank, states)
        return RankRecord(
            rank=self.coeffs.shape[1],
            residual_trace=trace,
            reg_states=states,
            candidate=idx,
            model=self.model(),
        )


def sweep(data: SampleSet, model: SeparatedModel, config: FitConfig):
    """One full alternation pass starting from `model`.

    Returns (updated model, empirical residual norm, per-direction
    regularization records; entries are None when unregularized).
    """
    if model.basis.max_degree != config.degree:
        raise ValueError("model degree disagrees with config degree")
    if model.dims != data.dims:
        raise ValueError("model dims disagree with data dims")
    fitter = _Fitter(data, config, np.random.default_rng(config.rng_seed))
    fitter.set_model(model)
    resid, states = fitter.sweep_once()
    return fitter.model(), resid, states


def fit_fixed(data: SampleSet, r: int, config: FitConfig, init_seed: int):
    """Fit with ranks growing 1..r; returns (model, diagnostics).

    Each rank keeps sweeping until the relative residual decrease over a full
    sweep falls below config.sweep_tol or the sweep cap is reached. The
    per-rank diagnostics carry the final sweep's regularization records,
    which rank/degree selection consumes.
    """
    n_unknowns = r * (config.degree + 1)
    if data.n < n_unknowns:
        warnings.warn(
            f"sample count {data.n} is below the direction-solve unknown count "
            f"{n_unknowns}; expect an underdetermined fit",
            stacklevel=2,
        )
    fitter = _Fitter(data, config, np.random.default_rng(init_seed))
    records = [fitter.run_rank() for _ in range(r)]
    return fitter.model(), FitDiagnostics(per_rank=records)
