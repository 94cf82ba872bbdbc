"""Alternating least-squares fitting of separated surrogates.

One sweep solves a linear least-squares problem per input dimension while
all other dimensions are frozen, normalizes the updated factors against the
sample set, and moves on. Ranks grow one term at a time: each new term is
drawn from the seeded stream several times and the candidate whose early
sweeps reach the lowest residual is kept, which makes the otherwise
fragile warm-started rank increase reproducible and robust.

The fit state is a stack of models on a leading candidate axis, and one
kernel sweeps the whole stack: the init_candidates candidates of a rank
burn in together, each slice getting the bits it would get alone, and the
winner converges as a stack of one. A candidate that converges early leaves
the stack. A burn-in that would re-draw a collapsed term, or that fails, is
replayed one candidate at a time from the same stream state, so the stream
is consumed in the serial order. The kernel returns raw per-slice
diagnostics, and the per-direction RegularizationState records (sigma-hat,
the error indicator, and the eigenvalue and norm they need) are built only
for the sweep a rank keeps, with the arithmetic of a state built in the
sweep. The outputs are fitted scaled by a power of two into [0.5, 1) in
magnitude, which keeps outputs far from 1 away from overflow and underflow.
The fit is exactly equivariant under power-of-two scaling, so the scaling
changes no bit of a fit whose term Gram matrices never need jitter; that
jitter is relative to the Gram's trace, which a new term's unit scale
enters in the fitted units.
"""
from __future__ import annotations

import dataclasses
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf

from .basis import BasisSpec, eval_basis_batch
from .errors import (
    ConditioningError,
    DegenerateFactorError,
    DegenerateModelError,
    InvariantError,
    SeprepError,
)
from .model import SampleSet, SeparatedModel, empirical_norm
from .regularize import (
    DEFAULT_LAMBDA_FLOOR,
    RegularizationState,
    TikhonovPath,
    _check_finite,
    _grid_position,
    _triangular_solve,
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
        if not 0.0 < self.lambda_floor_rel < 1.0:
            raise ValueError("lambda_floor_rel must lie in (0, 1)")
        if self.penalty not in _PENALTIES:
            raise ValueError(f"penalty must be one of {_PENALTIES}, got {self.penalty!r}")
        for name in ("max_sweeps_per_rank", "init_candidates", "candidate_burn_sweeps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class RankRecord:
    """Diagnostics for one rank of the growth ladder.

    converged is True when the winner stopped on sweep_tol and False when it
    hit max_sweeps_per_rank.
    """

    rank: int
    residual_trace: list
    reg_states: list
    candidate: int
    converged: bool
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


class _Replay(Exception):
    """A candidate race must be rerun one candidate at a time."""


def _rowdot(x: np.ndarray) -> np.ndarray:
    """x_b . x_b for each row of a (B, p) stack, through the BLAS dot a 1-D x @ x uses."""
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _check_normal_equation(lhs, Atu, branch):
    """Fail when the solved coefficients leave a slice's normal equation unsatisfied."""
    err = np.sqrt(_rowdot(lhs - Atu))
    bad = err > _NORMAL_EQ_RTOL * np.maximum(np.sqrt(_rowdot(Atu)), 1e-300)
    if bad.any():
        advice = ("consider enabling regularization or reducing rank/degree"
                  if branch == "unregularized" else "consider reducing rank/degree")
        raise ConditioningError(
            f"normal-equation residual {err[bad][0]:.3e} of the {branch} direction solve "
            f"exceeds tolerance; the system is numerically singular ({advice})"
        )


def _solve_spd(Mm: np.ndarray, Atu: np.ndarray) -> np.ndarray:
    """Cholesky solve with an eigendecomposition pseudo-solve fallback."""
    C, info = dpotrf(Mm, lower=0, clean=1)
    if info == 0:
        return _triangular_solve(C, _triangular_solve(C, Atu, 1), 0)
    w, V = np.linalg.eigh(Mm)
    cut = 1e-12 * np.trace(Mm)
    winv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
    return V @ (winv * (V.T @ Atu))


def _gram_cholesky(G: np.ndarray) -> np.ndarray:
    """Cholesky of one term Gram matrix, with one jitter retry before giving up."""
    R, info = dpotrf(G, lower=0, clean=1)
    if info == 0:
        return R
    if not np.all(np.isfinite(G)):
        raise ConditioningError("term Gram matrix contains non-finite entries (factor overflow)")
    jitter = 1e-14 * max(np.trace(G), 1e-300)
    R, info = dpotrf(G + jitter * np.eye(G.shape[0]), lower=0, clean=1)
    if info == 0:
        logger.warning("term Gram matrix required jitter %.2e to factor", jitter)
        return R
    w = np.linalg.eigvalsh(G)
    raise DegenerateModelError(
        f"surrogate second moment is numerically zero (min Gram eigenvalue {w[0]:.3e})"
    )


def _direction_solve(A, u, G, m, config):
    """Solve one direction for every slice of a stack; every direction solve of the package runs here.

    A is a (B, N, r*m) stack of design matrices on the shared outputs u and
    G None or the (B, r, r) stack of term Gram matrices. With G None the
    plain normal equation A^T A c = A^T u is solved. Otherwise slice b's
    penalty factor is L = chol(G_b) (x) I on the m-function basis, and
    lambda is picked by GCV along the path. A non-finite A^T A diagonal or
    A^T u (factor overflow) raises ConditioningError. Returns (coefficients
    (B, r*m), raw diagnostics or None, squared residual norms (B,)); each
    slice gets the bits it would get alone. The raw diagnostics are the
    arrays (lambda, hat trace, grid index, squared residual norm,
    coefficients, G), one row per slice, from which _regularization_states
    builds the states; a fit builds them only for the sweep a rank keeps.
    """
    if G is None:
        At = A.swapaxes(-1, -2)
        AtA = At @ A
        Atu = At @ u
        _check_finite(AtA, Atu)
        c = np.stack([_solve_spd(AtA[b], Atu[b]) for b in range(len(A))])
        _check_normal_equation((AtA @ c[..., None])[..., 0], Atu, "unregularized")
        return c, None, _rowdot((A @ c[..., None])[..., 0] - u)
    R = np.empty(G.shape)
    for b, g in enumerate(G):
        R[b] = _gram_cholesky(g)
    path = TikhonovPath(A, u, R, m)
    sel = gcv_select_lambda(path, _LAMBDA_GRID_SIZE, config.lambda_floor_rel)
    lam = sel.lambda_
    c = path.solve(lam)
    # the penalty the path solves is R^T R (x) I: G itself, or G plus the
    # jitter _gram_cholesky added when G is singular
    Rc = R.swapaxes(-1, -2) @ (R @ c.reshape(R.shape[:2] + (m,)))
    _check_normal_equation(
        (path.AtA @ c[..., None])[..., 0] + (lam * lam)[:, None] * Rc.reshape(c.shape), path.Atu,
        "regularized",
    )
    rn2 = _rowdot((A @ c[..., None])[..., 0] - u)
    return c, (lam, sel.hat_trace, sel.index, rn2, c, G), rn2


def _regularization_states(raw, n_samples: int) -> list:
    """The RegularizationState of each slice of a direction solve, from its raw diagnostics."""
    lam, hat_trace, index, rn2, c, G = raw
    wmins = np.linalg.eigvalsh(G)[:, 0]
    norms_c = np.sqrt(_rowdot(c))
    states = []
    for b in range(len(lam)):
        lam_b, ht_b, wmin, norm_c = (float(x[b]) for x in (lam, hat_trace, wmins, norms_c))
        sig = math.sqrt(float(rn2[b]) / (n_samples - ht_b)) if n_samples > ht_b else math.inf
        if lam_b > 0.0 and norm_c > 0.0 and math.isfinite(sig) and wmin > 0.0:
            # |L^-1|_2 = 1/sqrt(min eig of G) for the Kronecker-structured factor
            ei = math.sqrt(n_samples) / lam_b / math.sqrt(wmin) * sig / norm_c
        else:
            # routine on deliberately over-ranked fits, so keep the log quiet; the
            # sentinel itself is preserved in the diagnostics record
            logger.debug(
                "error indicator undefined (lambda=%.3g, |c|=%.3g, sigma=%.3g, "
                "min gram eig=%.3g); using +inf", lam_b, norm_c, sig, wmin,
            )
            ei = math.inf
        j = int(index[b])
        states.append(RegularizationState(
            lambda_=lam_b, sigma_hat=sig, error_indicator=ei, hat_trace=ht_b,
            grid_index=j, grid_position=_grid_position(j, _LAMBDA_GRID_SIZE),
        ))
    return states


def _converged(trace: list, tol: float) -> bool:
    """Whether the relative residual decrease over the last sweep fell below tol."""
    return len(trace) > 1 and trace[-2] > 0.0 and (trace[-2] - trace[-1]) / trace[-2] < tol


class _Fitter:
    """Workspace for one fit: cached basis values and a stack of models.

    coeffs (B, d, r, M+1), scales (B, r) and factors (B, d, N, r) hold B
    models of the same data, and _monotone_prev (B,) the last unregularized
    residual of each, NaN when there is none to compare with. B is the
    number of racing candidates, and 1 otherwise. The outputs are fitted as
    u * 2^-exp with max |u| * 2^-exp in [0.5, 1); scales, residuals and
    sigma-hat are mapped back by 2^exp on the way out.
    """

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
        self.psi_tiled = self.psi[..., :0]  # psi repeated once per term: (d, N, r*(M+1))
        self.exp = int(np.frexp(np.max(np.abs(data.outputs)))[1])
        self.u = np.ldexp(data.outputs, -self.exp)
        self.u_norm = empirical_norm(self.u) if np.any(self.u) else 1.0
        self._use((
            np.zeros((1, self.d, 0, self.m1)), np.zeros((1, 0)),
            np.zeros((1, self.d, self.n, 0)), np.full(1, np.nan),
        ))

    # -- state management -------------------------------------------------

    def _use(self, stack):
        """Make (coeffs, scales, factors, monotone residuals) the live stack."""
        self.coeffs, self.scales, self.factors, self._monotone_prev = stack

    def unscaled(self, residual) -> float:
        return float(np.ldexp(residual, self.exp))

    def kept_states(self, raws: list, p: int = 0) -> list:
        """Model p's direction-solve states in the data's units, from a sweep's raw diagnostics."""
        states = []
        for raw in raws:
            if raw is None:
                states.append(None)
                continue
            [state] = _regularization_states(tuple(x[p:p + 1] for x in raw), self.n)
            states.append(dataclasses.replace(state, sigma_hat=self.unscaled(state.sigma_hat)))
        return states

    def model(self) -> SeparatedModel:
        """Model 0 of the stack, in the data's units."""
        return SeparatedModel(
            self.basis, np.ldexp(self.scales[0], self.exp), self.coeffs[0].copy()
        )

    def set_model(self, model: SeparatedModel):
        coeffs = model.coeffs.copy()
        factors = np.einsum("knm,krm->knr", self.psi, coeffs)
        scales = np.ldexp(model.scales, -self.exp)
        self._use((coeffs[None], scales[None], factors[None], np.full(1, np.nan)))

    def _draw_candidates(self, coeffs0: np.ndarray, scales0: np.ndarray, width: int):
        """A stack of `width` copies of one model, each grown by a term drawn in stack order.

        A new term is a unit constant plus scaled normal noise, normalized
        per direction, with scale 1.
        """
        d, m1 = self.d, self.m1
        r = coeffs0.shape[1] + 1
        coeffs = np.empty((width, d, r, m1))
        coeffs[:, :, :-1] = coeffs0
        scales = np.empty((width, r))
        scales[:, :-1] = scales0
        scales[:, -1] = 1.0
        factors = np.empty((width, d, self.n, r))
        for b in range(width):
            new = coeffs[b, :, -1]
            new[...] = _INIT_PERTURBATION * self.rng.standard_normal((d, m1))
            new[:, 0] += 1.0
            for k in range(d):
                nrm = empirical_norm(self.psi[k] @ new[k])
                if nrm == 0.0:
                    raise DegenerateFactorError("drawn initial factor has zero empirical norm")
                new[k] /= nrm
            factors[b] = np.einsum("knm,krm->knr", self.psi, coeffs[b])
        return coeffs, scales, factors, np.full(width, np.nan)

    def _revive(self, k: int, cmat: np.ndarray, norms: np.ndarray, alive: np.ndarray):
        """Model 0: normalize direction k's live terms and redraw its collapsed ones."""
        scales, coeffs = self.scales[0], self.coeffs[0, k]
        scales[alive] = scales[alive] * norms[alive]
        coeffs[alive] = cmat[alive] / norms[alive, None]
        dead = np.flatnonzero(~alive)
        logger.warning(
            "terms %s collapsed to zero in direction %d; reinitializing them",
            dead.tolist(), k,
        )
        for l in dead:
            while True:
                draw = _INIT_PERTURBATION * self.rng.standard_normal(self.m1)
                draw[0] += 1.0
                nrm = empirical_norm(self.psi[k] @ draw)
                if nrm > 0.0:
                    coeffs[l] = draw / nrm
                    break
        self._monotone_prev[0] = np.nan

    def _check_monotone(self, resid: np.ndarray):
        """An unregularized solve must not raise any model's residual."""
        prev = self._monotone_prev
        bad = resid > prev + (prev * _MONOTONE_RTOL + 1e-12 * self.u_norm)
        if bad.any():
            b = int(np.argmax(bad))
            raise InvariantError(
                f"residual increased across an unregularized direction solve "
                f"({self.unscaled(prev[b]):.6e} -> {self.unscaled(resid[b]):.6e})"
            )
        prev[...] = resid

    # -- sweeps ------------------------------------------------------------

    def sweep_once(self):
        """One full pass over all directions for every model of the stack.

        Returns (residual per model, in the fitted units, and per direction
        the kernel's raw diagnostics, which kept_states turns into states). A
        term collapsing in a stack of more than one model raises _Replay,
        since its redraw must come in stream order.
        """
        cfg = self.config
        coeffs, scales, factors = self.coeffs, self.scales, self.factors
        nb, d, r, m1 = coeffs.shape
        n = self.n
        if self.psi_tiled.shape[-1] != r * m1:
            self.psi_tiled = np.tile(self.psi, (1, 1, r))
        grams = coeffs @ coeffs.swapaxes(-1, -2)
        suf_f = np.empty((d, nb, n, r))
        suf_g = np.empty((d, nb, r, r))
        suf_f[d - 1] = 1.0
        suf_g[d - 1] = 1.0
        for k in range(d - 2, -1, -1):
            np.multiply(suf_f[k + 1], factors[:, k + 1], out=suf_f[k])
            np.multiply(suf_g[k + 1], grams[:, k + 1], out=suf_g[k])
        left_f = np.ones((nb, n, r))
        left_g = np.ones((nb, r, r))
        raws = []
        for k in range(d):
            excl = left_f * suf_f[k]
            A = np.repeat(excl * scales[:, None, :], m1, axis=-1)
            A *= self.psi_tiled[k]
            if cfg.penalty == "none":
                G = None
            elif cfg.penalty == "diag_scale":
                G = np.zeros((nb, r, r))
                G[:, np.arange(r), np.arange(r)] = scales**2
            else:
                G = scales[:, :, None] * scales[:, None, :] * left_g * suf_g[k]
            c, raw, rn2 = _direction_solve(A, self.u, G, m1, cfg)
            raws.append(raw)
            if G is None:
                self._check_monotone(np.sqrt(rn2 / n))
            cmat = c.reshape(nb, r, m1)
            vals = self.psi[k] @ cmat.swapaxes(-1, -2)
            norms = np.sqrt(np.add.reduce(vals * vals, axis=-2) / n)  # np.mean's arithmetic
            # a term dies when its norm, or its scale times that norm, reaches
            # zero: decaying terms of over-ranked fits underflow to scale 0
            alive = scales * norms != 0.0
            if alive.all():
                scales *= norms
                coeffs[:, k] = cmat / norms[..., None]
            elif nb > 1:
                raise _Replay
            else:
                self._revive(k, cmat[0], norms[0], alive[0])
            ck = coeffs[:, k]
            factors[:, k] = self.psi[k] @ ck.swapaxes(-1, -2)
            grams[:, k] = ck @ ck.swapaxes(-1, -2)
            left_g = left_g * grams[:, k]
            left_f = left_f * factors[:, k]
        return np.sqrt(rn2 / n), raws

    def _race(self, stack, traces: list, cap: int) -> list:
        """Sweep a stack of models until each converges or its trace holds cap residuals.

        All traces have one length, below cap. A model that converges leaves:
        the last live model moves into its slot, so the kernel always sweeps
        the leading block of the arrays and no sweep copies them. Returns per
        model (its last sweep's raw diagnostics and its slot in them,
        converged, its arrays as a stack of one), views into `stack` for the
        models that reached the cap.
        """
        tol = self.config.sweep_tol
        slot = list(range(len(traces)))
        out = [None] * len(traces)
        live = len(traces)
        while live:
            self._use(tuple(a[:live] for a in stack))
            resid, raws = self.sweep_once()
            at_cap = len(traces[slot[0]]) + 1 >= cap
            for p in reversed(range(live)):
                i = slot[p]
                traces[i].append(float(resid[p]))
                converged = _converged(traces[i], tol)
                if at_cap:
                    out[i] = ((raws, p), converged, tuple(a[p:p + 1] for a in stack))
                elif converged:
                    out[i] = ((raws, p), True, tuple(a[p:p + 1].copy() for a in stack))
                    live -= 1
                    for a in stack:
                        a[p] = a[live]
                    slot[p] = slot[live]
            if at_cap:
                break
        return out

    def _burn_in(self, width: int, cap: int, base):
        """Draw `width` candidates from `base` and race them; returns (results, traces)."""
        traces = [[] for _ in range(width)]
        return self._race(self._draw_candidates(*base, width), traces, cap), traces

    def run_rank(self) -> RankRecord:
        """Grow by one term, race seeded candidates, converge the winner.

        The winner has the lowest burn-in residual; ties go to the earliest draw.
        """
        cfg = self.config
        width = cfg.init_candidates
        burn = min(cfg.candidate_burn_sweeps, cfg.max_sweeps_per_rank)
        base = (self.coeffs[0], self.scales[0])
        stream = self.rng.bit_generator.state
        try:
            results, traces = self._burn_in(width, burn, base)
        except (_Replay, SeprepError):
            if width == 1:
                raise
            # one candidate at a time, consuming the stream in serial order
            self.rng.bit_generator.state = stream
            results, traces = [], []
            for _ in range(width):
                res, tr = self._burn_in(1, burn, base)
                results += res
                traces += tr
        best = 0
        for i in range(1, width):
            if traces[i][-1] < traces[best][-1]:
                best = i
        trace = traces[best]
        last, converged, stack = results[best]
        stack = tuple(a.copy() for a in stack)
        if not converged and len(trace) < cfg.max_sweeps_per_rank:
            [(last, converged, stack)] = self._race(stack, [trace], cfg.max_sweeps_per_rank)
        self._use(stack)
        return RankRecord(
            rank=self.coeffs.shape[2],
            residual_trace=[self.unscaled(x) for x in trace],
            reg_states=self.kept_states(*last),
            candidate=best,
            converged=converged,
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
    if model.basis.family is not data.family:
        raise ValueError("model basis family disagrees with data family")
    fitter = _Fitter(data, config, np.random.default_rng(config.rng_seed))
    fitter.set_model(model)
    resid, raws = fitter.sweep_once()
    return fitter.model(), fitter.unscaled(resid[0]), fitter.kept_states(raws)


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
