"""Alternating least-squares fitting of separated surrogates.

One sweep solves a linear least-squares problem per input dimension while
all other dimensions are frozen, normalizes the updated factors against the
sample set, and moves on. Ranks grow one term at a time: each new term is
drawn from the seeded stream several times and the candidate whose early
sweeps reach the lowest residual is kept, which makes the otherwise
fragile warm-started rank increase reproducible and robust.

The fit state is a stack of models on a leading candidate axis, and one
kernel sweeps the whole stack: the _CANDIDATES candidates of a rank
burn in together, each slice getting the bits it would get alone, and the
winner converges as a stack of one. A candidate that converges early leaves
the stack. Initial draws come from the seeded stream in stack order, and
each candidate carries a child stream of the seed, spawned in stack order,
from which its collapsed terms are re-drawn inside the stack, so no slice's
re-draw depends on another's. Each direction's normal equations are built
from the term-major factor values and cached basis products, never from a
design matrix, and the kernel hands the whole stack to one
regularize.TikhonovPath and one gcv_select_lambda call and returns raw
per-slice diagnostics; a slice's RegularizationState (sigma-hat, the error
indicator, and the eigenvalue and norm they need) is built from them one
slice at a time, only for the sweep a rank keeps. The outputs are fitted
scaled by a power of two into [0.5, 1) in magnitude, which keeps outputs far
from 1 away from overflow and underflow. The fit is exactly equivariant
under power-of-two scaling, so the scaling changes no bit of a fit whose
term Gram matrices never need jitter; that jitter is relative to the Gram's
trace, which a new term's unit scale enters in the fitted units.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .basis import BasisSpec, _check_count, eval_basis_batch
from .errors import (
    ConditioningError,
    DegenerateFactorError,
    DegenerateModelError,
    InvariantError,
)
from .model import SampleSet, SeparatedModel, empirical_norm
from .regularize import RegularizationState, TikhonovPath, gcv_select_lambda

__all__ = ["FitConfig", "RankRecord", "FitDiagnostics", "fit_fixed"]

_MONOTONE_RTOL = 1e-10
_NORMAL_EQ_RTOL = 1e-8
_INIT_PERTURBATION = 0.3  # noise scale of a new term's initial coefficients
# a rank has converged when a full sweep lowers the residual by less than
# this fraction; a sweep that raises it has a negative decrease, so it also
# ends the rank as converged
_SWEEP_TOL = 1e-5
_CANDIDATES = 8  # new-term draws raced per rank
_BURN_SWEEPS = 15  # sweeps each candidate runs before the lowest residual wins

_PENALTIES = ("second_moment", "diag_scale", "none")


@dataclass
class FitConfig:
    """Knobs for the alternating fit.

    penalty picks the Tikhonov penalty of every direction solve:
    "second_moment" (the surrogate's second moment), "diag_scale" (the
    diag(s^2) comparison penalty) or "none" (plain least squares, which
    leaves the error indicator undefined). The cap on each rank's sweeps,
    burn-in included (max_sweeps_per_rank, a class attribute, not a field),
    the convergence tolerance (_SWEEP_TOL), the per-rank candidate race
    (_CANDIDATES draws of a new term, each a unit constant coefficient plus
    scaled normal noise, normalized per direction, burnt in for _BURN_SWEEPS
    sweeps, the lowest-residual one swept to convergence) and the lambda
    floor (regularize._LAMBDA_FLOOR) are fixed.

    fit_fixed reads degree and takes its rank from its r argument, and
    select_model overrides degree at each grid point and grows each degree's
    rank ladder towards max(r_grid), so no fit reads rank_max: a selection
    report only records it with the rest of the caller's config.
    """

    max_sweeps_per_rank = 600  # unannotated, so a constant of the class and not a field
    rank_max: int
    degree: int
    penalty: str = "second_moment"
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("rank_max", 1), ("degree", 0), ("rng_seed", 0)):
            _check_count(name, getattr(self, name), least)
        if self.penalty not in _PENALTIES:
            raise ValueError(f"penalty must be one of {_PENALTIES}, got {self.penalty!r}")


@dataclass
class RankRecord:
    """Diagnostics for one rank of the growth ladder.

    converged is True when the winner stopped on _SWEEP_TOL, which includes a
    final sweep that raised the residual, and False when it hit the sweep
    cap, FitConfig.max_sweeps_per_rank. jittered_solves and redrawn_terms
    are the rank's totals over every sweep and candidate: the slice
    direction solves whose term Gram matrix needed jitter to factor, and
    the collapsed terms re-drawn.
    """

    rank: int
    residual_trace: list
    reg_states: list
    candidate: int
    converged: bool
    jittered_solves: int
    redrawn_terms: int
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


def _rowdot(x: np.ndarray) -> np.ndarray:
    """x . x along the last axis of a stack, through the BLAS dot a 1-D x @ x uses."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _check_normal_equations(solves: list) -> None:
    """Fail at the first direction, in order, whose solve leaves a slice's normal equation unsatisfied.

    solves holds one (AtA, Atu, c, raw, rn2) per direction, in direction
    order: a _direction_solve call's inputs and outputs, all of one branch;
    it is the sweep's own list, and only (c, raw, rn2) outlive the sweep. The
    regularized branch's equation carries the penalty R^T R (x) I the path
    solved: G itself, or G plus the jitter _gram_cholesky added when G is
    singular. All directions are checked at once.
    """
    if not solves:
        return
    AtA, Atu, c = (np.stack([s[i] for s in solves]) for i in range(3))
    lhs = (AtA @ c[..., None])[..., 0]
    regularized = solves[0][3] is not None
    if regularized:
        lam = np.stack([s[3][0] for s in solves])
        R = np.stack([s[3][4] for s in solves])
        Rc = R.swapaxes(-1, -2) @ (R @ c.reshape(R.shape[:-1] + (-1,)))
        lhs += (lam * lam)[..., None] * Rc.reshape(c.shape)
    err = np.sqrt(_rowdot(lhs - Atu))
    bad = err > _NORMAL_EQ_RTOL * np.maximum(np.sqrt(_rowdot(Atu)), 1e-300)
    if bad.any():
        k, b = np.unravel_index(np.argmax(bad), bad.shape)
        branch = "regularized" if regularized else "unregularized"
        advice = ("consider reducing rank/degree" if regularized
                  else "consider enabling regularization or reducing rank/degree")
        raise ConditioningError(
            f"normal-equation residual {err[k, b]:.3e} of the {branch} direction solve "
            f"in direction {k} exceeds tolerance; the system is numerically singular "
            f"({advice})"
        )


def _solve_spd(Mm: np.ndarray, Atu: np.ndarray) -> np.ndarray:
    """Cholesky solve with an eigendecomposition pseudo-solve fallback."""
    R = _upper_cholesky(Mm)
    if R is not None:
        return np.linalg.solve(R, np.linalg.solve(R.T, Atu))
    w, V = np.linalg.eigh(Mm)
    cut = 1e-12 * np.trace(Mm)
    winv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
    return V @ (winv * (V.T @ Atu))


def _upper_cholesky(G: np.ndarray):
    """Upper Cholesky factor of G, or None when G is not positive definite.

    NumPy's factor has the bits of LAPACK's dpotrf(G, lower=0, clean=1), the
    zeroed lower triangle included, when both call the same LAPACK build.
    """
    try:
        return np.linalg.cholesky(G, upper=True)
    except np.linalg.LinAlgError:
        return None


def _gram_cholesky(G: np.ndarray):
    """Cholesky of one term Gram matrix and whether it needed jitter: one retry,
    made only if the Gram's trace is positive."""
    R = _upper_cholesky(G)
    if R is not None:
        return R, False
    if not np.all(np.isfinite(G)):
        raise ConditioningError("term Gram matrix contains non-finite entries (factor overflow)")
    trace = np.trace(G)
    if trace > 0.0:  # a jitter relative to a zero trace would factor G = 0 as a tiny I
        jitter = 1e-14 * max(trace, 1e-300)
        R = _upper_cholesky(G + jitter * np.eye(G.shape[0]))
        if R is not None:
            return R, True
    w = np.linalg.eigvalsh(G)
    raise DegenerateModelError(
        f"surrogate second moment is numerically zero (min Gram eigenvalue {w[0]:.3e})"
    )


def _check_finite(AtA: np.ndarray, Atu: np.ndarray) -> None:
    """Fail on factor overflow: a non-finite entry of A makes A^T A non-finite."""
    if not (np.isfinite(AtA).all() and np.isfinite(Atu).all()):
        raise ConditioningError("design matrix contains non-finite entries (factor overflow)")


def _direction_solve(AtA, Atu, uu, n, G, m):
    """Solve one direction for every slice of a stack; every direction solve of the package runs here.

    AtA (B, r*m, r*m) and Atu (B, r*m) are the normal-equation pieces of B
    designs with n rows on shared outputs u, uu = u . u, and G None or the
    (B, r, r) term Gram matrices. With G None, A^T A c = A^T u is solved;
    otherwise slice b's penalty factor is L = chol(G_b) (x) I and lambda is
    picked by GCV along the path. Factor overflow raises ConditioningError.
    Returns (coefficients (B, r*m), raw diagnostics or None), each slice with
    the bits it would get alone. The raw diagnostics are the arrays (lambda,
    hat trace, grid index, G, R, jittered), one row per slice, R the Cholesky
    factor the penalty was built from, jittered whether G needed jitter for
    it; _regularization_state builds a slice's state from them, the
    coefficients and the squared residual norms, only for the sweep a rank
    keeps. The normal equations are not checked here: the
    caller hands every direction of a sweep to _check_normal_equations at
    once.
    """
    _check_finite(AtA, Atu)
    if G is None:
        return np.stack([_solve_spd(AtA[b], Atu[b]) for b in range(len(AtA))]), None
    R = np.empty(G.shape)
    jittered = np.empty(len(G), dtype=bool)
    for b, g in enumerate(G):
        R[b], jittered[b] = _gram_cholesky(g)
    path = TikhonovPath(AtA, Atu, uu, n, R, m)
    sel = gcv_select_lambda(path)
    c = path.solve(sel.lambda_)
    return c, (sel.lambda_, sel.hat_trace, sel.index, G, R, jittered)


def _regularization_state(solve, p: int, n_samples: int, exp: int) -> RegularizationState:
    """Slice p's state from one (c, raw, rn2) entry of a sweep, sigma-hat times 2^exp."""
    c, raw, rn2 = solve
    lam, hat_trace, index, G = (x[p] for x in raw[:4])
    c, rn2 = c[p], rn2[p]
    lam, hat_trace = float(lam), float(hat_trace)
    wmin = float(np.linalg.eigvalsh(G)[0])
    norm_c = math.sqrt(float(c @ c))
    sig = math.sqrt(float(rn2) / (n_samples - hat_trace)) if n_samples > hat_trace else math.inf
    if lam > 0.0 and norm_c > 0.0 and math.isfinite(sig) and wmin > 0.0:
        # |L^-1|_2 = 1/sqrt(min eig of G) for the Kronecker-structured factor
        ei = math.sqrt(n_samples) / lam / math.sqrt(wmin) * sig / norm_c
    else:
        ei = math.inf  # undefined, as on deliberately over-ranked fits
    return RegularizationState(
        lambda_=lam, sigma_hat=math.ldexp(sig, exp), error_indicator=ei, hat_trace=hat_trace,
        grid_index=int(index),
    )


@cache
def _half_index(r: int, m: int) -> np.ndarray:
    """Read-only (r*m, r*m) map from A^T A's term-major entries into its flattened half table.

    The half table of r terms and m basis functions holds the products
    sum_n E_l E_l' psi_j psi_j' for l <= l' and j <= j' only, rows in
    np.triu_indices(r) order and columns in np.triu_indices(m) order; entry
    (l*m + j, l'*m + j') of A^T A reads the table at the pair it sorts to,
    so the expanded matrix is exactly symmetric.
    """
    def pairs(k):
        out = np.empty((k, k), dtype=np.intp)
        rows, cols = np.triu_indices(k)
        out[rows, cols] = out[cols, rows] = np.arange(len(rows))
        return out

    q = m * (m + 1) // 2
    index = (pairs(r)[:, None, :, None] * q + pairs(m)[None, :, None, :]).reshape(r * m, r * m)
    index.flags.writeable = False
    return index


def _converged(trace: list) -> bool:
    """Whether the last sweep lowered the residual by less than _SWEEP_TOL relative, or raised it."""
    return len(trace) > 1 and trace[-2] > 0.0 and (trace[-2] - trace[-1]) / trace[-2] < _SWEEP_TOL


class _Fitter:
    """Workspace for one fit: cached basis products and a stack of models.

    psi_t (d, M+1, N) holds the basis values, psi_half (d, N, (M+1)(M+2)/2)
    their products psi_j psi_j' for j <= j' in np.triu_indices order,
    psi_u (d, N, M+1) the values times the outputs, and uu the outputs'
    squared norm: what the factors do not change.
    coeffs (B, d, r, M+1), scales (B, r) and the term-major factor values
    (B, d, r, N) hold B models of the same data, _monotone_prev (B,) the
    last unregularized residual of each, NaN when there is none to compare
    with, and rngs (B,) the Generator each model re-draws its collapsed terms
    from. B is the number of racing candidates, and 1 otherwise. Candidates
    are drawn from rng = default_rng(SeedSequence(seed)), and each gets a
    re-draw stream spawned from that SeedSequence; a lone model re-draws from
    rng. The outputs are fitted as u * 2^-exp with max |u| * 2^-exp in
    [0.5, 1); scales, residuals and sigma-hat are mapped back by 2^exp.
    jittered_solves and redrawn_terms count the current rank's jittered
    slice solves and re-drawn terms.
    """

    def __init__(self, data: SampleSet, config: FitConfig, seed: int):
        self.config = config
        self.seed_seq = np.random.SeedSequence(seed)
        self.rng = np.random.default_rng(self.seed_seq)
        self.basis = BasisSpec(data.family, config.degree)
        self.n = data.n
        self.d = data.dims
        self.m1 = config.degree + 1
        psi = np.ascontiguousarray(np.swapaxes(eval_basis_batch(self.basis, data.inputs), 0, 1))
        self.psi_t = np.ascontiguousarray(psi.swapaxes(1, 2))
        rows, cols = np.triu_indices(self.m1)
        self.psi_half = psi[..., rows] * psi[..., cols]
        self.exp = int(np.frexp(np.max(np.abs(data.outputs)))[1])
        self.u = np.ldexp(data.outputs, -self.exp)
        self.psi_u = psi * self.u[:, None]
        self.uu = float(self.u @ self.u)
        self.u_norm = empirical_norm(self.u) if np.any(self.u) else 1.0
        self.jittered_solves = self.redrawn_terms = 0
        self._use(self._stack(np.zeros((1, self.d, 0, self.m1)), np.zeros((1, 0)),
                              np.array([self.rng])))

    # -- state management -------------------------------------------------

    def _stack(self, coeffs, scales, rngs):
        """A stack of models: their factor values and no residual to compare with yet."""
        return coeffs, scales, coeffs @ self.psi_t, np.full(len(coeffs), np.nan), rngs

    def _use(self, stack):
        """Make (coeffs, scales, factors, monotone residuals, re-draw streams) the live stack."""
        self.coeffs, self.scales, self.factors, self._monotone_prev, self.rngs = stack

    def unscaled(self, residual) -> float:
        return float(np.ldexp(residual, self.exp))

    def kept_states(self, solves: list, p: int = 0) -> list:
        """Model p's direction-solve states in the data's units, from a sweep's direction solves."""
        return [None if s[1] is None else _regularization_state(s, p, self.n, self.exp)
                for s in solves]

    def model(self) -> SeparatedModel:
        """Model 0 of the stack, in the data's units."""
        return SeparatedModel(
            self.basis, np.ldexp(self.scales[0], self.exp), self.coeffs[0].copy()
        )

    def _draw_factor(self, rng, k: int) -> np.ndarray:
        """A new term's direction-k coefficients from rng: unit constant plus noise, unit norm."""
        draw = _INIT_PERTURBATION * rng.standard_normal(self.m1)
        draw[0] += 1.0
        nrm = empirical_norm(draw @ self.psi_t[k])
        if nrm == 0.0:
            raise DegenerateFactorError("drawn initial factor has zero empirical norm")
        return draw / nrm

    def _draw_candidates(self, coeffs0: np.ndarray, scales0: np.ndarray, width: int):
        """A stack of `width` copies of one model, each grown by a term drawn in stack order.

        The new term has scale 1. Each copy gets its own re-draw stream,
        spawned in stack order.
        """
        r = coeffs0.shape[1] + 1
        coeffs = np.empty((width, self.d, r, self.m1))
        coeffs[:, :, :-1] = coeffs0
        scales = np.empty((width, r))
        scales[:, :-1] = scales0
        scales[:, -1] = 1.0
        for b in range(width):
            for k in range(self.d):
                coeffs[b, k, -1] = self._draw_factor(self.rng, k)
        rngs = np.array([np.random.default_rng(s) for s in self.seed_seq.spawn(width)])
        return self._stack(coeffs, scales, rngs)

    def _revive(self, k: int, alive):
        """Re-draw each model's dead direction-k terms from its own stream, counting them."""
        for b in np.flatnonzero(~alive.all(axis=1)):
            for l in np.flatnonzero(~alive[b]):
                self.coeffs[b, k, l] = self._draw_factor(self.rngs[b], k)
                self.factors[b, k, l] = self.coeffs[b, k, l] @ self.psi_t[k]
                self.redrawn_terms += 1
            self._monotone_prev[b] = np.nan

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

        Each direction's normal equations come from the factors: with E_l the
        term scale times the product of term l's other factors, A^T A is
        sum_n (E_l E_l')(psi_j psi_j') and A^T u is sum_n E_l psi_j u, so no
        design matrix is formed. A^T A is symmetric, so only its l <= l',
        j <= j' blocks are computed, as one product of the E_l E_l' rows with
        the half table psi_half, and expanded by _half_index. The normal
        equations of all directions are checked once, after the last one;
        an error that ends the sweep earlier first checks those already
        solved, so an earlier direction's failed normal equation is the
        error raised, with the interrupting error as its context. Returns
        (residual per model, in the fitted units, and per direction the
        (c, raw, rn2) of its solve, which kept_states turns into states); the
        normal matrices A^T A and A^T u do not outlive the sweep.
        """
        penalty = self.config.penalty
        coeffs, scales, factors = self.coeffs, self.scales, self.factors
        nb, d, r, m1 = coeffs.shape
        n = self.n
        grams = coeffs @ coeffs.swapaxes(-1, -2)
        suf_f = np.empty((d, nb, r, n))
        suf_g = np.empty((d, nb, r, r))
        suf_f[d - 1] = 1.0
        suf_g[d - 1] = 1.0
        for k in range(d - 2, -1, -1):
            np.multiply(suf_f[k + 1], factors[:, k + 1], out=suf_f[k])
            np.multiply(suf_g[k + 1], grams[:, k + 1], out=suf_g[k])
        left_f = np.ones((nb, r, n))
        left_g = np.ones((nb, r, r))
        rows, cols = np.triu_indices(r)
        index = _half_index(r, m1)
        solves = []
        try:
            for k in range(d):
                E = left_f * suf_f[k] * scales[..., None]
                EE = E.take(rows, 1)
                EE *= E.take(cols, 1)
                AtA = (EE @ self.psi_half[k]).reshape(nb, -1).take(index, 1)
                Atu = (E @ self.psi_u[k]).reshape(nb, r * m1)
                if penalty == "none":
                    G = None
                elif penalty == "diag_scale":
                    G = np.zeros((nb, r, r))
                    G[:, np.arange(r), np.arange(r)] = scales**2
                else:
                    G = scales[:, :, None] * scales[:, None, :] * left_g * suf_g[k]
                c, raw = _direction_solve(AtA, Atu, self.uu, n, G, m1)
                self.jittered_solves += 0 if raw is None else int(np.count_nonzero(raw[5]))
                cmat = c.reshape(nb, r, m1)
                vals = cmat @ self.psi_t[k]
                rn2 = _rowdot(np.add.reduce(E * vals, axis=1) - self.u)
                solves.append((AtA, Atu, c, raw, rn2))
                if G is None:
                    self._check_monotone(np.sqrt(rn2 / n))
                norms = np.sqrt(np.add.reduce(vals * vals, axis=-1) / n)
                # a term dies when its norm, or its scale times that norm,
                # reaches zero: decaying terms of over-ranked fits underflow
                # to scale 0. A dead term keeps its scale and is re-drawn.
                alive = scales * norms != 0.0
                all_alive = alive.all()
                if not all_alive:
                    norms = np.where(alive, norms, 1.0)
                scales *= norms
                np.divide(cmat, norms[..., None], out=coeffs[:, k])
                np.divide(vals, norms[..., None], out=factors[:, k])
                if not all_alive:
                    self._revive(k, alive)
                ck = coeffs[:, k]
                grams[:, k] = ck @ ck.swapaxes(-1, -2)
                left_g *= grams[:, k]
                left_f *= factors[:, k]
        finally:
            _check_normal_equations(solves)
        return np.sqrt(rn2 / n), [s[2:] for s in solves]

    def _race(self, stack, traces: list, cap: int) -> list:
        """Sweep a stack of models until each converges or its trace holds cap residuals.

        All traces have one length, below cap. A model leaves when it
        converges or its trace reaches cap, as a copy of its arrays: the last
        live model moves into its slot, so the kernel always sweeps the
        leading block of the arrays and no sweep copies them. Collapsed terms
        are re-drawn inside the stack, and an error in any slice ends the
        race. Returns per model (its last sweep's direction solves and its
        slot in them, converged, its own arrays as a stack of one).
        """
        slot = list(range(len(traces)))
        out = [None] * len(traces)
        live = len(traces)
        while live:
            self._use(tuple(a[:live] for a in stack))
            resid, solves = self.sweep_once()
            at_cap = len(traces[slot[0]]) + 1 >= cap
            for p in reversed(range(live)):
                i = slot[p]
                traces[i].append(float(resid[p]))
                converged = _converged(traces[i])
                if converged or at_cap:
                    out[i] = ((solves, p), converged, tuple(a[p:p + 1].copy() for a in stack))
                    live -= 1
                    for a in stack:
                        a[p] = a[live]
                    slot[p] = slot[live]
        return out

    def run_rank(self) -> RankRecord:
        """Grow by one term, race seeded candidates, converge the winner.

        All _CANDIDATES candidates burn in as one stack. The winner has the
        lowest burn-in residual; ties go to the earliest draw.
        """
        cfg = self.config
        self.jittered_solves = self.redrawn_terms = 0
        width = _CANDIDATES
        burn = min(_BURN_SWEEPS, cfg.max_sweeps_per_rank)
        traces = [[] for _ in range(width)]
        results = self._race(self._draw_candidates(self.coeffs[0], self.scales[0], width),
                             traces, burn)
        best = min(range(width), key=lambda i: traces[i][-1])
        trace = traces[best]
        last, converged, stack = results[best]
        if not converged and len(trace) < cfg.max_sweeps_per_rank:
            [(last, converged, stack)] = self._race(stack, [trace], cfg.max_sweeps_per_rank)
        self._use(stack)
        return RankRecord(
            rank=self.coeffs.shape[2],
            residual_trace=[self.unscaled(x) for x in trace],
            reg_states=self.kept_states(*last),
            candidate=best,
            converged=converged,
            jittered_solves=self.jittered_solves,
            redrawn_terms=self.redrawn_terms,
            model=self.model(),
        )


def _user_stacklevel() -> int:
    """stacklevel for a warning from this function's caller: its first frame outside seprep."""
    prefix = __name__.partition(".")[0] + "."
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get("__name__", "").startswith(prefix):
        frame, level = frame.f_back, level + 1
    return level


def fit_fixed(data: SampleSet, r: int, config: FitConfig, init_seed: int, *, stop=None):
    """Fit with ranks growing 1..r; returns (the last rank record's model, diagnostics).

    Each rank keeps sweeping until the relative residual decrease over a full
    sweep falls below _SWEEP_TOL or the sweep cap is reached. The
    per-rank diagnostics carry the final sweep's regularization records,
    which rank/degree selection consumes. stop, if given, is called after
    each rank with the list of RankRecords fitted so far, in rank order;
    when it returns True the fit ends at that rank, and the model and
    diagnostics are those of the ranks fitted so far.
    The first rank fitted whose direction solves have more unknowns,
    rank * (degree + 1), than the data has samples warns once, naming the
    first caller outside this package (a select_model call, say, not
    selection.py); ranks a stop leaves unfitted never warn. The fit logs
    nothing: its records count the Gram jitter and term re-draws it needed.
    """
    _check_count("r", r, 1)
    _check_count("init_seed", init_seed, 0)
    m1 = config.degree + 1
    fitter = _Fitter(data, config, init_seed)
    records = []
    for rank in range(1, r + 1):
        if (rank - 1) * m1 <= data.n < rank * m1:
            warnings.warn(
                f"sample count {data.n} is below the direction-solve unknown count "
                f"{rank * m1} of rank {rank}; expect an underdetermined fit",
                stacklevel=_user_stacklevel(),
            )
        records.append(fitter.run_rank())
        if stop is not None and stop(records):
            break
    return records[-1].model, FitDiagnostics(per_rank=records)
