"""Second-moment Tikhonov regularization with GCV-selected strength.

The penalty factor of one direction solve is L = R (x) I, with R the upper
Cholesky factor of the r x r term Gram matrix and I the identity on the
m-function basis, so ||L c||^2 equals the surrogate's second moment as a
function of that direction's coefficients. L^-1 therefore acts on the term
axis only: a triangular solve with R on the coefficients reshaped to
(r, m). This is the standard-form transformation of Tikhonov regularization
(Hansen, Rank-Deficient and Discrete Ill-Posed Problems, 1998). The
regularization parameter is picked by generalized cross validation on a
logarithmic grid spanned by the generalized singular values of (A, L).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dtrtrs

from .errors import ConditioningError, InvariantError, SelectionError

__all__ = [
    "RegularizationState",
    "TikhonovPath",
    "GcvResult",
    "gcv_select_lambda",
    "DEFAULT_LAMBDA_FLOOR",
]

# Lower end of the lambda grid, relative to the largest generalized singular
# value. Calibrated so GCV cannot collapse into the effectively-unregularized
# corner on near-noiseless data, which would leave the error indicator
# floor-dominated and meaningless.
DEFAULT_LAMBDA_FLOOR = 5e-2


@dataclass
class RegularizationState:
    """Outcome of regularizing one direction solve.

    grid_index is lambda's position on its GCV grid and grid_position names
    it: "floor" (the first point), "ceiling" (the last) or "interior".
    """

    lambda_: float
    sigma_hat: float
    error_indicator: float
    hat_trace: float
    grid_index: int
    grid_position: str


def _grid_position(index: int, grid_size: int) -> str:
    """"floor", "ceiling" or "interior" for a point of a grid_size-point grid."""
    if index == 0:
        return "floor"
    return "ceiling" if index == grid_size - 1 else "interior"


def _check_finite(AtA: np.ndarray, Atu: np.ndarray) -> None:
    """Fail on factor overflow: a non-finite entry of A makes diag(A^T A) non-finite."""
    diag = np.diagonal(AtA, axis1=-2, axis2=-1)
    if not (np.isfinite(diag).all() and np.isfinite(Atu).all()):
        raise ConditioningError("design matrix contains non-finite entries (factor overflow)")


def _triangular_solve(R: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """R^-1 b (trans 0) or R^-T b (trans 1) for upper-triangular R, straight through LAPACK."""
    x, info = dtrtrs(R, b, lower=0, trans=trans)
    if info != 0:
        raise LinAlgError(f"triangular solve failed (LAPACK info {info})")
    return x


def _along(x: np.ndarray, extra: int) -> np.ndarray:
    """x with `extra` unit axes inserted before its last axis."""
    return x.reshape(x.shape[:-1] + (1,) * extra + x.shape[-1:])


class TikhonovPath:
    """Shared factorization of (A, R (x) I) for cheap evaluation along a lambda grid.

    R is the r x r upper-triangular factor and m the basis size, so A has
    r * m columns in term-major order; a generic dense upper-triangular L is
    the case m = 1. The problem reduces to a ridge path in the transformed
    variable w = L c: one symmetric eigendecomposition of (A L^-1)^T (A L^-1)
    prices every lambda at O(n) for traces and residuals and O(n^2) for
    coefficient vectors.

    A (B, n, r*m) and R (B, r, r) may carry one leading batch axis, in
    NumPy's stacked-matrix style: each slice is its own path on the shared
    outputs u, and every array below keeps that axis. A slice gets the
    same bits as the path of that slice alone.
    """

    def __init__(self, A: np.ndarray, u: np.ndarray, R: np.ndarray, m: int):
        A = np.asarray(A, dtype=float)
        u = np.asarray(u, dtype=float).ravel()
        if A.shape[-1] != R.shape[-1] * m:
            raise ValueError(
                f"design matrix has {A.shape[-1]} columns, expected {R.shape[-1]} x {m}"
            )
        self.R = R
        self.batch = A.shape[:-2]
        self.n_rows = A.shape[-2]
        At = np.swapaxes(A, -1, -2)
        AtA = At @ A
        Atu = At @ u
        _check_finite(AtA, Atu)
        self.AtA = AtA
        self.Atu = Atu
        XtX = self._l_solve(self._l_solve(AtA, 1), 1, transposed=True)
        try:
            w, V = np.linalg.eigh(0.5 * (XtX + np.swapaxes(XtX, -1, -2)))
        except LinAlgError:
            raise ConditioningError(
                "eigendecomposition of the transformed normal matrix did not converge"
            ) from None
        self.sv2 = np.clip(w[..., ::-1], 0.0, None)
        self.V = V[..., ::-1]
        self.z = (np.swapaxes(self.V, -1, -2) @ self._l_solve(Atu, 1)[..., None])[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.b2 = np.where(self.sv2 > 0.0, self.z * self.z / self.sv2, 0.0)
        self.perp2 = np.maximum(float(u @ u) - self.b2.sum(axis=-1), 0.0)

    def _l_solve(self, X: np.ndarray, trans: int, transposed: bool = False) -> np.ndarray:
        """L^-1 X (trans 0) or L^-T X (trans 1), per slice of the path's batch axis.

        One triangular solve with R on the term axis of X's rows; with
        transposed set, each slice of X is solved as its transpose.
        """
        r = self.R.shape[-1]
        X = X.reshape((-1,) + X.shape[len(self.batch):])
        R = self.R.reshape(-1, r, r)
        out = np.empty(X.shape)
        for i in range(len(X)):
            x = X[i].T if transposed else X[i]
            out[i] = _triangular_solve(R[i], x.reshape(r, -1), trans).reshape(x.shape)
        return out.reshape(self.batch + X.shape[1:])

    @property
    def gamma_max(self):
        """Largest generalized singular value of (A, L), per slice."""
        return np.sqrt(self.sv2[..., 0])

    def _filters(self, lam) -> np.ndarray:
        """Filter factors; lam's shape is the path's batch shape, then any grid axes."""
        lam = np.asarray(lam, dtype=float)
        sv2 = _along(self.sv2, lam.ndim - len(self.batch))
        return sv2 / (sv2 + lam[..., None] ** 2)

    def hat_trace(self, lam):
        """Trace of the hat matrix, elementwise over an array of lambdas."""
        return self._filters(lam).sum(axis=-1)

    def residual_norm(self, lam):
        """||A c_lambda - u||, elementwise over an array of lambdas."""
        return self._residual_norm(lam, self._filters(lam))

    def _residual_norm(self, lam, f):
        extra = np.ndim(lam) - len(self.batch)
        perp2 = np.reshape(self.perp2, self.batch + (1,) * extra)
        return np.sqrt(np.sum((1.0 - f) ** 2 * _along(self.b2, extra), axis=-1) + perp2)

    def solve(self, lam) -> np.ndarray:
        """Coefficients solving (A^T A + lam^2 L^T L) c = A^T u, one lambda per slice."""
        lam = np.asarray(lam, dtype=float)[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            filt = np.where(
                self.sv2 + lam * lam > 0.0, self.z / (self.sv2 + lam * lam), 0.0
            )
        w = (self.V @ filt[..., None])[..., 0]
        return self._l_solve(w, 0)


@dataclass
class GcvResult:
    """The GCV pick of one path; fields carry the path's batch axis."""

    lambda_: float
    hat_trace: float
    grid: np.ndarray
    index: int


def _log_grid(lo, hi, num: int) -> np.ndarray:
    """np.geomspace(lo, hi, num, axis=-1), in its own arithmetic and without its overhead.

    Positive finite endpoints take the same steps as geomspace (log10 of
    the ends, a linspace of the exponents, a power of ten, the ends put
    back), so the grid has the same bits; anything else goes to geomspace.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if num < 2 or not (np.all(lo > 0.0) and np.all(hi > 0.0)):
        return np.geomspace(lo, hi, num, axis=-1)
    log_lo = np.log10(lo)[..., None]
    log_hi = np.log10(hi)[..., None]
    y = np.arange(num, dtype=float) * ((log_hi - log_lo) / (num - 1)) + log_lo
    y[..., -1:] = log_hi
    grid = np.power(10.0, y)
    grid[..., :1] = lo[..., None]
    grid[..., -1:] = hi[..., None]
    return grid


def gcv_select_lambda(
    path: TikhonovPath, grid_size: int = 50, floor_rel: float = DEFAULT_LAMBDA_FLOOR
) -> GcvResult:
    """Minimize GCV(lambda) = N ||A c - u||^2 / (N - tr H)^2 over a log grid.

    The grid spans [floor_rel * gamma_max, gamma_max] where gamma_max is the
    largest generalized singular value of (A, L); zero is excluded so the
    error indicator stays finite whenever selection succeeds. Ties go to the
    first (smallest) grid point. A batched path gets one grid and one pick
    per slice.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    gmax = path.gamma_max
    if np.any(gmax <= 0.0):
        raise SelectionError("design matrix is identically zero; nothing to select")
    grid = _log_grid(floor_rel * gmax, gmax, grid_size)
    filters = path._filters(grid)
    traces = filters.sum(axis=-1)
    residual_norms = path._residual_norm(grid, filters)
    n = path.n_rows
    gcv_values = n * residual_norms**2 / (n - traces) ** 2
    if (np.diff(residual_norms, axis=-1) < -1e-9 * residual_norms[..., :-1] - 1e-300).any():
        raise InvariantError("residual norm must be non-decreasing in lambda")
    if not np.isfinite(gcv_values).any(axis=-1).all():
        raise SelectionError("GCV is non-finite over the whole lambda grid")
    j = np.argmin(gcv_values, axis=-1)
    if grid.ndim == 1:
        return GcvResult(lambda_=float(grid[j]), hat_trace=float(traces[j]), grid=grid,
                         index=int(j))
    rows = np.arange(len(grid))
    return GcvResult(lambda_=grid[rows, j], hat_trace=traces[rows, j], grid=grid, index=j)
