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
from scipy.linalg import LinAlgError, solve_triangular

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
    """Outcome of regularizing one direction solve."""

    lambda_: float
    sigma_hat: float
    error_indicator: float
    hat_trace: float


def _check_finite(AtA: np.ndarray, Atu: np.ndarray) -> None:
    """Fail on factor overflow: a non-finite entry of A makes diag(A^T A) non-finite."""
    if not (np.all(np.isfinite(AtA.diagonal())) and np.all(np.isfinite(Atu))):
        raise ConditioningError("design matrix contains non-finite entries (factor overflow)")


class TikhonovPath:
    """Shared factorization of (A, R (x) I) for cheap evaluation along a lambda grid.

    R is the r x r upper-triangular factor and m the basis size, so A has
    r * m columns in term-major order; a generic dense upper-triangular L is
    the case m = 1. The problem reduces to a ridge path in the transformed
    variable w = L c: one symmetric eigendecomposition of (A L^-1)^T (A L^-1)
    prices every lambda at O(n) for traces and residuals and O(n^2) for
    coefficient vectors.
    """

    def __init__(self, A: np.ndarray, u: np.ndarray, R: np.ndarray, m: int):
        A = np.asarray(A, dtype=float)
        u = np.asarray(u, dtype=float).ravel()
        if A.shape[1] != R.shape[0] * m:
            raise ValueError(
                f"design matrix has {A.shape[1]} columns, expected {R.shape[0]} x {m}"
            )
        self.R = R
        self.n_rows = A.shape[0]
        AtA = A.T @ A
        Atu = A.T @ u
        _check_finite(AtA, Atu)
        self.AtA = AtA
        self.Atu = Atu
        XtX = self._l_inv_t(self._l_inv_t(AtA).T)
        try:
            w, V = np.linalg.eigh(0.5 * (XtX + XtX.T))
        except LinAlgError:
            raise ConditioningError(
                "eigendecomposition of the transformed normal matrix did not converge"
            ) from None
        self.sv2 = np.clip(w[::-1], 0.0, None)
        self.V = V[:, ::-1]
        self.z = self.V.T @ self._l_inv_t(Atu)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.b2 = np.where(self.sv2 > 0.0, self.z * self.z / self.sv2, 0.0)
        self.perp2 = max(float(u @ u) - float(self.b2.sum()), 0.0)

    def _l_inv_t(self, X: np.ndarray) -> np.ndarray:
        """L^-T X, as one triangular solve with R on the term axis of X's rows."""
        r = self.R.shape[0]
        Y = solve_triangular(
            self.R, X.reshape(r, -1), trans="T", lower=False, check_finite=False
        )
        return Y.reshape(X.shape)

    @property
    def gamma_max(self) -> float:
        """Largest generalized singular value of (A, L)."""
        return float(np.sqrt(self.sv2[0]))

    def _filters(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)[..., None]
        return self.sv2 / (self.sv2 + lam**2)

    def hat_trace(self, lam):
        """Trace of the hat matrix, elementwise over an array of lambdas."""
        return self._filters(lam).sum(axis=-1)

    def residual_norm(self, lam):
        """||A c_lambda - u||, elementwise over an array of lambdas."""
        f = self._filters(lam)
        return np.sqrt(np.sum((1.0 - f) ** 2 * self.b2, axis=-1) + self.perp2)

    def solve(self, lam: float) -> np.ndarray:
        """Coefficients solving (A^T A + lam^2 L^T L) c = A^T u."""
        with np.errstate(divide="ignore", invalid="ignore"):
            filt = np.where(
                self.sv2 + lam * lam > 0.0, self.z / (self.sv2 + lam * lam), 0.0
            )
        r = self.R.shape[0]
        w = (self.V @ filt).reshape(r, -1)
        return solve_triangular(self.R, w, lower=False, check_finite=False).ravel()


@dataclass
class GcvResult:
    lambda_: float
    hat_trace: float
    grid: np.ndarray


def gcv_select_lambda(
    path: TikhonovPath, grid_size: int = 50, floor_rel: float = DEFAULT_LAMBDA_FLOOR
) -> GcvResult:
    """Minimize GCV(lambda) = N ||A c - u||^2 / (N - tr H)^2 over a log grid.

    The grid spans [floor_rel * gamma_max, gamma_max] where gamma_max is the
    largest generalized singular value of (A, L); zero is excluded so the
    error indicator stays finite whenever selection succeeds. Ties go to the
    first (smallest) grid point.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    gmax = path.gamma_max
    if gmax <= 0.0:
        raise SelectionError("design matrix is identically zero; nothing to select")
    grid = np.geomspace(floor_rel * gmax, gmax, grid_size)
    traces = path.hat_trace(grid)
    residual_norms = path.residual_norm(grid)
    n = path.n_rows
    gcv_values = n * residual_norms**2 / (n - traces) ** 2
    if np.any(np.diff(residual_norms) < -1e-9 * residual_norms[:-1] - 1e-300):
        raise InvariantError("residual norm must be non-decreasing in lambda")
    if not np.any(np.isfinite(gcv_values)):
        raise SelectionError("GCV is non-finite over the whole lambda grid")
    j = int(np.argmin(gcv_values))
    return GcvResult(lambda_=float(grid[j]), hat_trace=float(traces[j]), grid=grid)
