"""Second-moment Tikhonov regularization with GCV-selected strength.

The penalty factor of one direction solve is L = R (x) I, with R the upper
Cholesky factor of the r x r term Gram matrix and I the identity on the
m-function basis, so ||L c||^2 equals the surrogate's second moment as a
function of that direction's coefficients, and L^-1 = R^-1 (x) I. This is
the standard-form transformation of Tikhonov regularization (Hansen,
Rank-Deficient and Discrete Ill-Posed Problems, 1998). The regularization
parameter is picked by generalized cross validation (Golub, Heath & Wahba,
1979) on a logarithmic grid: the largest generalized singular value of
(A, L) times a fixed unit grid.

Everything here works on a stack of direction solves, given by their
normal-equation pieces: A^T A (B, r*m, r*m) and A^T u (B, r*m) of B design
matrices A with N rows on shared outputs u, and u . u. No design matrix is
needed. R is (B, r, r), and every result has one row per slice, with the
bits that slice would get as a stack of one. A single solve is the case B = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, InvariantError, SelectionError

__all__ = ["RegularizationState", "TikhonovPath", "GcvResult", "gcv_select_lambda"]

# Lower end of the lambda grid, relative to the largest generalized singular
# value. Calibrated so GCV cannot collapse into the effectively-unregularized
# corner on near-noiseless data, which would leave the error indicator
# floor-dominated and meaningless.
_LAMBDA_FLOOR = 5e-2
_LAMBDA_GRID_SIZE = 50  # GCV grid points per direction solve


def _unit_grid(floor: float) -> tuple:
    """Read-only np.geomspace(floor, 1.0, _LAMBDA_GRID_SIZE) and its squares and fourth powers."""
    grid = np.geomspace(floor, 1.0, _LAMBDA_GRID_SIZE)
    powers = (grid, grid * grid, (grid * grid) ** 2)
    for a in powers:
        a.flags.writeable = False
    return powers


_UNIT_GRID = _unit_grid(_LAMBDA_FLOOR)  # every GCV grid is gamma_max times this one


@dataclass
class RegularizationState:
    """Outcome of regularizing one direction solve.

    grid_index is lambda's position on its GCV grid and grid_position names
    it: "floor" (the first point), "ceiling" (the last) or "interior".
    error_indicator is +inf where it is undefined: a zero lambda or
    coefficient vector, no degrees of freedom left for sigma-hat, or a
    term Gram matrix whose least eigenvalue is not positive.
    """

    lambda_: float
    sigma_hat: float
    error_indicator: float
    hat_trace: float
    grid_index: int

    @property
    def grid_position(self) -> str:
        if self.grid_index == 0:
            return "floor"
        return "ceiling" if self.grid_index == _LAMBDA_GRID_SIZE - 1 else "interior"


class TikhonovPath:
    """Shared factorization of (A_b, R_b (x) I) for cheap evaluation along a lambda grid.

    AtA (B, r*m, r*m) and Atu (B, r*m) are the normal-equation pieces of
    designs A_b with n_rows rows and r * m term-major columns on shared
    outputs u, uu is u . u, and R the (B, r, r) upper-triangular factors; a
    generic dense upper-triangular L is the case m = 1. Each slice reduces
    to a ridge path in the transformed variable w = L c: one symmetric
    eigendecomposition of (A L^-1)^T (A L^-1) = L^-T A^T A L^-1 prices every
    lambda at O(n) for traces and residuals and O(n^2) for coefficient
    vectors. L^-1 = R^-1 (x) I is never formed: R^-1 acts on the term axis
    of the (term, basis function) index, as R^-T on A^T A's rows, on its
    transposed result's rows (A^T A is taken as symmetric), and on A^T u,
    and as R^-1 on the solution. eigh reads the lower triangle of the
    transformed matrix, which is symmetric up to rounding. Every array below
    has the leading slice axis.
    """

    def __init__(self, AtA: np.ndarray, Atu: np.ndarray, uu: float, n_rows: int,
                 R: np.ndarray, m: int):
        nb, r = len(R), R.shape[-1]
        p = r * m
        if AtA.shape[-1] != p:
            raise ValueError(f"normal matrix has {AtA.shape[-1]} columns, expected {r} x {m}")
        self.n_rows = n_rows
        self.Rinv = np.linalg.inv(R)
        RinvT = self.Rinv.swapaxes(-1, -2)
        # L^-T A^T A, then L^-T (L^-T A^T A)^T = L^-T A^T A L^-1
        XtX = (RinvT @ AtA.reshape(nb, r, m * p)).reshape(nb, p, p)
        XtX = (RinvT @ XtX.swapaxes(-1, -2).reshape(nb, r, m * p)).reshape(nb, p, p)
        try:
            w, V = np.linalg.eigh(XtX)
        except np.linalg.LinAlgError:
            raise ConditioningError(
                "eigendecomposition of the transformed normal matrix did not converge"
            ) from None
        # L^-1 stays a product of its own, not folded into V: L^-1 V lost up
        # to 2.4x in normal-equation residual as the term Gram neared singular
        self.sv2 = np.maximum(w[..., ::-1], 0.0)
        self.V = V[..., ::-1]
        Ltu = RinvT @ Atu.reshape(nb, r, m)
        self.z = (self.V.swapaxes(-1, -2) @ Ltu.reshape(nb, p, 1))[..., 0]
        self.b2 = np.divide(self.z * self.z, self.sv2, out=np.zeros(self.sv2.shape),
                            where=self.sv2 > 0.0)
        self.perp2 = np.maximum(uu - np.add.reduce(self.b2, -1), 0.0)

    def solve(self, lam: np.ndarray) -> np.ndarray:
        """Coefficients solving (A^T A + lam^2 L^T L) c = A^T u for a (B,) array of lambdas."""
        lam = lam[:, None]
        den = self.sv2 + lam * lam
        filt = np.divide(self.z, den, out=np.zeros(den.shape), where=den > 0.0)
        nb, r = self.Rinv.shape[:2]
        w = (self.V @ filt[..., None]).reshape(nb, r, -1)
        return (self.Rinv @ w).reshape(nb, -1)


@dataclass
class GcvResult:
    """The GCV pick of each slice of a path: (B,) picks on a (B, grid size) grid."""

    lambda_: np.ndarray
    hat_trace: np.ndarray
    grid: np.ndarray
    index: np.ndarray


def gcv_select_lambda(path: TikhonovPath) -> GcvResult:
    """Minimize GCV(lambda) = N ||A c - u||^2 / (N - tr H)^2 over a log grid per slice.

    Slice b's grid holds _LAMBDA_GRID_SIZE points spanning
    [_LAMBDA_FLOOR * gamma_max, gamma_max], where gamma_max is the largest
    generalized singular value of (A_b, L_b); zero is excluded so the error
    indicator stays finite whenever selection succeeds. Ties go to the first
    (smallest) grid point. In units of gamma_max^2, with s_i the squared
    generalized singular values and t the unit grid, D = 1 / (s_i + t^2)
    prices the whole grid in two matrix-vector products: tr H = D s and
    ||A c - u||^2 = t^4 (D^2 b2) + perp2, with b2 and perp2 the path's
    squared coefficients of u inside and outside the range of A. The squared
    residual must not fall along the grid.
    """
    sv2 = path.sv2
    if (sv2[:, 0] <= 0.0).any():
        raise SelectionError("design matrix is identically zero; nothing to select")
    unit, unit2, unit4 = _UNIT_GRID
    grid = np.sqrt(sv2[:, :1]) * unit
    s = sv2 / sv2[:, :1]
    D = 1.0 / (s[:, None, :] + unit2[:, None])
    traces = (D @ s[..., None])[..., 0]
    D *= D
    rn2 = unit4 * (D @ path.b2[..., None])[..., 0] + path.perp2[:, None]
    n = path.n_rows
    gcv_values = n * rn2 / (n - traces) ** 2
    if (rn2[:, 1:] < (1.0 - 1e-9) ** 2 * rn2[:, :-1]).any():
        raise InvariantError("residual norm must be non-decreasing in lambda")
    if not np.isfinite(gcv_values).any(axis=-1).all():
        raise SelectionError("GCV is non-finite over the whole lambda grid")
    j = gcv_values.argmin(axis=-1)
    rows = np.arange(len(grid))
    return GcvResult(lambda_=grid[rows, j], hat_trace=traces[rows, j], grid=grid, index=j)
