"""Orthonormal univariate polynomial families and their Gauss quadrature rules.

Two families are supported: probabilists' Hermite polynomials, orthonormal
under the standard Gaussian density on the real line, and Legendre
polynomials, orthonormal under the uniform density 1/2 on [-1, 1]. In both
conventions psi_0 == 1 and every psi_a has unit norm in L2 of the weight,
so spectral coefficients are directly comparable across degrees.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError

__all__ = ["Family", "BasisSpec", "eval_basis", "eval_basis_batch", "gauss_quadrature"]


class Family(str, enum.Enum):
    HERMITE = "hermite"
    LEGENDRE = "legendre"


@dataclass(frozen=True)
class BasisSpec:
    """Orthonormal polynomial family together with its maximum degree."""

    family: Family
    max_degree: int

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        M = self.max_degree
        if isinstance(M, bool) or not isinstance(M, (int, np.integer)) or M < 0:
            raise ValueError(f"max_degree must be an integer >= 0, got {M!r}")

    @property
    def size(self) -> int:
        return self.max_degree + 1


def _check_domain(family: Family, y: np.ndarray) -> None:
    if family is Family.LEGENDRE:
        if np.any(y < -1.0) or np.any(y > 1.0):
            bad = y[(y < -1.0) | (y > 1.0)]
            raise DomainError(
                f"Legendre basis requires inputs in [-1, 1]; got value {bad.flat[0]!r}"
            )
    if not np.all(np.isfinite(y)):
        raise DomainError("basis input must be finite")


def eval_basis_batch(spec: BasisSpec, y: np.ndarray) -> np.ndarray:
    """Evaluate psi_0..psi_M at each entry of `y`.

    Parameters
    ----------
    spec : BasisSpec
    y : ndarray
        Evaluation points, any shape.

    Returns
    -------
    ndarray of shape y.shape + (M+1,)
        Entry [..., a] holds psi_a(y). It is a view of a degree-major
        (M+1,) + y.shape array, so the recurrence reads and writes whole
        contiguous rows; callers that need another layout copy it.

    Normalization is applied inside the three-term recurrence, degree by
    degree, so all iterates stay O(1) and no post-hoc scaling is needed.
    """
    y = np.asarray(y, dtype=float)
    _check_domain(spec.family, y)
    M = spec.max_degree
    out = np.empty((M + 1,) + y.shape)
    out[0] = 1.0
    if M > 0 and spec.family is Family.HERMITE:
        # normalized recurrence: sqrt(a+1) psi_{a+1} = y psi_a - sqrt(a) psi_{a-1}
        out[1] = y
        for a in range(1, M):
            out[a + 1] = (y * out[a] - np.sqrt(a) * out[a - 1]) / np.sqrt(a + 1)
    elif M > 0:
        # psi_a = sqrt(2a+1) P_a with the standard Legendre recurrence folded in
        out[1] = np.sqrt(3.0) * y
        for a in range(1, M):
            out[a + 1] = (
                np.sqrt(2 * a + 3)
                * (np.sqrt(2 * a + 1) * y * out[a] - a * out[a - 1] / np.sqrt(2 * a - 1))
                / (a + 1)
            )
    return np.moveaxis(out, 0, -1)


def eval_basis(spec: BasisSpec, y: float) -> np.ndarray:
    """Evaluate the orthonormal family at a single point; returns a vector of length M+1."""
    return eval_basis_batch(spec, np.asarray(float(y)))


def gauss_quadrature(spec: BasisSpec, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule with `n_points` nodes for the family's weight, by Golub-Welsch.

    The Jacobi matrix of the (monic) orthogonal family is assembled from the
    recurrence coefficients and diagonalized; nodes are its eigenvalues and
    weights the squared first eigenvector components. Weights sum to one
    because both weights are probability densities, and the rule is exact
    for polynomials up to degree 2*n_points - 1.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    if n_points == 1:
        return np.zeros(1), np.ones(1)
    k = np.arange(1, n_points, dtype=float)
    if spec.family is Family.HERMITE:
        beta = np.sqrt(k)
    else:
        beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = eigh_tridiagonal(np.zeros(n_points), beta)
    weights = vecs[0] ** 2
    return nodes, weights
