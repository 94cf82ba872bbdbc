"""Orthonormal univariate polynomial families and their Gauss quadrature rules.

Two families are supported: probabilists' Hermite polynomials, orthonormal
under the standard Gaussian density on the real line, and Legendre
polynomials, orthonormal under the uniform density 1/2 on [-1, 1]. In both
conventions psi_0 == 1 and every psi_a has unit norm in L2 of the weight,
so spectral coefficients are directly comparable across degrees.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["Family", "BasisSpec", "eval_basis_batch", "gauss_quadrature"]


def _check_count(name: str, value, least: int) -> int:
    """The one count rule: an integer >= least, returned as a Python int; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


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
        _check_count("max_degree", self.max_degree, 0)

    @property
    def size(self) -> int:
        return self.max_degree + 1


def _check_domain(family: Family, y: np.ndarray) -> None:
    if y.size == 0:
        return
    # one min and one max pass; NaN propagates through both, so it fails
    # each comparison and lands in the slow path that words the error
    lo, hi = y.min(), y.max()
    if family is Family.LEGENDRE:
        if -1.0 <= lo and hi <= 1.0:
            return
        bad = y[(y < -1.0) | (y > 1.0)]
        if bad.size:
            raise DomainError(
                f"Legendre basis requires inputs in [-1, 1]; got value {float(bad.flat[0])}"
            )
    elif np.isfinite(lo) and np.isfinite(hi):
        return
    raise DomainError("basis input must be finite")


@functools.lru_cache(maxsize=32)
def _folded_recurrence(family: Family, M: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(alpha, beta) with psi_{a+1} = alpha[a] * y * psi_a - beta[a] * psi_{a-1}, a = 0..M-1.

    Tuples of Python floats, so the cached constants cannot be written to.
    """
    if family is Family.HERMITE:
        # sqrt(a+1) psi_{a+1} = y psi_a - sqrt(a) psi_{a-1}
        alpha = [1.0 / math.sqrt(a + 1) for a in range(M)]
        beta = [math.sqrt(a / (a + 1)) for a in range(M)]
    else:
        # psi_a = sqrt(2a+1) P_a in Bonnet's (a+1) P_{a+1} = (2a+1) y P_a - a P_{a-1}
        alpha = [math.sqrt((2 * a + 1) * (2 * a + 3)) / (a + 1) for a in range(M)]
        beta = [0.0] + [a / (a + 1) * math.sqrt((2 * a + 3) / (2 * a - 1)) for a in range(1, M)]
    return tuple(alpha), tuple(beta)


def eval_basis_batch(spec: BasisSpec, y: np.ndarray) -> np.ndarray:
    """Evaluate psi_0..psi_M at each entry of `y`.

    Parameters
    ----------
    spec : BasisSpec
    y : ndarray
        Evaluation points, any shape; a 0-d y is one point.

    Returns
    -------
    ndarray of shape y.shape + (M+1,)
        Entry [..., a] holds psi_a(y). It is a view of a degree-major
        (M+1,) + y.shape array, so the recurrence reads and writes whole
        contiguous rows; callers that need another layout copy it.

    Each degree step is psi_{a+1} = alpha_a * y * psi_a - beta_a * psi_{a-1},
    with the normalization folded into alpha and beta once per (family, M),
    so all iterates stay O(1) and no post-hoc scaling is needed. A step
    writes straight into its output row through one reusable scratch row:
    four array passes and no temporaries. The fold rounds differently from
    the unfolded recurrence; values stay within 16 (a+1) eps max(1, |psi_a|)
    of the exact ones (tested against mpmath up to degree 12).

    Raises DomainError when an entry is not finite or, for Legendre, lies
    outside [-1, 1].
    """
    y = np.asarray(y, dtype=float)
    _check_domain(spec.family, y)
    M = spec.max_degree
    out = np.empty((M + 1,) + y.shape)
    # out[a, ...], not out[a]: for a 0-d y the latter is a copy, not a view
    out[0, ...] = 1.0
    if M > 0:
        alpha, beta = _folded_recurrence(spec.family, M)
        np.multiply(y, alpha[0], out=out[1, ...])
        scratch = np.empty_like(y)
        for a in range(1, M):
            # (alpha y) psi_a - beta psi_{a-1}: four passes, no temporaries
            np.multiply(y, alpha[a], out=scratch)
            np.multiply(scratch, out[a, ...], out=scratch)
            np.multiply(out[a - 1, ...], beta[a], out=out[a + 1, ...])
            np.subtract(scratch, out[a + 1, ...], out=out[a + 1, ...])
    return np.moveaxis(out, 0, -1)


def gauss_quadrature(spec: BasisSpec, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule with `n_points` nodes for the family's weight, by Golub-Welsch.

    The Jacobi matrix of the (monic) orthogonal family is assembled from the
    recurrence coefficients and diagonalized; nodes are its eigenvalues and
    weights the squared first eigenvector components. Weights sum to one
    because both weights are probability densities, and the rule is exact
    for polynomials up to degree 2*n_points - 1.
    """
    _check_count("n_points", n_points, 1)
    k = np.arange(1, n_points, dtype=float)
    if spec.family is Family.HERMITE:
        beta = np.sqrt(k)
    else:
        beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, -1))
    weights = vecs[0] ** 2
    return nodes, weights
