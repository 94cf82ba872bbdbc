"""Independent oracles the benchmark checks seprep's outputs against.

Each oracle recomputes a result with plain NumPy along a different route
from the library's: a dense finite-element assembly solved with
numpy.linalg.solve, and a separated-model evaluation through
numpy.polynomial.legendre.legval.
"""
from __future__ import annotations

import math

import numpy as np


def relative_rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """RMS of the error over RMS of the truth."""
    err = np.asarray(pred, float) - np.asarray(truth, float)
    return float(np.sqrt(np.mean(err * err)) / np.sqrt(np.mean(np.square(truth))))


def fem_dense_solve(problem, y: np.ndarray) -> float:
    """u(query_point) for one input, by dense P2 assembly and a direct solve.

    The coefficient is rebuilt from the KL eigenpairs at the three Gauss
    points of every element; element matrices come from the closed-form
    derivatives of the quadratic Lagrange shapes on [-1, 1].
    """
    n_el = problem.mesh_elements
    h = 1.0 / n_el
    g = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
    w = np.array([5.0, 8.0, 5.0]) / 9.0
    x = (np.arange(n_el)[:, None] + 0.5 * (g[None, :] + 1.0)) * h
    phi = problem.kl.eigenfunctions(x.ravel())
    amp = problem.sigma_a * np.sqrt(problem.kl.eigenvalues)
    a = (problem.mean_coeff + phi @ (amp * np.asarray(y, float))).reshape(n_el, 3)

    def dshape(xi):
        return np.array([xi - 0.5, -2.0 * xi, xi + 0.5])

    n_nodes = 2 * n_el + 1
    K = np.zeros((n_nodes, n_nodes))
    F = np.zeros(n_nodes)
    f_el = np.array([h / 6.0, 2.0 * h / 3.0, h / 6.0])  # exact P2 load for f = 1
    for e in range(n_el):
        ke = np.zeros((3, 3))
        for q in range(3):
            d = dshape(g[q])
            ke += w[q] * a[e, q] * np.outer(d, d) * (2.0 / h)
        idx = slice(2 * e, 2 * e + 3)
        K[idx, idx] += ke
        F[idx] += f_el
    u = np.zeros(n_nodes)
    u[1:-1] = np.linalg.solve(K[1:-1, 1:-1], F[1:-1])
    e = min(int(problem.query_point / h), n_el - 1)
    xi = 2.0 * (problem.query_point - e * h) / h - 1.0
    shape = np.array([xi * (xi - 1.0) / 2.0, 1.0 - xi * xi, xi * (xi + 1.0) / 2.0])
    return float(shape @ u[2 * e:2 * e + 3])


def legendre_model_values(scales, coeffs, points) -> np.ndarray:
    """Evaluate sum_l s_l prod_k u_k^l(y_k) with orthonormal Legendre factors.

    psi_a = sqrt(2a + 1) P_a, so each factor is a legval of the rescaled
    coefficient row.
    """
    points = np.asarray(points, float)
    d, r, m1 = coeffs.shape
    norm = np.sqrt(2.0 * np.arange(m1) + 1.0)
    out = np.zeros(points.shape[0])
    for l in range(r):
        term = np.full(points.shape[0], float(scales[l]))
        for k in range(d):
            term *= np.polynomial.legendre.legval(points[:, k], coeffs[k, l] * norm)
        out += term
    return out
