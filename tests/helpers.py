"""Independent oracles shared across test modules.

Everything here is deliberately naive (loops, brute force, quadrature) so
the library paths are checked against genuinely different computations.
"""
import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular

from seprep.basis import BasisSpec, eval_basis, gauss_quadrature
from seprep.errors import DegenerateModelError
from seprep.model import SeparatedModel


def naive_evaluate(model, y):
    """Triple-loop evaluation of the separated representation."""
    total = 0.0
    for l in range(model.rank):
        term = model.scales[l]
        for k in range(model.dims):
            psi = eval_basis(model.basis, y[k])
            factor = 0.0
            for a in range(model.basis.size):
                factor += model.coeffs[k, l, a] * psi[a]
            term *= factor
        total += term
    return total


def naive_exclusion(table, k):
    """Per-row product over all dimensions but k."""
    d, n, r = table.shape
    out = np.ones((n, r))
    for i in range(d):
        if i != k:
            out *= table[i]
    return out


def quadrature_l2_distance(model_a, model_b):
    """Relative L2 distance via a full tensor-product Gauss rule.

    Exact for polynomial surrogates; only usable for small dimension counts.
    """
    assert model_a.dims == model_b.dims
    M = max(model_a.basis.max_degree, model_b.basis.max_degree)
    nodes, weights = gauss_quadrature(model_a.basis, M + 1)
    d = model_a.dims
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * d), indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    from seprep.model import evaluate_batch

    va = evaluate_batch(model_a, points)
    vb = evaluate_batch(model_b, points)
    num = float(np.sum(w * (va - vb) ** 2))
    den = float(np.sum(w * vb**2))
    return np.sqrt(num / den)


def mc_model_moments(model, n, seed, power=1, chunk=1_000_000):
    """Chunked Monte Carlo estimate of E[u^power] with its standard error."""
    from seprep.basis import Family
    from seprep.model import evaluate_batch

    rng = np.random.default_rng(seed)
    total = 0.0
    total2 = 0.0
    done = 0
    while done < n:
        m = min(chunk, n - done)
        if model.basis.family is Family.HERMITE:
            pts = rng.standard_normal((m, model.dims))
        else:
            pts = rng.uniform(-1.0, 1.0, (m, model.dims))
        vals = evaluate_batch(model, pts) ** power
        total += vals.sum()
        total2 += (vals**2).sum()
        done += m
    mean = total / n
    var = max(total2 / n - mean**2, 0.0)
    return mean, np.sqrt(var / n)


def random_model(rng, dims, rank, degree, family="hermite"):
    """Seeded random model with positive scales and O(1) coefficients."""
    basis = BasisSpec(family, degree)
    scales = np.exp(0.5 * rng.standard_normal(rank))
    coeffs = rng.standard_normal((dims, rank, degree + 1))
    return SeparatedModel(basis, scales, coeffs)


def naive_second_moment_quadratic_form(model, k, c):
    """Expand E[u^2] directly as a quadratic form in direction k's coefficients.

    c has shape (rank, degree+1); all other directions come from the model.
    """
    r = model.rank
    total = 0.0
    for l in range(r):
        for lp in range(r):
            term = model.scales[l] * model.scales[lp]
            term *= float(c[l] @ c[lp])
            for i in range(model.dims):
                if i == k:
                    continue
                term *= float(model.coeffs[i, l] @ model.coeffs[i, lp])
            total += term
    return total


def explicit_hat_matrix(A, L, lam):
    n = A.shape[1]
    M = A.T @ A + lam**2 * (L.T @ L)
    return A @ np.linalg.solve(M, A.T)


def fit_residual_on(data, model):
    from seprep.model import evaluate_batch

    pred = evaluate_batch(model, data.inputs)
    return float(np.sqrt(np.mean((data.outputs - pred) ** 2)))


# -- dense reference path for one regularized direction solve -----------------
# The library applies the penalty factor chol(G) (x) I on the term axis only;
# these build the dense matrices and norms explicitly.


def build_B(model, k):
    """Second-moment quadratic form for direction k, expanded term by term.

    Block (l, l') is s_l s_l' prod_{i != k} <u_i^l, u_i^l'> times the identity,
    so that c^T B c equals the surrogate second moment when c holds direction
    k's stacked coefficients (term-major, as in the design matrix).
    """
    if not 0 <= k < model.dims:
        raise ValueError(f"direction {k} out of range for {model.dims} dims")
    r = model.rank
    G = np.empty((r, r))
    for l in range(r):
        for lp in range(r):
            g = model.scales[l] * model.scales[lp]
            for i in range(model.dims):
                if i != k:
                    g *= float(model.coeffs[i, l] @ model.coeffs[i, lp])
            G[l, lp] = g
    return np.kron(G, np.eye(model.basis.size))


def tikhonov_factor(B):
    """Upper-triangular L with L^T L = B; fails loudly when B is not positive definite."""
    try:
        return cholesky(B, lower=False)
    except LinAlgError:
        w = np.linalg.eigvalsh(B)
        raise DegenerateModelError(
            "second-moment matrix is not positive definite "
            f"(smallest eigenvalue {w[0]:.3e})"
        ) from None


def sigma_hat(A, u, c_lambda, hat_trace):
    """Residual-based noise-scale estimate; +inf when the dof count is exhausted."""
    u = np.asarray(u, dtype=float).ravel()
    n = u.shape[0]
    if n <= hat_trace:
        return float("inf")
    res = A @ c_lambda - u
    return float(np.sqrt(float(res @ res) / (n - hat_trace)))


def l_inverse_norm(L):
    """Spectral norm of L^{-1}, formed by triangular solves against the identity."""
    Linv = solve_triangular(L, np.eye(L.shape[0]), lower=False)
    return float(np.linalg.norm(Linv, 2))


def error_indicator(lambda_, L, sigma, c_lambda, n_samples):
    """Sensitivity proxy sqrt(N) ||L^-1|| sigma / (lambda ||c||); +inf when undefined."""
    norm_c = float(np.linalg.norm(c_lambda))
    if lambda_ <= 0.0 or norm_c == 0.0 or not np.isfinite(sigma):
        return float("inf")
    return float(np.sqrt(n_samples) / lambda_ * l_inverse_norm(L) * sigma / norm_c)
