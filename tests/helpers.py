"""Independent oracles shared across test modules, two ways into the fit,
and one to another discretization of the diffusion problem.

The oracles are deliberately naive (loops, brute force, quadrature) so
the library paths are checked against genuinely different computations.
fit_constants and one_sweep, at the top, reach the fit's internals instead,
and elliptic_with, beside the FEM oracles, the problem's fixed settings.
"""
import contextlib
import functools

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cholesky, solve_triangular, solveh_banded

from seprep import als, regularize
from seprep.basis import BasisSpec, Family, _folded_recurrence, eval_basis_batch, gauss_quadrature
from seprep.errors import DegenerateModelError, PositivityError
from seprep.model import SeparatedModel
from seprep.problems import (
    _MANUFACTURED_TERMS,
    EllipticProblem,
    _p2_shapes,
    coefficient_at_gauss_points,
)
from seprep.regularize import _LAMBDA_GRID_SIZE


@contextlib.contextmanager
def fit_constants(*, sweep_tol=None, candidates=None, burn_sweeps=None, max_sweeps=None,
                  lambda_floor=None):
    """Run the block with the fit's fixed settings replaced, and restore them after.

    sweep_tol, candidates and burn_sweeps stand for als._SWEEP_TOL,
    _CANDIDATES and _BURN_SWEEPS; max_sweeps for the sweep cap
    FitConfig.max_sweeps_per_rank; lambda_floor for regularize._LAMBDA_FLOOR
    and the unit GCV grid built from it. A setting left None keeps its value.
    A context manager rather than a fixture, so that criterion 6 can call the
    tests that use it without arguments and a module-scoped fixture can hold it.
    """
    patches = [(als, "_SWEEP_TOL", sweep_tol), (als, "_CANDIDATES", candidates),
               (als, "_BURN_SWEEPS", burn_sweeps),
               (als.FitConfig, "max_sweeps_per_rank", max_sweeps),
               (regularize, "_LAMBDA_FLOOR", lambda_floor)]
    if lambda_floor is not None:
        patches.append((regularize, "_UNIT_GRID", regularize._unit_grid(lambda_floor)))
    with pytest.MonkeyPatch.context() as mp:
        for owner, name, value in patches:
            if value is not None:
                mp.setattr(owner, name, value)
        yield


def fitter_at(data, model, config):
    """The fit's workspace on `data` with `model` as its one live model.

    `model` must match the data's family and dims and the config's degree.
    """
    fitter = als._Fitter(data, config, config.rng_seed)
    fitter._use(fitter._stack(model.coeffs.copy()[None],
                              np.ldexp(model.scales, -fitter.exp)[None], np.array([fitter.rng])))
    return fitter


def one_sweep(data, model, config):
    """One alternation pass over every direction, starting from `model`.

    Returns (updated model, empirical residual norm, per-direction
    regularization states; an entry is None when unregularized).
    """
    fitter = fitter_at(data, model, config)
    resid, solves = fitter.sweep_once()
    return fitter.model(), fitter.unscaled(resid[0]), fitter.kept_states(solves)


def naive_evaluate(model, y):
    """Triple-loop evaluation of the separated representation."""
    total = 0.0
    for l in range(model.rank):
        term = model.scales[l]
        for k in range(model.dims):
            psi = eval_basis_batch(model.basis, y[k])
            factor = 0.0
            for a in range(model.basis.size):
                factor += model.coeffs[k, l, a] * psi[a]
            term *= factor
        total += term
    return total


def degree_last_basis(spec, y):
    """The basis recurrence written degree-last: entry [..., a] of an y.shape + (M+1,) array.

    The same folded constants and per-element expressions as the library's
    degree-major form, so the two must agree bit for bit.
    """
    y = np.asarray(y, dtype=float)
    M = spec.max_degree
    out = np.empty(y.shape + (M + 1,))
    out[..., 0] = 1.0
    if M == 0:
        return out
    alpha, beta = _folded_recurrence(spec.family, M)
    out[..., 1] = alpha[0] * y
    for a in range(1, M):
        out[..., a + 1] = alpha[a] * y * out[..., a] - beta[a] * out[..., a - 1]
    return out


def full_basis_manufactured_values(points):
    """The manufactured function from the Hermite basis of every input dimension, (n, d, 4).

    The library evaluates only the columns its terms read; each value must
    equal this one bit for bit.
    """
    psi = eval_basis_batch(BasisSpec(Family.HERMITE, 3), points)
    (values, _), *terms = _MANUFACTURED_TERMS
    for coeff, factors in terms:
        term = coeff
        for dim, deg in factors:
            term = term * psi[:, dim, deg]
        values = values + term
    return values


def unblocked_evaluate(model, points):
    """The surrogate at every row of `points` in one product over all rows.

    The library evaluates in row blocks; each value must equal this one bit
    for bit.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    prod = np.ones((pts.shape[0], model.rank))
    for k in range(model.dims):
        prod *= degree_last_basis(model.basis, pts[:, k]) @ model.coeffs[k].T
    return prod @ model.scales


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


def selection_summary(report):
    """The chosen (r, M) and the runner-up pair, each with its EI_max.

    The runner-up has the next-lowest finite EI_max, ties going to the
    smaller rank and then the smaller degree, as in selection.
    """
    others = sorted((ei, pair) for pair, ei in report.ei_max.items()
                    if pair != report.chosen and np.isfinite(ei))
    return {
        "chosen": list(report.chosen),
        "ei_max": report.ei_max[report.chosen],
        "runner_up": list(others[0][1]) if others else None,
        "runner_up_ei_max": others[0][0] if others else None,
    }


def assert_selection_matches(report, recorded, rtol=1e-9):
    """The stated result tolerance of a selection against its recorded selection_summary.

    The chosen and runner-up pairs must be the recorded ones, and their
    EI_max must match to rtol relative.
    """
    got = selection_summary(report)
    for key in ("chosen", "runner_up"):
        assert got[key] == recorded[key], f"{key}: {got[key]}, recorded {recorded[key]}"
    for key in ("ei_max", "runner_up_ei_max"):
        if recorded[key] is not None:
            err = abs(got[key] - recorded[key]) / abs(recorded[key])
            assert err <= rtol, f"{key}: {got[key]!r}, recorded {recorded[key]!r} ({err:.2e} rel)"


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


# -- dense Gauss-Seidel reference for one ALS sweep ------------------------------
# The library forms design matrices from prefix and suffix products of cached
# factor values and solves through the Kronecker-structured kernel; these loop
# over samples and terms, build the dense penalty and solve it directly.


def naive_design_matrix(data, model, k):
    """Direction-k design matrix: entry (n, l*m + a) is s_l prod_{i != k} u_i^l(y_n) psi_a(y_nk)."""
    d, r, m = model.dims, model.rank, model.basis.size
    table = np.empty((d, data.n, r))
    for i in range(d):
        for n in range(data.n):
            table[i, n] = model.coeffs[i] @ eval_basis_batch(model.basis, data.inputs[n, i])
    excl = naive_exclusion(table, k)
    A = np.empty((data.n, r * m))
    for n in range(data.n):
        psi = eval_basis_batch(model.basis, data.inputs[n, k])
        for l in range(r):
            A[n, l * m:(l + 1) * m] = model.scales[l] * excl[n, l] * psi
    return A


def normal_equation_pieces(A, u):
    """(A^T A, A^T u, u . u, N) of a (B, N, p) stack of design matrices on shared outputs u.

    The library's direction solve takes these pieces, built from the factors,
    in place of a design matrix.
    """
    At = A.swapaxes(-1, -2)
    return At @ A, At @ u, float(u @ u), A.shape[-2]


def naive_gcv_solve(A, u, B, grid_size, floor_rel):
    """Dense Tikhonov solve with lambda minimizing GCV on the library's grid.

    The grid spans [floor_rel, 1] times the largest singular value of A L^-1
    (L^T L = B); every grid point solves (A^T A + lambda^2 B) c = A^T u and
    forms its hat matrix explicitly. Returns (c, lambda, sigma-hat, EI).
    """
    L = tikhonov_factor(B)
    gmax = np.linalg.svd(A @ np.linalg.inv(L), compute_uv=False)[0]
    n = u.shape[0]
    best = None
    for lam in np.geomspace(floor_rel * gmax, gmax, grid_size):
        c = np.linalg.solve(A.T @ A + lam**2 * B, A.T @ u)
        trace = float(np.trace(explicit_hat_matrix(A, L, lam)))
        res = A @ c - u
        gcv = n * float(res @ res) / (n - trace) ** 2
        if best is None or gcv < best[0]:  # ties go to the smaller lambda
            best = (gcv, lam, c, trace)
    _, lam, c, trace = best
    sig = sigma_hat(A, u, c, trace)
    return c, lam, sig, error_indicator(lam, L, sig, c, n)


def naive_sweep(data, model, config):
    """One Gauss-Seidel pass over the directions with dense matrices.

    Per direction: naive_design_matrix, the penalty build_B (kron(diag(s^2), I)
    for the diag-scale comparison) and naive_gcv_solve, or a plain normal
    equation solve when unregularized; then each term's new factor is divided
    by its empirical norm, which moves into the term's scale. Returns (model,
    residual of the last solve, per-direction (lambda, sigma-hat, EI) or None,
    per-direction design matrices).
    """
    model = model.copy()
    u = data.outputs
    m = model.basis.size
    states, designs = [], []
    for k in range(model.dims):
        A = naive_design_matrix(data, model, k)
        designs.append(A)
        if config.penalty == "none":
            c = np.linalg.solve(A.T @ A, A.T @ u)
            states.append(None)
        else:
            if config.penalty == "diag_scale":
                B = np.kron(np.diag(model.scales**2), np.eye(m))
            else:
                B = build_B(model, k)
            c, lam, sig, ei = naive_gcv_solve(A, u, B, _LAMBDA_GRID_SIZE,
                                              regularize._LAMBDA_FLOOR)
            states.append((lam, sig, ei))
        res = A @ c - u
        for l in range(model.rank):
            cl = c[l * m:(l + 1) * m]
            vals = np.array([cl @ eval_basis_batch(model.basis, y) for y in data.inputs[:, k]])
            norm = np.sqrt(np.mean(vals * vals))
            model.scales[l] *= norm
            model.coeffs[k, l] = cl / norm
    return model, float(np.sqrt(res @ res / data.n)), states, designs


# -- the diffusion problem at another discretization ---------------------------


@functools.lru_cache(maxsize=None)
def _elliptic_class(constants):
    return type(f"EllipticProblem{dict(constants)}", (EllipticProblem,), dict(constants))


def elliptic_with(dims=EllipticProblem.dims, **constants):
    """EllipticProblem(dims=dims) with some of its class constants replaced.

    `constants` names class attributes, such as mesh_elements=7 or
    query_point=0.3. Each distinct set of them gets one subclass, built once,
    so equal settings give equal problems. A name that is not such a constant
    is a TypeError; EllipticProblem itself refuses a query point outside (0, 1).
    """
    unknown = sorted(n for n in constants if not hasattr(EllipticProblem, n))
    if unknown:
        raise TypeError(f"not class constants of EllipticProblem: {unknown}")
    return _elliptic_class(tuple(sorted(constants.items())))(dims=dims)


# -- per-sample banded references for the elliptic FEM solve -------------------
# The library condenses the P2 bubbles and sweeps the vertex system for a whole
# block of samples; these assemble each sample's full P2 band and factor it.
# Both take the Gauss-point coefficients from the library.


def _banded_p2_solve(problem, a, ke, load, shape_at_x):
    """u(query_point) per sample from element stiffness blocks ke (s, n_el, 3, 3) and the load.

    Each sample's element blocks are scattered into the upper band of the full
    P2 stiffness matrix with np.add.at and solved with solveh_banded; both
    positivity guards of the library are kept. shape_at_x holds the query
    element's three shape values at the query point.
    """
    if np.any(a <= 0.0):
        raise PositivityError("diffusion coefficient non-positive")
    n_el, nn = problem.mesh_elements, problem.n_nodes
    dofs = 2 * np.arange(n_el)[:, None] + np.arange(3)[None, :]
    ii = np.repeat(dofs, 3, axis=1).reshape(n_el, 3, 3)
    jj = np.tile(dofs, (1, 3)).reshape(n_el, 3, 3)
    tri = ii <= jj
    band_rows, band_cols = (2 + ii - jj)[tri], jj[tri]
    kv = ke[:, tri]
    e = _query_element(problem)[0]
    out = np.empty(len(a))
    interior = slice(1, nn - 1)
    for s in range(len(a)):
        band = np.zeros((3, nn))
        np.add.at(band, (band_rows, band_cols), kv[s])
        u_full = np.zeros(nn)
        u_full[interior] = solveh_banded(band[:, interior], load[interior])
        out[s] = shape_at_x @ u_full[dofs[e]]
    if np.any(out <= 0.0):
        raise PositivityError("solution non-positive")
    return out


def _query_element(problem):
    """The query point's element e and its local coordinate in [-1, 1]."""
    h = 1.0 / problem.mesh_elements
    e = min(int(problem.query_point / h), problem.mesh_elements - 1)
    return e, 2.0 * (problem.query_point - e * h) / h - 1.0


def banded_elliptic_solve(problem, points):
    """u(query_point) per input row from the library's own element arrays, by another solver.

    The stiffness weights, load and query shapes are the problem's, so this
    checks the condensed solve to rounding (1e-12), not the arrays;
    independent_elliptic_solve checks those.
    """
    a = coefficient_at_gauss_points(problem, np.atleast_2d(np.asarray(points, dtype=float)))
    ke = np.einsum("seg,gij->seij", a, problem._stiff_weights)
    shape_at_x = _p2_shapes(np.array([_query_element(problem)[1]]))[0][0]
    return _banded_p2_solve(problem, a, ke, problem._load, shape_at_x)


def p2_lagrange_shapes():
    """The P2 shape functions on [-1, 1], one per node -1, 0, 1, and their derivatives.

    Shape i is the numpy Polynomial through the three nodes that is 1 at node i.
    """
    nodes = (-1.0, 0.0, 1.0)
    shapes = []
    for i, node in enumerate(nodes):
        p = np.polynomial.Polynomial.fromroots([x for j, x in enumerate(nodes) if j != i])
        shapes.append(p / p(node))
    return shapes, [p.deriv() for p in shapes]


def independent_elliptic_solve(problem, points):
    """u(query_point) per input row, with every element array built here.

    Element e maps xi in [-1, 1] to x = (e + (xi + 1) / 2) h. With the
    three-point rule of np.polynomial.legendre.leggauss, its stiffness is
    sum_g w_g a(x_g) N_i'(xi_g) N_j'(xi_g) 2 / h and its load (unit forcing)
    sum_g w_g N_i(xi_g) h / 2, N from p2_lagrange_shapes; the library's
    coefficients are taken at the same points, in the same order. Its own
    rounding of the element arrays differs from the library's, and at 128
    elements the system's conditioning turns that into up to 2.2e-12
    relative, so it checks the formulas, not the last bits.
    """
    a = coefficient_at_gauss_points(problem, np.atleast_2d(np.asarray(points, dtype=float)))
    h = 1.0 / problem.mesh_elements
    xi, w = np.polynomial.legendre.leggauss(3)
    shapes, derivs = p2_lagrange_shapes()
    N = np.array([[p(x) for p in shapes] for x in xi])  # (gauss, shape)
    dN = np.array([[p(x) for p in derivs] for x in xi])
    ke = (2.0 / h) * np.einsum("seg,g,gi,gj->seij", a, w, dN, dN)
    dofs = 2 * np.arange(problem.mesh_elements)[:, None] + np.arange(3)[None, :]
    load = np.zeros(problem.n_nodes)
    np.add.at(load, dofs, np.broadcast_to((h / 2.0) * np.einsum("g,gi->i", w, N), dofs.shape))
    shape_at_x = np.array([p(_query_element(problem)[1]) for p in shapes])
    return _banded_p2_solve(problem, a, ke, load, shape_at_x)
