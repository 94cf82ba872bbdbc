"""Built-in experiment generators and reference baselines.

Provides the ten-dimensional manufactured benchmark function with known
mean and variance, a one-dimensional stochastic diffusion problem whose
log-free coefficient comes from a truncated Karhunen-Loeve expansion of a
squared-exponential covariance, plus Monte Carlo and total-degree
polynomial regression baselines to compare surrogates against. The
diffusion problem uses quadratic finite elements and is solved for a whole
batch of inputs at once: the coefficients are formed Gauss-point-major by
one product with the KL map, the stiffness entries by one product with the
Gauss weights, each element's bubble is condensed out, and one tridiagonal
LDL^T sweep over the mesh vertices runs in place on vectors of samples.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, Family, _check_count, eval_basis_batch
from .errors import ConditioningError, DomainError, PositivityError, ResolutionError
from .model import SampleSet, SeparatedModel, _blas, _run_shares, _usable_cpus

__all__ = [
    "MANUFACTURED_MEAN",
    "MANUFACTURED_VAR",
    "manufactured_sample",
    "manufactured_model",
    "KLExpansion",
    "kl_decompose",
    "EllipticProblem",
    "elliptic_problem",
    "elliptic_solve_batch",
    "elliptic_sample",
    "MCResult",
    "mc_baseline",
    "pc_regression_baseline",
]

# the manufactured function: each term's coefficient and the (dimension,
# degree) factors of its orthonormal-Hermite product, the constant term first
_MANUFACTURED_TERMS = (
    (0.55, ()),
    (math.sqrt(2) / 2, ((0, 3), (1, 3))),
    (-math.sqrt(2) / 4, ((2, 2),)),
    (-math.sqrt(2) / 4, ((7, 2),)),
    (-0.1, ((8, 3),)),
)
_MANUFACTURED_DIMS = 10  # the terms read dimensions 0-8; dimension 9 is inert
_MANUFACTURED_NOISE = 5e-4  # standard deviation of the noise noisy samples add
MANUFACTURED_MEAN = _MANUFACTURED_TERMS[0][0]
# the sum of the squared non-constant coefficients, written as the exact 0.76:
# summed in floating point it is 0.7600000000000001
MANUFACTURED_VAR = 0.76


def _manufactured_values(points: np.ndarray) -> np.ndarray:
    basis = BasisSpec(Family.HERMITE, 3)
    (values, _), *terms = _MANUFACTURED_TERMS
    for coeff, factors in terms:
        term = coeff
        for dim, deg in factors:
            # the basis of one contiguous column: the other dimensions are never read
            term = term * eval_basis_batch(basis, np.ascontiguousarray(points[:, dim]))[:, deg]
        values = values + term
    return values


def manufactured_sample(n: int, seed: int, noisy: bool = True) -> SampleSet:
    """Draw n standard-Gaussian 10-vectors and evaluate the benchmark function.

    The function is a constant plus four orthonormal-Hermite terms
    (_MANUFACTURED_TERMS), with mean MANUFACTURED_MEAN and noise-free
    variance MANUFACTURED_VAR; noisy adds Gaussian noise of standard
    deviation 5e-4.
    """
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, _MANUFACTURED_DIMS))
    values = _manufactured_values(points)
    if noisy:
        values = values + _MANUFACTURED_NOISE * rng.standard_normal(n)
    return SampleSet(points, values, Family.HERMITE)


def manufactured_model(max_degree: int = 3) -> SeparatedModel:
    """The benchmark function written exactly as a rank-5 separated model.

    Negative term coefficients are folded into one factor so all scales stay
    positive.
    """
    _check_count("max_degree", max_degree, 3)  # the exact encoding reads degree 3
    coeffs = np.zeros((_MANUFACTURED_DIMS, len(_MANUFACTURED_TERMS), max_degree + 1))
    coeffs[:, :, 0] = 1.0  # every factor defaults to the constant
    for l, (coeff, spots) in enumerate(_MANUFACTURED_TERMS):
        for dim, deg in spots:
            coeffs[dim, l, :] = 0.0
            coeffs[dim, l, deg] = 1.0
        dim, deg = spots[0] if spots else (0, 0)
        coeffs[dim, l, deg] = 1.0 if coeff >= 0 else -1.0
    scales = np.abs([coeff for coeff, _ in _MANUFACTURED_TERMS])
    return SeparatedModel(BasisSpec(Family.HERMITE, max_degree), scales, coeffs)


# ---------------------------------------------------------------------------
# Karhunen-Loeve expansion of the squared-exponential covariance on (0, 1)
# ---------------------------------------------------------------------------


def _gauss_legendre_01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _sq_exp_kernel(x1: np.ndarray, x2: np.ndarray, corr_length: float) -> np.ndarray:
    """The squared-exponential covariance exp(-(x1 - x2)^2 / corr_length^2) of every pair."""
    return np.exp(-np.subtract.outer(x1, x2) ** 2 / corr_length**2)


@dataclass
class KLExpansion:
    """Truncated eigen-expansion of a covariance kernel on (0, 1)."""

    corr_length: float
    eigenvalues: np.ndarray     # (d,), descending
    node_values: np.ndarray     # (n_grid, d) eigenfunctions at quadrature nodes
    nodes: np.ndarray
    weights: np.ndarray
    total_trace: float          # sum over the full discretized spectrum

    @property
    def dims(self) -> int:
        return self.eigenvalues.shape[0]

    def eigenfunctions(self, x) -> np.ndarray:
        """Eigenfunction values at arbitrary points via Nystrom interpolation."""
        x = np.asarray(x, dtype=float)
        K = _sq_exp_kernel(x.ravel(), self.nodes, self.corr_length)
        vals = (K * self.weights[None, :]) @ self.node_values / self.eigenvalues[None, :]
        return vals.reshape(x.shape + (self.dims,))


def _kl_spectrum(corr_length: float, n_grid: int):
    """The Nystrom nodes and weights, their square roots, and the kernel's eigenpairs.

    The eigenpairs are those of the kernel matrix symmetrized with sqrt
    weights, in descending order, and the last value returned counts the
    eigenvalues that are positive and clear of eigensolver roundoff.
    """
    x, w = _gauss_legendre_01(n_grid)
    K = _sq_exp_kernel(x, x, corr_length)
    sw = np.sqrt(w)
    sym = sw[:, None] * K * sw[None, :]
    vals, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    return x, w, sw, vals, vecs, int(np.count_nonzero(vals > 1e-14 * vals[0]))


def kl_decompose(corr_length: float, d: int, n_grid: int) -> KLExpansion:
    """Nystrom discretization of the covariance eigenproblem on (0, 1).

    The kernel matrix at a Gauss-Legendre grid is symmetrized with sqrt
    weights, diagonalized, and the eigenvectors rescaled so eigenfunctions
    have unit L2(0, 1) norm. Fewer than d eigenvalues clear of roundoff is
    a ResolutionError: a shorter correlation length decays more slowly and
    resolves more, and a finer grid helps only while it, and not roundoff,
    sets the count (at corr_length 1/14, 57 modes at 240 to 2,048 nodes).
    """
    _check_count("d", d, 1)
    if isinstance(corr_length, bool) or not 0.0 < corr_length < math.inf:
        raise ValueError(
            f"correlation length must be positive and finite, got corr_length={corr_length!r}")
    _check_count("n_grid", n_grid, 4 * d)  # at least four nodes per mode
    x, w, sw, vals, vecs, resolved = _kl_spectrum(corr_length, n_grid)
    if resolved < d:
        raise ResolutionError(
            f"only {resolved} eigenvalues resolved above roundoff at corr_length "
            f"{corr_length:.6g} and n_grid {n_grid}, need {d}; reduce the truncation or "
            "corr_length (a finer n_grid adds modes only where the grid, not roundoff, limits them)"
        )
    return KLExpansion(
        corr_length=corr_length,
        eigenvalues=vals[:d].copy(),
        node_values=vecs[:, :d] / sw[:, None],
        nodes=x,
        weights=w,
        total_trace=float(vals.sum()),
    )


# ---------------------------------------------------------------------------
# 1-D stochastic diffusion with quadratic finite elements
# ---------------------------------------------------------------------------

_GAUSS3_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
_SOLVE_BLOCK = 1024  # bounds the solver's memory; its work arrays stay near cache size
# most solve workers, with BLAS at one thread: 2 is the count measured (the
# 200k-sample reference took 0.67-0.84 s against 1.00-1.19 s on one worker,
# 2-core host); more CPUs are untested
_SOLVE_WORKERS = 2
_ROW_PAD = 16  # the coefficient product pads its rows to a multiple of this


def _p2_shapes(xi: np.ndarray):
    N = np.stack([xi * (xi - 1.0) / 2.0, 1.0 - xi**2, xi * (xi + 1.0) / 2.0], axis=-1)
    dN = np.stack([xi - 0.5, -2.0 * xi, xi + 0.5], axis=-1)
    return N, dN


@dataclass
class EllipticProblem:
    """Dirichlet diffusion problem -(a u')' = 1 on (0, 1) with random a.

    The coefficient is mean_coeff plus sigma_a times the KL expansion of
    kl_decompose(corr_length, dims, kl_grid) contracted with the input
    vector; inputs are uniform on [-1, 1]^dims. The one field is dims, the
    KL truncation: at most kl_grid // 4 (128), four Nystrom nodes per mode,
    and at most the 57 modes that clear eigensolver roundoff at this
    correlation length, whatever the grid. The physics (mean_coeff,
    sigma_a, corr_length) and the discretization (mesh_elements quadratic
    elements, the kl_grid-node Nystrom grid, and query_point, where u is
    read) are fixed, as class attributes. A subclass may set others, but a
    query_point outside (0, 1) is a DomainError: there u is fixed to 0 or
    the P2 shapes extrapolate, and below 0 the solve's element index would
    wrap round to the far end of the mesh. Construction builds the KL
    expansion and what the batched solve reuses: the KL map to the
    Gauss-point coefficients, the per-Gauss-point P2 stiffness weights and
    the assembled load, from which the solve condenses the bubbles.
    """

    # unannotated, so constants of the class and not fields
    corr_length = 1.0 / 14.0
    mean_coeff = 0.1
    sigma_a = 0.021
    mesh_elements = 128
    kl_grid = 512
    query_point = 0.5
    dims: int = 40
    kl: KLExpansion = field(init=False, repr=False, compare=False)
    _coeff_map: np.ndarray = field(init=False, repr=False, compare=False)
    _stiff_weights: np.ndarray = field(init=False, repr=False, compare=False)
    _load: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.query_point < 1.0:
            raise DomainError(f"query_point must lie in (0, 1), got {self.query_point}")
        if _check_count("dims", self.dims, 1) > self.kl_grid // 4:
            raise ValueError(f"dims must be an integer <= {self.kl_grid // 4} (four Nystrom "
                             f"nodes per mode), got {self.dims!r}")
        try:
            self.kl = kl_decompose(self.corr_length, self.dims, self.kl_grid)
        except ResolutionError as exc:
            # no caller sets the grid, and a finer one resolves no more modes here
            resolved = _kl_spectrum(self.corr_length, self.kl_grid)[-1]
            raise ValueError(f"dims must be an integer <= {resolved} (the KL modes resolved "
                             f"above roundoff), got {self.dims!r}") from exc
        n_el = self.mesh_elements
        h = 1.0 / n_el
        gauss_x = (np.arange(n_el)[:, None] + 0.5 * (_GAUSS3_NODES[None, :] + 1.0)) * h
        phi = self.kl.eigenfunctions(gauss_x.reshape(-1))  # (n_el*3, dims)
        coeff_map = self.sigma_a * np.sqrt(self.kl.eigenvalues)[None, :] * phi
        # Gauss-point-major rows, g * n_el + e
        self._coeff_map = coeff_map.reshape(n_el, 3, -1).swapaxes(0, 1).reshape(3 * n_el, -1)
        N, dN = _p2_shapes(_GAUSS3_NODES)
        self._stiff_weights = (2.0 / h) * np.einsum("g,gi,gj->gij", _GAUSS3_WEIGHTS, dN, dN)
        fe = (h / 2.0) * np.einsum("g,gi->i", _GAUSS3_WEIGHTS, N)
        dofs = 2 * np.arange(n_el)[:, None] + np.arange(3)[None, :]
        self._load = np.zeros(self.n_nodes)
        np.add.at(self._load, dofs, np.broadcast_to(fe, (n_el, 3)))

    @property
    def n_nodes(self) -> int:
        return 2 * self.mesh_elements + 1


# the factory name the benchmark and older callers build the problem by
elliptic_problem = EllipticProblem


def coefficient_at_gauss_points(problem: EllipticProblem, points: np.ndarray) -> np.ndarray:
    """Diffusion coefficient at all element Gauss points, shape (n, n_el, 3).

    The result is a view of a Gauss-point-major (3, n_el, rows) array: each
    Gauss point's (element, row) plane runs along the rows, the layout the
    solve's stiffness product reads. The rows are padded with zeros to a
    multiple of `_ROW_PAD` before the one product with the KL map, so every
    row goes through the same BLAS kernel and, at the default problem size, no
    coefficient depends on how the rows are batched; unpadded, a one-row call
    or a ragged tail is rounded by another kernel. A BLAS may still round a
    small batch on a subclass's coarser mesh by another kernel; the values
    then agree to the documented 1e-12.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    padded = np.zeros((-(-n // _ROW_PAD) * _ROW_PAD, pts.shape[1]))
    padded[:n] = pts
    a = problem._coeff_map @ padded.T
    a += problem.mean_coeff
    planes = a.reshape(3, problem.mesh_elements, padded.shape[0])
    return planes[:, :, :n].transpose(2, 1, 0)


def _positive_finite(x: np.ndarray) -> bool:
    # one min and one max pass; NaN fails both comparisons
    return x.size == 0 or bool(x.min() > 0.0 and x.max() < np.inf)


def _solve_block(problem: EllipticProblem, rows: np.ndarray, work: np.ndarray,
                 first: int) -> np.ndarray:
    """u(query_point) at each of a block's rows, the first being sample `first` of the batch.

    `work` holds the block's six stiffness entries per element and its
    vertex values; the elimination's r0, r2 and scratch rows reuse the
    block's coefficient planes, which the stiffness product has read. The
    planes are released when the block returns, before the next block's
    are formed.
    """
    n_el, load = problem.mesh_elements, problem._load
    h = 1.0 / n_el
    e = min(int(problem.query_point / h), n_el - 1)
    shape = _p2_shapes(np.array(2.0 * (problem.query_point - e * h) / h - 1.0))[0]
    w = problem._stiff_weights[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]].T  # (6, gauss)
    a = coefficient_at_gauss_points(problem, rows)
    n_s = a.shape[0]
    planes = a.transpose(2, 1, 0).reshape(3, n_el * n_s)  # a copy only for a ragged block
    if planes.min() <= 0.0:
        bad = int(np.argwhere(np.any(a <= 0.0, axis=(1, 2)))[0, 0])
        raise PositivityError(
            f"diffusion coefficient non-positive at sample {first + bad} "
            f"(min {a[bad].min():.4e})"
        )
    block = work[:(7 * n_el + 1) * n_s].reshape(7 * n_el + 1, n_s)
    np.matmul(w, planes, out=block[:6 * n_el].reshape(6, n_el * n_s))
    # each (element, sample)
    k00, k01, k02, k11, k12, k22 = block[:6 * n_el].reshape(6, n_el, n_s)
    r0, r2, tmp = planes.reshape(3, n_el, n_s)
    np.divide(k01, k11, out=r0)
    np.divide(k12, k11, out=r2)
    # off couples vertex j to j + 1; the last meets u(1) = 0
    off = np.subtract(k02, np.multiply(k12, r0, out=tmp), out=k02)
    c22 = np.subtract(k22, np.multiply(k12, r2, out=tmp), out=k22)
    c00 = np.subtract(k00, np.multiply(k01, r0, out=tmp), out=k00)
    piv = np.add(c22[:-1], c00[1:], out=c22[:-1])  # interior vertices 1 .. n_el-1
    u = block[6 * n_el:]  # vertex values, zero at both ends
    u[0] = u[-1] = 0.0
    y = u[1:-1]  # the right-hand side, overwritten by the solution
    np.subtract(load[2:-1:2, None], np.multiply(r2[:-1], load[1:-2:2, None], out=y), out=y)
    y -= np.multiply(r0[1:], load[3::2, None], out=tmp[1:])
    ratio, prod = np.empty((2, n_s))
    for v in range(1, n_el - 1):
        np.divide(off[v], piv[v - 1], out=ratio)
        piv[v] -= np.multiply(ratio, off[v], out=prod)
        y[v] -= np.multiply(ratio, y[v - 1], out=prod)
    if not (_positive_finite(k11) and _positive_finite(piv)):
        ok = np.all((k11 > 0.0) & (k11 < np.inf), axis=0)
        ok &= np.all((piv > 0.0) & (piv < np.inf), axis=0)
        bad = first + int(np.flatnonzero(~ok)[0])
        raise ConditioningError(f"non-positive or non-finite FEM pivot at sample {bad}")
    for v in range(n_el - 1, max(e, 1) - 1, -1):  # u[e] and u[e + 1] are all that is read
        u[v] -= np.multiply(off[v], u[v + 1], out=prod)
        u[v] /= piv[v - 1]
    val = shape[0] * u[e] + shape[2] * u[e + 1]
    if shape[1] != 0.0:
        val += shape[1] * (load[2 * e + 1] - k01[e] * u[e] - k12[e] * u[e + 1]) / k11[e]
    return val


def _solve_share(problem: EllipticProblem, pts: np.ndarray, blocks, out: np.ndarray) -> None:
    """Write u(query_point) at rows first:stop of `pts` into `out`, for each block in turn."""
    rows = max((stop - first for first, stop in blocks), default=0)
    work = np.empty((7 * problem.mesh_elements + 1) * rows)
    for first, stop in blocks:
        out[first:stop] = _solve_block(problem, pts[first:stop], work, first)


def elliptic_solve_batch(problem: EllipticProblem, points: np.ndarray) -> np.ndarray:
    """Solve the diffusion problem for each input row, or one `dims`-vector; returns u(query_point).

    Rows must be finite `dims`-vectors, else DomainError. Each block of
    `_SOLVE_BLOCK` samples is solved at once: one (6 x 3)(3, n_el * rows)
    product of the Gauss weights with the Gauss-point-major coefficients
    gives the six distinct P2 stiffness entries, condensing each element's
    bubble leaves an SPD tridiagonal system on the interior vertices, and one
    LDL^T (Thomas) sweep, updated in place, solves it. Back-substitution stops
    at the query element's left vertex, and that element's bubble is
    recovered where its shape function is non-zero. Every step works on
    vectors of samples and the coefficient product is padded, so at the
    default problem size a row's value does not depend on how the rows are
    batched (see `coefficient_at_gauss_points`).

    The blocks run through `model._run_shares`, one contiguous share of
    whole blocks per worker, each worker with its own buffer of
    (7 n_el + 1) rows per sample. Two workers overlap one's BLAS products
    with the other's elimination, which holds the interpreter lock; so
    they run only when the process asked its BLAS for one thread (see
    `model._blas`), and then on at most `_SOLVE_WORKERS` of the CPUs in its
    affinity mask and at most one per block. A BLAS left to thread its own
    products already fills the CPUs, and the solve then runs on the calling
    thread alone. The worker count changes no value. 50,000 rows peaked at
    22 MB under tracemalloc with two workers and 11 MB with one (BLAS at one
    thread). A non-positive coefficient or solution raises PositivityError,
    a pivot that is not positive and finite ConditioningError; each names
    the first such sample.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != problem.dims:
        raise DomainError(f"expected points of shape (n, {problem.dims}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("elliptic inputs must be finite")
    n = pts.shape[0]
    out = np.empty(n)
    blocks = [(first, min(first + _SOLVE_BLOCK, n)) for first in range(0, n, _SOLVE_BLOCK)]
    workers = 1
    if _blas()["blas_threads"] == 1:
        workers = max(min(_usable_cpus(), _SOLVE_WORKERS, len(blocks)), 1)
    _run_shares(lambda share: _solve_share(problem, pts, share, out), blocks, workers)
    if out.size and out.min() <= 0.0:
        bad = int(np.argwhere(out <= 0.0)[0, 0])
        raise PositivityError(
            f"solution non-positive at sample {bad} (u={out[bad]:.4e}); "
            "this violates the maximum principle for unit forcing"
        )
    return out


def elliptic_sample(problem: EllipticProblem, n: int, seed: int) -> SampleSet:
    """Uniform inputs on [-1, 1]^d paired with solver outputs."""
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (n, problem.dims))
    return SampleSet(points, elliptic_solve_batch(problem, points), Family.LEGENDRE)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCResult:
    mean: float
    std: float
    stderr_mean: float
    stderr_std: float
    n: int


def mc_baseline(sampler, n: int, seed: int) -> MCResult:
    """Plain Monte Carlo estimates with standard errors.

    `sampler(n, seed)` must return exactly n output values; any other count
    is a ValueError. The standard error of the std estimate uses the delta
    method with the sample fourth moment, so it stays honest for
    non-Gaussian outputs.
    """
    _check_count("n", n, 2)
    values = np.asarray(sampler(n, seed), dtype=float).ravel()
    if values.size != n:
        raise ValueError(f"sampler returned {values.size} values for n = {n}")
    m = float(values.mean())
    s = float(values.std(ddof=1))
    centered = values - m
    mu4 = float(np.mean(centered**4))
    stderr_mean = s / math.sqrt(n)
    if s > 0.0:
        var_of_var = max(mu4 - s**4, 0.0) / n
        stderr_std = math.sqrt(var_of_var) / (2.0 * s)
    else:
        stderr_std = 0.0
    return MCResult(m, s, stderr_mean, stderr_std, n)


def _total_degree_indices(dims: int, degree: int) -> list:
    """All multi-indices with |alpha|_1 <= degree, graded lexicographic order."""
    _check_count("dims", dims, 1)
    _check_count("degree", degree, 0)
    out = []
    for total in range(degree + 1):
        for comb in itertools.combinations_with_replacement(range(dims), total):
            alpha = [0] * dims
            for c in comb:
                alpha[c] += 1
            out.append(tuple(alpha))
    return out


def pc_regression_baseline(data: SampleSet, total_degree: int):
    """Least-squares fit of the full total-degree orthonormal tensor basis.

    Returns (coefficients, mean, std): the mean is the constant coefficient
    and the variance the sum of squared non-constant coefficients, by
    orthonormality. Refuses underdetermined problems outright.
    """
    _check_count("total_degree", total_degree, 0)
    # counted before any index is built: the enumeration grows as C(d + p, p)
    n_basis = math.comb(data.dims + total_degree, total_degree)
    if data.n < n_basis:
        raise ConditioningError(
            f"total-degree-{total_degree} basis in {data.dims} dims has {n_basis} "
            f"functions but only {data.n} samples are available; "
            "increase N or reduce the degree"
        )
    if data.n < 2 * n_basis:
        warnings.warn(
            f"near-square regression: {data.n} samples for {n_basis} basis functions",
            stacklevel=2,
        )
    basis = BasisSpec(data.family, total_degree)
    psi = eval_basis_batch(basis, data.inputs)  # (n, d, degree+1)
    design = np.ones((data.n, n_basis))
    for j, alpha in enumerate(_total_degree_indices(data.dims, total_degree)):
        for k, a in enumerate(alpha):
            if a:
                design[:, j] *= psi[:, k, a]
    coeffs, _, rank, _ = np.linalg.lstsq(design, data.outputs, rcond=None)
    if rank < n_basis:
        raise ConditioningError(
            f"rank-deficient design matrix (rank {rank} of {n_basis} columns)"
        )
    mean = float(coeffs[0])
    var = float(np.sum(coeffs[1:] ** 2))
    return coeffs, mean, math.sqrt(var)
