import dataclasses
import functools
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (
    banded_elliptic_solve,
    elliptic_with,
    full_basis_manufactured_values,
    independent_elliptic_solve,
)
from seprep import problems
from seprep.basis import BasisSpec, Family, eval_basis_batch
from seprep.errors import ConditioningError, DomainError, PositivityError, ResolutionError
from seprep.model import _BLAS_THREAD_VARIABLES, SampleSet, evaluate_batch
from seprep.problems import (
    MANUFACTURED_MEAN,
    MANUFACTURED_VAR,
    elliptic_problem,
    elliptic_sample,
    elliptic_solve_batch,
    kl_decompose,
    manufactured_model,
    manufactured_sample,
    mc_baseline,
    _total_degree_indices,
    pc_regression_baseline,
)


# ---------------------------------------------------------------------------
# manufactured benchmark
# ---------------------------------------------------------------------------


def test_manufactured_value_at_origin():
    data = manufactured_sample(1, seed=0, noisy=False)
    truth = manufactured_model()
    pred = evaluate_batch(truth, data.inputs)
    assert data.outputs[0] == pytest.approx(pred[0], abs=1e-13)
    origin = SampleSet(np.zeros((1, 10)), [0.0], Family.HERMITE)
    assert problems._manufactured_values(origin.inputs)[0] == pytest.approx(1.05)


def test_manufactured_values_equal_the_full_basis_formula():
    points = np.random.default_rng(3).standard_normal((20_000, 10))
    want = full_basis_manufactured_values(points)
    assert np.array_equal(problems._manufactured_values(points), want)


def test_manufactured_statistics_are_the_terms_table():
    # the mean is the constant term's coefficient, and by orthonormality the
    # variance is the sum of the other squared coefficients; the literal 0.76
    # is that sum to rounding
    (constant, factors), *terms = problems._MANUFACTURED_TERMS
    assert factors == () and MANUFACTURED_MEAN == constant
    assert MANUFACTURED_VAR == pytest.approx(sum(c * c for c, _ in terms), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("call, name", [
    (lambda: problems.EllipticProblem(mean_coeff=0.2), "mean_coeff"),
    (lambda: problems.EllipticProblem(sigma_a=0.01), "sigma_a"),
    (lambda: problems.EllipticProblem(corr_length=0.1), "corr_length"),
    (lambda: problems.EllipticProblem(mesh_elements=64), "mesh_elements"),
    (lambda: problems.EllipticProblem(kl_grid=1024), "kl_grid"),
    (lambda: problems.EllipticProblem(query_point=0.3), "query_point"),
    (lambda: manufactured_sample(3, 0, spec=None), "spec"),
])
def test_a_fixed_problem_setting_is_not_an_argument(call, name):
    # the diffusion problem's physics and discretization and the manufactured
    # function are constants; the problem's one field is its KL truncation
    assert [f.name for f in dataclasses.fields(problems.EllipticProblem) if f.init] == ["dims"]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        call()


def test_manufactured_statistics_noise_free():
    data = manufactured_sample(1_000_000, seed=1, noisy=False)
    se_mean = math.sqrt(MANUFACTURED_VAR / data.n)
    assert abs(data.outputs.mean() - MANUFACTURED_MEAN) <= 3 * se_mean
    var = data.outputs.var(ddof=1)
    centered = data.outputs - data.outputs.mean()
    se_var = math.sqrt(max(np.mean(centered**4) - var**2, 0.0) / data.n)
    assert abs(var - MANUFACTURED_VAR) <= 3 * se_var


def test_manufactured_noise_magnitude():
    clean = manufactured_sample(5000, seed=2, noisy=False)
    noisy = manufactured_sample(5000, seed=2, noisy=True)
    assert np.array_equal(clean.inputs, noisy.inputs)
    diff = noisy.outputs - clean.outputs
    assert 0.0003 < diff.std() < 0.0007


# ---------------------------------------------------------------------------
# Karhunen-Loeve expansion
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def kl():
    return kl_decompose(1.0 / 14.0, d=40, n_grid=512)


def test_kl_eigenvalues_positive_descending(kl):
    assert np.all(kl.eigenvalues > 0.0)
    assert np.all(np.diff(kl.eigenvalues) <= 0.0)


def test_kl_trace_identity(kl):
    # integral of the kernel diagonal over (0, 1) is exactly one
    assert kl.total_trace == pytest.approx(1.0, abs=1e-6)


def test_kl_grid_refinement_stable(kl):
    fine = kl_decompose(1.0 / 14.0, d=40, n_grid=1024)
    rel = np.abs(kl.eigenvalues - fine.eigenvalues) / fine.eigenvalues
    assert rel.max() < 1e-8


def test_kl_captured_energy(kl):
    assert kl.eigenvalues.sum() / kl.total_trace > 0.999


def test_kl_eigenfunctions_orthonormal(kl):
    # L2(0,1) inner products evaluated with the Nystrom quadrature itself
    vals = kl.node_values
    gram = (vals * kl.weights[:, None]).T @ vals
    assert np.max(np.abs(gram - np.eye(kl.dims))) < 1e-8


def test_kl_interpolation_consistent(kl):
    at_nodes = kl.eigenfunctions(kl.nodes[100:110])
    # interpolation error scales like eps/lambda_k; the smallest kept
    # eigenvalue is ~9e-9, so 1e-7 absolute is the meaningful level here
    assert np.allclose(at_nodes, kl.node_values[100:110], rtol=1e-7, atol=1e-7)


def test_kl_resolution_error():
    with pytest.raises(ValueError):
        kl_decompose(1.0 / 14.0, d=40, n_grid=100)
    # the advice names both settings that move the count
    with pytest.raises(ResolutionError, match=r"^only \d+ eigenvalues .* corr_length 0\.5 and "
                                              r"n_grid 160, need 40; .*corr_length.*n_grid"):
        kl_decompose(0.5, d=40, n_grid=160)


def test_the_problem_refuses_dims_beyond_the_resolved_modes_by_their_count():
    # 57 modes clear roundoff at the problem's correlation length, whatever
    # the grid, so the grid advice of kl_decompose's error does not apply
    assert problems.EllipticProblem(dims=57).kl.dims == 57
    with pytest.raises(ValueError, match=r"^dims must be an integer <= 57 \(the KL modes "
                                         r"resolved above roundoff\), got 58$") as got:
        problems.EllipticProblem(dims=58)
    assert isinstance(got.value.__cause__, ResolutionError)


def test_kl_refuses_a_bool_correlation_length():
    # a bool is not a length, and the expansion refuses it by name
    with pytest.raises(ValueError, match="got corr_length=True"):
        kl_decompose(True, 4, 64)


# ---------------------------------------------------------------------------
# elliptic solver
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def problem():
    return elliptic_problem()


def test_elliptic_constant_coefficient(problem):
    # a == 0.1 gives u(x) = x(1-x)/0.2, so u(0.5) = 1.25
    val = elliptic_solve_batch(problem, np.zeros(40))
    assert val == pytest.approx(1.25, abs=1e-10)


def test_a_directly_built_problem_builds_itself():
    # the constructor builds the KL expansion and the FEM arrays from the
    # class's constants, so a problem of a subclass, or one replaced field by
    # field, solves: a == 0.1 gives u(0.25) = 0.9375
    prob = elliptic_with(dims=4, mesh_elements=16, kl_grid=64, query_point=0.25)
    assert prob.kl.dims == 4 and prob.kl.nodes.shape == (64,)
    assert elliptic_solve_batch(prob, np.zeros(4)) == pytest.approx(0.9375, abs=1e-12)
    finer = elliptic_with(dims=4, mesh_elements=32, kl_grid=64, query_point=0.25)
    assert finer._load.shape == (65,)
    assert elliptic_solve_batch(finer, np.zeros(4)) == pytest.approx(0.9375, abs=1e-12)
    fewer = dataclasses.replace(prob, dims=3)
    assert fewer.kl.dims == 3 and type(fewer) is type(prob)
    assert elliptic_solve_batch(fewer, np.zeros(3)) == pytest.approx(0.9375, abs=1e-12)
    # equality compares the class and dims; the built arrays follow from them
    assert finer != prob and fewer != prob
    assert elliptic_with(query_point=0.25, kl_grid=64, mesh_elements=16, dims=4) == prob
    assert dataclasses.replace(fewer, dims=4) == prob


def test_elliptic_mesh_refinement(problem):
    coarse = elliptic_with(mesh_elements=64)
    v1 = elliptic_solve_batch(coarse, np.zeros(40))
    v2 = elliptic_solve_batch(problem, np.zeros(40))
    assert abs(v1 - v2) < 1e-8


def test_elliptic_matches_refined_linear_elements(problem):
    # independent P1 solver on a 10x finer mesh
    def solve_p1(y, n_el):
        h = 1.0 / n_el
        mids = (np.arange(n_el) + 0.5) * h
        phi = problem.kl.eigenfunctions(mids)
        a = problem.mean_coeff + problem.sigma_a * (
            phi * np.sqrt(problem.kl.eigenvalues)[None, :]
        ) @ y
        main = np.zeros(n_el + 1)
        np.add.at(main, np.arange(n_el), a / h)
        np.add.at(main, np.arange(1, n_el + 1), a / h)
        off = -a / h
        K = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        F = np.full(n_el + 1, h)
        F[0] = F[-1] = h / 2
        ui = np.linalg.solve(K[1:-1, 1:-1], F[1:-1])
        u = np.concatenate([[0.0], ui, [0.0]])
        return float(np.interp(0.5, np.linspace(0, 1, n_el + 1), u))

    rng = np.random.default_rng(5)
    for _ in range(3):
        y = rng.uniform(-1, 1, 40)
        ref = solve_p1(y, 1280)
        assert abs(elliptic_solve_batch(problem, y) - ref) < 1e-6


def test_elliptic_batch_consistent_with_single(problem):
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, (5, 40))
    batch = elliptic_solve_batch(problem, pts)
    # row counts change the BLAS reduction order; agreement to the documented
    # 1e-12 reduction tolerance is the contract
    for j in range(5):
        assert batch[j] == pytest.approx(elliptic_solve_batch(problem, pts[j])[0], rel=1e-12)


def test_elliptic_solution_positive(problem):
    data = elliptic_sample(problem, 200, seed=7)
    assert np.all(data.outputs > 0.0)
    assert data.family is Family.LEGENDRE


def test_elliptic_positivity_guard(problem):
    # force a coefficient sign flip with an out-of-range input magnitude
    bad = np.full(40, 1.0)
    scaled = bad * 60.0
    with pytest.raises(PositivityError):
        elliptic_solve_batch(problem, scaled[None, :])


def test_elliptic_solution_positivity_guard(problem, monkeypatch):
    # a negated load leaves every coefficient positive and every solution
    # negative, which the maximum principle rules out for unit forcing
    monkeypatch.setattr(problem, "_load", -problem._load)
    with pytest.raises(PositivityError, match=r"^solution non-positive at sample 0 \(u=-"):
        elliptic_solve_batch(problem, np.zeros((3, 40)))


# Two oracles check the FEM solve. banded_elliptic_solve reads the problem's
# own element arrays, so it checks the condensed solve to rounding.
# independent_elliptic_solve builds the arrays itself, and its rounding of them
# differs from the library's: at 128 elements the two agree to 2.2e-12 at
# worst. The library's own forward error there is 1.4-1.8e-12 against a
# long-double refined solve, so no independent oracle can hold 1e-12; 1e-11
# leaves room for another BLAS, and a wrong weight, factor or shape moves u by
# far more.
_INDEPENDENT_RTOL = 1e-11


@functools.lru_cache(maxsize=None)
def _mesh_problem(mesh_elements, query_point):
    return elliptic_with(mesh_elements=mesh_elements, query_point=query_point)


@pytest.mark.parametrize("n", [1, 5, 257])
@pytest.mark.parametrize("query_point", [0.0, 0.3, 0.5, 1.0, 1.5, -0.1])
@pytest.mark.parametrize("mesh_elements", [1, 2, 7, 128])
def test_elliptic_batch_matches_banded_oracle(mesh_elements, query_point, n):
    # one element has no interior vertex (an empty vertex system); only 0.3
    # falls inside an element, where the bubble value is recovered
    if not 0.0 < query_point < 1.0:
        # u is fixed to zero on the Dirichlet boundary, the P2 shapes
        # extrapolate outside [0, 1], and below 0 the solve's element index
        # wraps round, so a subclass with such a point is refused
        with pytest.raises(DomainError, match="query_point"):
            _mesh_problem(mesh_elements, query_point)
        return
    prob = _mesh_problem(mesh_elements, query_point)
    pts = np.random.default_rng(mesh_elements + n).uniform(-1, 1, (n, prob.dims))
    got = elliptic_solve_batch(prob, pts)
    np.testing.assert_allclose(got, banded_elliptic_solve(prob, pts), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got, independent_elliptic_solve(prob, pts),
                               rtol=_INDEPENDENT_RTOL, atol=0.0)


@functools.lru_cache(maxsize=None)
def _cross_block_case(mesh_elements, query_point):
    prob = _mesh_problem(mesh_elements, query_point)
    n = 2 * problems._SOLVE_BLOCK + 3
    pts = np.random.default_rng(mesh_elements).uniform(-1, 1, (n, prob.dims))
    return prob, pts, banded_elliptic_solve(prob, pts), independent_elliptic_solve(prob, pts)


@pytest.mark.parametrize("extra", [-1, 1, problems._SOLVE_BLOCK + 3])
@pytest.mark.parametrize("mesh_elements, query_point",
                         [(128, 0.003), (128, 0.998), (7, 0.05), (7, 0.95)])
def test_elliptic_blocks_match_banded_oracle(mesh_elements, query_point, extra):
    # batches that end one row short of a block, one row into the next, and
    # three rows into a third, with the query point in the first or last element
    prob, pts, want, independent = _cross_block_case(mesh_elements, query_point)
    n = problems._SOLVE_BLOCK + extra
    got = elliptic_solve_batch(prob, pts[:n])
    np.testing.assert_allclose(got, want[:n], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got, independent[:n], rtol=_INDEPENDENT_RTOL, atol=0.0)


def test_elliptic_rows_do_not_depend_on_batching(problem):
    # the coefficient product is padded to full BLAS panels, so at the default
    # size a row's value is the same in any batch, bit for bit
    block = problems._SOLVE_BLOCK
    pts = np.random.default_rng(12).uniform(-1, 1, (2 * block + 3, 40))
    whole = elliptic_solve_batch(problem, pts)
    sliced = [elliptic_solve_batch(problem, pts[i:i + block]) for i in range(0, len(pts), block)]
    assert np.array_equal(whole, np.concatenate(sliced))
    for row in (0, 17, block - 1):
        assert elliptic_solve_batch(problem, pts[row])[0] == whole[row]


def test_elliptic_errors_name_the_global_sample(problem, monkeypatch):
    pts = np.random.default_rng(13).uniform(-1, 1, (2051, 40))
    pts[1500] = 60.0  # the sign flip of test_elliptic_positivity_guard, in the second block
    with pytest.raises(PositivityError, match="sample 1500 "):
        elliptic_solve_batch(problem, pts)
    pts[1500] = 0.0
    real = problems.coefficient_at_gauss_points

    def corrupted(prob, block):
        a = real(prob, block).copy()
        a[np.all(block == 0.0, axis=1), 40, 1] = np.nan
        return a

    monkeypatch.setattr(problems, "coefficient_at_gauss_points", corrupted)
    with pytest.raises(ConditioningError, match="sample 1500$"):
        elliptic_solve_batch(problem, pts)


@pytest.mark.parametrize("settings", [{}, {"dims": 4, "mesh_elements": 7}])
def test_coefficient_map_matches_kl_sum(settings):
    # mean_coeff + sigma_a * sum_i sqrt(lambda_i) phi_i(x_eg) y_i, with phi
    # from the expansion's own eigenfunctions at each element's Gauss points
    prob = elliptic_with(**settings)
    n_el = prob.mesh_elements
    xi = np.polynomial.legendre.leggauss(3)[0]
    x = (np.arange(n_el)[:, None] + (xi[None, :] + 1.0) / 2.0) / n_el
    phi = prob.kl.eigenfunctions(x)  # (n_el, 3, dims)
    y = np.random.default_rng(14).uniform(-1, 1, (5, prob.dims))
    want = prob.mean_coeff + prob.sigma_a * np.einsum(
        "egi,i,ni->neg", phi, np.sqrt(prob.kl.eigenvalues), y)
    got = problems.coefficient_at_gauss_points(prob, y)
    assert got.shape == (5, n_el, 3)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("build, settings, name", [
    (problems.EllipticProblem, {"dims": 0}, "dims"),
    (problems.EllipticProblem, {"dims": 2.5}, "dims"),
    (problems.EllipticProblem, {"dims": -3}, "dims"),
    (problems.EllipticProblem, {"dims": 129}, "dims"),
    (problems.EllipticProblem, {"dims": 2.0}, "dims"),
    (functools.partial(kl_decompose, 0.1), {"d": 2.0, "n_grid": 64}, "d"),
    (functools.partial(kl_decompose, 0.1), {"d": 4, "n_grid": 600.5}, "n_grid"),
    (problems.EllipticProblem, {"dims": 58}, "dims"),
])
def test_bad_counts_are_refused_by_name(build, settings, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        build(**settings)


@functools.lru_cache(maxsize=None)
def _small_elliptic():
    return elliptic_with(dims=4, mesh_elements=7)


def _small_pc_data():
    rng = np.random.default_rng(15)
    return SampleSet(rng.standard_normal((30, 2)), rng.standard_normal(30), Family.HERMITE)


# each public count of this module: (call with the count, its name, its least value, a valid value)
_COUNT_SITES = {
    "manufactured_sample-n": (lambda v: manufactured_sample(v, 0), "n", 1, 3),
    "manufactured_sample-seed": (lambda v: manufactured_sample(3, v), "seed", 0, 3),
    "elliptic_sample-n": (lambda v: elliptic_sample(_small_elliptic(), v, 0), "n", 1, 3),
    "elliptic_sample-seed": (lambda v: elliptic_sample(_small_elliptic(), 3, v), "seed", 0, 3),
    "manufactured_model-max_degree": (manufactured_model, "max_degree", 3, 4),
    "mc_baseline-n": (lambda v: mc_baseline(lambda n, s: np.arange(n, dtype=float), v, 0),
                      "n", 2, 3),
    "total_degree_indices-dims": (lambda v: _total_degree_indices(v, 1), "dims", 1, 3),
    "total_degree_indices-degree": (lambda v: _total_degree_indices(3, v), "degree", 0, 2),
    "pc_regression_baseline-total_degree": (
        lambda v: pc_regression_baseline(_small_pc_data(), v), "total_degree", 0, 1),
    "kl_decompose-d": (lambda v: kl_decompose(0.1, v, 64), "d", 1, 4),
}


@pytest.mark.parametrize("case", ["fraction", "integral-float", "bool", "below-least"])
@pytest.mark.parametrize("site", sorted(_COUNT_SITES))
def test_every_count_follows_the_one_rule(site, case):
    # a float, even an integral one, a bool and a value below the least are
    # refused with a ValueError naming the count; a NumPy integer is a count
    call, name, least, valid = _COUNT_SITES[site]
    bad = {"fraction": 2.5, "integral-float": float(least), "bool": True,
           "below-least": least - 1}[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, got "):
        call(bad)
    call(np.int64(valid))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_elliptic_non_finite_input_is_a_domain_error(problem, bad):
    pts = np.zeros((3, 40))
    pts[1, 7] = bad
    with pytest.raises(DomainError):
        elliptic_solve_batch(problem, pts)


def test_elliptic_wrong_width_is_a_domain_error(problem):
    for points in (np.zeros((2, 39)), np.zeros(39)):
        with pytest.raises(DomainError, match=r"\(n, 40\)"):
            elliptic_solve_batch(problem, points)
    assert issubclass(DomainError, ValueError)


def test_elliptic_empty_batch(problem):
    out = elliptic_solve_batch(problem, np.zeros((0, 40)))
    assert out.shape == (0,)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_elliptic_bad_pivot_is_a_conditioning_error(problem, monkeypatch, bad):
    real = problems.coefficient_at_gauss_points

    def corrupted(prob, pts):
        a = real(prob, pts).copy()
        a[2, 40, 1] = bad
        return a

    monkeypatch.setattr(problems, "coefficient_at_gauss_points", corrupted)
    pts = np.random.default_rng(8).uniform(-1, 1, (4, 40))
    with pytest.raises(ConditioningError, match="sample 2"):
        elliptic_solve_batch(problem, pts)


def test_elliptic_large_batch_memory_is_bounded(problem):
    # the solve works in fixed-size blocks, so its peak must not grow with the
    # batch: beyond the (n,) result, each of at most two workers holds its
    # buffer of 7 n_el + 1 rows per block sample, one block's three
    # coefficient planes and at most one copy of them, and its padded
    # inputs, 2 x (897 + 768 + 40) x 1,024 x 8 B = 27.9 MB at 128 elements
    n, block = 50_000, problems._SOLVE_BLOCK
    rows = 7 * problem.mesh_elements + 1 + 2 * 3 * problem.mesh_elements + problem.dims
    bound = 2 * rows * block * 8 + 8 * n
    pts = np.random.default_rng(9).uniform(-1, 1, (n, 40))
    tracemalloc.start()
    try:
        out = elliptic_solve_batch(problem, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n,) and np.all(out > 0.0)
    assert peak < bound


@pytest.fixture
def openblas(monkeypatch):
    """NumPy reports OpenBLAS, so the solve reads OPENBLAS_NUM_THREADS first on any host."""
    monkeypatch.setattr(np, "show_config", lambda mode: {
        "Build Dependencies": {"blas": {"name": "scipy-openblas", "version": "0.1"}}})


@pytest.fixture(params=[1, 2, 8], ids=["1-cpu", "2-cpus", "8-cpus"])
def solve_workers(request, monkeypatch, openblas):
    """Pin BLAS at one thread and force the CPU count the solve reads; it caps
    workers at 2 and by blocks."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(problems, "_usable_cpus", lambda: request.param)


def test_every_solve_worker_count_equals_one_worker_bit_for_bit(problem, solve_workers,
                                                                monkeypatch):
    block = problems._SOLVE_BLOCK
    pts = np.random.default_rng(16).uniform(-1, 1, (5 * block + 7, 40))
    sizes = (1, block + 3, 5 * block + 7)
    got = [elliptic_solve_batch(problem, pts[:n]) for n in sizes]
    assert elliptic_solve_batch(problem, np.zeros((0, 40))).shape == (0,)
    monkeypatch.setattr(problems, "_usable_cpus", lambda: 1)
    for n, values in zip(sizes, got):
        assert np.array_equal(values, elliptic_solve_batch(problem, pts[:n])), n


@pytest.mark.parametrize("error, bad", [(PositivityError, 60.0), (ConditioningError, 0.0)])
def test_the_lowest_bad_solve_block_sets_the_error_for_every_worker_count(
        problem, solve_workers, monkeypatch, error, bad):
    # bad rows in blocks 1 and 3 of 6: one share at one worker, two shares at
    # two; block 1 is held back, so block 3's error comes first in time, yet
    # the error is block 1's, as at one worker. An all-zero row gets a NaN
    # coefficient, which passes the positivity check and fails a pivot
    block = problems._SOLVE_BLOCK
    pts = np.random.default_rng(17).uniform(-1, 1, (5 * block + 7, 40))
    pts[[block + 5, 3 * block + 5]] = bad
    real = problems.coefficient_at_gauss_points

    def late_first_error(prob, rows):
        if np.shares_memory(rows, pts[block + 5]):
            time.sleep(0.1)
        a = real(prob, rows).copy()
        a[np.all(rows == 0.0, axis=1), 40, 1] = np.nan
        return a

    monkeypatch.setattr(problems, "coefficient_at_gauss_points", late_first_error)
    with pytest.raises(error, match=f"sample {block + 5}\\b") as got:
        elliptic_solve_batch(problem, pts)
    monkeypatch.setattr(problems, "_usable_cpus", lambda: 1)
    with pytest.raises(error) as serial:
        elliptic_solve_batch(problem, pts)
    assert str(got.value) == str(serial.value)


@pytest.mark.usefixtures("openblas")
def test_solve_worker_threads_are_capped_and_end_with_the_call(problem, monkeypatch):
    # three blocks on eight forced CPUs: two workers, the calling thread and
    # one pool thread, solving at once (each waits for the other at its first
    # block), and no thread is left after the call
    idents = set()
    both_started = threading.Barrier(2, timeout=30)
    real = problems.coefficient_at_gauss_points

    def recording_coefficients(prob, rows):
        if threading.get_ident() not in idents:
            idents.add(threading.get_ident())
            both_started.wait()
        return real(prob, rows)

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(problems, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(problems, "coefficient_at_gauss_points", recording_coefficients)
    pts = np.random.default_rng(18).uniform(-1, 1, (3 * problems._SOLVE_BLOCK, 40))
    before = set(threading.enumerate())
    elliptic_solve_batch(problem, pts)
    assert set(threading.enumerate()) == before
    assert len(idents) == 2 and threading.get_ident() in idents


@pytest.mark.usefixtures("openblas")
@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"},
                                 {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}],
                         ids=["unset", "two-threads", "first-set-wins"])
def test_a_blas_not_pinned_to_one_thread_solves_on_the_calling_thread(problem, monkeypatch,
                                                                      env):
    # a BLAS that threads its own products leaves no CPU for a second worker
    for names in _BLAS_THREAD_VARIABLES.values():
        for var in names:
            monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    idents = set()
    real = problems.coefficient_at_gauss_points
    monkeypatch.setattr(problems, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(problems, "coefficient_at_gauss_points",
                        lambda prob, rows: idents.add(threading.get_ident()) or real(prob, rows))
    pts = np.random.default_rng(19).uniform(-1, 1, (3 * problems._SOLVE_BLOCK, 40))
    before = set(threading.enumerate())
    elliptic_solve_batch(problem, pts)
    assert set(threading.enumerate()) == before
    assert idents == {threading.get_ident()}


@pytest.mark.usefixtures("openblas")
@pytest.mark.parametrize("cpus", [2, 8])
def test_many_cpus_keep_the_solve_memory_within_its_block_bound(problem, monkeypatch, cpus):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(problems, "_usable_cpus", lambda: cpus)
    test_elliptic_large_batch_memory_is_bounded(problem)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_mc_baseline_constant():
    res = mc_baseline(lambda n, s: np.full(n, 3.0), 100, seed=0)
    assert res.mean == 3.0 and res.std == 0.0 and res.stderr_std == 0.0


@pytest.mark.parametrize("returned", [3, 9, 11])
def test_mc_baseline_refuses_a_sampler_result_of_another_length(returned):
    # three values for n = 10 used to report n = 10 and a stderr of 1/sqrt(10)
    with pytest.raises(ValueError, match=f"^sampler returned {returned} values for n = 10$"):
        mc_baseline(lambda n, s: np.arange(returned, dtype=float), 10, seed=0)


def test_mc_baseline_manufactured():
    def sampler(n, seed):
        return manufactured_sample(n, seed, noisy=False).outputs

    res = mc_baseline(sampler, 1_000_000, seed=3)
    assert abs(res.mean - MANUFACTURED_MEAN) <= 3 * res.stderr_mean
    assert res.stderr_mean == pytest.approx(res.std / math.sqrt(res.n), abs=1e-12)


def test_total_degree_index_count():
    assert len(_total_degree_indices(10, 3)) == math.comb(13, 3)
    assert len(_total_degree_indices(40, 3)) == math.comb(43, 3)
    assert _total_degree_indices(3, 1) == [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    ]


def test_pc_regression_recovers_polynomial():
    rng = np.random.default_rng(8)
    d, p, n = 4, 2, 400
    pts = rng.standard_normal((n, d))
    basis = BasisSpec(Family.HERMITE, p)
    psi = eval_basis_batch(basis, pts)
    out = 1.5 - 0.7 * psi[:, 2, 1] + 0.3 * psi[:, 0, 2] + 0.2 * psi[:, 1, 1] * psi[:, 3, 1]
    data = SampleSet(pts, out, Family.HERMITE)
    coeffs, mean_est, std_est = pc_regression_baseline(data, p)
    assert mean_est == pytest.approx(1.5, abs=1e-8)
    true_var = 0.7**2 + 0.3**2 + 0.2**2
    assert std_est == pytest.approx(math.sqrt(true_var), abs=1e-8)


def test_pc_regression_on_manufactured_misses_high_degree_term():
    # the two-way degree-6 interaction is orthogonal to every total-degree-3
    # polynomial, so its variance contribution (0.5) is lost and the recovered
    # variance approaches 0.26
    data = manufactured_sample(30000, seed=9, noisy=False)
    _, mean_est, std_est = pc_regression_baseline(data, 3)
    assert mean_est == pytest.approx(MANUFACTURED_MEAN, abs=2e-2)
    assert std_est**2 == pytest.approx(0.26, abs=3e-2)


def test_pc_regression_constant_data():
    rng = np.random.default_rng(10)
    data = SampleSet(rng.standard_normal((300, 3)), np.full(300, 2.5), Family.HERMITE)
    coeffs, mean_est, std_est = pc_regression_baseline(data, 2)
    assert mean_est == pytest.approx(2.5, abs=1e-10)
    assert std_est < 1e-9
    assert np.max(np.abs(coeffs[1:])) < 1e-10


def test_pc_regression_refuses_a_rank_deficient_design():
    # every input is zero, so the degree-1 columns vanish and only the constant is left
    data = SampleSet(np.zeros((10, 2)), np.arange(10.0), "hermite")
    with pytest.raises(ConditioningError,
                       match=r"^rank-deficient design matrix \(rank 1 of 3 columns\)"):
        pc_regression_baseline(data, 1)


def test_pc_regression_refuses_underdetermined():
    rng = np.random.default_rng(11)
    data = SampleSet(rng.uniform(-1, 1, (600, 40)), np.zeros(600), Family.LEGENDRE)
    with pytest.raises(ConditioningError, match="only 600 samples"):
        pc_regression_baseline(data, 3)


def test_pc_regression_refuses_before_it_enumerates(monkeypatch):
    # C(70, 30) = 5.5e19 indices: the count alone refuses, before any is built
    def enumerate_indices(dims, degree):
        raise AssertionError("the total-degree indices were enumerated")

    monkeypatch.setattr(problems, "_total_degree_indices", enumerate_indices)
    data = SampleSet(np.zeros((5, 40)), np.zeros(5), Family.LEGENDRE)
    with pytest.raises(ConditioningError,
                       match=f"^total-degree-30 basis in 40 dims has {math.comb(70, 30)} "
                             "functions but only 5 samples are available; "
                             "increase N or reduce the degree$"):
        pc_regression_baseline(data, 30)
