import json
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from helpers import mc_model_moments, naive_evaluate, random_model, unblocked_evaluate
from seprep import model as model_module
from seprep.basis import BasisSpec, Family, eval_basis_batch, gauss_quadrature
from seprep.errors import DomainError
from seprep.model import (
    SampleSet,
    SeparatedModel,
    empirical_norm,
    evaluate_batch,
    load_model,
    mean,
    model_from_dict,
    model_to_dict,
    moment,
    save_model,
    second_moment,
    standard_deviation,
)
from seprep.problems import manufactured_model


def constant_model(dims=3, scale=2.0, degree=2):
    coeffs = np.zeros((dims, 1, degree + 1))
    coeffs[:, 0, 0] = 1.0
    return SeparatedModel(BasisSpec(Family.HERMITE, degree), np.array([scale]), coeffs)


def test_evaluate_constant_factors():
    m = constant_model(scale=2.0)
    for y in ([0.0, 0.0, 0.0], [1.3, -0.2, 4.0]):
        assert evaluate_batch(m, y) == pytest.approx(2.0, abs=1e-15)


def test_evaluate_benchmark_at_origin():
    # hand value: 0.55 + 2*(-sqrt(2)/4)*(-1/sqrt(2)) = 1.05
    m = manufactured_model()
    assert evaluate_batch(m, np.zeros(10)) == pytest.approx(1.05, abs=1e-14)


def test_evaluate_matches_naive_tensor_loop():
    rng = np.random.default_rng(3)
    m = random_model(rng, dims=4, rank=3, degree=3)
    pts = rng.standard_normal((100, 4))
    fast = evaluate_batch(m, pts)
    for j in range(100):
        assert fast[j] == pytest.approx(naive_evaluate(m, pts[j]), rel=1e-12, abs=1e-12)


def _points(family, rng, n, dims):
    if family == "hermite":
        return rng.standard_normal((n, dims))
    return rng.uniform(-1.0, 1.0, (n, dims))


@pytest.mark.parametrize("family", ["hermite", "legendre"])
@pytest.mark.parametrize("dims, degree", [(1, 0), (1, 4), (40, 0), (40, 4)])
def test_blocked_evaluation_equals_one_product_bit_for_bit(family, dims, degree):
    B = model_module._EVAL_BLOCK
    rng = np.random.default_rng(41)
    m = random_model(rng, dims=dims, rank=3, degree=degree, family=family)
    pts = _points(family, rng, 2 * B + 3, dims)
    for n in (0, 1, B - 1, B, B + 1, 2 * B + 3):
        got = evaluate_batch(m, pts[:n])
        assert got.shape == (n,)
        assert np.array_equal(got, unblocked_evaluate(m, pts[:n])), n


@pytest.mark.parametrize("family, bad", [
    ("legendre", 1.0 + 1e-12), ("legendre", np.nan),
    ("hermite", np.inf), ("hermite", -np.inf), ("hermite", np.nan),
], ids=["outside", "nan", "hermite-inf", "hermite-minus-inf", "hermite-nan"])
def test_bad_point_in_the_last_ragged_block_is_a_domain_error(family, bad):
    B = model_module._EVAL_BLOCK
    rng = np.random.default_rng(42)
    m = random_model(rng, dims=3, rank=2, degree=2, family=family)
    pts = _points(family, rng, 2 * B + 3, 3)
    evaluate_batch(m, pts)
    pts[2 * B + 1, 2] = bad
    with pytest.raises(DomainError):
        evaluate_batch(m, pts)


def test_evaluation_memory_is_bounded_by_one_block():
    # evaluation works in fixed row blocks, so beyond the (N,) result its
    # peak must not grow with N; one unblocked product over these points
    # peaks above 50 MB
    m = random_model(np.random.default_rng(43), dims=40, rank=5, degree=4, family="legendre")
    pts = np.random.default_rng(44).uniform(-1.0, 1.0, (400_000, 40))
    tracemalloc.start()
    try:
        out = evaluate_batch(m, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (400_000,) and np.all(np.isfinite(out))
    assert peak < 20e6


@pytest.mark.parametrize("count, usable", [(None, 1), (3, 3)])
def test_without_an_affinity_mask_the_cpu_count_is_read(monkeypatch, count, usable):
    # macOS and Windows have no sched_getaffinity; an unknown count is one CPU
    monkeypatch.delattr(model_module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(model_module.os, "cpu_count", lambda: count)
    assert model_module._usable_cpus() == usable


# every variable some BLAS reads for its thread count
_ALL_BLAS_THREAD_VARIABLES = sorted(
    {var for names in model_module._BLAS_THREAD_VARIABLES.values() for var in names})


# "blas" in env is the BLAS name np.show_config reports (OpenBLAS when absent);
# the rest are thread variables
@pytest.mark.parametrize("env, threads", [
    ({}, None),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "3"}, 3),
    ({"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 2),
    ({"blas": "mkl-sdl", "MKL_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4),
    # a value that is not a positive integer is skipped, as OpenBLAS skips it
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "two", "OMP_NUM_THREADS": " 2 "}, 2),
    ({"OPENBLAS_NUM_THREADS": "-1"}, None),
    # each BLAS reads its own variables: OpenBLAS never reads MKL's, so the
    # FEM solve stays on one worker here
    ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
    ({"GOTO_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 3),
    ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1"}, 2),
    ({"blas": "openblas", "GOTO_NUM_THREADS": "1"}, 1),
    ({"blas": "mkl", "OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "1",
      "OMP_NUM_THREADS": "2"}, 2),
    ({"blas": "mkl-dynamic-lp64-seq", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "3"}, 1),
    ({"blas": "accelerate", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, None),
    ({"blas": "blis", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
])
def test_the_blas_thread_count_asked_for_is_read(monkeypatch, env, threads):
    env = dict(env)
    name = env.pop("blas", "scipy-openblas")
    monkeypatch.setattr(model_module.np, "show_config", lambda mode: {
        "Build Dependencies": {"blas": {"name": name, "version": "0.1"}}})
    for var in _ALL_BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert model_module._blas() == {"blas": f"{name} 0.1", "blas_threads": threads}


def test_a_blas_numpy_does_not_name_reads_omp_num_threads(monkeypatch):
    monkeypatch.setattr(model_module.np, "show_config", lambda mode: {})
    for var in _ALL_BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(var, "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert model_module._blas() == {"blas": "unknown", "blas_threads": 2}


def test_the_blas_is_named_as_numpy_reports_it():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert model_module._blas()["blas"] == f"{blas['name']} {blas['version']}"


@pytest.fixture(params=[1, 2, 8], ids=["1-cpu", "2-cpus", "8-cpus"])
def workers(request, monkeypatch):
    """Force the CPU count evaluate_batch reads; it caps workers at 2 and by blocks."""
    monkeypatch.setattr(model_module, "_usable_cpus", lambda: request.param)


@pytest.mark.parametrize("family", ["hermite", "legendre"])
def test_every_worker_count_equals_one_product_bit_for_bit(family, workers):
    # 9 dimensions: two workers transpose 5 and then 4 at a time
    B = model_module._EVAL_BLOCK
    rng = np.random.default_rng(45)
    m = random_model(rng, dims=9, rank=3, degree=4, family=family)
    pts = _points(family, rng, 5 * B + 7, 9)
    for n in (2 * B + 3, 5 * B + 7):
        assert np.array_equal(evaluate_batch(m, pts[:n]), unblocked_evaluate(m, pts[:n])), n


def test_the_lowest_bad_block_sets_the_error_for_every_worker_count(workers, monkeypatch):
    # bad points in blocks 1 and 3 of 5: one share at one worker, two shares
    # at two; block 1's check is held back, so block 3's error comes first
    # in time, yet the error is block 1's, as at one worker
    B = model_module._EVAL_BLOCK
    rng = np.random.default_rng(46)
    m = random_model(rng, dims=3, rank=2, degree=2, family="legendre")
    pts = _points("legendre", rng, 5 * B + 7, 3)
    pts[B + 5, 2] = 1.5
    pts[3 * B + 5, 0] = 2.5

    def late_first_error(spec, y):
        if np.any(y == 1.5):
            time.sleep(0.1)
        return eval_basis_batch(spec, y)

    monkeypatch.setattr(model_module, "eval_basis_batch", late_first_error)
    with pytest.raises(DomainError) as got:
        evaluate_batch(m, pts)
    monkeypatch.setattr(model_module, "_usable_cpus", lambda: 1)
    with pytest.raises(DomainError) as serial:
        evaluate_batch(m, pts)
    assert str(got.value) == str(serial.value) == (
        "Legendre basis requires inputs in [-1, 1]; got value 1.5")


@pytest.mark.parametrize("cpus", [2, 8])
def test_many_cpus_keep_evaluation_memory_within_one_block_bound(cpus, monkeypatch):
    monkeypatch.setattr(model_module, "_usable_cpus", lambda: cpus)
    test_evaluation_memory_is_bounded_by_one_block()


def test_worker_threads_are_capped_and_end_with_the_call(monkeypatch):
    # three blocks on eight forced CPUs: two workers, the calling thread and
    # one pool thread, evaluating at once (each waits for the other at its
    # first call), and no thread is left after the call
    B = model_module._EVAL_BLOCK
    idents = set()
    both_started = threading.Barrier(2, timeout=30)

    def recording_eval(spec, y):
        if threading.get_ident() not in idents:
            idents.add(threading.get_ident())
            both_started.wait()
        return eval_basis_batch(spec, y)

    monkeypatch.setattr(model_module, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(model_module, "eval_basis_batch", recording_eval)
    rng = np.random.default_rng(47)
    m = random_model(rng, dims=2, rank=2, degree=2)
    pts = rng.standard_normal((3 * B, 2))
    before = set(threading.enumerate())
    evaluate_batch(m, pts)
    assert set(threading.enumerate()) == before
    assert len(idents) == 2 and threading.get_ident() in idents


def test_points_with_more_than_two_axes_are_refused():
    with pytest.raises(ValueError, match=r"got shape \(3, 2, 4\)"):
        evaluate_batch(constant_model(dims=4), np.zeros((3, 2, 4)))


def test_mean_trivial_and_benchmark():
    m1 = constant_model(scale=0.55)
    assert mean(m1) == pytest.approx(0.55, abs=1e-15)
    assert mean(manufactured_model()) == pytest.approx(0.55, abs=1e-14)


def test_second_moment_benchmark():
    # 0.55^2 + 0.76 for the exact five-term encoding
    assert second_moment(manufactured_model()) == pytest.approx(1.0625, abs=1e-13)


def test_second_moment_normalized_rank_one():
    coeffs = np.zeros((4, 1, 3))
    coeffs[:, 0, 1] = 1.0  # unit-norm factor per dimension
    m = SeparatedModel(BasisSpec(Family.HERMITE, 2), np.array([3.0]), coeffs)
    assert second_moment(m) == pytest.approx(9.0, abs=1e-13)


@pytest.mark.parametrize("family", ["hermite", "legendre"])
def test_mean_and_second_moment_match_monte_carlo(family):
    rng = np.random.default_rng(11)
    m = random_model(rng, dims=4, rank=3, degree=3, family=family)
    mc_mean, se_mean = mc_model_moments(m, 1_000_000, seed=5)
    assert abs(mean(m) - mc_mean) <= 3.0 * se_mean
    mc_m2, se_m2 = mc_model_moments(m, 1_000_000, seed=6, power=2)
    assert abs(second_moment(m) - mc_m2) <= 3.0 * se_m2


def test_moment_consistency_with_closed_forms():
    rng = np.random.default_rng(7)
    m = random_model(rng, dims=3, rank=2, degree=3)
    assert moment(m, 1) == pytest.approx(mean(m), rel=1e-12, abs=1e-12)
    assert moment(m, 2) == pytest.approx(second_moment(m), rel=1e-12)


@pytest.mark.parametrize("family", ["hermite", "legendre"])
def test_moment_sizes_the_least_exact_rule(family, monkeypatch):
    # u^m has degree m*M in each dimension: the ceil((m*M + 1) / 2)-point
    # rule moment asks for must agree with a tensor rule 6 points larger,
    # which integrates the evaluated surrogate by another route
    sizes = []

    def recording_rule(spec, n_points):
        sizes.append(n_points)
        return gauss_quadrature(spec, n_points)

    monkeypatch.setattr(model_module, "gauss_quadrature", recording_rule)
    rng = np.random.default_rng(48)
    for M in range(5):
        model = random_model(rng, dims=3, rank=2, degree=M, family=family)
        for m in range(1, 5):
            least = -(-(m * M + 1) // 2)
            nodes, weights = gauss_quadrature(model.basis, least + 6)
            grid = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1)
            w = np.einsum("i,j,k->ijk", weights, weights, weights).ravel()
            oracle = float(w @ evaluate_batch(model, grid.reshape(-1, 3)) ** m)
            sizes.clear()
            assert moment(model, m) == pytest.approx(oracle, rel=1e-12, abs=1e-14), (M, m)
            assert sizes == [least], (M, m)


def test_fourth_moment_of_benchmark_against_grid_oracle():
    # u^4 of the benchmark has per-dimension degree 12 and only five active
    # dimensions, so a 7-point tensor rule evaluates E[u^4] exactly through a
    # completely separate route (direct evaluation of the closed form on the
    # grid). Monte Carlo is useless here: the integrand's tails make a 1e7
    # sample estimate biased low with an untrustworthy standard error.
    from seprep.basis import eval_basis_batch, gauss_quadrature

    m = manufactured_model()
    m4 = moment(m, 4)
    nodes, weights = gauss_quadrature(m.basis, 7)
    psi = eval_basis_batch(m.basis, nodes)
    g1, g2, g3, g8, g9 = np.meshgrid(*([nodes] * 5), indexing="ij")
    idx = np.meshgrid(*([np.arange(7)] * 5), indexing="ij")
    s = (0.55, math.sqrt(2) / 2, -math.sqrt(2) / 4, -math.sqrt(2) / 4, -0.1)
    u = (
        s[0]
        + s[1] * psi[idx[0], 3] * psi[idx[1], 3]
        + s[2] * psi[idx[2], 2]
        + s[3] * psi[idx[3], 2]
        + s[4] * psi[idx[4], 3]
    )
    w = (
        weights[idx[0]] * weights[idx[1]] * weights[idx[2]]
        * weights[idx[3]] * weights[idx[4]]
    )
    oracle = float(np.sum(w * u**4))
    assert m4 == pytest.approx(oracle, rel=1e-11)


def test_fourth_moment_against_monte_carlo_light_tails():
    # moderate degree-2 model: u^4 has finite, well-estimated variance so the
    # three-sigma Monte Carlo comparison is statistically meaningful
    rng = np.random.default_rng(40)
    m = random_model(rng, dims=3, rank=2, degree=2)
    m.coeffs *= 0.5
    m4 = moment(m, 4)
    mc_m4, se = mc_model_moments(m, 2_000_000, seed=17, power=4)
    assert abs(m4 - mc_m4) <= 3.0 * se


@pytest.mark.parametrize("field, m, max_degree", [
    ("m", 2.5, 10), ("m", 2.0, 10), ("m", True, 10), ("m", "2", 10), ("m", 0, 10),
])
def test_moment_refuses_non_integer_counts(field, m, max_degree):
    # the order is refused before it sizes a rule for the model's degree
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        moment(manufactured_model(max_degree), m)


def test_moment_takes_numpy_integer_counts():
    m = manufactured_model()
    assert moment(m, np.int64(2)) == moment(m, 2)


def test_empirical_norm():
    assert empirical_norm([1.0, 1.0, 1.0, 1.0]) == 1.0
    assert empirical_norm([2.0, 0.0]) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(321)
    assert empirical_norm(v) == pytest.approx(float(np.sqrt((v @ v) / v.size)), abs=1e-15)
    with pytest.raises(ValueError, match="at least one value"):
        empirical_norm([])


def test_cauchy_schwarz_over_random_models():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        m = random_model(rng, dims=3, rank=2, degree=2)
        m2 = second_moment(m)
        assert m2 >= 0.0
        assert mean(m) ** 2 <= m2 * (1.0 + 1e-12)


def test_evaluate_linear_in_scales_and_coefficients():
    rng = np.random.default_rng(5)
    m = random_model(rng, dims=3, rank=2, degree=2)
    y = rng.standard_normal(3)
    base = evaluate_batch(m, y)
    # doubling one scale doubles that term's contribution
    m2 = m.copy()
    m2.scales[0] *= 2.0
    m_only0 = m.copy()
    m_only0.scales = m.scales * np.array([1.0, 1e-300])
    # finite-difference style probe through a coefficient slice
    m3 = m.copy()
    m3.coeffs[1, 0, :] *= 3.0
    m_rest = m.copy()
    m_rest.scales = m.scales * np.array([1e-300, 1.0])
    term0 = base - evaluate_batch(m_rest, y)
    assert evaluate_batch(m2, y) == pytest.approx(base + term0, rel=1e-10, abs=1e-12)
    assert evaluate_batch(m3, y) == pytest.approx(base + 2.0 * term0, rel=1e-10, abs=1e-12)


def test_scale_rescaling_invariance():
    rng = np.random.default_rng(9)
    m = random_model(rng, dims=3, rank=2, degree=2)
    y = rng.standard_normal(3)
    gamma = 3.7
    m2 = m.copy()
    m2.scales = m.scales.copy()
    m2.scales[1] *= gamma
    m2.coeffs[0, 1, :] /= gamma
    assert evaluate_batch(m2, y) == pytest.approx(evaluate_batch(m, y), rel=1e-12)


@pytest.mark.parametrize("k", [-1000, -7, 3, 532, 664, 997])
def test_standard_deviation_scales_exactly(k):
    # scales of order 1e200 square past the double range; power-of-two
    # scaling must move the result by exactly that power
    m = manufactured_model(4)
    m2 = SeparatedModel(m.basis, np.ldexp(m.scales, k), m.coeffs)
    assert standard_deviation(m2) == math.ldexp(standard_deviation(m), k)
    assert standard_deviation(m) == pytest.approx(math.sqrt(second_moment(m) - mean(m) ** 2),
                                                  rel=1e-14)


def test_model_validation():
    with pytest.raises(ValueError):
        SeparatedModel(BasisSpec(Family.HERMITE, 1), np.array([0.0]), np.ones((2, 1, 2)))
    with pytest.raises(ValueError):
        SeparatedModel(BasisSpec(Family.HERMITE, 1), np.array([1.0]), np.ones((2, 1, 3)))
    spec = BasisSpec(Family.HERMITE, 1)
    with pytest.raises(ValueError, match="coeffs must have shape"):
        SeparatedModel(spec, np.ones(1), np.ones((2, 2)))
    for shape in ((0, 1, 2), (2, 0, 2)):
        with pytest.raises(ValueError, match="dims >= 1 and rank >= 1"):
            SeparatedModel(spec, np.ones(shape[1]), np.ones(shape))
    with pytest.raises(ValueError, match="scales length must equal the rank"):
        SeparatedModel(spec, np.ones(2), np.ones((2, 1, 2)))


def test_evaluate_batch_refuses_points_of_the_wrong_dimension():
    m = constant_model(dims=3)
    for points in ([0.0, 0.0], np.zeros((5, 4))):
        with pytest.raises(ValueError, match="expected 3-dimensional points, got"):
            evaluate_batch(m, points)


@pytest.mark.parametrize("scale, coeff", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.inf),
                                          (1.0, -np.inf), (1.0, np.nan)])
def test_non_finite_model_is_refused(scale, coeff):
    coeffs = np.ones((2, 1, 2))
    coeffs[1, 0, 1] = coeff
    with pytest.raises(ValueError, match="finite"):
        SeparatedModel(BasisSpec(Family.HERMITE, 1), np.array([scale]), coeffs)


@pytest.mark.parametrize("key, value, named", [
    ("scales", [1.0, float("nan")], "finite"),  # JSON readers take NaN; the model must not
    ("max_degree", 1.7, "max_degree"),
    ("max_degree", True, "max_degree"),
    # the header counts follow the one count rule too: int() would read 2.7 as 2
    ("dims", 2.7, "^dims must be an integer >= 1, got 2.7"),
    ("rank", 2.0, "^rank must be an integer >= 1, got 2.0"),
], ids=["nan-scale", "float-degree", "bool-degree", "float-dims", "integral-float-rank"])
def test_model_document_with_bad_values_is_refused(tmp_path, key, value, named):
    doc = model_to_dict(random_model(np.random.default_rng(23), dims=2, rank=2, degree=1))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(doc, **{key: value})))
    with pytest.raises(ValueError, match=named):
        load_model(path)


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.0, np.nan]]), np.array([1.0]), Family.HERMITE)
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.0, 1.5]]), np.array([1.0]), Family.LEGENDRE)
    with pytest.raises(ValueError):
        SampleSet(np.ones((3, 2)), np.ones(2), Family.HERMITE)
    with pytest.raises(ValueError, match="outputs must be finite"):
        SampleSet(np.zeros((2, 2)), np.array([1.0, np.inf]), Family.HERMITE)
    with pytest.raises(ValueError, match="at least one point"):
        SampleSet(np.zeros((0, 2)), np.zeros(0), Family.HERMITE)


@pytest.mark.parametrize("family, bad", [
    ("legendre", 1.5), ("legendre", -np.inf), ("legendre", np.nan),
    ("hermite", np.nan), ("hermite", np.inf),
])
def test_a_bad_input_is_one_domain_error_in_sample_set_and_basis(family, bad):
    pts = np.zeros((3, 2))
    pts[1, 1] = bad
    with pytest.raises(DomainError) as in_set:
        SampleSet(pts, np.ones(3), family)
    with pytest.raises(DomainError) as in_basis:
        eval_basis_batch(BasisSpec(family, 2), pts)
    assert str(in_set.value) == str(in_basis.value)


def test_json_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    m = random_model(rng, dims=5, rank=4, degree=3)
    path = tmp_path / "model.json"
    save_model(m, path)
    assert path.read_text().endswith("\n")
    back = load_model(path)
    assert back.scales.tobytes() == m.scales.tobytes()
    assert back.coeffs.tobytes() == m.coeffs.tobytes()
    assert back.basis == m.basis
    for key, value in (("dims", 4), ("rank", 5)):
        doc = dict(model_to_dict(m), **{key: value})
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="header"):
            load_model(path)


@pytest.mark.parametrize("remove, add, named", [
    (["family"], {}, r"unknown keys \[\] and missing keys \['family'\]"),
    ([], {"degree": 3}, r"unknown keys \['degree'\] and missing keys \[\]"),
    (["rank", "dims"], {"terms": 4}, r"\['terms'\] and missing keys \['dims', 'rank'\]"),
], ids=["no-family", "unknown-key", "both"])
def test_model_document_with_wrong_keys_is_refused(remove, add, named):
    doc = model_to_dict(random_model(np.random.default_rng(22), dims=2, rank=1, degree=1))
    for key in remove:
        del doc[key]
    with pytest.raises(ValueError, match=named):
        model_from_dict(dict(doc, **add))


def test_a_model_document_that_is_not_an_object_is_refused():
    with pytest.raises(ValueError, match="^model document must be a JSON object, got list$"):
        model_from_dict([1, 2])
