import contextlib
import dataclasses
import logging
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy
from scipy.linalg.lapack import dpotrf

from helpers import (
    build_B,
    error_indicator,
    fit_constants,
    fit_residual_on,
    fitter_at,
    naive_design_matrix,
    naive_sweep,
    normal_equation_pieces,
    one_sweep,
    quadrature_l2_distance,
    random_model,
    sigma_hat,
    tikhonov_factor,
)
from seprep import als, regularize
from seprep.als import FitConfig, fit_fixed
from seprep.basis import BasisSpec, Family, eval_basis_batch
from seprep.errors import (
    ConditioningError,
    DegenerateFactorError,
    DegenerateModelError,
    InvariantError,
)
from seprep.model import SampleSet, SeparatedModel, empirical_norm, evaluate_batch, mean
from seprep.problems import manufactured_sample
from seprep.regularize import TikhonovPath, gcv_select_lambda


def _gauss_data(rng, n, d):
    return rng.standard_normal((n, d))


def _sampled_from(model, n, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    pts = _gauss_data(rng, n, model.dims)
    out = evaluate_batch(model, pts)
    if noise:
        out = out + noise * rng.standard_normal(n)
    return SampleSet(pts, out, model.basis.family)


@contextlib.contextmanager
def _kernel_calls():
    """Record (AtA, Atu, uu, G, (c, lambda or None)) of every direction solve run inside the block.

    A plain context manager rather than a fixture, so that criterion 6 can
    call the tests that use it without arguments.
    """
    calls = []
    real = als._direction_solve

    def recording(AtA, Atu, uu, n, G, m):
        result = real(AtA, Atu, uu, n, G, m)
        # a stacked call solves one direction per slice: record each slice
        c, raw = result
        for b in range(AtA.shape[0]):
            lam = None if raw is None else raw[0][b]
            calls.append((AtA[b], Atu[b], uu, None if G is None else G[b], (c[b], lam)))
        return result

    als._direction_solve = recording
    try:
        yield calls
    finally:
        als._direction_solve = real


def _solve_one(A, u, G, m):
    """The kernel on a stack of one (N, r*m) design, then the normal-equation check a sweep runs.

    Returns (c, state or None, rn2).
    """
    AtA, Atu, uu, n = normal_equation_pieces(A[None], u)
    c, raw = als._direction_solve(AtA, Atu, uu, n, None if G is None else G[None], m)
    res = A @ c[0] - u
    rn2 = float(res @ res)
    solve = (AtA, Atu, c, raw, np.array([rn2]))
    als._check_normal_equations([solve])
    state = None if raw is None else als._regularization_state(solve[2:], 0, n, 0)
    return c[0], state, rn2


def _output_scale(data, uu_seen):
    """The power of two the fit divided the outputs by, read off the u . u the kernel saw.

    The fit works on outputs scaled into [0.5, 1) in magnitude, so its design
    matrices carry the same factor through the term scales, and A^T A and
    A^T u carry its square.
    """
    uu = float(data.outputs @ data.outputs)
    scale = np.sqrt(uu / uu_seen)
    assert np.frexp(scale)[0] == 0.5  # an exact power of two
    assert uu_seen * scale**2 == uu
    assert 0.5 <= np.max(np.abs(data.outputs)) / scale < 1.0
    return scale


def _assert_normal_equations_match(call, A, u, scale, rtol):
    """The sweep's A^T A and A^T u against those of design A, in the data's units."""
    AtA, Atu = call[0] * scale**2, call[1] * scale**2
    ref_AtA, ref_Atu, _, _ = normal_equation_pieces(A, u)
    assert np.max(np.abs(AtA - ref_AtA)) <= rtol * np.max(np.abs(ref_AtA))
    assert np.max(np.abs(Atu - ref_Atu)) <= rtol * np.max(np.abs(ref_Atu))


def test_design_matrix_constant_factors():
    # all factors identically one: the first direction's design reduces to the
    # basis values
    coeffs = np.zeros((3, 1, 3))
    coeffs[:, 0, 0] = 1.0
    m = SeparatedModel(BasisSpec(Family.HERMITE, 2), np.array([1.0]), coeffs)
    rng = np.random.default_rng(0)
    data = SampleSet(_gauss_data(rng, 20, 3), rng.standard_normal(20), Family.HERMITE)
    with _kernel_calls() as calls:
        one_sweep(data, m, FitConfig(rank_max=1, degree=2))
    psi = eval_basis_batch(m.basis, data.inputs[:, 0])
    _assert_normal_equations_match(calls[0], psi, data.outputs,
                                   _output_scale(data, calls[0][2]), 1e-14)


def test_design_matrix_hand_computed():
    # d=2, r=1, M=1, legendre; second factor sqrt(3)*y, scale 2, first sample (0.5, -0.5)
    coeffs = np.zeros((2, 1, 2))
    coeffs[0, 0, 0] = 1.0
    coeffs[1, 0, 1] = 1.0
    m = SeparatedModel(BasisSpec(Family.LEGENDRE, 1), np.array([2.0]), coeffs)
    rng = np.random.default_rng(1)
    pts = np.vstack([[0.5, -0.5], rng.uniform(-1.0, 1.0, (9, 2))])
    data = SampleSet(pts, rng.standard_normal(10), Family.LEGENDRE)
    with _kernel_calls() as calls:
        one_sweep(data, m, FitConfig(rank_max=1, degree=1))
    # row n is 2 * sqrt(3) y_n2 * (1, sqrt(3) y_n1)
    y1, y2 = pts.T
    A = (2.0 * np.sqrt(3.0) * y2)[:, None] * np.stack([np.ones(10), np.sqrt(3.0) * y1], axis=1)
    assert np.allclose(A[0], [-np.sqrt(3.0), -1.5], atol=1e-14)
    _assert_normal_equations_match(calls[0], A, data.outputs,
                                   _output_scale(data, calls[0][2]), 1e-14)


@pytest.mark.parametrize("degree", [0, 2, 4])
@pytest.mark.parametrize("rank", [1, 3, 5])
def test_exclusion_products_match_naive(rank, degree):
    # each direction's normal equations in a sweep: those of the design built
    # from the factors already updated in this sweep and those still frozen,
    # excluding its own; a single term and a degree-0 basis are the edges of
    # the (r, r, m, m) -> (r*m, r*m) rearrangement. Degree-0 factors are
    # constants, so several terms there need a penalty to be solvable. Each
    # later direction's design carries the earlier solves' rounding times
    # their conditioning: at (5, 4) on 40 rows it reaches 3e-6 relative by
    # the last direction, so 200 rows keep every direction comparable
    rng = np.random.default_rng(1)
    data = _sampled_from(random_model(rng, dims=6, rank=3, degree=1), 200, seed=2, noise=0.3)
    start = random_model(rng, dims=6, rank=rank, degree=degree)
    penalty = "diag_scale" if degree == 0 and rank > 1 else "none"
    cfg = FitConfig(rank_max=rank, degree=degree, penalty=penalty)
    with _kernel_calls() as calls:
        one_sweep(data, start, cfg)
    designs = naive_sweep(data, start, cfg)[3]
    assert len(calls) == len(designs) == 6
    for call, ref in zip(calls, designs):
        _assert_normal_equations_match(call, ref, data.outputs,
                                       _output_scale(data, call[2]), 1e-10)


@pytest.mark.parametrize("width", [1, 8])
@pytest.mark.parametrize("degree", [0, 2, 4])
@pytest.mark.parametrize("rank", [1, 3, 5])
def test_half_product_normal_matrix_matches_the_full_product(rank, degree, width):
    # the sweep forms A^T A from its l <= l', j <= j' blocks only; against
    # the full product sum_n (E_l E_l')(psi_j psi_j') of every pair, from the
    # stack's factors as they stand when the direction is solved, it agrees
    # to 1e-14 relative and is exactly symmetric, on a stack of `width` models
    rng = np.random.default_rng(60)
    data = _sampled_from(random_model(rng, dims=4, rank=2, degree=2), 120, seed=61, noise=0.2)
    cfg = FitConfig(rank_max=rank, degree=degree, penalty="diag_scale")
    fitter = als._Fitter(data, cfg, 0)
    starts = [random_model(rng, dims=4, rank=rank, degree=degree) for _ in range(width)]
    fitter._use(fitter._stack(np.stack([m.coeffs for m in starts]),
                              np.stack([m.scales for m in starts]),
                              np.array([np.random.default_rng(b) for b in range(width)])))
    real = als._direction_solve
    seen = []

    def recording(AtA, Atu, uu, n, G, m):
        k = len(seen)
        others = [j for j in range(fitter.d) if j != k]
        E = fitter.scales[..., None] * np.prod(fitter.factors[:, others], axis=1)
        psi = fitter.psi_t[k]
        full = np.einsum("blLn,jJn->bljLJ", E[:, :, None] * E[:, None],
                         psi[:, None] * psi[None]).reshape(AtA.shape)
        seen.append((AtA.copy(), full))
        return real(AtA, Atu, uu, n, G, m)

    als._direction_solve = recording
    try:
        fitter.sweep_once()
    finally:
        als._direction_solve = real
    assert len(seen) == fitter.d
    for AtA, full in seen:
        assert AtA.shape == (width, rank * (degree + 1), rank * (degree + 1))
        assert np.array_equal(AtA, AtA.swapaxes(-1, -2))
        assert np.max(np.abs(AtA - full)) <= 1e-14 * np.max(np.abs(full))


def test_solve_direction_interpolation():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    c_true = rng.standard_normal(4)
    u = A @ c_true
    c, state, _ = _solve_one(A, u, None, 4)
    assert np.allclose(c, c_true, atol=1e-10)
    assert state is None


@pytest.mark.parametrize("regularize", [False, True])
def test_factor_overflow_is_a_conditioning_error(regularize):
    rng = np.random.default_rng(31)
    A = rng.standard_normal((20, 6))
    A[3, 2] = np.inf
    G = np.eye(2) if regularize else None
    with pytest.raises(ConditioningError, match="factor overflow"):
        _solve_one(A, rng.standard_normal(20), G, 3)


def test_solve_direction_large_lambda_shrinks():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 4))
    u = rng.standard_normal(30)
    path = TikhonovPath(*normal_equation_pieces(A[None], u), np.eye(4)[None], 1)
    c0 = path.solve(np.zeros(1))
    c_big = path.solve(np.array([1e8 * np.linalg.svd(A, compute_uv=False)[0]]))
    assert np.linalg.norm(c_big) <= 1e-6 * np.linalg.norm(c0)


def test_solve_direction_small_closed_form():
    A = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    u = np.array([1.0, 2.0, 3.0])
    lam = 1.0
    ref = np.linalg.solve(A.T @ A + lam**2 * np.eye(2), A.T @ u)
    path = TikhonovPath(*normal_equation_pieces(A[None], u), np.eye(2)[None], 1)
    c = path.solve(np.array([lam]))
    assert np.allclose(c[0], ref, atol=1e-12)


def test_normal_equation_residual_every_solve():
    rng = np.random.default_rng(4)
    m = random_model(rng, dims=3, rank=2, degree=2)
    data = _sampled_from(m, 200, seed=5, noise=0.05)
    for penalty in ("none", "second_moment"):
        cfg = FitConfig(rank_max=2, degree=2, penalty=penalty)
        with _kernel_calls() as calls:
            one_sweep(data, m, cfg)
        assert len(calls) == 3
        scale = _output_scale(data, calls[0][2])
        if penalty != "none":
            # the first direction's penalty comes from the unchanged model
            # in the fit's output units: G scales as the square of the outputs
            G0 = calls[0][3] * scale**2
            assert np.allclose(np.kron(G0, np.eye(3)), build_B(m, 0), rtol=1e-12)
        # the normal equations solved are those of the oracle sweep's designs
        for call, ref in zip(calls, naive_sweep(data, m, cfg)[3], strict=True):
            _assert_normal_equations_match(call, ref, data.outputs, scale, 1e-10)
        for AtA, Atu, _, G, (c, lam) in calls:
            lam = lam if lam is not None else 0.0
            B = np.kron(G, np.eye(3)) if G is not None else 0.0
            err = np.linalg.norm((AtA + lam**2 * B) @ c - Atu)
            assert err <= 1e-8 * np.linalg.norm(Atu)


def _oracle_direction(A, u, B):
    """Dense reference: factor the full (rm)^2 penalty and solve with m = 1."""
    L = tikhonov_factor(B)
    path = TikhonovPath(*normal_equation_pieces(A[None], u), L[None], 1)
    sel = gcv_select_lambda(path)
    c = path.solve(sel.lambda_)[0]
    lam = float(sel.lambda_[0])
    sig = sigma_hat(A, u, c, float(sel.hat_trace[0]))
    return c, lam, sig, error_indicator(lam, L, sig, c, u.shape[0])


@pytest.mark.parametrize("l_identity", [False, True])
def test_structured_kernel_matches_dense_oracle(l_identity):
    rng = np.random.default_rng(30)
    n = 60
    for r in (1, 3, 5):
        for m in (1, 3, 5):
            model = random_model(rng, dims=3, rank=r, degree=m - 1)
            k = int(rng.integers(0, 3))
            A = rng.standard_normal((n, r * m))
            u = A @ rng.standard_normal(r * m) + 0.3 * rng.standard_normal(n)
            if l_identity:
                G = np.diag(model.scales**2)
            elif m == 1 and r > 1:
                # constant factors make the second-moment Gram rank one, so the
                # dense oracle cannot factor it; the model's own design matrix
                # shares that null space, the solve stays finite and the
                # error indicator marks the pair as losing
                data = _sampled_from(model, n, seed=r, noise=0.3)
                A = naive_design_matrix(data, model, k)
                B = build_B(model, k)
                c, state, _ = _solve_one(A, data.outputs, B, 1)
                Atu = A.T @ data.outputs
                err = A.T @ A @ c + state.lambda_**2 * B @ c - Atu
                assert np.all(np.isfinite(c))
                assert np.linalg.norm(err) <= 1e-8 * np.linalg.norm(Atu)
                assert state.error_indicator > 1e6
                continue
            else:
                G = build_B(model, k)[::m, ::m]
            c, state, _ = _solve_one(A, u, G, m)
            c_ref, lam, sig, ei = _oracle_direction(A, u, np.kron(G, np.eye(m)))
            assert np.allclose(c, c_ref, rtol=1e-10, atol=1e-10 * np.linalg.norm(c_ref))
            assert state.lambda_ == pytest.approx(lam, rel=1e-10)
            assert state.sigma_hat == pytest.approx(sig, rel=1e-10)
            assert state.error_indicator == pytest.approx(ei, rel=1e-10)


def test_normalize_direction_scaling():
    # after a sweep every factor has unit empirical norm, and moving the norms
    # into the scales left the last direction's fit unchanged
    rng = np.random.default_rng(6)
    data = _sampled_from(random_model(rng, dims=3, rank=2, degree=2), 150, seed=7)
    start = random_model(rng, dims=3, rank=2, degree=2)
    model, resid, _ = one_sweep(data, start, FitConfig(rank_max=2, degree=2))
    for k in range(3):
        psi = eval_basis_batch(model.basis, data.inputs[:, k])
        for l in range(model.rank):
            assert empirical_norm(psi @ model.coeffs[k, l]) == pytest.approx(1.0, abs=1e-12)
    assert fit_residual_on(data, model) == pytest.approx(resid, rel=1e-10)


def test_normalize_direction_explicit_factor_norm():
    # constant data 2: the first direction's solve makes its factor identically
    # 2, which normalization moves into the scale
    coeffs = np.zeros((2, 1, 2))
    coeffs[:, 0, 0] = 1.0
    m = SeparatedModel(BasisSpec(Family.HERMITE, 1), np.array([1.0]), coeffs)
    rng = np.random.default_rng(5)
    data = SampleSet(_gauss_data(rng, 5, 2), np.full(5, 2.0), Family.HERMITE)
    model, _, _ = one_sweep(data, m, FitConfig(rank_max=1, degree=1, penalty="none"))
    assert model.scales[0] == pytest.approx(2.0)
    assert model.coeffs[0, 0, 0] == pytest.approx(1.0)
    assert model.coeffs[0, 0, 1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "penalty", ["second_moment", "diag_scale", pytest.param("none", id="unregularized")]
)
def test_sweep_matches_naive_gauss_seidel_oracle(penalty):
    rng = np.random.default_rng(40)
    data = _sampled_from(random_model(rng, dims=4, rank=2, degree=2), 80, seed=41, noise=0.1)
    start = random_model(rng, dims=4, rank=2, degree=2)
    cfg = FitConfig(rank_max=2, degree=2, penalty=penalty)
    model, resid, states = one_sweep(data, start, cfg)
    ref, ref_resid, ref_states, _ = naive_sweep(data, start, cfg)
    assert np.allclose(model.coeffs, ref.coeffs, rtol=1e-9,
                       atol=1e-9 * np.max(np.abs(ref.coeffs)))
    assert np.allclose(model.scales, ref.scales, rtol=1e-9, atol=0.0)
    assert resid == pytest.approx(ref_resid, rel=1e-9)
    assert len(states) == len(ref_states) == 4
    for state, ref_state in zip(states, ref_states):
        if ref_state is None:
            assert state is None
            continue
        lam, sig, ei = ref_state
        assert state.lambda_ == pytest.approx(lam, rel=1e-9)
        assert state.sigma_hat == pytest.approx(sig, rel=1e-9)
        assert state.error_indicator == pytest.approx(ei, rel=1e-9)


def test_sweep_recovers_separable_data_quickly():
    rng = np.random.default_rng(9)
    truth = random_model(rng, dims=3, rank=1, degree=1)
    data = _sampled_from(truth, 240, seed=10)
    cfg = FitConfig(rank_max=1, degree=1, penalty="none", rng_seed=3)
    model = random_model(np.random.default_rng(11), dims=3, rank=1, degree=1)
    resid = None
    for _ in range(10):
        model, resid, _ = one_sweep(data, model, cfg)
    assert resid < 1e-8 * empirical_norm(data.outputs)


def test_sweep_monotone_unregularized():
    rng = np.random.default_rng(12)
    truth = random_model(rng, dims=4, rank=2, degree=2)
    data = _sampled_from(truth, 300, seed=13, noise=0.3)
    cfg = FitConfig(rank_max=2, degree=2, penalty="none", rng_seed=0)
    model = random_model(np.random.default_rng(14), dims=4, rank=2, degree=2)
    prev = fit_residual_on(data, model)
    for _ in range(8):
        model, resid, _ = one_sweep(data, model, cfg)
        assert resid <= prev * (1.0 + 1e-10)
        prev = resid


def test_constant_data_fit():
    rng = np.random.default_rng(15)
    pts = rng.standard_normal((60, 3))
    data = SampleSet(pts, np.full(60, 5.0), Family.HERMITE)
    for degree in (0, 1, 2):
        cfg = FitConfig(rank_max=1, degree=degree, penalty="none", rng_seed=4)
        model, _ = fit_fixed(data, 1, cfg, init_seed=4)
        assert mean(model) == pytest.approx(5.0, abs=1e-10)
    # regularized fits carry the O(floor^2) shrinkage of the lambda-grid lower
    # bound, so the constant is recovered to ~0.3% rather than machine level
    cfg = FitConfig(rank_max=1, degree=2, rng_seed=4)
    model, _ = fit_fixed(data, 1, cfg, init_seed=4)
    assert mean(model) == pytest.approx(5.0, rel=1e-2)


def test_fit_fixed_constant_degree_zero_residual():
    rng = np.random.default_rng(16)
    pts = rng.standard_normal((200, 4))
    out = rng.standard_normal(200) * 2.0 + 1.0
    data = SampleSet(pts, out, Family.HERMITE)
    cfg = FitConfig(rank_max=1, degree=0, penalty="none", rng_seed=0)
    model, diag = fit_fixed(data, 1, cfg, init_seed=0)
    assert mean(model) == pytest.approx(float(out.mean()), abs=1e-10)
    assert diag.per_rank[-1].residual == pytest.approx(float(out.std(ddof=0)), abs=1e-10)


def test_fit_fixed_recovers_separable_data():
    rng = np.random.default_rng(17)
    truth = random_model(rng, dims=4, rank=1, degree=2)
    data = _sampled_from(truth, 240, seed=18)
    cfg = FitConfig(rank_max=1, degree=2, penalty="none", rng_seed=0)
    model, diag = fit_fixed(data, 1, cfg, init_seed=0)
    rel = diag.per_rank[-1].residual / empirical_norm(data.outputs)
    assert rel < 1e-6


def test_fit_fixed_deterministic():
    rng = np.random.default_rng(19)
    truth = random_model(rng, dims=3, rank=2, degree=2)
    data = _sampled_from(truth, 200, seed=20, noise=0.1)
    cfg = FitConfig(rank_max=2, degree=2, rng_seed=0)
    with fit_constants(candidates=3, burn_sweeps=5, max_sweeps=40):
        m1, d1 = fit_fixed(data, 2, cfg, init_seed=77)
        m2, d2 = fit_fixed(data, 2, cfg, init_seed=77)
    assert np.array_equal(m1.coeffs, m2.coeffs)
    assert np.array_equal(m1.scales, m2.scales)
    for r1, r2 in zip(d1.per_rank, d2.per_rank):
        assert r1.residual_trace == r2.residual_trace
        assert r1.candidate == r2.candidate
        for s1, s2 in zip(r1.reg_states, r2.reg_states):
            assert s1.lambda_ == s2.lambda_
            assert s1.error_indicator == s2.error_indicator


def test_fit_fixed_warns_when_underdetermined():
    rng = np.random.default_rng(21)
    data = SampleSet(rng.standard_normal((5, 2)), rng.standard_normal(5), Family.HERMITE)
    cfg = FitConfig(rank_max=2, degree=2)
    with fit_constants(candidates=1, burn_sweeps=2, max_sweeps=3), pytest.warns(
            UserWarning, match="below the direction-solve unknown count"):
        fit_fixed(data, 2, cfg, init_seed=0)


def test_fit_fixed_warns_once_at_the_first_underdetermined_rank():
    # ranks 2 and 3 of degree 2 have 6 and 9 unknowns for 5 samples: one
    # warning, for rank 2, pointing at the line that called fit_fixed
    rng = np.random.default_rng(21)
    data = SampleSet(rng.standard_normal((5, 2)), rng.standard_normal(5), Family.HERMITE)
    cfg = FitConfig(rank_max=3, degree=2)
    with fit_constants(candidates=1, burn_sweeps=2, max_sweeps=3), pytest.warns(
            UserWarning, match="below the direction-solve unknown count") as record:
        fit_fixed(data, 3, cfg, init_seed=0)
    underdetermined = [w for w in record if "unknown count" in str(w.message)]
    assert len(underdetermined) == 1
    assert "unknown count 6 of rank 2" in str(underdetermined[0].message)
    assert underdetermined[0].filename == __file__


def test_the_underdetermined_warning_under_select_model_names_the_callers_file():
    # under "always", every warning is recorded with the frame it names; a
    # select_model call must name this file, not seprep/selection.py, as a
    # direct fit_fixed call does (the test above)
    from seprep.selection import select_model

    rng = np.random.default_rng(21)
    data = SampleSet(rng.standard_normal((5, 2)), rng.standard_normal(5), Family.HERMITE)
    cfg = FitConfig(rank_max=2, degree=2)
    with fit_constants(candidates=1, burn_sweeps=2, max_sweeps=3), \
            warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        select_model(data, [1, 2], [2], cfg)
    underdetermined = [w for w in record if "unknown count 6 of rank 2" in str(w.message)]
    assert len(underdetermined) == 1
    assert underdetermined[0].filename == __file__


def test_a_stopped_ladder_does_not_warn_about_ranks_it_never_fits(recwarn):
    # rank 5 would have 15 unknowns for 12 samples, but degree 2's ladder
    # stops at rank 2, with 6
    from seprep.selection import select_model

    report = select_model(manufactured_sample(12, 0), [1, 2, 3, 4, 5], [2],
                          FitConfig(rank_max=5, degree=2))
    assert sorted(report.ei_max) == [(1, 2), (2, 2)]
    assert not [w for w in recwarn if "unknown count" in str(w.message)]


def test_output_rescaling_scales_the_fit():
    # outputs times 2^k, from about 1e-301 to 1e300: the fit scales exactly
    rng = np.random.default_rng(22)
    truth = random_model(rng, dims=3, rank=2, degree=2)
    data = _sampled_from(truth, 250, seed=23, noise=0.05)
    with fit_constants(candidates=2, burn_sweeps=5, max_sweeps=30):
        for penalty in ("second_moment", "diag_scale", "none"):
            _check_rescaled_fits(data, penalty)


def _check_rescaled_fits(data, penalty):
    cfg = FitConfig(rank_max=2, degree=2, penalty=penalty, rng_seed=0)
    m1, d1 = fit_fixed(data, 2, cfg, init_seed=9)
    for k in (1, 532, 664, 997, -1000):
        scaled = SampleSet(data.inputs.copy(), np.ldexp(data.outputs, k), Family.HERMITE)
        m2, d2 = fit_fixed(scaled, 2, cfg, init_seed=9)
        assert np.array_equal(m2.scales, np.ldexp(m1.scales, k))
        assert np.array_equal(m2.coeffs, m1.coeffs)
        for r1, r2 in zip(d1.per_rank, d2.per_rank, strict=True):
            assert r2.residual_trace == [float(np.ldexp(x, k)) for x in r1.residual_trace]
            for s1, s2 in zip(r1.reg_states, r2.reg_states, strict=True):
                if s1 is None:
                    assert s2 is None
                    continue
                assert s2.sigma_hat == np.ldexp(s1.sigma_hat, k)
                assert (s2.lambda_, s2.error_indicator) == (s1.lambda_, s1.error_indicator)


def test_rank_record_tells_a_cap_hit_from_convergence():
    rng = np.random.default_rng(50)
    data = _sampled_from(random_model(rng, dims=3, rank=2, degree=2), 150, seed=51, noise=0.1)
    capped = FitConfig(rank_max=2, degree=2)
    with fit_constants(candidates=3, max_sweeps=2):
        _, diag = fit_fixed(data, 2, capped, init_seed=0)
    for rec in diag.per_rank:
        assert rec.sweeps == 2 and not rec.converged
    loose = FitConfig(rank_max=2, degree=2)
    with fit_constants(sweep_tol=1e-3, candidates=3):
        _, diag = fit_fixed(data, 2, loose, init_seed=0)
    for rec in diag.per_rank:
        assert rec.converged and rec.sweeps < loose.max_sweeps_per_rank
        prev, last = rec.residual_trace[-2:]
        assert (prev - last) / prev < 1e-3


def test_rank_record_keeps_the_final_sweeps_states():
    # the states of a rank are built only for the sweep it keeps: those of a
    # fit capped at K + 1 sweeps must be the ones a sweep from the K-capped
    # fit's model produces, not a stale earlier sweep's
    data = manufactured_sample(100, seed=3)  # rank 1 is still moving at 20 sweeps
    cfg = FitConfig(rank_max=1, degree=1)
    K = als._BURN_SWEEPS + 5
    with fit_constants(sweep_tol=1e-14, candidates=3, max_sweeps=K):
        _, diag_k = fit_fixed(data, 1, cfg, init_seed=3)
    with fit_constants(sweep_tol=1e-14, candidates=3, max_sweeps=K + 1):
        _, diag_next = fit_fixed(data, 1, cfg, init_seed=3)
    rec_k, rec_next = diag_k.per_rank[0], diag_next.per_rank[0]
    assert (rec_k.sweeps, rec_next.sweeps) == (K, K + 1)
    _, resid, states = one_sweep(data, rec_k.model, cfg)
    assert resid == pytest.approx(rec_next.residual, rel=1e-10)
    assert len(states) == len(rec_next.reg_states) == data.dims
    for state, kept, earlier in zip(states, rec_next.reg_states, rec_k.reg_states, strict=True):
        assert kept.grid_index == state.grid_index
        assert kept.lambda_ == pytest.approx(state.lambda_, rel=1e-10)
        assert kept.sigma_hat == pytest.approx(state.sigma_hat, rel=1e-10)
        assert kept.error_indicator == pytest.approx(state.error_indicator, rel=1e-10)
        # the fit still moves, so an earlier sweep's states would not match
        assert kept.sigma_hat != pytest.approx(earlier.sigma_hat, rel=1e-10)


@pytest.mark.parametrize("r", [0, -1, 2.0, True, "2"])
def test_fit_fixed_refuses_a_rank_that_is_not_a_positive_integer(r):
    data = manufactured_sample(40, seed=0)
    with pytest.raises(ValueError, match="r must be an integer >= 1"):
        fit_fixed(data, r, FitConfig(rank_max=2, degree=1), init_seed=0)


@pytest.mark.parametrize("field, value", [
    ("rank_max", 2.0), ("rank_max", True), ("degree", 1.5), ("degree", False),
    ("rank_max", 0), ("degree", -1),
    ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", "3"), ("rng_seed", True),
])
def test_non_integer_counts_are_refused(field, value):
    fields = {"rank_max": 1, "degree": 1, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        FitConfig(**fields)


@pytest.mark.parametrize("name", ["sweep_tol", "lambda_floor_rel", "init_candidates",
                                  "candidate_burn_sweeps", "max_sweeps_per_rank"])
def test_a_fixed_fit_setting_is_not_a_config_field(name):
    # the tolerance, the lambda floor, the candidate race and the sweep cap
    # are constants of the fit, not fields a caller sets
    assert [f.name for f in dataclasses.fields(FitConfig)] == [
        "rank_max", "degree", "penalty", "rng_seed"]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        FitConfig(rank_max=1, degree=1, **{name: 3})


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
def test_fit_fixed_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    data = manufactured_sample(40, seed=0)
    with pytest.raises(ValueError, match="init_seed must be an integer >= 0"):
        fit_fixed(data, 1, FitConfig(rank_max=1, degree=1), init_seed=seed)


@pytest.mark.parametrize("penalty", ["none", "second_moment"])
def test_normal_equation_failure_names_its_branch(monkeypatch, penalty):
    # a solve that returns zeros leaves A^T u as the normal-equation residual
    rng = np.random.default_rng(58)
    A = rng.standard_normal((30, 6))
    u = rng.standard_normal(30)
    monkeypatch.setattr(als, "_solve_spd", lambda M, b: np.zeros_like(b))
    monkeypatch.setattr(als.TikhonovPath, "solve", lambda self, lam: np.zeros(self.z.shape))
    G = None if penalty == "none" else np.eye(2)
    with pytest.raises(ConditioningError) as err:
        _solve_one(A, u, G, 3)
    message = str(err.value)
    if penalty == "none":
        assert "unregularized direction solve" in message
        assert "consider enabling regularization" in message
    else:
        assert "of the regularized direction solve" in message
        assert "enabling regularization" not in message


@contextlib.contextmanager
def _perturbed_directions(failing, error_at=None):
    """Run every direction solve inside the block, scaling the coefficients of those in `failing`.

    Coefficients c (1 + 1e-6) leave 1e-6 A^T u as the normal-equation
    residual, 100 times its tolerance, while the fit's residual barely
    moves, so an unregularized sweep's monotone check still passes. With
    error_at, the solve of that direction raises DegenerateModelError before
    it runs. Directions count from 0 in call order.
    """
    real = als._direction_solve
    calls = []

    def solve(AtA, Atu, uu, n, G, m):
        k = len(calls)
        calls.append(k)
        if k == error_at:
            raise DegenerateModelError(f"direction {k} interrupted the sweep")
        c, raw = real(AtA, Atu, uu, n, G, m)
        return (c * (1.0 + 1e-6), raw) if k in failing else (c, raw)

    als._direction_solve = solve
    try:
        yield calls
    finally:
        als._direction_solve = real


def _sweep_case(penalty):
    rng = np.random.default_rng(62)
    data = _sampled_from(random_model(rng, dims=4, rank=2, degree=2), 80, seed=63, noise=0.1)
    return data, random_model(rng, dims=4, rank=2, degree=2), FitConfig(
        rank_max=2, degree=2, penalty=penalty)


@pytest.mark.parametrize("penalty", ["none", "diag_scale", "second_moment"])
def test_each_penalty_checks_its_normal_equations_once_per_sweep(monkeypatch, penalty):
    # every branch hands all d directions of a sweep to one check, which
    # passes on a healthy sweep and fails it when one direction's solve is off
    data, start, cfg = _sweep_case(penalty)
    real = als._check_normal_equations
    checked = []

    def recording(solves):
        checked.append([raw is None for _, _, _, raw, _ in solves])
        return real(solves)

    monkeypatch.setattr(als, "_check_normal_equations", recording)
    one_sweep(data, start, cfg)
    assert checked == [[penalty == "none"] * data.dims]
    branch = "unregularized" if penalty == "none" else "regularized"
    with _perturbed_directions({0}), pytest.raises(ConditioningError) as err:
        one_sweep(data, start, cfg)
    assert f"of the {branch} direction solve in direction 0 exceeds" in str(err.value)


@pytest.mark.parametrize("penalty", ["none", "second_moment"])
def test_the_earlier_of_two_failing_directions_is_reported(penalty):
    data, start, cfg = _sweep_case(penalty)
    branch = "unregularized" if penalty == "none" else "regularized"
    with _perturbed_directions({1, 2}) as calls, pytest.raises(ConditioningError) as err:
        one_sweep(data, start, cfg)
    assert calls == list(range(data.dims))  # the whole sweep ran before the check
    assert f"of the {branch} direction solve in direction 1 exceeds" in str(err.value)


def test_an_error_that_ends_the_sweep_reports_an_earlier_failed_normal_equation():
    data, start, cfg = _sweep_case("second_moment")
    # direction 1's normal equation fails, then direction 2 raises: the
    # pending checks run first, so direction 1's failure is the error
    with _perturbed_directions({1}, error_at=2) as calls, pytest.raises(ConditioningError) as err:
        one_sweep(data, start, cfg)
    assert calls == [0, 1, 2]
    assert "regularized direction solve in direction 1 exceeds" in str(err.value)
    assert isinstance(err.value.__context__, DegenerateModelError)
    # with every earlier normal equation satisfied, the interrupting error stands
    with _perturbed_directions(set(), error_at=2), pytest.raises(
            DegenerateModelError, match="direction 2 interrupted the sweep"):
        one_sweep(data, start, cfg)


@pytest.mark.parametrize("penalty", ["none", "second_moment"])
def test_a_sweep_hands_on_only_what_its_states_read(penalty):
    # once its normal equations are checked, a sweep keeps per direction only
    # the (c, raw, rn2) its states are built from: no (B, p, p) A^T A and no
    # A^T u outlives it
    rng = np.random.default_rng(71)
    data = _sampled_from(random_model(rng, dims=3, rank=2, degree=2), 60, seed=72, noise=0.1)
    fitter = fitter_at(data, random_model(rng, dims=3, rank=2, degree=2),
                       FitConfig(rank_max=3, degree=2, penalty=penalty))
    fitter._use(fitter._draw_candidates(fitter.coeffs[0], fitter.scales[0], 4))
    _, solves = fitter.sweep_once()
    p = 3 * 3
    assert len(solves) == data.dims
    for c, raw, rn2 in solves:
        assert c.shape == (4, p) and rn2.shape == (4,)
        if penalty == "none":
            assert raw is None
        else:
            assert [x.shape for x in raw] == [(4,), (4,), (4,), (4, 3, 3), (4, 3, 3), (4,)]
    assert all((s is None) == (penalty == "none") for s in fitter.kept_states(solves, 2))


def test_a_residual_increase_breaks_the_monotone_invariant():
    fitter = als._Fitter(manufactured_sample(40, seed=0), FitConfig(rank_max=1, degree=1), 0)
    fitter._monotone_prev[...] = 0.25
    fitter._check_monotone(np.array([0.25]))  # an equal residual is no increase
    with pytest.raises(InvariantError, match="residual increased across an unregularized"):
        fitter._check_monotone(np.array([0.5]))


def test_singular_normal_matrix_takes_the_pseudo_solve():
    # [[A, A], [A, A]] is PSD of rank 2, and its Cholesky meets an exact zero pivot
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    M = np.block([[A, A], [A, A]])
    assert als._upper_cholesky(M) is None
    b = np.array([1.0, 2.0, -3.0, 0.5])
    assert np.allclose(als._solve_spd(M, b), np.linalg.pinv(M) @ b, rtol=1e-12, atol=1e-14)


def test_term_gram_failures_are_typed(monkeypatch):
    # an overflowed factor product leaves non-finite Gram entries
    with pytest.raises(ConditioningError, match="non-finite entries"):
        als._gram_cholesky(np.array([[1.0, np.inf], [np.inf, 1.0]]))
    # an indefinite Gram stays unfactorable after the jitter retry
    with pytest.raises(DegenerateModelError, match=r"min Gram eigenvalue -1\.000e\+00"):
        als._gram_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    # a zero Gram has no trace to scale a jitter by, so it is refused after
    # one factorization attempt, without a retry
    attempts = []
    real = als._upper_cholesky
    monkeypatch.setattr(als, "_upper_cholesky", lambda G: attempts.append(G) or real(G))
    with pytest.raises(DegenerateModelError, match=r"numerically zero \(min Gram eigenvalue 0"):
        als._gram_cholesky(np.zeros((2, 2)))
    assert len(attempts) == 1
    # a singular Gram with a positive trace factors on the retry, which it reports
    attempts.clear()
    assert als._gram_cholesky(np.ones((2, 2)))[1] is True and len(attempts) == 2
    assert als._gram_cholesky(np.eye(2))[1] is False and len(attempts) == 3


def _lapack(config):
    deps = config(mode="dicts")["Build Dependencies"]["lapack"]
    return deps.get("name"), deps.get("version")


def test_the_gram_factor_is_upper_triangular_and_refuses_an_indefinite_matrix():
    rng = np.random.default_rng(11)
    for _ in range(200):
        r = rng.integers(1, 7)
        X = rng.standard_normal((r, r + 2))
        g = 10.0 ** rng.uniform(-8, 8) * (X @ X.T)
        R = als._upper_cholesky(g)
        assert np.array_equal(R, np.triu(R)) and np.all(np.diag(R) > 0.0)
        np.testing.assert_allclose(R.T @ R, g, rtol=1e-12, atol=1e-12 * np.abs(g).max())
    assert als._upper_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]])) is None
    assert als._upper_cholesky(np.zeros((2, 2))) is None


def test_the_gram_factor_has_the_bits_of_lapack():
    # NumPy's factor has the bits of SciPy's dpotrf(g, lower=0, clean=1), the
    # call it replaced, when both ship the same LAPACK build; NumPy and SciPy
    # each ship their own, so another pair of builds may round differently
    if _lapack(np.show_config) != _lapack(scipy.show_config):
        pytest.skip("NumPy and SciPy ship different LAPACK builds")
    rng = np.random.default_rng(11)
    for _ in range(2000):
        r = rng.integers(1, 7)
        X = rng.standard_normal((r, r + 2))
        g = 10.0 ** rng.uniform(-8, 8) * (X @ X.T)
        want, info = dpotrf(g, lower=0, clean=1)
        assert info == 0 and np.array_equal(als._upper_cholesky(g), want)


def test_state_records_lambda_grid_position():
    # near-noiseless data sits on the grid floor, pure noise on its ceiling
    rng = np.random.default_rng(0)
    A = rng.standard_normal((80, 6))
    signal = A @ rng.standard_normal(6)
    cases = [("floor", signal + 1e-3 * rng.standard_normal(80)),
             ("ceiling", rng.standard_normal(80)),
             ("interior", signal + 3.0 * rng.standard_normal(80))]
    for want, u in cases:
        _, state, _ = _solve_one(A, u, np.eye(2), 3)
        path = TikhonovPath(*normal_equation_pieces(A[None], u), np.eye(2)[None], 3)
        grid = gcv_select_lambda(path).grid[0]
        assert state.lambda_ == grid[state.grid_index]
        assert state.grid_position == want
        if want == "interior":
            assert 0 < state.grid_index < len(grid) - 1
        else:
            assert state.grid_index == (0 if want == "floor" else len(grid) - 1)


@pytest.mark.parametrize("lo, hi", [(0.05, 1.0), (1e-120, 1e-110), (3.7e100, 2.0e102)])
def test_lambda_grid_matches_geomspace(lo, hi):
    # GCV's grid is gamma_max times a fixed unit log grid: its ends are
    # floor * gamma_max and gamma_max exactly, and its interior is the
    # exact log grid to 1e-15 relative, on design matrices of any scale.
    # np.geomspace goes through the logs of its ends, so it carries an error
    # of its own of up to eps * |ln gamma| relative (2e-14 at 1e100)
    rng = np.random.default_rng(53)
    scale = np.exp(rng.uniform(np.log(lo), np.log(hi), 7))
    A = scale[:, None, None] * rng.standard_normal((7, 30, 4))
    path = TikhonovPath(*normal_equation_pieces(A, rng.standard_normal(30)),
                        np.broadcast_to(np.eye(4), (7, 4, 4)), 1)
    gmax = np.sqrt(path.sv2[:, 0])
    for floor in (regularize._LAMBDA_FLOOR, 1e-3):
        with fit_constants(lambda_floor=floor):
            grid = gcv_select_lambda(path).grid
        assert np.array_equal(grid[:, 0], floor * gmax)
        assert np.array_equal(grid[:, -1], gmax)
        for row, g in zip(grid, gmax, strict=True):
            with mpmath.workprec(128):
                lo_g = mpmath.mpf(float(floor * g))
                ratio = mpmath.mpf(float(g)) / lo_g
                exact = np.array([float(lo_g * ratio ** (mpmath.mpf(i) / 49)) for i in range(50)])
            assert np.allclose(row, exact, rtol=1e-15, atol=0.0)
            own = np.finfo(float).eps * max(abs(np.log(floor * g)), abs(np.log(g)))
            assert np.allclose(row, np.geomspace(floor * g, g, 50), rtol=1e-15 + 2.0 * own,
                               atol=0.0)


# -- the candidate race ---------------------------------------------------------


@contextlib.contextmanager
def _race_probe():
    """Record the stack width of every sweep and of every sweep that re-draws a term."""
    probe = {"widths": [], "redraw_widths": []}
    real_sweep, real_revive = als._Fitter.sweep_once, als._Fitter._revive

    def sweep_once(self):
        probe["widths"].append(self.coeffs.shape[0])
        return real_sweep(self)

    def revive(self, *args):
        probe["redraw_widths"].append(self.coeffs.shape[0])
        return real_revive(self, *args)

    als._Fitter.sweep_once, als._Fitter._revive = sweep_once, revive
    try:
        yield probe
    finally:
        als._Fitter.sweep_once, als._Fitter._revive = real_sweep, real_revive


def _race_against_one_at_a_time(data, r, cfg, seed):
    """fit_fixed with stacked races, then with every race run one candidate at a time.

    The oracle races each slice of a stack alone, as a stack of one, on the
    candidate's own re-draw stream. Returns the raced run's probe and its
    per-rank records, after requiring the two fits to agree bit for bit:
    models, residual traces, states, winners, convergence flags, and the
    jitter and re-draw counts.
    """
    with _race_probe() as raced_probe:
        raced = fit_fixed(data, r, cfg, seed)
    real = als._Fitter._race

    def one_at_a_time(self, stack, traces, cap):
        out = []
        for b, trace in enumerate(traces):
            out += real(self, tuple(a[b:b + 1].copy() for a in stack), [trace], cap)
        return out

    als._Fitter._race = one_at_a_time
    try:
        with _race_probe() as serial_probe:
            serial = fit_fixed(data, r, cfg, seed)
    finally:
        als._Fitter._race = real
    assert max(serial_probe["widths"]) == 1
    assert max(raced_probe["widths"]) == als._CANDIDATES
    (m1, d1), (m2, d2) = raced, serial
    assert np.array_equal(m1.coeffs, m2.coeffs) and np.array_equal(m1.scales, m2.scales)
    for a, b in zip(d1.per_rank, d2.per_rank, strict=True):
        assert a.residual_trace == b.residual_trace
        assert repr(a.reg_states) == repr(b.reg_states)
        assert (a.candidate, a.converged) == (b.candidate, b.converged)
        assert (a.jittered_solves, a.redrawn_terms) == (b.jittered_solves, b.redrawn_terms)
        assert np.array_equal(a.model.coeffs, b.model.coeffs)
        assert np.array_equal(a.model.scales, b.model.scales)
    return raced_probe, d1.per_rank


def test_race_with_a_burn_in_redraw_equals_one_at_a_time():
    # degree-0 data of the selection test: surplus terms collapse during
    # burn-in and are re-drawn inside the full stack, each from its
    # candidate's own stream
    data = manufactured_sample(60, seed=0)
    cfg = FitConfig(rank_max=4, degree=0)
    probe, records = _race_against_one_at_a_time(data, 4, cfg, seed=5)
    assert als._CANDIDATES in probe["redraw_widths"]
    assert sum(rec.redrawn_terms for rec in records) > 0


def test_race_with_a_jittered_gram_equals_one_at_a_time():
    # rank two at degree 0: every term Gram is rank one and needs jitter,
    # and the short burn-in ends before any term collapses. Whether a term
    # collapses here turns on the data's last bits (an exact zero from
    # cancellation), so this data seed is one where none does
    data = manufactured_sample(60, seed=5)
    cfg = FitConfig(rank_max=2, degree=0)
    with fit_constants(burn_sweeps=2, max_sweeps=6):
        probe, records = _race_against_one_at_a_time(data, 2, cfg, seed=5)
    assert probe["redraw_widths"] == []
    assert sum(rec.jittered_solves for rec in records) > 0


def test_unregularized_race_equals_one_at_a_time():
    # each slice keeps its own monotone-residual invariant
    data = manufactured_sample(100, seed=1)
    cfg = FitConfig(rank_max=3, degree=2, penalty="none")
    with fit_constants(max_sweeps=60):
        _race_against_one_at_a_time(data, 3, cfg, seed=5)


def test_race_with_early_convergence_equals_one_at_a_time():
    # a loose tolerance and a long burn-in: candidates converge at different
    # sweeps and leave the stack one by one
    data = manufactured_sample(200, seed=2)
    cfg = FitConfig(rank_max=2, degree=2)
    with fit_constants(sweep_tol=2e-3, burn_sweeps=40, max_sweeps=80):
        probe, _ = _race_against_one_at_a_time(data, 2, cfg, seed=5)
    assert any(1 < w < als._CANDIDATES for w in probe["widths"])


def test_models_that_leave_a_race_own_their_arrays():
    # at rank 2 some candidates converge before the cap and some reach it:
    # every model leaves as a copy, so writing over the raced stack changes
    # none of them
    data = manufactured_sample(200, seed=2)
    with fit_constants(sweep_tol=2e-3):
        fitter = als._Fitter(data, FitConfig(rank_max=2, degree=2), 5)
        fitter.run_rank()
        stack = fitter._draw_candidates(fitter.coeffs[0], fitter.scales[0], als._CANDIDATES)
        traces = [[] for _ in range(als._CANDIDATES)]
        out = fitter._race(stack, traces, 20)
    assert {len(t) == 20 for t in traces} == {True, False}
    before = [tuple(a.copy() for a in model) for _, _, model in out]
    for a in stack:
        a[...] = None if a.dtype == object else np.nan
    for (_, _, model), kept in zip(out, before, strict=True):
        *arrays, rngs = model
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(arrays, kept))
        assert rngs.shape == (1,) and rngs[0] is kept[-1][0]


def test_a_failing_slice_ends_a_stacked_burn_in_with_its_typed_error(monkeypatch):
    # the third slice of the first stacked solve fails: the fit ends there,
    # with that error, instead of rerunning the race
    real = als._gram_cholesky
    calls = []

    def failing(G):
        calls.append(G)
        if len(calls) == 3:
            raise DegenerateModelError("slice 2 failed")
        return real(G)

    monkeypatch.setattr(als, "_gram_cholesky", failing)
    cfg = FitConfig(rank_max=1, degree=2)
    with _race_probe() as probe, pytest.raises(DegenerateModelError, match="slice 2 failed"):
        fit_fixed(manufactured_sample(60, seed=0), 1, cfg, init_seed=5)
    assert probe["widths"] == [als._CANDIDATES]
    assert len(calls) == 3


def test_a_fit_makes_no_log_record(caplog):
    # a degree-0 fit needs Gram jitter from rank 2 on, re-draws collapsed
    # terms, and meets undefined error indicators: all of it is in the
    # records, none in the log
    with caplog.at_level(logging.DEBUG, logger="seprep"):
        _, diag = fit_fixed(manufactured_sample(60, 0), 3, FitConfig(rank_max=3, degree=0), 5)
    assert caplog.records == []
    assert sum(rec.jittered_solves for rec in diag.per_rank) > 0
    assert sum(rec.redrawn_terms for rec in diag.per_rank) > 0
    assert any(s.error_indicator == math.inf for rec in diag.per_rank for s in rec.reg_states)


def test_a_zero_norm_candidate_draw_is_a_degenerate_factor(monkeypatch):
    monkeypatch.setattr(als, "empirical_norm", lambda values: 0.0)
    with pytest.raises(DegenerateFactorError, match="zero empirical norm"):
        fit_fixed(manufactured_sample(60, seed=0), 1, FitConfig(rank_max=1, degree=1), 5)


def test_a_zero_norm_redraw_is_a_degenerate_factor(monkeypatch):
    # degree-0 data whose fit re-draws collapsed terms; every re-draw then
    # meets a zero norm and fails as a candidate draw does, without retrying.
    # A term collapses to an exact zero from cancellation, which turns on the
    # fit's last bits, so the full burn-in runs: on this data and seed its
    # first collapse comes after the second sweep
    real_revive = als._Fitter._revive
    revived = []

    def revive(self, *args):
        revived.append(args[0])
        monkeypatch.setattr(als, "empirical_norm", lambda values: 0.0)
        return real_revive(self, *args)

    monkeypatch.setattr(als._Fitter, "_revive", revive)
    cfg = FitConfig(rank_max=2, degree=0)
    with pytest.raises(DegenerateFactorError, match="zero empirical norm"):
        fit_fixed(manufactured_sample(60, seed=0), 2, cfg, 5)
    assert len(revived) == 1


def test_exact_recovery_success_rate():
    # rank-1 targets with random coefficients at the feasibility margin of the
    # restart protocol: require 19 of 20 seeds below 1e-6 relative L2 error
    d, M = 4, 2
    n = 20 * d * (M + 1)
    cfg = FitConfig(rank_max=1, degree=M, penalty="none")
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        truth = SeparatedModel(
            BasisSpec(Family.HERMITE, M),
            np.ones(1),
            rng.standard_normal((d, 1, M + 1)),
        )
        pts = rng.standard_normal((n, d))
        data = SampleSet(pts, evaluate_batch(truth, pts), Family.HERMITE)
        with fit_constants(sweep_tol=1e-10):
            model, _ = fit_fixed(data, 1, cfg, init_seed=seed)
        if quadrature_l2_distance(model, truth) < 1e-6:
            hits += 1
    assert hits >= 19
