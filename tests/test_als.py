import contextlib
import dataclasses
import logging

import numpy as np
import pytest

from helpers import (
    build_B,
    error_indicator,
    fit_residual_on,
    naive_design_matrix,
    naive_sweep,
    quadrature_l2_distance,
    random_model,
    sigma_hat,
    tikhonov_factor,
)
from seprep import als, regularize
from seprep.als import FitConfig, fit_fixed, sweep
from seprep.basis import BasisSpec, Family, eval_basis_batch
from seprep.errors import ConditioningError
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
    """Record (A, u, G, result) of every direction solve run inside the block.

    A plain context manager rather than a fixture, so that criterion 6 can
    call the tests that use it without arguments.
    """
    calls = []
    real = als._direction_solve

    def recording(A, u, G, m, config):
        result = real(A, u, G, m, config)
        # a stacked call solves one direction per slice: record each slice,
        # with the state the library builds from the slice's raw diagnostics
        c, raw, rn2 = result
        states = [None] * len(A) if raw is None else als._regularization_states(raw, len(u))
        for b in range(A.shape[0]):
            calls.append((A[b], u, None if G is None else G[b], (c[b], states[b], rn2[b])))
        return result

    als._direction_solve = recording
    try:
        yield calls
    finally:
        als._direction_solve = real


def _solve_one(A, u, G, m, cfg):
    """The kernel on a stack of one (N, r*m) design; returns (c, state or None, rn2)."""
    c, raw, rn2 = als._direction_solve(A[None], u, None if G is None else G[None], m, cfg)
    state = None if raw is None else als._regularization_states(raw, len(u))[0]
    return c[0], state, rn2[0]


def _output_scale(data, u_seen):
    """The power of two the fit divided the outputs by, read off what the kernel saw.

    The fit works on outputs scaled into [0.5, 1) in magnitude, so its design
    matrices carry the same factor through the term scales.
    """
    peak = np.max(np.abs(u_seen))
    assert 0.5 <= peak < 1.0
    scale = np.max(np.abs(data.outputs)) / peak
    assert np.frexp(scale)[0] == 0.5  # an exact power of two
    assert np.array_equal(u_seen * scale, data.outputs)
    return scale


def test_design_matrix_constant_factors():
    # all factors identically one: the first direction's columns reduce to the
    # basis values
    coeffs = np.zeros((3, 1, 3))
    coeffs[:, 0, 0] = 1.0
    m = SeparatedModel(BasisSpec(Family.HERMITE, 2), np.array([1.0]), coeffs)
    rng = np.random.default_rng(0)
    data = SampleSet(_gauss_data(rng, 20, 3), rng.standard_normal(20), Family.HERMITE)
    with _kernel_calls() as calls:
        sweep(data, m, FitConfig(rank_max=1, degree=2))
    psi = eval_basis_batch(m.basis, data.inputs[:, 0])
    assert np.allclose(calls[0][0] * _output_scale(data, calls[0][1]), psi, atol=1e-14)


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
        sweep(data, m, FitConfig(rank_max=1, degree=1))
    expected = np.array([-np.sqrt(3.0), -1.5])
    assert np.allclose(calls[0][0][0] * _output_scale(data, calls[0][1]), expected, atol=1e-14)


def test_exclusion_products_match_naive():
    # each direction's design matrix in a sweep: products of the factors already
    # updated in this sweep and of those still frozen, excluding its own
    rng = np.random.default_rng(1)
    data = _sampled_from(random_model(rng, dims=6, rank=3, degree=1), 40, seed=2, noise=0.3)
    start = random_model(rng, dims=6, rank=3, degree=1)
    cfg = FitConfig(rank_max=3, degree=1, penalty="none")
    with _kernel_calls() as calls:
        sweep(data, start, cfg)
    designs = naive_sweep(data, start, cfg)[3]
    assert len(calls) == len(designs) == 6
    for (A, u, _, _), ref in zip(calls, designs):
        A = A * _output_scale(data, u)
        assert np.max(np.abs(A - ref)) < 1e-10 * np.max(np.abs(ref))


def test_solve_direction_interpolation():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    c_true = rng.standard_normal(4)
    u = A @ c_true
    cfg = FitConfig(rank_max=1, degree=3, penalty="none")
    c, state, _ = _solve_one(A, u, None, 4, cfg)
    assert np.allclose(c, c_true, atol=1e-10)
    assert state is None


@pytest.mark.parametrize("regularize", [False, True])
def test_factor_overflow_is_a_conditioning_error(regularize):
    rng = np.random.default_rng(31)
    A = rng.standard_normal((20, 6))
    A[3, 2] = np.inf
    G = np.eye(2) if regularize else None
    cfg = FitConfig(rank_max=2, degree=2)
    with pytest.raises(ConditioningError, match="factor overflow"):
        _solve_one(A, rng.standard_normal(20), G, 3, cfg)


def test_solve_direction_large_lambda_shrinks():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 4))
    u = rng.standard_normal(30)
    path = TikhonovPath(A, u, np.eye(4), 1)
    c0 = path.solve(0.0)
    c_big = path.solve(1e8 * np.linalg.svd(A, compute_uv=False)[0])
    assert np.linalg.norm(c_big) <= 1e-6 * np.linalg.norm(c0)


def test_solve_direction_small_closed_form():
    A = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    u = np.array([1.0, 2.0, 3.0])
    lam = 1.0
    ref = np.linalg.solve(A.T @ A + lam**2 * np.eye(2), A.T @ u)
    c = TikhonovPath(A, u, np.eye(2), 1).solve(lam)
    assert np.allclose(c, ref, atol=1e-12)


def test_normal_equation_residual_every_solve():
    rng = np.random.default_rng(4)
    m = random_model(rng, dims=3, rank=2, degree=2)
    data = _sampled_from(m, 200, seed=5, noise=0.05)
    for penalty in ("none", "second_moment"):
        cfg = FitConfig(rank_max=2, degree=2, penalty=penalty)
        with _kernel_calls() as calls:
            sweep(data, m, cfg)
        assert len(calls) == 3
        if penalty != "none":
            # the first direction's penalty comes from the unchanged model
            # in the fit's output units: G scales as the square of the outputs
            G0 = calls[0][2] * _output_scale(data, calls[0][1]) ** 2
            assert np.allclose(np.kron(G0, np.eye(3)), build_B(m, 0), rtol=1e-12)
        for A, u, G, (c, state, _) in calls:
            lam = state.lambda_ if state else 0.0
            B = np.kron(G, np.eye(3)) if G is not None else 0.0
            Atu = A.T @ u
            err = np.linalg.norm((A.T @ A + lam**2 * B) @ c - Atu)
            assert err <= 1e-8 * np.linalg.norm(Atu)


def _oracle_direction(A, u, B, cfg):
    """Dense reference: factor the full (rm)^2 penalty and solve with m = 1."""
    L = tikhonov_factor(B)
    path = TikhonovPath(A, u, L, 1)
    sel = gcv_select_lambda(path, als._LAMBDA_GRID_SIZE, cfg.lambda_floor_rel)
    c = path.solve(sel.lambda_)
    sig = sigma_hat(A, u, c, sel.hat_trace)
    return c, sel.lambda_, sig, error_indicator(sel.lambda_, L, sig, c, u.shape[0])


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
            cfg = FitConfig(rank_max=r, degree=m - 1)
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
                c, state, _ = _solve_one(A, data.outputs, B, 1, cfg)
                Atu = A.T @ data.outputs
                err = A.T @ A @ c + state.lambda_**2 * B @ c - Atu
                assert np.all(np.isfinite(c))
                assert np.linalg.norm(err) <= 1e-8 * np.linalg.norm(Atu)
                assert state.error_indicator > 1e6
                continue
            else:
                G = build_B(model, k)[::m, ::m]
            c, state, _ = _solve_one(A, u, G, m, cfg)
            c_ref, lam, sig, ei = _oracle_direction(A, u, np.kron(G, np.eye(m)), cfg)
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
    model, resid, _ = sweep(data, start, FitConfig(rank_max=2, degree=2))
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
    model, _, _ = sweep(data, m, FitConfig(rank_max=1, degree=1, penalty="none"))
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
    model, resid, states = sweep(data, start, cfg)
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
        model, resid, _ = sweep(data, model, cfg)
    assert resid < 1e-8 * empirical_norm(data.outputs)


def test_sweep_monotone_unregularized():
    rng = np.random.default_rng(12)
    truth = random_model(rng, dims=4, rank=2, degree=2)
    data = _sampled_from(truth, 300, seed=13, noise=0.3)
    cfg = FitConfig(rank_max=2, degree=2, penalty="none", rng_seed=0)
    model = random_model(np.random.default_rng(14), dims=4, rank=2, degree=2)
    prev = fit_residual_on(data, model)
    for _ in range(8):
        model, resid, _ = sweep(data, model, cfg)
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
    cfg = FitConfig(rank_max=2, degree=2, rng_seed=0,
                    init_candidates=3, candidate_burn_sweeps=5, max_sweeps_per_rank=40)
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
    cfg = FitConfig(rank_max=2, degree=2,
                    init_candidates=1, candidate_burn_sweeps=2, max_sweeps_per_rank=3)
    with pytest.warns(UserWarning, match="below the direction-solve unknown count"):
        fit_fixed(data, 2, cfg, init_seed=0)


def test_output_rescaling_scales_the_fit():
    # outputs times 2^k, from about 1e-301 to 1e300: the fit scales exactly
    rng = np.random.default_rng(22)
    truth = random_model(rng, dims=3, rank=2, degree=2)
    data = _sampled_from(truth, 250, seed=23, noise=0.05)
    for penalty in ("second_moment", "diag_scale", "none"):
        _check_rescaled_fits(data, penalty)


def _check_rescaled_fits(data, penalty):
    cfg = FitConfig(rank_max=2, degree=2, penalty=penalty, rng_seed=0,
                    init_candidates=2, candidate_burn_sweeps=5, max_sweeps_per_rank=30)
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
    capped = FitConfig(rank_max=2, degree=2, max_sweeps_per_rank=2, init_candidates=3)
    _, diag = fit_fixed(data, 2, capped, init_seed=0)
    for rec in diag.per_rank:
        assert rec.sweeps == 2 and not rec.converged
    loose = FitConfig(rank_max=2, degree=2, sweep_tol=1e-3, init_candidates=3)
    _, diag = fit_fixed(data, 2, loose, init_seed=0)
    for rec in diag.per_rank:
        assert rec.converged and rec.sweeps < loose.max_sweeps_per_rank
        prev, last = rec.residual_trace[-2:]
        assert (prev - last) / prev < loose.sweep_tol


def test_rank_record_keeps_the_final_sweeps_states():
    # the states of a rank are built only for the sweep it keeps: those of a
    # fit capped at K + 1 sweeps must be the ones a sweep from the K-capped
    # fit's model produces, not a stale earlier sweep's
    data = manufactured_sample(100, seed=3)  # rank 1 is still moving at 20 sweeps
    cfg = FitConfig(rank_max=1, degree=1, sweep_tol=1e-14, init_candidates=3)
    K = cfg.candidate_burn_sweeps + 5
    _, diag_k = fit_fixed(data, 1, dataclasses.replace(cfg, max_sweeps_per_rank=K), init_seed=3)
    _, diag_next = fit_fixed(data, 1, dataclasses.replace(cfg, max_sweeps_per_rank=K + 1),
                             init_seed=3)
    rec_k, rec_next = diag_k.per_rank[0], diag_next.per_rank[0]
    assert (rec_k.sweeps, rec_next.sweeps) == (K, K + 1)
    _, resid, states = sweep(data, rec_k.model, cfg)
    assert resid == pytest.approx(rec_next.residual, rel=1e-10)
    assert len(states) == len(rec_next.reg_states) == data.dims
    for state, kept, earlier in zip(states, rec_next.reg_states, rec_k.reg_states, strict=True):
        assert kept.grid_index == state.grid_index
        assert kept.lambda_ == pytest.approx(state.lambda_, rel=1e-10)
        assert kept.sigma_hat == pytest.approx(state.sigma_hat, rel=1e-10)
        assert kept.error_indicator == pytest.approx(state.error_indicator, rel=1e-10)
        # the fit still moves, so an earlier sweep's states would not match
        assert kept.sigma_hat != pytest.approx(earlier.sigma_hat, rel=1e-10)


def test_sweep_refuses_a_model_of_another_family():
    rng = np.random.default_rng(57)
    model = random_model(rng, dims=2, rank=1, degree=1, family="legendre")
    data = SampleSet(rng.standard_normal((20, 2)), rng.standard_normal(20), Family.HERMITE)
    with pytest.raises(ValueError, match="family"):
        sweep(data, model, FitConfig(rank_max=1, degree=1))


@pytest.mark.parametrize("floor_rel", [0.0, 1.5, float("nan")])
def test_lambda_floor_outside_the_unit_interval_is_refused(floor_rel):
    with pytest.raises(ValueError, match="lambda_floor_rel must lie in"):
        FitConfig(rank_max=1, degree=1, lambda_floor_rel=floor_rel)


@pytest.mark.parametrize("penalty", ["none", "second_moment"])
def test_normal_equation_failure_names_its_branch(monkeypatch, penalty):
    # a solve that returns zeros leaves A^T u as the normal-equation residual
    rng = np.random.default_rng(58)
    A = rng.standard_normal((30, 6))
    u = rng.standard_normal(30)
    monkeypatch.setattr(als, "_solve_spd", lambda M, b: np.zeros_like(b))
    monkeypatch.setattr(als.TikhonovPath, "solve", lambda self, lam: np.zeros(self.Atu.shape))
    G = None if penalty == "none" else np.eye(2)
    with pytest.raises(ConditioningError) as err:
        _solve_one(A, u, G, 3, FitConfig(rank_max=2, degree=2, penalty=penalty))
    message = str(err.value)
    if penalty == "none":
        assert "unregularized direction solve" in message
        assert "consider enabling regularization" in message
    else:
        assert "of the regularized direction solve" in message
        assert "enabling regularization" not in message


def test_state_records_lambda_grid_position():
    # near-noiseless data sits on the grid floor, pure noise on its ceiling
    rng = np.random.default_rng(0)
    A = rng.standard_normal((80, 6))
    signal = A @ rng.standard_normal(6)
    cfg = FitConfig(rank_max=2, degree=2)
    cases = [("floor", signal + 1e-3 * rng.standard_normal(80)),
             ("ceiling", rng.standard_normal(80)),
             ("interior", signal + 3.0 * rng.standard_normal(80))]
    for want, u in cases:
        _, state, _ = _solve_one(A, u, np.eye(2), 3, cfg)
        grid = gcv_select_lambda(TikhonovPath(A, u, np.eye(2), 3), als._LAMBDA_GRID_SIZE,
                                 cfg.lambda_floor_rel).grid
        assert state.lambda_ == grid[state.grid_index]
        assert state.grid_position == want
        if want == "interior":
            assert 0 < state.grid_index < len(grid) - 1
        else:
            assert state.grid_index == (0 if want == "floor" else len(grid) - 1)


@pytest.mark.parametrize("lo, hi", [(0.05, 1.0), (1e-300, 1e-290), (3.7e200, 2.0e202)])
def test_lambda_grid_matches_geomspace(lo, hi):
    rng = np.random.default_rng(53)
    ends = np.exp(rng.uniform(np.log(lo), np.log(hi), (7, 2)))
    ends.sort(axis=1)
    grid = regularize._log_grid(ends, 50)
    for row, (a, b) in zip(grid, ends, strict=True):
        assert np.array_equal(row, np.geomspace(a, b, 50))
    assert np.array_equal(regularize._log_grid([lo, hi], 50), np.geomspace(lo, hi, 50))


# -- the candidate race ---------------------------------------------------------


@contextlib.contextmanager
def _race_probe():
    """Record the stack width of every sweep and each race replayed one at a time."""
    probe = {"widths": [], "replays": 0}
    real = als._Fitter.sweep_once

    def recording(self):
        probe["widths"].append(self.coeffs.shape[0])
        try:
            return real(self)
        except als._Replay:
            probe["replays"] += 1
            raise

    als._Fitter.sweep_once = recording
    try:
        yield probe
    finally:
        als._Fitter.sweep_once = real


def _race_against_one_at_a_time(data, r, cfg, seed):
    """fit_fixed with stacked races, then with every race run one candidate at a time.

    Returns the raced run's probe, after requiring the two fits to agree bit
    for bit: models, residual traces, states, winners and convergence flags.
    """
    with _race_probe() as raced_probe:
        raced = fit_fixed(data, r, cfg, seed)
    real = als._Fitter._burn_in

    def one_at_a_time(self, width, cap, base):
        if width > 1:
            raise als._Replay
        return real(self, width, cap, base)

    als._Fitter._burn_in = one_at_a_time
    try:
        with _race_probe() as serial_probe:
            serial = fit_fixed(data, r, cfg, seed)
    finally:
        als._Fitter._burn_in = real
    assert max(serial_probe["widths"]) == 1
    assert max(raced_probe["widths"]) == cfg.init_candidates
    (m1, d1), (m2, d2) = raced, serial
    assert np.array_equal(m1.coeffs, m2.coeffs) and np.array_equal(m1.scales, m2.scales)
    for a, b in zip(d1.per_rank, d2.per_rank, strict=True):
        assert a.residual_trace == b.residual_trace
        assert repr(a.reg_states) == repr(b.reg_states)
        assert (a.candidate, a.converged) == (b.candidate, b.converged)
        assert np.array_equal(a.model.coeffs, b.model.coeffs)
        assert np.array_equal(a.model.scales, b.model.scales)
    return raced_probe


def test_race_with_a_burn_in_redraw_equals_one_at_a_time(caplog):
    # degree-0 data of the selection test: surplus terms collapse during
    # burn-in, so the race is replayed one candidate at a time from the
    # stream state it started with
    data = manufactured_sample(60, seed=0)
    cfg = FitConfig(rank_max=4, degree=0)
    with caplog.at_level(logging.WARNING, logger="seprep.als"):
        probe = _race_against_one_at_a_time(data, 4, cfg, seed=5)
    assert probe["replays"] > 0
    assert "collapsed to zero" in caplog.text


def test_race_with_a_jittered_gram_equals_one_at_a_time(caplog):
    # rank two at degree 0: every term Gram is rank one and needs jitter,
    # and the short burn-in ends before any term collapses
    data = manufactured_sample(60, seed=1)
    cfg = FitConfig(rank_max=2, degree=0, candidate_burn_sweeps=2, max_sweeps_per_rank=6)
    with caplog.at_level(logging.WARNING, logger="seprep.als"):
        probe = _race_against_one_at_a_time(data, 2, cfg, seed=5)
    assert probe["replays"] == 0
    assert "required jitter" in caplog.text


def test_unregularized_race_equals_one_at_a_time():
    # each slice keeps its own monotone-residual invariant
    data = manufactured_sample(100, seed=1)
    cfg = FitConfig(rank_max=3, degree=2, penalty="none", max_sweeps_per_rank=60)
    _race_against_one_at_a_time(data, 3, cfg, seed=5)


def test_race_with_early_convergence_equals_one_at_a_time():
    # a loose tolerance and a long burn-in: candidates converge at different
    # sweeps and leave the stack one by one
    data = manufactured_sample(200, seed=2)
    cfg = FitConfig(rank_max=2, degree=2, sweep_tol=2e-3, candidate_burn_sweeps=40,
                    max_sweeps_per_rank=80)
    probe = _race_against_one_at_a_time(data, 2, cfg, seed=5)
    assert any(1 < w < cfg.init_candidates for w in probe["widths"])


def test_exact_recovery_success_rate():
    # rank-1 targets with random coefficients at the feasibility margin of the
    # restart protocol: require 19 of 20 seeds below 1e-6 relative L2 error
    d, M = 4, 2
    n = 20 * d * (M + 1)
    cfg = FitConfig(rank_max=1, degree=M, penalty="none", sweep_tol=1e-10,
                    max_sweeps_per_rank=600)
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
        model, _ = fit_fixed(data, 1, cfg, init_seed=seed)
        if quadrature_l2_distance(model, truth) < 1e-6:
            hits += 1
    assert hits >= 19
