"""Regularization checks: the penalty's quadratic form against the second
moment, explicit hat-matrix traces, a fine-grid GCV scan, and the
perturbation bound the error indicator rests on.
"""
import numpy as np
import pytest

from helpers import (
    build_B,
    error_indicator,
    explicit_hat_matrix,
    l_inverse_norm,
    naive_gcv_solve,
    normal_equation_pieces,
    naive_second_moment_quadratic_form,
    random_model,
    sigma_hat,
    tikhonov_factor,
)
from seprep import regularize
from seprep.errors import (
    ConditioningError,
    DegenerateModelError,
    InvariantError,
    SelectionError,
)
from seprep.model import _term_gram, second_moment
from seprep.regularize import TikhonovPath, gcv_select_lambda


def test_build_B_rank_one_normalized():
    from seprep.basis import BasisSpec, Family
    from seprep.model import SeparatedModel

    coeffs = np.zeros((3, 1, 3))
    coeffs[:, 0, 1] = 1.0
    m = SeparatedModel(BasisSpec(Family.HERMITE, 2), np.array([3.0]), coeffs)
    B = build_B(m, k=0)
    assert np.allclose(B, 9.0 * np.eye(3), atol=1e-14)


def test_build_B_matches_direct_expansion():
    rng = np.random.default_rng(2)
    m = random_model(rng, dims=2, rank=2, degree=2)
    k = 1
    B = build_B(m, k)
    # check entrywise against the quadratic form evaluated on basis vectors
    n = B.shape[0]
    for i in range(n):
        for j in range(n):
            ci = np.zeros(n)
            cj = np.zeros(n)
            ci[i] = 1.0
            cj[j] = 1.0
            qf = lambda c: naive_second_moment_quadratic_form(
                m, k, c.reshape(m.rank, m.basis.size)
            )
            val = 0.25 * (qf(ci + cj) - qf(ci - cj))  # polarization identity
            assert B[i, j] == pytest.approx(val, rel=1e-12, abs=1e-12)
    # the library's term Gram is the same form once every direction-k factor
    # is the constant 1, which drops out of the product
    mk = m.copy()
    mk.coeffs[k] = 0.0
    mk.coeffs[k, :, 0] = 1.0
    assert np.allclose(
        np.kron(_term_gram(mk), np.eye(m.basis.size)), B, rtol=1e-12, atol=1e-12
    )


def test_quadratic_form_recovers_second_moment():
    rng = np.random.default_rng(14)
    for _ in range(100):
        m = random_model(rng, dims=3, rank=2, degree=2)
        k = int(rng.integers(0, 3))
        B = build_B(m, k)
        # the direction-k coefficient vector entering the design matrix carries
        # no scale factor of its own; scales enter through the columns of A
        c = m.coeffs[k].reshape(-1)
        assert c @ B @ c == pytest.approx(second_moment(m), rel=1e-12)


def test_tikhonov_factor_diagonal():
    L = tikhonov_factor(4.0 * np.eye(5))
    assert np.allclose(L, 2.0 * np.eye(5), atol=1e-14)


def test_tikhonov_factor_reconstructs():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 8))
    B = X @ X.T + 8 * np.eye(8)
    L = tikhonov_factor(B)
    assert np.allclose(L, np.triu(L))
    assert np.linalg.norm(L.T @ L - B) <= 1e-10 * np.linalg.norm(B)


def test_tikhonov_factor_rejects_semidefinite():
    v = np.array([1.0, 2.0, 3.0])
    B = np.outer(v, v)  # rank one, eigenvalue 0 present
    with pytest.raises(DegenerateModelError):
        tikhonov_factor(B)


def _random_system(rng, n_rows=50, n_cols=6):
    """One random system as a stack of one: A (1, N, n), u (N,), L (1, n, n)."""
    A = rng.standard_normal((n_rows, n_cols))
    u = rng.standard_normal(n_rows)
    X = rng.standard_normal((n_cols, n_cols))
    L = tikhonov_factor(X @ X.T + n_cols * np.eye(n_cols))
    return A[None], u, L[None]


def test_hat_trace_at_zero_is_column_count():
    rng = np.random.default_rng(8)
    A, u, L = _random_system(rng)
    path = TikhonovPath(*normal_equation_pieces(A, u), L, 1)
    # the hat trace at lambda = 0 counts the positive generalized singular values
    filters = np.divide(path.sv2, path.sv2, out=np.zeros(path.sv2.shape), where=path.sv2 > 0.0)
    assert np.add.reduce(filters, -1)[0] == pytest.approx(A.shape[-1], abs=1e-9)
    assert np.trace(explicit_hat_matrix(A[0], L[0], 0.0)) == pytest.approx(A.shape[-1], abs=1e-9)
    # and the path's lambda = 0 solve is the least-squares solution
    c = path.solve(np.zeros(1))[0]
    c_ls = np.linalg.lstsq(A[0], u, rcond=None)[0]
    assert np.allclose(c, c_ls, rtol=1e-9, atol=1e-11)


def test_gcv_residual_monotone_and_in_grid():
    rng = np.random.default_rng(9)
    A, u, L = _random_system(rng)
    path = TikhonovPath(*normal_equation_pieces(A, u), L, 1)
    sel = gcv_select_lambda(path)
    residual_norms = np.array(
        [np.linalg.norm(A[0] @ path.solve(np.array([lam]))[0] - u) for lam in sel.grid[0]]
    )
    assert np.all(np.diff(residual_norms) >= -1e-9 * residual_norms[:-1])
    assert sel.grid[0, 0] <= sel.lambda_[0] <= sel.grid[0, -1]
    assert any(sel.lambda_[0] == g for g in sel.grid[0])


def test_gcv_trace_matches_explicit_hat_matrix():
    rng = np.random.default_rng(11)
    for trial in range(5):
        n_rows = int(rng.integers(20, 61))
        A, u, L = _random_system(rng, n_rows=n_rows, n_cols=5)
        path = TikhonovPath(*normal_equation_pieces(A, u), L, 1)
        sel = gcv_select_lambda(path)
        gcv, traces = [], []
        for lam in sel.grid[0]:
            H = explicit_hat_matrix(A[0], L[0], lam)
            traces.append(np.trace(H))
            c = path.solve(np.array([lam]))[0]
            resid = np.linalg.norm(A[0] @ c - u)
            assert resid == pytest.approx(np.linalg.norm(u - H @ u), rel=1e-9, abs=1e-11)
            gcv.append(n_rows * resid**2 / (n_rows - traces[-1]) ** 2)
        assert sel.index[0] == int(np.argmin(gcv))
        assert sel.hat_trace[0] == pytest.approx(traces[sel.index[0]], abs=1e-9)


def test_gcv_matches_fine_grid_scan():
    rng = np.random.default_rng(10)
    A, u, L = _random_system(rng)
    u = u + A[0] @ rng.standard_normal(A.shape[-1])  # give the system signal
    path = TikhonovPath(*normal_equation_pieces(A, u), L, 1)
    coarse = gcv_select_lambda(path)
    # the dense oracle's GCV scan over 500 points of the same range
    fine = naive_gcv_solve(A[0], u, L[0].T @ L[0], 500, regularize._LAMBDA_FLOOR)[1]
    # the coarse minimizer must land within one coarse cell of the fine one
    ratio = coarse.grid[0, 1] / coarse.grid[0, 0]
    assert coarse.lambda_[0] / ratio <= fine <= coarse.lambda_[0] * ratio


def test_stacked_gcv_matches_explicit_hat_matrix():
    # three independent systems on shared outputs, one path for the stack
    rng = np.random.default_rng(11)
    n_rows, n_cols = 40, 5
    systems = [_random_system(rng, n_rows, n_cols) for _ in range(3)]
    u = systems[0][1] + systems[0][0][0] @ rng.standard_normal(n_cols)
    A = np.concatenate([a for a, _, _ in systems])
    L = np.concatenate([l for _, _, l in systems])
    path = TikhonovPath(*normal_equation_pieces(A, u), L, 1)
    sel = gcv_select_lambda(path)
    residuals = np.array([np.linalg.norm(A @ c[:, :, None] - u[:, None], axis=(1, 2))
                          for c in (path.solve(lam) for lam in sel.grid.T)])
    for b in range(3):
        # GCV scanned with explicit hat matrices over the slice's own grid
        gcv, traces = [], []
        for lam in sel.grid[b]:
            H = explicit_hat_matrix(A[b], L[b], lam)
            res = u - H @ u
            traces.append(np.trace(H))
            gcv.append(n_rows * float(res @ res) / (n_rows - traces[-1]) ** 2)
        assert sel.index[b] == int(np.argmin(gcv))
        assert sel.lambda_[b] == sel.grid[b, sel.index[b]]
        assert sel.hat_trace[b] == pytest.approx(traces[sel.index[b]], abs=1e-9)
        # the residual ||A c_lambda - u|| grows with lambda along the grid
        assert np.all(np.diff(residuals[:, b]) >= -1e-9 * residuals[:-1, b])
        # the slice run as a stack of one gets the same bits
        one = TikhonovPath(*normal_equation_pieces(A[b:b + 1], u), L[b:b + 1], 1)
        sel_one = gcv_select_lambda(one)
        assert np.array_equal(sel_one.grid[0], sel.grid[b])
        assert sel_one.index[0] == sel.index[b]
        assert sel_one.lambda_[0] == sel.lambda_[b]
        assert sel_one.hat_trace[0] == sel.hat_trace[b]
        assert np.array_equal(one.solve(sel_one.lambda_)[0], path.solve(sel.lambda_)[b])


def test_gcv_decreasing_residual_is_an_invariant_error():
    rng = np.random.default_rng(19)
    A, u, L = _random_system(rng)
    path = TikhonovPath(*normal_equation_pieces(A, u), L, 1)
    # a negative squared coefficient makes the residual shrink as lambda grows
    path.b2 = -np.ones_like(path.b2)
    path.perp2 = np.full(1, 1e3)
    with pytest.raises(InvariantError):
        gcv_select_lambda(path)


def test_a_zero_normal_matrix_has_nothing_to_select():
    rng = np.random.default_rng(21)
    _, u, L = _random_system(rng)
    path = TikhonovPath(np.zeros((1, 6, 6)), np.zeros((1, 6)), float(u @ u), len(u), L, 1)
    with pytest.raises(SelectionError, match="^design matrix is identically zero; nothing"):
        gcv_select_lambda(path)


def test_gcv_non_finite_over_the_whole_grid_is_refused():
    # a NaN u . u leaves every grid point's residual, and so its GCV, NaN
    rng = np.random.default_rng(22)
    A, u, L = _random_system(rng)
    AtA, Atu, _, n = normal_equation_pieces(A, u)
    path = TikhonovPath(AtA, Atu, np.nan, n, L, 1)
    with pytest.raises(SelectionError, match="^GCV is non-finite over the whole lambda grid$"):
        gcv_select_lambda(path)


def test_a_normal_matrix_of_another_width_is_refused():
    AtA = np.eye(3)[None]
    with pytest.raises(ValueError, match=r"^normal matrix has 3 columns, expected 2 x 2$"):
        TikhonovPath(AtA, np.ones((1, 3)), 1.0, 10, np.eye(2)[None], 2)


def test_path_eigendecomposition_failure_is_a_conditioning_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    rng = np.random.default_rng(20)
    A, u, L = _random_system(rng)
    with pytest.raises(ConditioningError):
        TikhonovPath(*normal_equation_pieces(A, u), L, 1)


def test_sigma_hat_exact_fit_is_zero():
    A = np.eye(3)
    u = np.array([1.0, 2.0, 3.0])
    assert sigma_hat(A, u, u.copy(), hat_trace=0.0) == 0.0


def test_sigma_hat_constant_column_is_sample_variance():
    rng = np.random.default_rng(12)
    u = rng.standard_normal(40)
    A = np.ones((40, 1))
    c = np.array([u.mean()])  # unregularized least squares
    s2 = sigma_hat(A, u, c, hat_trace=1.0) ** 2
    assert s2 == pytest.approx(float(np.var(u, ddof=1)), rel=1e-12)


def test_sigma_hat_formula():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((30, 4))
    u = rng.standard_normal(30)
    c = rng.standard_normal(4)
    tr = 2.5
    ref = np.sqrt(np.sum((A @ c - u) ** 2) / (30 - tr))
    assert sigma_hat(A, u, c, tr) == pytest.approx(ref, abs=1e-13)


def test_sigma_hat_dof_exhausted():
    A = np.ones((3, 1))
    assert sigma_hat(A, np.ones(3), np.ones(1), hat_trace=3.0) == np.inf


def test_error_indicator_zero_noise():
    assert error_indicator(1.0, np.eye(4), 0.0, np.ones(4), 100) == 0.0


def test_error_indicator_arithmetic():
    # sqrt(100) * (1/0.5) * (1/2) * 0.1 / 1 = 1.0
    L = 2.0 * np.eye(3)
    c = np.array([1.0, 0.0, 0.0])
    assert error_indicator(0.5, L, 0.1, c, 100) == pytest.approx(1.0, abs=1e-14)


def test_error_indicator_sentinels():
    assert error_indicator(0.0, np.eye(2), 0.1, np.ones(2), 10) == np.inf
    assert error_indicator(1.0, np.eye(2), 0.1, np.zeros(2), 10) == np.inf


def test_l_inverse_norm_matches_svd():
    rng = np.random.default_rng(15)
    for _ in range(20):
        X = rng.standard_normal((6, 6))
        L = tikhonov_factor(X @ X.T + 2 * np.eye(6))
        ref = 1.0 / np.linalg.svd(L, compute_uv=False)[-1]
        assert l_inverse_norm(L) == pytest.approx(ref, rel=1e-10)


def test_perturbation_bound_holds():
    rng = np.random.default_rng(16)
    for _ in range(200):
        n_rows = int(rng.integers(10, 40))
        n_cols = int(rng.integers(2, 7))
        A = rng.standard_normal((n_rows, n_cols))
        u = rng.standard_normal(n_rows)
        X = rng.standard_normal((n_cols, n_cols))
        L = tikhonov_factor(X @ X.T + 0.5 * np.eye(n_cols))
        lam = float(np.exp(rng.uniform(-3, 2)))
        eps = 0.1 * rng.standard_normal(n_rows)
        path = TikhonovPath(*normal_equation_pieces(A[None], u), L[None], 1)
        path2 = TikhonovPath(*normal_equation_pieces(A[None], u - eps), L[None], 1)
        c = path.solve(np.array([lam]))[0]
        c2 = path2.solve(np.array([lam]))[0]
        lhs = np.linalg.norm(c - c2) / np.linalg.norm(c)
        rhs = l_inverse_norm(L) / lam * np.linalg.norm(eps) / np.linalg.norm(c)
        assert lhs <= rhs + 1e-10


def test_penalty_norm_equals_second_moment():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = random_model(rng, dims=3, rank=3, degree=2)
        k = int(rng.integers(0, 3))
        L = tikhonov_factor(build_B(m, k))
        c = m.coeffs[k].reshape(-1)
        val = float(np.linalg.norm(L @ c) ** 2)
        assert val == pytest.approx(second_moment(m), rel=1e-10)


# the names `import seprep` exports besides its modules; the README lists the same
PUBLIC_NAMES = {
    "BasisSpec", "Family", "FitConfig", "FitDiagnostics", "RegularizationState",
    "SampleSet", "SelectionReport", "SeparatedModel", "empirical_norm", "eval_basis_batch",
    "evaluate_batch", "fit_fixed", "gauss_quadrature", "load_model", "mean",
    "model_from_dict", "model_to_dict", "moment", "save_model", "second_moment",
    "select_model", "standard_deviation",
}


def test_package_public_names():
    # the Tikhonov path and GCV pick are the kernel's internals: they stay in
    # seprep.regularize and are called as module globals of seprep.als
    import types

    import seprep
    from seprep import als, regularize

    names = {name for name, value in vars(seprep).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES
    assert {"errors", "problems"} <= set(vars(seprep))
    for name in ("TikhonovPath", "gcv_select_lambda"):
        assert getattr(als, name) is getattr(regularize, name)
