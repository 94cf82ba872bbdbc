import math
import re

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from helpers import degree_last_basis
from seprep.basis import BasisSpec, Family, eval_basis_batch, gauss_quadrature
from seprep.errors import DomainError


def test_legendre_degree_one():
    vals = eval_basis_batch(BasisSpec(Family.LEGENDRE, 1), 0.5)
    assert vals == pytest.approx([1.0, math.sqrt(3) * 0.5], abs=1e-15)


def test_hermite_degree_two_root():
    # psi_2(y) = (y^2 - 1)/sqrt(2) vanishes at y = 1
    vals = eval_basis_batch(BasisSpec(Family.HERMITE, 2), 1.0)
    assert vals == pytest.approx([1.0, 1.0, 0.0], abs=1e-15)


def test_hermite_values_at_zero():
    vals = eval_basis_batch(BasisSpec(Family.HERMITE, 3), 0.0)
    assert vals == pytest.approx([1.0, 0.0, -1.0 / math.sqrt(2), 0.0], abs=1e-15)


def test_legendre_rejects_out_of_domain():
    with pytest.raises(DomainError):
        eval_basis_batch(BasisSpec(Family.LEGENDRE, 2), 1.2)
    with pytest.raises(DomainError):
        eval_basis_batch(BasisSpec(Family.LEGENDRE, 2), np.array([0.0, -1.0001]))


def test_batch_shape():
    spec = BasisSpec(Family.HERMITE, 4)
    out = eval_basis_batch(spec, np.zeros((7, 3)))
    assert out.shape == (7, 3, 5)


def test_quadrature_trivial_rules():
    nodes, weights = gauss_quadrature(BasisSpec(Family.LEGENDRE, 1), 1)
    assert nodes == pytest.approx([0.0]) and weights == pytest.approx([1.0])
    nodes, weights = gauss_quadrature(BasisSpec(Family.HERMITE, 1), 2)
    assert sorted(nodes) == pytest.approx([-1.0, 1.0])
    assert weights == pytest.approx([0.5, 0.5])


def _golub_welsch_oracle(family, n):
    # Golub-Welsch on SciPy's tridiagonal eigensolver, an independent reference
    k = np.arange(1, n, dtype=float)
    beta = np.sqrt(k) if family is Family.HERMITE else k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = eigh_tridiagonal(np.zeros(n), beta)
    return nodes, vecs[0] ** 2


@pytest.mark.parametrize("family", [Family.HERMITE, Family.LEGENDRE])
def test_quadrature_matches_the_tridiagonal_eigensolver(family):
    for n in range(1, 41):
        nodes, weights = gauss_quadrature(BasisSpec(family, 1), n)
        want_nodes, want_weights = _golub_welsch_oracle(family, n)
        np.testing.assert_allclose(nodes, want_nodes, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(weights, want_weights, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("family", [Family.HERMITE, Family.LEGENDRE])
def test_quadrature_weights_sum_to_one(family):
    for n in (1, 2, 5, 13):
        _, weights = gauss_quadrature(BasisSpec(family, 1), n)
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)


def test_legendre_five_point_normalizes_psi3():
    spec = BasisSpec(Family.LEGENDRE, 3)
    nodes, weights = gauss_quadrature(spec, 5)
    psi = eval_basis_batch(spec, nodes)
    val = float(np.sum(weights * psi[:, 3] * psi[:, 3]))
    assert abs(val - 1.0) < 1e-12


@pytest.mark.parametrize("family", [Family.HERMITE, Family.LEGENDRE])
def test_orthonormality_under_quadrature(family):
    M = 7
    spec = BasisSpec(family, M)
    nodes, weights = gauss_quadrature(spec, M + 1)
    psi = eval_basis_batch(spec, nodes)
    gram = (psi * weights[:, None]).T @ psi
    assert np.max(np.abs(gram - np.eye(M + 1))) < 1e-10


def test_quadrature_exactness_degree():
    # a rule with n points integrates monomial-degree 2n-1 exactly against the weight
    spec = BasisSpec(Family.LEGENDRE, 0)
    n = 4
    nodes, weights = gauss_quadrature(spec, n)
    # int y^6 * 1/2 dy over [-1,1] = 1/7
    assert float(np.sum(weights * nodes**6)) == pytest.approx(1.0 / 7.0, rel=1e-13)
    # degree 2n = 8 is no longer exact
    assert abs(float(np.sum(weights * nodes**8)) - 1.0 / 9.0) > 1e-6


def _mp_hermite_norm(a, y):
    # probabilists' Hermite via mpmath, normalized by sqrt(a!)
    h = mpmath.hermite(a, mpmath.mpf(y) / mpmath.sqrt(2)) / mpmath.mpf(2) ** (
        mpmath.mpf(a) / 2
    )
    return h / mpmath.sqrt(mpmath.factorial(a))


def _mp_legendre_norm(a, y):
    return mpmath.legendre(a, mpmath.mpf(y)) * mpmath.sqrt(2 * a + 1)


@pytest.mark.parametrize("family", [Family.HERMITE, Family.LEGENDRE])
def test_recurrence_matches_high_precision(family):
    # the stated basis tolerance: 16 (a+1) eps max(1, |psi_a|), an ulp-scale
    # bound that grows by one rounding per recurrence step
    mpmath.mp.prec = 128
    M = 12
    eps = np.finfo(float).eps
    spec = BasisSpec(family, M)
    ys = np.linspace(-4.0, 4.0, 161) if family is Family.HERMITE else np.linspace(-1.0, 1.0, 161)
    for y in ys:
        ours = eval_basis_batch(spec, y)
        for a in range(M + 1):
            if family is Family.HERMITE:
                ref = _mp_hermite_norm(a, y)
            else:
                ref = _mp_legendre_norm(a, y)
            err = float(abs(mpmath.mpf(float(ours[a])) - ref))
            assert err <= 16 * (a + 1) * eps * max(1.0, abs(float(ref))), (y, a)


def test_invalid_spec():
    with pytest.raises(ValueError):
        BasisSpec(Family.HERMITE, -1)
    with pytest.raises(ValueError):
        gauss_quadrature(BasisSpec(Family.HERMITE, 1), 0)


@pytest.mark.parametrize("degree", [2.5, 3.0, True, False, "3", None])
def test_non_integer_degree_is_refused(degree):
    with pytest.raises(ValueError, match="max_degree must be an integer"):
        BasisSpec(Family.HERMITE, degree)


def test_numpy_integer_degree_is_accepted():
    spec = BasisSpec(Family.LEGENDRE, np.int64(3))
    assert spec.size == 4 and eval_basis_batch(spec, 0.5).shape == (4,)
    nodes, weights = gauss_quadrature(spec, np.int64(3))
    assert nodes.shape == weights.shape == (3,)


@pytest.mark.parametrize("n_points", [2.5, 3.0, True, False, "3", None])
def test_non_integer_rule_size_is_refused(n_points):
    with pytest.raises(ValueError, match="n_points must be an integer"):
        gauss_quadrature(BasisSpec(Family.HERMITE, 1), n_points)


def test_out_of_domain_legendre_input_names_the_plain_value():
    spec = BasisSpec(Family.LEGENDRE, 3)
    msg = re.escape("Legendre basis requires inputs in [-1, 1]; got value 1.2") + "$"
    with pytest.raises(DomainError, match=msg):
        eval_basis_batch(spec, np.array([0.5, 1.2, -0.3]))
    with pytest.raises(DomainError, match=msg):
        eval_basis_batch(spec, np.float64(1.2))


@pytest.mark.parametrize("family", [Family.HERMITE, Family.LEGENDRE])
def test_empty_input_gives_an_empty_basis(family):
    for M in (0, 1, 4):
        out = eval_basis_batch(BasisSpec(family, M), np.empty(0))
        assert out.shape == (0, M + 1)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "minus-inf", "nan"])
@pytest.mark.parametrize("family", [Family.HERMITE, Family.LEGENDRE])
def test_non_finite_input_is_a_domain_error(family, bad):
    # Legendre words an infinity as out of [-1, 1]; everything else is "finite"
    if family is Family.LEGENDRE and np.isinf(bad):
        msg = re.escape(f"Legendre basis requires inputs in [-1, 1]; got value {bad}") + "$"
    else:
        msg = "basis input must be finite"
    spec = BasisSpec(family, 3)
    y = np.zeros((4, 5))
    y[2, 3] = bad
    with pytest.raises(DomainError, match=msg):
        eval_basis_batch(spec, y)
    with pytest.raises(DomainError, match=msg):
        eval_basis_batch(spec, bad)


@pytest.mark.parametrize("family", [Family.HERMITE, Family.LEGENDRE])
@pytest.mark.parametrize("shape", [(), (1,), (257,), (300, 7)], ids=["scalar", "n1", "n", "n-d"])
def test_degree_major_recurrence_equals_degree_last_bit_for_bit(family, shape):
    rng = np.random.default_rng(31)
    y = rng.standard_normal(shape) if family is Family.HERMITE else rng.uniform(-1, 1, shape)
    for M in (0, 1, 2, 4, 9):
        spec = BasisSpec(family, M)
        got = eval_basis_batch(spec, y)
        want = degree_last_basis(spec, y)
        assert got.shape == want.shape == np.shape(y) + (M + 1,)
        assert np.array_equal(got, want)
