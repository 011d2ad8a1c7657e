import warnings

import numpy as np
import pytest

from clik.errors import DimensionMismatch, NotPositiveDefinite, SingularMatrix
from clik.matrixops import (asymmetry, cholesky_lower, is_psd, is_singular,
                            loewner_geq, solve_sym, sym_invert, symmetrize)


def test_invert_identity():
    np.testing.assert_array_equal(sym_invert(np.eye(2)), np.eye(2))


def test_invert_hand_checked():
    # adjugate over determinant: det = 3, adj = [[2,-1],[-1,2]]
    inv = sym_invert([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(inv, [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]],
                               rtol=0, atol=1e-12)


def test_invert_rank_deficient_raises():
    with pytest.raises(SingularMatrix):
        sym_invert([[1.0, 1.0], [1.0, 1.0]])


#: A regular matrix whose LU factorization meets an exactly zero pivot: the
#: square of the off-diagonal entry underflows (the Monte Carlo J of
#: EMVN(3) full_conditional at sigma2 = 1e200).
UNDERFLOWING_J = np.array([[7.30, -4.4e-230], [-4.4e-230, 0.0]])


@pytest.mark.parametrize("solve", [sym_invert,
                                   lambda m: solve_sym(m, np.ones(2))],
                         ids=["sym_invert", "solve_sym"])
def test_zero_pivot_raises_singular_matrix_naming_the_row(solve):
    assert not is_singular(UNDERFLOWING_J)
    with pytest.raises(SingularMatrix,
                       match="not solvable in double precision") as exc:
        solve(UNDERFLOWING_J)
    assert exc.value.rows.tolist() == [0]
    stack = np.stack([np.eye(2), UNDERFLOWING_J, 2.0 * np.eye(2)])
    with pytest.raises(SingularMatrix) as exc:
        solve(stack)
    assert exc.value.rows.tolist() == [1]


def test_invert_residual_identity():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 3, 4):
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            m = q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q.T
            resid = m @ sym_invert(m) - np.eye(dim)
            assert np.max(np.abs(resid)) < 1e-10


def test_invert_twice_round_trip():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 4):
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            m = q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q.T
            np.testing.assert_allclose(sym_invert(sym_invert(m)), m, rtol=1e-8)


def test_is_psd_cases():
    assert is_psd(np.diag([1.0, 2.0]), 0.0)
    assert not is_psd(np.diag([1.0, -0.5]), 1e-9)
    assert is_psd([[1.0, 1.0], [1.0, 1.0]], 1e-9)     # PSD rank 1
    with pytest.raises(ValueError):
        is_psd(np.eye(2), -1e-3)


def test_loewner_ordering():
    assert loewner_geq(np.diag([2.0, 2.0]), np.eye(2), 0.0)
    a = np.array([[1.3, 0.2], [0.2, 0.8]])
    assert loewner_geq(a, a, 0.0)                      # reflexive
    # eigenvalues of identity - diag(2, 0.5) are -1 and +0.5
    assert not loewner_geq(np.eye(2), np.diag([2.0, 0.5]), 1e-9)
    with pytest.raises(DimensionMismatch):
        loewner_geq(np.eye(2), np.eye(3), 0.0)


def test_loewner_antisymmetry_on_random_psd():
    rng = np.random.default_rng(2)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = q @ np.diag(rng.uniform(0.5, 2.0, 3)) @ q.T
        b = a + 0.1 * np.eye(3)
        assert loewner_geq(b, a, 1e-12)
        assert not loewner_geq(a, b, 1e-12)


def test_cholesky_cases():
    np.testing.assert_array_equal(cholesky_lower(np.eye(3)), np.eye(3))
    np.testing.assert_allclose(cholesky_lower(np.diag([4.0, 9.0])),
                               np.diag([2.0, 3.0]), atol=1e-15)
    with pytest.raises(NotPositiveDefinite):
        cholesky_lower(np.diag([1.0, -1.0]))


def test_cholesky_reconstructs_equicorrelated_cov():
    sigma = (1 - 0.5) * np.eye(3) + 0.5 * np.ones((3, 3))
    low = cholesky_lower(sigma)
    np.testing.assert_allclose(low @ low.T, sigma, rtol=1e-12)


def test_cholesky_reconstruction_well_conditioned():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4):
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            m = q @ np.diag(rng.uniform(1e-2, 1e2, dim)) @ q.T
            low = cholesky_lower(m)
            np.testing.assert_allclose(low @ low.T, m, rtol=1e-12, atol=1e-12)


def test_symmetrize_and_asymmetry():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = symmetrize(m)
    assert s[0, 1] == s[1, 0] == 1.0
    assert asymmetry(m) == 1.0
    assert asymmetry(s) == 0.0
    with pytest.raises(DimensionMismatch):
        symmetrize(np.ones((2, 3)))


def test_solve_sym_matches_inverse():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    rhs = np.array([1.0, -1.0])
    np.testing.assert_allclose(solve_sym(m, rhs), sym_invert(m) @ rhs,
                               rtol=1e-12)
    with pytest.raises(SingularMatrix):
        solve_sym(np.ones((2, 2)), rhs)


def test_is_singular_is_unit_free():
    # entries carry the units of their row and column parameters, so the
    # verdict must survive any row and column scaling
    rng = np.random.default_rng(4)
    units = 10.0 ** np.arange(-8, 9, 4)            # 1e-8 .. 1e8
    for dim in (1, 2, 3, 4):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        well = q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q.T
        # integer rows with the last one the sum of the others (zero if dim 1)
        deficient = rng.integers(-3, 4, (dim, dim)).astype(float)
        deficient[-1] = deficient[:-1].sum(axis=0)
        for _ in range(40):
            rows = np.diag(rng.choice(units, dim))
            cols = np.diag(rng.choice(units, dim))
            assert not is_singular(rows @ well @ cols)
            assert is_singular(rows @ deficient @ cols)
    # a 2x2 score Jacobian in (rho, sigma2) and a rank-one one
    jac = np.array([[2.82, -0.80], [-0.80, 1.5]])
    rank_one = np.array([[2.0, 1.0], [4.0, 2.0]])
    for unit in units:
        d = np.diag([1.0, unit])
        assert not is_singular(d @ jac @ d)
        assert is_singular(d @ rank_one @ d)
    assert is_singular(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert is_singular(np.array([[1.0, 0.0], [1.0, 0.0]]))
    # an EMVN(9) covariance at rho 0.976: condition number 367, but a
    # determinant below 1e-12
    equi = 0.024 * np.eye(9) + 0.976
    assert np.linalg.det(equi) < 1e-12
    assert not is_singular(equi)
    assert not is_singular(np.diag(rng.choice(units, 9)) @ equi)
    # a non-finite entry is left to the solve, as a NaN determinant is
    assert not is_singular(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_overflowing_determinant_screen_is_quiet():
    # above about 1e100 the determinant screen overflows to inf <= inf and
    # leaves the verdict to the SVD, without a RuntimeWarning
    big = np.eye(3) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_singular(big)
        np.testing.assert_array_equal(sym_invert(big), np.eye(3) * 1e-200)
        assert is_singular(np.ones((3, 3)) * 1e200)


def test_inversions_are_unit_free():
    # a well-posed matrix on mixed scales is inverted, not rejected
    m = np.array([[2.82, -0.80e-6], [-0.80e-6, 1.5e-12]])
    inv = sym_invert(m)
    np.testing.assert_allclose(m @ inv, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(solve_sym(m, m), np.eye(2), atol=1e-10)
