import numpy as np
import pytest

import clik.asymptotics as asy
import clik.composite as comp
from clik.errors import DomainError, InvalidArgument
from clik.models import EMVN, Multinomial4, TriNormal


# -- independent oracle: exact expectations over the four multinomial outcomes


def _enum_info(theta, k, spec_name):
    """Exact H and J for the four-cell multinomial by outcome enumeration,
    written against raw formulas (independent of the library route)."""
    cells = np.array([theta, theta, theta / k, 1 - 2 * theta - theta / k])
    outcomes = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]

    def score(t, y):
        y1, y2, y3 = y
        if spec_name == "ind":
            return (y1 / t - (1 - y1) / (1 - t) + y2 / t - (1 - y2) / (1 - t)
                    + y3 / t - (1 - y3) / (k - t))
        if spec_name == "pair":
            return ((2 * y1 + 2 * y2) / t - 2 * (1 - y1 - y2) / (1 - 2 * t)
                    + 2 * y3 / t
                    - (2 - y1 - y2 - 2 * y3) * (1 + 1 / k) / (1 - t - t / k))
        s = y1 + y2 + y3
        c = 2 + 1 / k
        return s / t - (1 - s) * c / (1 - c * t)

    u = np.array([score(theta, y) for y in outcomes])
    j = float(cells @ u ** 2 - (cells @ u) ** 2)
    h = 1e-6
    up = np.array([score(theta + h, y) for y in outcomes])
    dn = np.array([score(theta - h, y) for y in outcomes])
    hmat = -float(cells @ (up - dn)) / (2 * h)
    return hmat, j


# -- pairwise variance formulas ------------------------------------------------


def test_avar_values_at_zero_correlation():
    assert asy.avar_rho_known_sigma(3, 0.0) == pytest.approx(1 / 3, abs=1e-15)
    assert asy.avar_rho_free_sigma(3, 0.0) == pytest.approx(1 / 3, abs=1e-15)


def test_avar_known_sigma_frozen_value():
    # direct evaluation: c(3, 0.5) = 4.1875
    assert asy.avar_rho_known_sigma(3, 0.5) == pytest.approx(
        2 * 0.25 * 4.1875 / (6 * 1.25 ** 2), abs=1e-15)
    assert asy.avar_rho_known_sigma(3, 0.5) == pytest.approx(0.223333333333,
                                                             rel=1e-10)


def test_avar_free_sigma_frozen_values():
    assert asy.avar_rho_free_sigma(3, 0.5) == pytest.approx(1 / 3, abs=1e-14)
    # vanishes at the lower boundary, which the closed form accepts
    assert asy.avar_rho_free_sigma(3, -0.5) == 0.0
    assert asy.avar_rho_known_sigma(3, -0.5) > 0.0


def test_avar_domain_errors():
    with pytest.raises(DomainError):
        asy.avar_rho_free_sigma(3, 1.0)
    with pytest.raises(DomainError):
        asy.avar_rho_free_sigma(3, -0.51)
    with pytest.raises(DomainError):
        asy.avar_rho_known_sigma(2, 0.3)


def test_avar_formulas_match_exact_sandwich():
    # dual route: quadratic-form moments vs the printed closed forms
    for p in (3, 4, 5):
        model = EMVN(p)
        spec = comp.pairwise(p)
        for rho in (-0.2, -0.1, 0.2, 0.6):
            theta = model.params(rho=rho, sigma2=1.3)
            exact = comp.info_exact(spec, model, theta)
            prof, known = comp.partitioned_variance(exact, ["rho"])
            assert prof[0, 0] == pytest.approx(
                asy.avar_rho_free_sigma(p, rho), rel=1e-8)
            assert known[0, 0] == pytest.approx(
                asy.avar_rho_known_sigma(p, rho), rel=1e-8)


def test_ratio_curve_shape_and_sign_structure():
    curve = asy.pairwise_ratio_curve(3, asy.default_grid(-0.5, 1.0, 201))
    x, r = curve.x, curve.value("ratio")
    assert r[np.argmin(np.abs(x))] == pytest.approx(1.0, abs=1e-2)
    assert np.all(r[x > 0.005] < 1.0)
    # the known-variance estimator wins slightly on a strip of negative
    # correlations, then loses catastrophically near the boundary
    neg = x < -0.005
    assert r[neg].min() < 1.0
    crossings = np.sum(np.diff(np.sign(r[neg] - 1.0)) != 0)
    assert crossings == 1
    assert r[0] > 10.0
    assert np.argmax(r) == 0


def test_ratio_diverges_toward_lower_bound():
    small = asy.avar_rho_known_sigma(3, -0.49) / asy.avar_rho_free_sigma(3, -0.49)
    assert small > 10.0
    tiny = asy.avar_rho_known_sigma(3, -0.499) / asy.avar_rho_free_sigma(3, -0.499)
    assert tiny > small


def test_rho_sigma_acov_formula():
    assert asy.pairwise_rho_sigma_acov(3, 0.0, 1.0) == 0.0
    assert asy.pairwise_rho_sigma_acov(3, 0.5, 1.0) == pytest.approx(1 / 3,
                                                                     abs=1e-15)
    # vanishes with the factor 1 + (p-1) rho at the boundary
    assert abs(asy.pairwise_rho_sigma_acov(3, -0.5 + 1e-9, 1.0)) < 1e-8
    with pytest.raises(DomainError):
        asy.pairwise_rho_sigma_acov(3, 0.2, -1.0)


# -- full-conditional curve (Monte Carlo) ----------------------------------------


def test_full_conditional_ratio_curve_basics():
    grid = np.array([-0.3, 0.0, 0.5])
    curve = asy.full_conditional_ratio_curve(3, grid, draws=20_000, seed=5)
    assert curve.value_names == ("ratio", "std_err")
    assert np.all(curve.value("std_err") > 0)
    at_zero = curve.rows[1]
    assert abs(at_zero[1] - 1.0) < 3 * at_zero[2]
    at_half = curve.rows[2]
    assert at_half[1] + 3 * at_half[2] < 1.0
    # deterministic rerun
    again = asy.full_conditional_ratio_curve(3, grid, draws=20_000, seed=5)
    np.testing.assert_array_equal(curve.rows, again.rows)


@pytest.mark.parametrize("p, seed", [(3, 0), (3, 1), (3, 2), (3, 3), (4, 0)])
def test_full_conditional_ratio_curve_runs_on_its_default_grid(p, seed):
    # 0.01 inside the lower bound the stencil H of 2000 draws was
    # asymmetric beyond tolerance; the default grid is figure2's
    curve = asy.full_conditional_ratio_curve(p, draws=2000, seed=seed)
    np.testing.assert_array_equal(curve.x, asy.full_conditional_grid(p, 21))
    assert curve.x[0] == -1.0 / (p - 1) + asy.FULL_CONDITIONAL_GRID_MARGIN
    assert np.all(np.isfinite(curve.rows))


@pytest.mark.parametrize("sigma2", [1e-5, 1e-3, 0.3, 7.0, 1e3, 1e100])
def test_full_conditional_ratio_curve_is_free_of_scale(sigma2):
    # the draws at sigma2 are sqrt(sigma2) times those at 1, and the sigma2
    # step is relative, so the ratio does not depend on sigma2
    grid = np.array([-0.3, 0.0, 0.5])
    want = asy.full_conditional_ratio_curve(3, grid, draws=2000, seed=3)
    got = asy.full_conditional_ratio_curve(3, grid, draws=2000, seed=3,
                                           sigma2=sigma2)
    np.testing.assert_allclose(got.rows, want.rows, rtol=1e-9, atol=0)


# -- two-block model ---------------------------------------------------------------


def test_two_block_variances_frozen():
    v12, v123 = asy.two_block_mean_variances(2.0, 0.0)
    assert v12 == pytest.approx(0.5, abs=1e-15)
    assert v123 == pytest.approx(0.4, abs=1e-15)
    for rho in np.linspace(-1, 1, 9):
        _, v = asy.two_block_mean_variances(2.0, rho)
        assert v == pytest.approx((10 + 8 * rho) / 25, abs=1e-13)
    assert asy.two_block_mean_variances(2.0, -1.0)[0] == 0.0


def test_two_block_threshold_values():
    assert asy.two_block_threshold(2.0) == pytest.approx(-5 / 9, abs=1e-15)
    assert -0.51 < asy.two_block_threshold(1e6) < -0.5
    assert asy.two_block_threshold(1e12) == pytest.approx(-0.5, abs=1e-6)
    with pytest.raises(DomainError):
        asy.two_block_threshold(0.0)


def test_two_block_closed_forms_for_huge_sigma2():
    # taken in u = 1/sigma2 above sigma2 = 1: finite where sigma2 ** 2 or
    # 4 sigma2 overflow, with the bits of the original ratio at and below 1
    assert asy.two_block_threshold(1e308) == -0.5
    assert asy.two_block_mean_variances(1e308, 0.3) == (0.65, 0.65)
    for s2 in (1e-3, 0.5, 1.0):
        assert (asy.two_block_threshold(s2)
                == -(1.0 + 2.0 * s2) / (1.0 + 4.0 * s2))
        assert asy.two_block_mean_variances(s2, 0.3)[1] == (
            (2.0 * 1.3 * s2 ** 2 + s2) / (1.0 + 2.0 * s2) ** 2)
    for s2 in (1.5, 2.0, 17.0, 1e6):
        assert asy.two_block_threshold(s2) == pytest.approx(
            -(1.0 + 2.0 * s2) / (1.0 + 4.0 * s2), rel=1e-15)


def test_two_block_threshold_is_the_crossing_point():
    for s2 in (0.3, 1.0, 2.0, 17.0):
        rho_star = asy.two_block_threshold(s2)
        v12, v123 = asy.two_block_mean_variances(s2, rho_star)
        assert v12 == pytest.approx(v123, abs=1e-12)
        v12_hi, v123_hi = asy.two_block_mean_variances(s2, rho_star + 0.05)
        assert v123_hi < v12_hi
        v12_lo, v123_lo = asy.two_block_mean_variances(s2, rho_star - 0.05)
        assert v123_lo > v12_lo


def test_two_block_sandwich_consistency():
    # the closed forms agree with the exact composite sandwiches, and
    # information additivity fails off independence
    tri = TriNormal()
    for rho in (-0.4, 0.0, 0.5):
        theta = tri.params(mu=0.3, rho=rho, sigma2=2.0,
                           roles={"rho": "known", "sigma2": "known"})
        v12, v123 = asy.two_block_mean_variances(2.0, rho)
        t12 = comp.info_exact(comp.singleton_margins([0, 1]), tri, theta)
        t123 = comp.info_exact(comp.singleton_margins([0, 1, 2]), tri, theta)
        assert 1 / t12.godambe[0, 0] == pytest.approx(v12, rel=1e-9)
        assert 1 / t123.godambe[0, 0] == pytest.approx(v123, rel=1e-9)
        additive = 1 / (1 / v12 + 1 / 2.0)
        if rho == 0.0:
            assert v123 == pytest.approx(additive, rel=1e-12)
        else:
            assert abs(v123 - additive) > 1e-3


def test_two_block_monte_carlo_sandwich():
    tri = TriNormal()
    theta = tri.params(mu=0.3, rho=0.5, sigma2=2.0,
                       roles={"rho": "known", "sigma2": "known"})
    v12, v123 = asy.two_block_mean_variances(2.0, 0.5)
    t12 = comp.info_monte_carlo(comp.singleton_margins([0, 1]), tri, theta,
                                50_000, 43)
    t123 = comp.info_monte_carlo(comp.singleton_margins([0, 1, 2]), tri, theta,
                                 50_000, 47)
    for triple, target in ((t12, v12), (t123, v123)):
        se = comp.batch_se(1 / triple.batches.godambe[:, 0, 0])
        assert abs(1 / triple.godambe[0, 0] - target) < 3 * se


# -- multinomial curves ----------------------------------------------------------


def test_multinomial_scalars_match_enumeration_oracle():
    for k in (0.5, 1.0, 5.0, 100.0):
        tmax = k / (2 * k + 1)
        for t in np.linspace(0.15 * tmax, 0.85 * tmax, 5):
            info = asy.multinomial_info_scalars(float(t), k)
            h_ind, j_ind = _enum_info(float(t), k, "ind")
            h_pair, j_pair = _enum_info(float(t), k, "pair")
            h_full, j_full = _enum_info(float(t), k, "full")
            assert info.h_ind == pytest.approx(h_ind, rel=1e-8)
            assert info.j_ind == pytest.approx(j_ind, rel=1e-8)
            assert info.h_pair == pytest.approx(h_pair, rel=1e-8)
            assert info.j_pair == pytest.approx(j_pair, rel=1e-8)
            assert info.fisher_full == pytest.approx(j_full, rel=1e-8)


def test_multinomial_frozen_values_k5():
    info = asy.multinomial_info_scalars(0.2, 5.0)
    assert info.h_ind == pytest.approx(13.541666666666666, rel=1e-12)
    assert info.fisher_full == pytest.approx(19.642857142857142, rel=1e-12)


@pytest.mark.parametrize("theta, k", [
    (1e-302, 1e-300),       # k * theta underflows to 0
    (1e-162, 1e-160),       # k * theta is subnormal
    (1e-200, 5.0),          # the squares in j_pair overflow
], ids=str)
def test_multinomial_scalars_reject_unrepresentable_points(theta, k):
    with pytest.raises(DomainError):
        asy.multinomial_info_scalars(theta, k)


def test_multinomial_curves_reject_unrepresentable_variances():
    # every scalar is finite, but the squares in the variances overflow
    with pytest.raises(DomainError):
        asy.multinomial_variance_curves(1e-150, [1e-152])


def test_overflowing_k_is_rejected_by_name():
    # 2k + 1 overflows for k above about 9e307: the error names k instead
    # of reporting an empty theta range
    for call in (lambda: Multinomial4(1e308),
                 lambda: asy.multinomial_info_scalars(0.1, 1e308),
                 lambda: asy.multinomial_variance_curves(1e308)):
        with pytest.raises(DomainError, match=r"k=1e\+308 is too large"):
            call()
    k = 8e307
    assert Multinomial4(k).theta_max == k / (2.0 * k + 1.0) == 0.5


def test_multinomial_full_efficiency_at_k1():
    model = Multinomial4(1.0)
    for t in np.linspace(0.01, model.theta_max - 0.01, 50):
        info = asy.multinomial_info_scalars(float(t), 1.0)
        assert info.h_ind ** 2 / info.j_ind == pytest.approx(
            info.fisher_full, rel=1e-9)
        assert info.h_pair ** 2 / info.j_pair == pytest.approx(
            info.fisher_full, rel=1e-9)


def test_multinomial_ordering_flips_with_k():
    # k > 1: independence beats pairwise at large theta; k < 1: reverse
    big = asy.multinomial_info_scalars(0.40, 5.0)
    assert big.nvar_pair > big.nvar_ind > big.nvar_full
    small = asy.multinomial_info_scalars(0.2, 0.5)
    assert small.nvar_pair < small.nvar_ind
    # the gap closes as k grows at matched position in the range
    q = 0.85
    r5 = asy.multinomial_info_scalars(q * 5 / 11, 5.0)
    r100 = asy.multinomial_info_scalars(q * 100 / 201, 100.0)
    assert abs(r100.nvar_pair / r100.nvar_ind - 1) < abs(
        r5.nvar_pair / r5.nvar_ind - 1)


def test_multinomial_variance_curves_content():
    curve = asy.multinomial_variance_curves(5.0)
    assert curve.value_names == ("nvar_full", "nvar_ind", "nvar_pair",
                                 "ratio_pair_over_ind")
    idx = np.argmin(np.abs(curve.x - 0.05))
    row = curve.rows[idx]
    assert max(row[1:4]) / min(row[1:4]) < 1.05
    assert np.all(curve.value("nvar_ind") >= curve.value("nvar_full") - 1e-12)
    assert np.all(curve.value("nvar_pair") >= curve.value("nvar_full") - 1e-12)
    flat = asy.multinomial_variance_curves(1.0)
    assert np.max(np.abs(flat.value("ratio_pair_over_ind") - 1)) < 1e-9
    with pytest.raises(DomainError):
        asy.multinomial_variance_curves(5.0, np.array([0.1, 0.5]))


# -- curve container ---------------------------------------------------------------


def test_curve_validation():
    with pytest.raises(ValueError):
        asy.EfficiencyCurve("x", ("y",), [[0.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        asy.EfficiencyCurve("x", ("y",), [[0.0, np.inf]])
    with pytest.raises(ValueError):
        asy.EfficiencyCurve("x", ("y", "z"), [[0.0, 1.0]])


def test_curve_csv_round_trip_is_bit_exact(tmp_path):
    curve = asy.pairwise_ratio_curve(3, asy.default_grid(-0.5, 1.0, 57))
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    back = asy.EfficiencyCurve.from_csv(path)
    assert back.x_name == "rho"
    assert back.value_names == ("ratio",)
    np.testing.assert_array_equal(back.rows, curve.rows)
    path2 = tmp_path / "again.csv"
    back.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("text", ["", "rho,ratio\n0.1,abc\n",
                                  "rho,ratio\n0.1,1.0\n0.2\n"],
                         ids=["empty", "not a number", "ragged"])
def test_curve_csv_refuses_a_malformed_file(tmp_path, text):
    path = tmp_path / "curve.csv"
    path.write_text(text)
    with pytest.raises(InvalidArgument, match="curve.csv"):
        asy.EfficiencyCurve.from_csv(path)
