"""The EMVN pairwise fast paths as roots of polynomials.

With sigma2 profiled out the estimate is the explicit method of moments,
which is the Gaussian MLE; with sigma2 known it is a root of the score's
cubic (``estimators._cubic_roots``).  The references are Newton fits of the
full likelihood and the full conditional spec, and one scalar
``scipy.optimize.brentq`` call per sign change of a scanned score
(``oracles.brentq_pairwise``, which needs scipy).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import clik.estimators as est
from clik.composite import full_conditional, full_likelihood, pairwise
from clik.models import EMVN, substream
from clik.verify import _bracketed_root
from oracles import brentq_pairwise

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
EPS = np.finfo(float).eps


@st.composite
def emvn_case(draw, top=0.98):
    """``(model, theta)``: EMVN(p), p in 3..10, with rho from 0.02 to
    ``top`` of the way across its domain."""
    p = draw(st.integers(3, 10))
    lo = -1.0 / (p - 1)
    model = EMVN(p)
    theta = model.params(rho=lo + draw(st.floats(0.02, top)) * (1.0 - lo),
                         sigma2=draw(st.floats(0.1, 10.0)))
    return model, theta


# ---------------------------------------------------------------------------
# sigma2 free: the closed form is the MLE
# ---------------------------------------------------------------------------


# Up to 0.9 of the domain: nearer 1, the determinant floor of
# ``matrixops.is_singular`` calls the p x p covariance singular at p = 9
# (rho 0.976, condition number about 370) and the Newton fits fail.
@SETTINGS
@given(case=emvn_case(top=0.9), n=st.integers(50, 500),
       seed=st.integers(0, 2**32 - 1))
def test_free_sigma_fit_is_the_mle(case, n, seed):
    model, theta = case
    p = model.dim
    Y = model.sample(theta, n, substream(seed, 0))
    got = est.fit(pairwise(p), model, Y, theta)
    assert got.converged and got.solver == "closed-form"
    assert got.score_norm == 0.0

    # the closed form, in the arithmetic of the method-of-moments start
    stats = model.statistic(Y)[None]
    n_, _, q, w = est._pair_sums(stats)[0]
    assert got.params["rho"] == (w / q - 1.0) / (p - 1)
    assert got.params["sigma2"] == q / (n_ * p)
    start = est.moment_starts(model, stats, theta)
    lo = -1.0 / (p - 1)
    if lo + 0.02 * (1 - lo) < got.params["rho"] < 1 - 0.02 * (1 - lo):
        assert start.values[0].tolist() == list(got.params.values)

    for spec in (full_likelihood(p), full_conditional(p)):
        mle = est.fit(spec, model, Y, theta)
        assert mle.converged and mle.solver == "newton"
        np.testing.assert_allclose(mle.params.values, got.params.values,
                                   rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# sigma2 known: the cubic's roots against brentq on the scanned score
# ---------------------------------------------------------------------------


@st.composite
def known_stats(draw):
    """``(stats, sigma2)``: ``Model.statistic`` rows of a few EMVN(p)
    datasets, n in 10..500, and sigma2 at the truth or elsewhere."""
    model, theta = draw(emvn_case())
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(10, 500), min_size=1, max_size=6))
    stats = np.array([
        model.statistic(model.sample(theta, n, substream(seed, r)))
        for r, n in enumerate(sizes)])
    sigma2 = draw(st.sampled_from([theta["sigma2"],
                                   draw(st.floats(0.1, 10.0))]))
    return stats, sigma2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=known_stats())
def test_known_sigma_matches_brentq(case):
    stats, sigma2 = case
    rho, ok, resid = est._solve_pairwise_known(stats, {"sigma2": sigma2})
    want, want_ok, _ = brentq_pairwise(est._pair_sums(stats), sigma2)
    assert np.all(ok[want_ok])
    gap = np.abs(rho[want_ok, 0] - want[want_ok, 0])
    assert np.all(gap <= 1e-13 + 4 * EPS * np.abs(want[want_ok, 0]))
    assert np.all(np.isnan(rho[~ok])) and np.all(np.isfinite(resid[ok]))


# ---------------------------------------------------------------------------
# the cubic's roots, placed by hand
# ---------------------------------------------------------------------------


def roots_of(coef, lo=-0.5, hi=0.75):
    coef = np.atleast_2d(np.asarray(coef, dtype=float))
    ends = np.full((len(coef), 1), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return est._cubic_roots(coef, lo * ends, hi * ends)


def found(row):
    return row[~np.isnan(row)].tolist()


def test_hand_placed_cubics():
    # (x - 0.1)(x + 0.2)(x - 0.6): three roots inside, ascending
    assert np.allclose(found(roots_of(np.poly([0.1, -0.2, 0.6]))[0]),
                       [-0.2, 0.1, 0.6], rtol=0.0, atol=1e-15)
    # (x - 0.1)((x - 0.2)^2 + 0.01): a complex pair is no root
    assert found(roots_of(np.polymul([1.0, -0.1], [1.0, -0.4, 0.05]))[0]) \
        == pytest.approx([0.1], abs=1e-15)
    # (x - 0.3)^2 (x + 0.2): the simple root to the last bits; the double
    # root, where the cubic touches zero without a sign change, comes out
    # of the eigenvalues as two close reals or as a complex pair
    row = found(roots_of(np.poly([0.3, 0.3, -0.2]))[0])
    assert row[0] == pytest.approx(-0.2, abs=1e-15)
    assert all(abs(r - 0.3) < 1e-7 for r in row[1:])
    # roots on both ends of the closed interval are kept; just outside not
    assert found(roots_of(np.poly([-0.5, 0.75, 3.0]))[0]) == [-0.5, 0.75]
    assert found(roots_of(np.poly([-0.5 - 1e-9, 0.75 + 1e-9, 3.0]))[0]) == []
    # no root inside, and a leading coefficient of any sign or scale
    assert found(roots_of(np.poly([2.0, 3.0, -4.0]))[0]) == []
    assert np.allclose(found(roots_of(-1e6 * np.poly([0.3, -0.1, 9.0]))[0]),
                       [-0.1, 0.3], rtol=0.0, atol=1e-15)
    # a non-finite or zero leading coefficient: no roots; x^3: a triple one
    rows = roots_of([[np.nan, 1.0, 0.0, 0.0], [1.0, np.inf, 0.0, 0.0],
                     [0.0, 1.0, -0.2, 0.0], [1.0, 0.0, 0.0, 0.0]])
    assert np.isnan(rows[:3]).all()
    assert found(rows[3]) == [0.0, 0.0, 0.0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(roots=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       scale=st.floats(0.01, 1e6), complex_pair=st.booleans())
def test_placed_roots(roots, scale, complex_pair):
    a, b, c = sorted(roots)
    assume(min(b - a, c - b) > 0.1)
    if complex_pair:            # (x - a)((x - b)^2 + (c - b)^2)
        coef = scale * np.polymul([1.0, -a],
                                  [1.0, -2 * b, b * b + (c - b) ** 2])
        want = [a]
    else:
        coef = scale * np.poly([a, b, c])
        want = [a, b, c]
    lo, hi = -0.5, 0.75
    assume(all(abs(r - lo) > 1e-9 and abs(r - hi) > 1e-9 for r in want))
    got = found(roots_of(coef, lo, hi)[0])
    inside = [r for r in want if lo <= r <= hi]
    assert len(got) == len(inside)
    assert np.allclose(got, inside, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the selection rule, on a dataset whose score has two roots in the domain
# ---------------------------------------------------------------------------
#
# EMVN(4) at rho -0.33, n 60, sigma2 fixed at 3.0 (the truth is 1.0): the
# score has a local minimum of the log likelihood at 0.32696 and a maximum
# at 0.36617, both in one cell of the 16-point scan the solver once used,
# which therefore found no root.


def two_root_case():
    model = EMVN(4)
    theta = model.params(rho=-0.33, sigma2=1.0)
    Y = model.sample(theta, 60, substream(7, 57))
    return model, theta, Y


def test_two_roots_in_one_scan_cell():
    model, theta, Y = two_root_case()
    got = est.fit(pairwise(4), model, Y, theta, fixed={"sigma2": 3.0})
    assert got.converged
    assert got.params["rho"] == pytest.approx(0.36617, abs=1e-5)

    stats = model.statistic(Y)[None]
    sums = est._pair_sums(stats)
    assert not brentq_pairwise(sums, 3.0)[1][0]          # the scan's miss
    n, p, q, w = sums[0]
    nc = n * p * (p - 1) / 2.0

    def loglik(rho):
        return est._pair_loglik(rho, p, q, w, nc, 3.0)

    assert abs(est._pair_score(got.params["rho"], p, q, w, nc, 3.0)) < 1e-9
    # the other root is the local minimum just below; the rule keeps the
    # higher of the two, although the log likelihood is higher still at
    # the lower end of the domain
    assert loglik(0.32696) < loglik(got.params["rho"])
    assert loglik(-1.0 / 3.0 + est.ROOT_MARGIN) > loglik(got.params["rho"])


def test_loglik_ties_keep_the_first_root():
    model, _, Y = two_root_case()
    stats = model.statistic(Y)[None]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(est, "_pair_loglik",
                      lambda rho, p, q, w, nc, sigma2: 0.0 * rho)
        rho, ok, _ = est._solve_pairwise_known(stats, {"sigma2": 3.0})
    assert ok[0] and rho[0, 0] == pytest.approx(0.32696, abs=1e-5)


def test_minus_inf_loglik_keeps_the_first_root():
    model, _, Y = two_root_case()
    stats = model.statistic(Y)[None]
    for floor, want in ((1.0, 0.32696), (0.35, 0.36617)):
        # -inf below ``floor``: everywhere, then at the lower root only
        def loglik(rho, p, q, w, nc, sigma2, floor=floor):
            return np.where(rho < floor, -np.inf, -rho)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(est, "_pair_loglik", loglik)
            rho, ok, _ = est._solve_pairwise_known(stats, {"sigma2": 3.0})
        assert ok[0] and rho[0, 0] == pytest.approx(want, abs=1e-5)


# ---------------------------------------------------------------------------
# degenerate datasets
# ---------------------------------------------------------------------------


def test_non_finite_rows_are_not_converged():
    model = EMVN(3)
    good = model.statistic(model.sample(model.params(rho=0.2, sigma2=1.0),
                                        50, 3))
    zero = model.statistic(np.zeros((50, 3)))               # Q = W = 0
    bad = good.copy()
    bad[1:] = np.nan
    worse = good.copy()
    worse[1:] = np.inf
    stats = np.array([good, zero, bad, worse])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        free = est._solve_pairwise_free(stats, {})
        known = est._solve_pairwise_known(stats, {"sigma2": 1.0})
    assert free[1].tolist() == [True, False, False, False]
    assert np.isnan(free[0][1:]).all()
    # with sigma2 known, Q = W = 0 leaves the score n p (p-1) rho / 2(1 - rho^2)
    assert known[1].tolist() == [True, True, False, False]
    assert known[0][1, 0] == 0.0 and np.isnan(known[0][2:]).all()


# ---------------------------------------------------------------------------
# the bisection that locates the variance-ratio crossing in verify
# ---------------------------------------------------------------------------


FUNCTIONS = {          # f(x, c) and its roots
    "cubic": (lambda x, c: x ** 3 - c,
              lambda c: [math.copysign(abs(c) ** (1 / 3), c)]),
    "cos": (lambda x, c: math.cos(x) - c * 0.5,
            lambda c: [-math.acos(c * 0.5), math.acos(c * 0.5)]),
    "exp": (lambda x, c: math.exp(x) - 1.0 - c, lambda c: [math.log1p(c)]),
    "steep": (lambda x, c: math.tanh(40.0 * (x - c)), lambda c: [c]),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(FUNCTIONS)), c=st.floats(-0.9, 0.9),
       lo=st.floats(-3.0, -1.0), hi=st.floats(1.0, 3.0))
def test_bisection_finds_the_root(name, c, lo, hi):
    f, roots = FUNCTIONS[name]
    inside = [r for r in roots(c) if lo < r < hi]
    root = _bracketed_root(lambda x: f(x, c), lo, hi)
    if len(inside) != 1:            # cos: both roots or neither
        assert root is None
        return
    assert abs(root - inside[0]) <= 1e-12


def test_bisection_endpoints_and_sign_errors():
    assert _bracketed_root(lambda x: x - 5.0, 0.0, 1.0) is None
    assert _bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0) is None
    # a zero at an end is not inside the open bracket
    assert _bracketed_root(lambda x: x, 0.0, 1.0) is None
    assert _bracketed_root(lambda x: x - 1.0, 0.0, 1.0) is None
    assert _bracketed_root(lambda x: x - 0.5, 0.0, 1.0) == 0.5
    assert abs(_bracketed_root(lambda x: x - 0.3, 0.0, 1.0) - 0.3) <= 1e-12


def test_nan_inside_a_bracket_gives_nan():
    hole = _bracketed_root(lambda x: float("nan") if abs(x - 0.3) < 1e-3
                           else x - 0.3, 0.0, 1.0)
    assert math.isnan(hole)
