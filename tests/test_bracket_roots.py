"""The vectorised Brent solver against scipy's scalar ``brentq``.

``estimators.bracket_roots`` runs Brent's method on every bracket at once
and must give ``brentq``'s roots bit for bit; the EMVN pairwise fast path
built on it must give what one ``brentq`` call per scan bracket gives
(``oracles.brentq_pairwise``).  scipy is needed here only, as the oracle.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import clik.estimators as est
from clik.models import EMVN, substream
from oracles import brentq_pairwise

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


# ---------------------------------------------------------------------------
# pairwise fast path on simulated data
# ---------------------------------------------------------------------------


@st.composite
def pair_stats(draw):
    """``(stats, sigma2)``: the ``(n, p, Q, W)`` rows of a few EMVN(p)
    datasets, p in 3..10, n in 10..500, and a known sigma2 or None."""
    p = draw(st.integers(3, 10))
    lo = -1.0 / (p - 1)
    model = EMVN(p)
    theta = model.params(rho=lo + draw(st.floats(0.001, 0.999)) * (1.0 - lo),
                         sigma2=draw(st.floats(0.1, 10.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(10, 500), min_size=1, max_size=6))
    stats = est._pair_sums(np.array([
        model.statistic(model.sample(theta, n, substream(seed, r)))
        for r, n in enumerate(sizes)]))
    sigma2 = draw(st.sampled_from([None, theta["sigma2"],
                                   draw(st.floats(0.1, 10.0))]))
    return stats, sigma2


@SETTINGS
@given(case=pair_stats())
def test_pairwise_matches_brentq_per_bracket(case):
    stats, sigma2 = case
    assert_same_bits(est._solve_pairwise(stats, sigma2),
                     brentq_pairwise(stats, sigma2))


# ---------------------------------------------------------------------------
# the candidate rules, on a score with roots placed by hand
# ---------------------------------------------------------------------------
#
# The stand-in score of a row is (rho - Q)(rho - W): its roots are the Q
# and W columns of the row, so exact zeros on scan points, roots at the
# last scan point, two roots and none are all easy to place.


def placed_score(rho, p, q, w, nc, sigma2):
    return (rho - q) * (rho - w)


def peak_at(centre):
    def loglik(rho, p, q, w, nc, sigma2):
        return -(rho - centre) ** 2
    return loglik


def flat_loglik(rho, p, q, w, nc, sigma2):
    return 0.0 * rho


def scan_grid(p):
    return np.linspace(-1.0 / (p - 1) + est.ROOT_SCAN_MARGIN,
                       1.0 - est.ROOT_SCAN_MARGIN, est.ROOT_SCAN_POINTS)


def solve_placed(rows, loglik):
    """``_solve_pairwise`` (sigma2 known) and the oracle on the stand-in
    score, for rows ``(p, root_a, root_b)``."""
    stats = np.array([[50.0, p, a, b] for p, a, b in rows])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(est, "_pair_score", placed_score)
        patch.setattr(est, "_pair_loglik", loglik)
        got = est._solve_pairwise(stats, 1.0)
    want = brentq_pairwise(stats, 1.0, placed_score, loglik)
    return got, want


def test_candidate_rules_match_brentq():
    g3, g5 = scan_grid(3), scan_grid(5)
    rows = [(3, g3[4], 5.0),            # exact zero on an inner scan point
            (3, g3[-1], 5.0),           # exact zero on the last scan point
            (5, g5[0], 5.0),            # exact zero on the first scan point
            (3, -0.2, 0.55),            # two roots, both polished
            (5, g5[7], 0.31),           # a scan-point zero and a root
            (3, 0.3, 0.3),              # double root: no sign change
            (3, 5.0, 6.0),              # no root in the domain
            (4, 0.123, 7.0)]            # one root
    got, want = solve_placed(rows, peak_at(0.5))
    assert_same_bits(got, want)
    rho, ok, _ = got
    assert rho[0, 0] == g3[4] and rho[1, 0] == g3[-1] and rho[2, 0] == g5[0]
    assert rho[4, 0] == g5[7]       # 0.31 shares a cell with that zero: lost
    assert abs(rho[3, 0] - 0.55) < 1e-12         # nearer the loglik peak
    assert np.isnan(rho[5:7, 0]).all() and not ok[5:7].any()
    assert ok[[0, 1, 2, 3, 4, 7]].all()


def test_loglik_ties_keep_the_first_root():
    rows = [(3, -0.2, 0.55), (6, 0.6, -0.1)]
    got, want = solve_placed(rows, flat_loglik)
    assert_same_bits(got, want)
    assert abs(got[0][0, 0] + 0.2) < 1e-12 and abs(got[0][1, 0] + 0.1) < 1e-12


def test_minus_inf_loglik_keeps_the_first_root():
    def minus_inf(rho, p, q, w, nc, sigma2):
        return np.where(rho < 0.4, -np.inf, -rho)

    # row 0: both candidates -inf; row 1: one -inf, one finite
    got, want = solve_placed([(3, 0.1, -0.3), (3, 0.1, 0.7)],
                             minus_inf)
    assert_same_bits(got, want)
    assert abs(got[0][0, 0] + 0.3) < 1e-12 and abs(got[0][1, 0] - 0.7) < 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.integers(3, 10),
       roots=st.lists(st.one_of(st.floats(-1.0, 1.0), st.integers(0, 15),
                                st.just(4.0)),
                      min_size=2, max_size=2),
       centre=st.floats(-1.0, 1.0))
def test_placed_roots_match_brentq(p, roots, centre):
    # an integer picks that scan point, so exact zeros are common
    grid = scan_grid(p)
    a, b = (grid[r] if isinstance(r, int) else r for r in roots)
    got, want = solve_placed([(p, a, b)], peak_at(centre))
    assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# bracket_roots on its own
# ---------------------------------------------------------------------------


FUNCTIONS = {
    "cubic": lambda x, c: x ** 3 - c,
    "cos": lambda x, c: np.cos(x) - c * 0.5,
    "exp": lambda x, c: np.exp(x) - 1.0 - c,
    "steep": lambda x, c: np.tanh(40.0 * (x - c)),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(FUNCTIONS)), c=st.floats(-0.9, 0.9),
       lo=st.floats(-3.0, -1.0), hi=st.floats(1.0, 3.0),
       xtol=st.sampled_from([1e-13, 1e-12, 2e-12, 1e-6]))
def test_bracket_roots_match_brentq(name, c, lo, hi, xtol):
    # both sides evaluate on one-element arrays: numpy's scalar and array
    # loops of a transcendental function may differ in the last bit
    def f(x):
        return float(FUNCTIONS[name](np.array([x]), c)[0])

    if not f(lo) * f(hi) < 0.0:
        return
    try:
        want = brentq(f, lo, hi, xtol=xtol)
    except RuntimeError:                 # e.g. the triple root of x**3
        want = np.nan
    roots, ok = est.bracket_roots(lambda x, rows: FUNCTIONS[name](x, c),
                                  [lo], [hi], xtol)
    assert np.array(want).tobytes() == roots[0].tobytes()
    assert ok[0] == (not np.isnan(want))


def test_bracket_roots_row_by_row_equals_one_pass():
    cs = np.linspace(-0.8, 0.8, 8)
    lo, hi = np.full(cs.size, -2.0), np.full(cs.size, 2.5)
    roots, ok = est.bracket_roots(lambda x, rows: x * x * x - cs[rows], lo,
                                  hi, 1e-13)
    want = [brentq(lambda x, c=c: x * x * x - c, -2.0, 2.5, xtol=1e-13)
            for c in cs]
    assert ok.all() and roots.tolist() == want


def test_bracket_roots_endpoints_and_sign_errors():
    def f(x, rows):
        return x - np.array([0.0, 1.0, 5.0, 0.5])[rows]

    roots, ok = est.bracket_roots(f, [0.0, 0.0, 0.0, 0.0],
                                  [1.0, 1.0, 1.0, 1.0], 1e-12)
    assert roots[0] == 0.0 and roots[1] == 1.0      # zero at an end
    assert np.isnan(roots[2]) and not ok[2]         # no sign change
    assert ok[[0, 1, 3]].all()
    assert roots[3] == brentq(lambda x: x - 0.5, 0.0, 1.0, xtol=1e-12)


# The two deliberate departures from brentq: a NaN value and running out
# of iterations give a row that is not converged instead of an exception.


def test_nan_inside_a_bracket_is_not_converged():
    def hole(x):
        return np.where(np.abs(x - 0.3) < 1e-3, np.nan, x - 0.3)

    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: float(hole(x)), 0.0, 1.0, xtol=1e-13)
    roots, ok = est.bracket_roots(lambda x, rows: hole(x), [0.0, 0.0],
                                  [1.0, 1.0], 1e-13)
    assert np.isnan(roots).all() and not ok.any()

    # one failing row leaves the others as brentq gives them
    def mixed(x, rows):
        return np.where(rows == 0, hole(x), x - 0.7)

    roots, ok = est.bracket_roots(mixed, [0.0, 0.0], [1.0, 1.0], 1e-13)
    assert np.isnan(roots[0]) and not ok[0]
    assert ok[1] and roots[1] == brentq(lambda x: x - 0.7, 0.0, 1.0,
                                        xtol=1e-13)


def test_nan_at_a_bracket_end_is_not_converged():
    roots, ok = est.bracket_roots(lambda x, rows: np.where(x > 0.5, np.nan, x),
                                  [-1.0], [1.0], 1e-12)
    assert np.isnan(roots[0]) and not ok[0]


@pytest.mark.parametrize("maxiter", [1, 3, 5])
def test_iteration_cap_is_not_converged(maxiter):
    def f(x):
        return np.exp(x) - 2.0

    with pytest.raises(RuntimeError):
        brentq(lambda x: float(f(x)), -5.0, 5.0, xtol=1e-13, maxiter=maxiter)
    roots, ok = est.bracket_roots(lambda x, rows: f(x), [-5.0], [5.0], 1e-13,
                                  maxiter=maxiter)
    assert np.isnan(roots[0]) and not ok[0]
    roots, ok = est.bracket_roots(lambda x, rows: f(x), [-5.0], [5.0], 1e-13)
    assert ok[0] and math.isclose(roots[0], math.log(2.0), abs_tol=1e-12)


def test_hundred_iterations_without_convergence():
    # Brent crawls towards the triple root of x**3: brentq gives up after
    # its default 100 iterations, and so does bracket_roots, row by row
    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(lambda x: x * x * x, -2.0, 1.0, xtol=1e-13)
    roots, ok = est.bracket_roots(lambda x, rows: x * x * x - 0.5 * rows,
                                  [-2.0, -2.0], [1.0, 1.0], 1e-13)
    assert np.isnan(roots[0]) and not ok[0]
    assert ok[1] and roots[1] == brentq(lambda x: x * x * x - 0.5, -2.0, 1.0,
                                        xtol=1e-13)


def test_defaults_are_brentq_defaults():
    defaults = inspect.signature(brentq).parameters
    assert est.BRENT_MAX_ITER == defaults["maxiter"].default
    assert est.BRENT_RTOL == defaults["rtol"].default
