"""Exact sensitivity against the cross moment with the full score.

Differentiating ``E_theta[u_c(theta)] = 0`` in theta gives
``H = E[u_c u^T]``, where ``u`` is the full-likelihood score.
``info_exact`` takes H by differentiating the exact mean score; these
tests compute the cross moment directly instead: from the
affine-quadratic forms of ``margin_score_rep`` for the Gaussian models
(``B_c S B_u^T + 1/2 tr(A_c S A_u S)``), and as a sum over the four
outcomes for the multinomial.  The library's moment kernel
(``composite.exact_sensitivity``) is checked against the same cross
moments, at a batch of points against one point at a time, and through
the Fisher scoring that steps with it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import clik.composite as comp
from clik.errors import SingularMatrix
from clik.estimators import batch_route, moment_starts, newton_solve
from clik.models import (EMVN, GaussianModel, Multinomial4, ParamBatch,
                         TriNormal)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

#: Parameters are drawn this far (as a fraction of the range) inside the
#: domain, where the central difference of ``info_exact`` is accurate.
INTERIOR = st.floats(0.1, 0.9)


@st.composite
def weighted_specs(draw, p):
    """1 to 4 weighted margin and conditional components over ``p`` coords."""
    comps = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(p)))
        idx = tuple(order[:draw(st.integers(1, p))])
        weight = draw(st.floats(0.1, 3.0))
        if len(idx) > 1 and draw(st.booleans()):
            comps.append(comp.Component("conditional", idx[:1], idx[1:],
                                        weight))
        else:
            comps.append(comp.Component("margin", idx, (), weight))
    return comp.CompositeSpec("random", comps)


@st.composite
def interior_points(draw, model):
    """An interior parameter point of ``model``, every parameter free."""
    if isinstance(model, EMVN):
        lo = -1.0 / (model.dim - 1)
        return model.params(rho=lo + draw(INTERIOR) * (1.0 - lo),
                            sigma2=draw(st.floats(0.3, 3.0)))
    if isinstance(model, TriNormal):
        return model.params(mu=draw(st.floats(-2.0, 2.0)),
                            rho=draw(st.floats(-0.9, 0.9)),
                            sigma2=draw(st.floats(0.3, 3.0)))
    return model.params(draw(INTERIOR) * model.theta_max)


@st.composite
def cases(draw):
    """A model, an interior parameter point with some parameters known, and
    a random weighted spec."""
    family = draw(st.sampled_from(["emvn", "trinormal", "multinomial"]))
    if family == "emvn":
        model = EMVN(draw(st.integers(3, 5)))
    elif family == "trinormal":
        model = TriNormal()
    else:
        model = Multinomial4(draw(st.floats(0.5, 10.0)))
    theta = draw(interior_points(model))
    names = model.param_names
    known = draw(st.lists(st.sampled_from(names), unique=True,
                          max_size=len(names) - 1))
    theta = theta.with_roles(**{name: "known" for name in known})
    return model, theta, draw(weighted_specs(model.dim))


def gaussian_cross_moment(spec, model, theta):
    cov = model._cov(theta)
    B_c, A_c = 0.0, 0.0
    for c in spec.components:
        _, B, A = model.margin_score_rep(c.given + c.indices, theta)
        if c.kind == "conditional":
            _, B_g, A_g = model.margin_score_rep(c.given, theta)
            B, A = B - B_g, A - A_g
        B_c = B_c + c.weight * B
        A_c = A_c + c.weight * A
    _, B_u, A_u = model.margin_score_rep(range(model.dim), theta)
    return (B_c @ cov @ B_u.T
            + 0.5 * np.einsum("aij,jk,bkl,li->ab", A_c, cov, A_u, cov))


def multinomial_cross_moment(spec, model, theta):
    outcomes = model.outcomes()
    U_c = comp.composite_score(spec, model, outcomes, theta)
    U = model.full_score(outcomes, theta)
    return np.einsum("o,oa,ob->ab", model.cell_probs(theta), U_c, U)


def cross_moment(spec, model, theta):
    if isinstance(model, GaussianModel):
        return gaussian_cross_moment(spec, model, theta)
    return multinomial_cross_moment(spec, model, theta)


@SETTINGS
@given(case=cases())
def test_exact_sensitivity_is_cross_moment_with_full_score(case):
    model, theta, spec = case
    try:
        H = comp.info_exact(spec, model, theta).sensitivity
    except SingularMatrix:
        assume(False)       # the spec carries no information on a parameter
    cross = cross_moment(spec, model, theta)
    assert np.max(np.abs(H - cross)) <= 1e-6 * np.max(np.abs(H))


@SETTINGS
@given(case=cases())
def test_moment_kernel_is_the_cross_moment(case):
    model, theta, spec = case
    H = comp.exact_sensitivity(spec, model, theta)
    cross = cross_moment(spec, model, theta)
    assert np.max(np.abs(H - cross)) <= 1e-12 * np.max(np.abs(H))


@SETTINGS
@given(case=cases(), data=st.data())
def test_batched_moment_kernel_matches_a_loop(case, data):
    model, theta, spec = case
    others = data.draw(st.lists(interior_points(model), min_size=1,
                                max_size=4))
    points = ParamBatch(theta.names, np.array(
        [theta.values] + [pt.values for pt in others]), theta.roles)
    H = comp.exact_sensitivity(spec, model, points)
    assert H.shape == (len(points),) + (len(theta.free_names),) * 2
    for i in range(len(points)):
        np.testing.assert_array_equal(
            H[i], comp.exact_sensitivity(spec, model, points.point(i)))


@pytest.mark.parametrize("p, rho", [(3, -0.3), (3, 0.3), (4, 0.8)])
@pytest.mark.parametrize("fixed", [{}, {"sigma2": 1.0}], ids=["free", "known"])
def test_scoring_lands_on_the_fast_path_root(p, rho, fixed):
    # newton_solve run directly on a spec that has a fast path
    model, spec = EMVN(p), comp.pairwise(p)
    theta = model.params(rho=rho, sigma2=1.0)
    stats = model.statistic(np.stack([model.sample(theta, 500, seed)
                                      for seed in range(10)]))
    fast = batch_route(model, spec, theta, fixed)(stats)
    assert fast.solver == "closed-form"
    scored = newton_solve(spec, model, stats,
                          moment_starts(model, stats, theta, fixed))
    assert scored.converged.all()
    np.testing.assert_allclose(scored.params.values, fast.params.values,
                               rtol=1e-8)
