"""Metamorphic properties of the exact information triple and of the fits.

A composite score is linear in its component weights.  Scaling every
weight by ``c`` therefore multiplies H by ``c`` and J by ``c**2`` and
leaves the Godambe information ``G = H J^-1 H`` unchanged; a component
listed twice is the same score as that component with twice its weight.
H is a central difference of exact mean scores, which is not bit-stable
when the weighted sum of the forms is reordered, so H and G are held to
1e-8 relative (over 300 such cases the gaps reached 6.5e-10) and J,
which is exact, to 1e-13 (gaps up to 9.1e-16).

EMVN data are exchangeable, so permuting their coordinates leaves every
estimate of a symmetric spec unchanged.  Not bit for bit: the statistic's
column sums then run in another order, and over 1200 fits 585 estimates
moved by up to 1.5e-14 relative, so they are held to 1e-12.
"""

from hypothesis import assume, given
from hypothesis import strategies as st

import numpy as np

import clik.composite as comp
from clik.errors import ClikError, SingularMatrix
from clik.estimators import fit
from clik.models import EMVN
from test_margin_forms import SETTINGS, cases, rel_gap


def triple(spec, model, theta):
    try:
        return comp.info_exact(spec, model, theta)
    except SingularMatrix:
        assume(False)       # the spec carries no information on a parameter


def reweighted(spec, weights):
    return comp.CompositeSpec(spec.name, [
        comp.Component(c.kind, c.indices, c.given, w)
        for c, w in zip(spec.components, weights)])


@SETTINGS
@given(case=cases(), scale=st.floats(0.1, 10.0))
def test_scaling_every_weight_scales_h_and_j_and_keeps_g(case, scale):
    model, theta, spec = case
    base = triple(spec, model, theta)
    scaled = triple(reweighted(spec, [scale * c.weight
                                      for c in spec.components]),
                    model, theta)
    assert rel_gap(scaled.sensitivity, scale * base.sensitivity) <= 1e-8
    assert rel_gap(scaled.variability,
                   scale ** 2 * base.variability) <= 1e-13
    assert rel_gap(scaled.godambe, base.godambe) <= 1e-8


@SETTINGS
@given(case=cases(), data=st.data())
def test_repeated_component_is_that_component_with_weight_two(case, data):
    model, theta, spec = case
    k = data.draw(st.integers(0, len(spec.components) - 1))
    repeated = comp.CompositeSpec(
        spec.name, spec.components + (spec.components[k],))
    doubled = reweighted(spec, [(2.0 if i == k else 1.0) * c.weight
                                for i, c in enumerate(spec.components)])
    want = triple(doubled, model, theta)
    got = triple(repeated, model, theta)
    assert rel_gap(got.sensitivity, want.sensitivity) <= 1e-8
    assert rel_gap(got.variability, want.variability) <= 1e-13
    assert rel_gap(got.godambe, want.godambe) <= 1e-8


def outcome(spec, model, Y, theta, fixed):
    """``(solver, converged, free values)`` of a fit, or its error class."""
    try:
        res = fit(spec, model, Y, theta, fixed)
    except ClikError as exc:
        return type(exc)
    return res.solver, res.converged, res.params.free_values


@SETTINGS
@given(p=st.integers(3, 6), u=st.floats(0.05, 0.95), n=st.integers(10, 80),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_permuting_coordinates_keeps_the_estimates(p, u, n, seed, data):
    model = EMVN(p)
    lo = -1.0 / (p - 1)
    theta = model.params(rho=lo + u * (1.0 - lo), sigma2=1.0)
    Y = model.sample(theta, n, seed)
    perm = data.draw(st.permutations(range(p)))
    for spec, fixed, solver in [
            (comp.pairwise(p), None, "closed-form"),
            (comp.pairwise(p), {"sigma2": 1.0}, "closed-form"),
            (comp.full_conditional(p), None, "newton"),
            (comp.full_likelihood(p), None, "newton")]:
        want = outcome(spec, model, Y, theta, fixed)
        got = outcome(spec, model, Y[:, perm], theta, fixed)
        if isinstance(want, type):
            assert got is want
            continue
        assert got[:2] == want[:2] and want[0] == solver
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=0)
