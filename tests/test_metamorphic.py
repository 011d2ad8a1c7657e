"""Metamorphic properties of the exact information triple.

A composite score is linear in its component weights.  Scaling every
weight by ``c`` therefore multiplies H by ``c`` and J by ``c**2`` and
leaves the Godambe information ``G = H J^-1 H`` unchanged; a component
listed twice is the same score as that component with twice its weight.
H is a central difference of exact mean scores, which is not bit-stable
when the weighted sum of the forms is reordered, so H and G are held to
1e-8 relative (over 300 such cases the gaps reached 6.5e-10) and J,
which is exact, to 1e-13 (gaps up to 9.1e-16).
"""

from hypothesis import assume, given
from hypothesis import strategies as st

import clik.composite as comp
from clik.errors import SingularMatrix
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
