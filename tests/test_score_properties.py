"""Properties of the analytic composite score and the exact Godambe matrix.

The analytic score comes from the affine-quadratic forms that
``info_exact`` also uses; its independent oracle is the central
difference of ``composite_loglik`` (``composite_score_fd``), which goes
through the Cholesky route of ``margin_loglik``.  Every unbiased
estimating function has Godambe information at most the Fisher
information, so ``G <= I`` in Loewner order for any spec.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

import clik.composite as comp
from clik.errors import SingularMatrix
from clik.matrixops import loewner_geq
from test_sensitivity_identity import SETTINGS, cases


@SETTINGS
@given(case=cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_analytic_score_matches_finite_differences(case, seed):
    model, theta, spec = case
    Y = model.sample(theta, 20, seed)
    score = comp.composite_score(spec, model, Y, theta)
    scale = np.max(np.abs(score))
    assume(scale > 0)       # no free parameter enters the spec
    fd = comp.composite_score_fd(spec, model, Y, theta)
    assert np.max(np.abs(score - fd)) <= 1e-6 * scale


@SETTINGS
@given(case=cases())
def test_exact_godambe_is_below_fisher(case):
    model, theta, spec = case
    try:
        godambe = comp.info_exact(spec, model, theta).godambe
    except SingularMatrix:
        assume(False)       # the spec carries no information on a parameter
    fisher = comp.info_exact(comp.full_likelihood(model.dim), model,
                             theta).variability
    assert loewner_geq(fisher, godambe, 1e-6 * np.max(np.abs(fisher)))


@SETTINGS
@given(case=cases(), n=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_combined_forms_match_per_margin_scores(case, n, seed):
    # composite_score contracts the spec's combined forms once per row;
    # component_scores evaluates every margin on its own
    model, theta, spec = case
    Y = model.sample(theta, n, seed)
    score = comp.composite_score(spec, model, Y, theta)
    total = sum(c.weight * s for c, s in
                zip(spec.components, comp.component_scores(spec, model, Y, theta)))
    assert score.shape == total.shape
    assert np.max(np.abs(score - total)) <= 1e-12 * np.max(np.abs(total))
