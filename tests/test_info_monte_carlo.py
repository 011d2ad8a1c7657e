"""Monte Carlo information from per-batch statistics against the per-row
stencil.

``info_monte_carlo`` takes H as minus the central difference of
sample-mean scores over common draws, with the means at the stencil points
from each batch's statistic; ``projected_info_monte_carlo`` projects that
triple by ``M`` (``M' H`` and ``M' J M``, symmetrized).  The oracle
(``oracles.stencil_info``) scores every draw at every stencil point
through the per-margin ``component_scores`` route, projected row by row,
and averages the rows.  The two differ by round-off and, for the projected
score, by the projected asymmetry of the central difference, so H, its
batch values and standard errors must agree far below the Monte Carlo
noise, and J, which both take from the scores at ``theta``, to round-off.
"""

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

import clik.composite as comp
from clik.errors import SingularMatrix
from oracles import stencil_info
from test_blocked_info import projection_case
from test_sensitivity_identity import SETTINGS, cases


def per_margin_score(spec, model, Y, theta):
    """Weighted total of the per-margin component scores."""
    return sum(c.weight * s for c, s in
               zip(spec.components, comp.component_scores(spec, model, Y, theta)))


def assert_matches_stencil(triple, score_fn, theta, draws, batches):
    H, H_batch, J = stencil_info(score_fn, theta, draws, batches)
    tol = 1e-8 * np.max(np.abs(H))
    assert np.max(np.abs(triple.sensitivity - H)) <= tol
    assert np.max(np.abs(triple.batches.sensitivity - H_batch)) <= tol
    se = H_batch.std(axis=0, ddof=1) / np.sqrt(batches)
    assert np.max(np.abs(triple.sensitivity_se - se)) <= tol
    assert np.max(np.abs(triple.variability - J)) <= 1e-12 * np.max(np.abs(J))


DRAWS = dict(draws=st.integers(1000, 1500), batches=st.integers(10, 25),
             seed=st.integers(0, 2 ** 32 - 1))


@SETTINGS
@given(case=cases(), **DRAWS)
def test_monte_carlo_info_matches_per_row_stencil(case, draws, batches, seed):
    model, theta, spec = case
    try:
        triple = comp.info_monte_carlo(spec, model, theta, draws, seed, batches)
    except SingularMatrix:
        assume(False)       # the spec carries no information on a parameter
    Y = model.sample(theta, draws, seed)
    assert_matches_stencil(
        triple, lambda th: per_margin_score(spec, model, Y, th),
        theta, draws, batches)


@SETTINGS
@given(case=cases(), **DRAWS)
# both parameters free and ``J^-1 H`` not symmetric, so that ``M' H`` and
# ``M H`` differ: most drawn cases have one free parameter
@example(case=projection_case(3, comp.pairwise(3)), draws=1000, batches=10,
         seed=0)
@example(case=projection_case(4, comp.full_conditional(4)), draws=1205,
         batches=12, seed=3)
def test_projected_info_matches_per_row_stencil(case, draws, batches, seed):
    model, theta, spec = case
    try:
        base = comp.info_exact(spec, model, theta)
        triple = comp.projected_info_monte_carlo(spec, model, theta, draws,
                                                 seed, base, batches)
    except SingularMatrix:
        assume(False)
    M = comp.projection_matrix(base)
    Y = model.sample(theta, draws, seed)
    assert_matches_stencil(
        triple, lambda th: per_margin_score(spec, model, Y, th) @ M,
        theta, draws, batches)
