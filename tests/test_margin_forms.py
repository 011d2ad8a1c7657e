"""Score forms of every margin of a spec from one ``margin_score_reps`` call.

The batched forms are compared bit for bit with the per-margin route they
replaced (``oracles.parent_margin_score_rep``), and ``info_exact`` with the
parent's loops over J entries and stencil points
(``oracles.parent_info_exact``).  A stub model that is singular in one
margin at one parameter point checks that a SingularMatrix names points
of the ParamBatch, which the batched Newton solver relies on.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import clik.composite as comp
from clik import estimators, models
from clik.errors import SingularMatrix
from clik.models import EMVN, Multinomial4, ParamBatch, TriNormal
from oracles import (parent_info_exact, parent_mean_scores, parent_packed_rep,
                     parent_summed_score)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

SPECS = {
    "pairwise": comp.pairwise,
    "full_conditional": comp.full_conditional,
    "chain": comp.chain,
    "independence": comp.independence,
    "singleton_margins": lambda p: comp.singleton_margins([0, p - 1]),
}


def random_values(model, rng, size):
    """``(size, len(param_names))`` interior parameter values."""
    if isinstance(model, EMVN):
        lo = -1.0 / (model.p - 1)
        return np.column_stack([rng.uniform(lo + 0.05, 0.95, size),
                                rng.uniform(0.3, 3.0, size)])
    if isinstance(model, TriNormal):
        return np.column_stack([rng.uniform(-2.0, 2.0, size),
                                rng.uniform(-0.9, 0.9, size),
                                rng.uniform(0.3, 3.0, size)])
    return rng.uniform(0.01, 0.99, (size, 1)) * model.theta_max


def parameter_points(model, seed=0):
    """A ParamVector and ParamBatches of 1, 5 and 500 points."""
    rng = np.random.default_rng(seed)
    vector = model.params(*random_values(model, rng, 1)[0])
    return [vector] + [ParamBatch(vector.names, random_values(model, rng, n),
                                  vector.roles) for n in (1, 5, 500)]


def assert_forms_match_oracle(model, spec, theta):
    sets = comp._margins(spec)
    forms = model.margin_score_reps(sets, theta)
    assert forms.shape[0] == len(sets)
    for idx, got in zip(sets, forms):
        want = parent_packed_rep(model, idx, theta)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (idx, np.shape(theta.values))


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("model", [EMVN(3), EMVN(4), EMVN(5), EMVN(6),
                                   TriNormal(), Multinomial4(5.0)], ids=repr)
def test_batched_forms_equal_per_margin_oracle_bit_for_bit(model, spec_name):
    spec = SPECS[spec_name](model.dim)
    for theta in parameter_points(model):
        assert_forms_match_oracle(model, spec, theta)


def test_one_margin_rep_is_the_batched_case():
    model = EMVN(4)
    theta = parameter_points(model)[2]
    c, B, A = model.margin_score_rep((3, 1), theta)
    packed = model.margin_score_reps([(1, 3)], theta)[0]
    np.testing.assert_array_equal(models.pack_forms(c, B, A), packed)


def count_sym_invert(monkeypatch):
    calls = []
    real = models.sym_invert

    def counted(m):
        calls.append(np.shape(m))
        return real(m)
    monkeypatch.setattr(models, "sym_invert", counted)
    return calls


def test_info_exact_inverts_once_per_margin_size(monkeypatch):
    calls = count_sym_invert(monkeypatch)
    model = EMVN(6)
    comp.info_exact(comp.pairwise(6), model, model.params(rho=0.3, sigma2=1.2))
    assert calls == [(5, 15, 2, 2)]          # 15 margins at 5 points

    del calls[:]
    model = EMVN(3)
    comp.info_exact(comp.full_conditional(3), model, model.params(rho=0.3))
    assert sorted(calls) == [(5, 1, 3, 3), (5, 3, 2, 2)]


# -- singular margins ------------------------------------------------------------

SINGULAR_MU = 0.5


class LinkedAtMu(TriNormal):
    """TriNormal in which ``y_2 = sqrt(sigma2) * y_1`` where ``mu`` equals
    SINGULAR_MU: the margin over (1, 2), the last pairwise margin, is then
    singular."""

    def _cov(self, theta):
        cov = super()._cov(theta)
        link = np.where(theta["mu"] == SINGULAR_MU, np.sqrt(theta["sigma2"]),
                        0.0)
        cov[..., 1, 2] = cov[..., 2, 1] = link
        return cov


def linked_points(mu):
    model = LinkedAtMu()
    values = np.column_stack([mu, np.linspace(-0.5, 0.5, len(mu)),
                              np.linspace(0.6, 2.0, len(mu))])
    return model, ParamBatch(model.param_names, values,
                             model.params().roles)


@pytest.mark.parametrize("singular", [[3], [0, 4], [1, 2, 3]], ids=str)
def test_singular_margin_names_the_batch_points(singular):
    mu = np.array([0.1, -0.3, 0.2, 0.0, 0.7])
    mu[singular] = SINGULAR_MU
    model, points = linked_points(mu)
    sets = comp._margins(comp.pairwise(3))
    with pytest.raises(SingularMatrix) as exc:
        model.margin_score_reps(sets, points)
    assert exc.value.rows.tolist() == singular
    with pytest.raises(SingularMatrix) as exc:
        model.margin_score_reps(sets, points.point(singular[0]))
    assert exc.value.rows.tolist() == [0]
    # the margins that do not involve the link stay regular
    model.margin_score_reps(sets[:2], points)


def test_newton_scores_flag_only_the_singular_point():
    mu = np.array([0.1, -0.3, 0.2, SINGULAR_MU, 0.7])
    model, points = linked_points(mu)
    spec = comp.pairwise(3)
    rng = np.random.default_rng(4)
    stats = model.statistic(rng.standard_normal((len(mu), 40, 3)))
    scores, H, outside, singular = estimators._evaluate(spec, model, stats,
                                                       points)
    assert not outside.any()
    assert singular.tolist() == [False, False, False, True, False]
    assert np.isnan(scores[3]).all() and np.isnan(H[3]).all()
    for i in (0, 1, 2, 4):
        alone = comp.summed_score(spec, model, stats[[i]], points.take([i]))
        np.testing.assert_array_equal(scores[i], alone[0])
        np.testing.assert_array_equal(
            H[i], comp.exact_sensitivity(spec, model, points.point(i)))


# -- properties ------------------------------------------------------------------

INTERIOR = st.floats(0.1, 0.9)


@st.composite
def cases(draw):
    """A model, an interior point with some parameters known, and a random
    nonempty subset of a standard spec's components with random weights."""
    family = draw(st.sampled_from(["emvn", "trinormal", "multinomial"]))
    if family == "emvn":
        model = EMVN(draw(st.integers(3, 6)))
        lo = -1.0 / (model.dim - 1)
        theta = model.params(rho=lo + draw(INTERIOR) * (1.0 - lo),
                             sigma2=draw(st.floats(0.3, 3.0)))
    elif family == "trinormal":
        model = TriNormal()
        theta = model.params(mu=draw(st.floats(-2.0, 2.0)),
                             rho=draw(st.floats(-0.9, 0.9)),
                             sigma2=draw(st.floats(0.3, 3.0)))
    else:
        model = Multinomial4(draw(st.floats(0.5, 10.0)))
        theta = model.params(draw(INTERIOR) * model.theta_max)
    names = model.param_names
    known = draw(st.lists(st.sampled_from(names), unique=True,
                          max_size=len(names) - 1))
    theta = theta.with_roles(**{name: "known" for name in known})
    base = SPECS[draw(st.sampled_from(sorted(SPECS)))](model.dim)
    picked = draw(st.lists(st.sampled_from(base.components), min_size=1,
                           max_size=len(base.components), unique=True))
    spec = comp.CompositeSpec("subset", [
        comp.Component(c.kind, c.indices, c.given, draw(st.floats(0.1, 3.0)))
        for c in picked])
    return model, theta, spec


@SETTINGS
@given(case=cases(), points=st.integers(1, 6))
def test_batched_forms_match_oracle_property(case, points):
    model, theta, spec = case
    assert_forms_match_oracle(model, spec, theta)
    rng = np.random.default_rng(points)
    batch = ParamBatch(theta.names, random_values(model, rng, points),
                       theta.roles)
    assert_forms_match_oracle(model, spec, batch)


def rel_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@SETTINGS
@given(case=cases())
def test_info_exact_matches_parent_loops(case):
    model, theta, spec = case
    try:
        triple = comp.info_exact(spec, model, theta)
    except SingularMatrix:
        assume(False)       # the spec carries no information on a parameter
    H, J, G = parent_info_exact(spec, model, theta)
    assert rel_gap(triple.variability, J) <= 1e-13
    assert rel_gap(triple.sensitivity, H) <= 1e-9
    assert rel_gap(triple.godambe, G) <= 1e-9


@SETTINGS
@given(case=cases(), points=st.integers(1, 6))
def test_population_contraction_is_the_parent_mean_score(case, points):
    # the mean under theta of a score taken at another point is its summed
    # score over the "dataset" n = 1, ybar = mean(theta), W = cov(theta)
    model, theta, spec = case
    rng = np.random.default_rng(points)
    batch = ParamBatch(theta.names, np.vstack(
        [theta.values, random_values(model, rng, points)]), theta.roles)
    forms = comp._spec_forms(spec, model, batch)
    population = np.concatenate([[1.0], model._mean(theta),
                                 model._cov(theta).ravel()])
    got = comp._contract(forms[1:], np.array([population] * points),
                         model._mean(batch.take(slice(1, None))))
    want = parent_mean_scores(model, forms, batch)
    assume(np.max(np.abs(want)) > 0)   # no free parameter enters the spec
    assert rel_gap(got, want) <= 1e-13


@SETTINGS
@given(case=cases(), n=st.integers(20, 200), seed=st.integers(0, 2**32 - 1))
def test_summed_score_is_the_per_margin_contraction(case, n, seed):
    # one contraction of the combined forms against one per margin: the
    # sums run in another order, so the gap is measured against the sum of
    # the absolute row scores (below 7.4e-15 of it over 3000 draws).  That
    # is a rounding scale over many rows only: the score of a single row
    # can cancel far below its terms (at n = 1 the gap reached 1.6e-13)
    model, theta, spec = case
    Y = model.sample(theta, n, seed)
    stats = model.statistic(Y)
    got = comp.summed_score(spec, model, stats, theta)
    want = parent_summed_score(spec, model, stats, theta)
    scale = np.abs(comp.composite_score(spec, model, Y, theta)).sum(axis=0)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
