import numpy as np
import pytest

import clik.composite as comp
from clik.errors import NoRootInDomain, SingularMatrix
from clik.estimators import (closed_form, fit, mcle_newton,
                             method_of_moments_start, registered_closed_form)
from clik.models import EMVN, Multinomial4, TriNormal


def test_trinormal_mu12_is_the_pair_mean():
    Y = np.array([[1.0, 3.0, 9.9], [1.0, 3.0, -9.9]])
    res = closed_form("trinormal_mu12", Y)
    assert res.params["mu"] == pytest.approx(2.0, abs=1e-14)
    assert res.solver == "closed-form"
    assert res.converged


def test_trinormal_mu123_weighting():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((50, 3))
    res = closed_form("trinormal_mu123", Y, {"sigma2": 2.0})
    expect = (2.0 * (Y[:, 0].mean() + Y[:, 1].mean()) + Y[:, 2].mean()) / 5.0
    assert res.params["mu"] == pytest.approx(expect, abs=1e-14)


def test_multinomial_mle_formula():
    model = Multinomial4(5.0)
    Y = model.sample(model.params(0.2), 2000, 1)
    res = closed_form("multinomial4_mle", Y, {"k": 5.0})
    assert res.params["theta"] == pytest.approx(
        Y.mean(axis=0).sum() / 2.2, abs=1e-14)


def test_newton_reaches_multinomial_mle_exactly():
    model = Multinomial4(5.0)
    theta = model.params(0.2)
    Y = model.sample(theta, 3000, 2)
    target = closed_form("multinomial4_mle", Y, {"k": 5.0}).params["theta"]
    start = theta.with_values(theta=0.1)      # deliberately off
    res = mcle_newton(comp.full_likelihood(3), model, Y, start)
    assert res.converged
    assert res.params["theta"] == pytest.approx(target, abs=1e-10)


def test_newton_reaches_trinormal_mu123():
    model = TriNormal()
    truth = model.params(mu=0.5, rho=0.3, sigma2=2.0)
    Y = model.sample(truth, 2000, 3)
    target = closed_form("trinormal_mu123", Y, {"sigma2": 2.0}).params["mu"]
    start = truth.with_values(mu=-1.0)
    res = mcle_newton(comp.singleton_margins([0, 1, 2]), model, Y, start,
                      fixed={"rho": 0.3, "sigma2": 2.0})
    assert res.converged
    assert res.params["mu"] == pytest.approx(target, abs=1e-10)


def test_closed_form_estimators_zero_their_scores():
    model = EMVN(3)
    theta = model.params(rho=0.35, sigma2=1.2)
    Y = model.sample(theta, 800, 5)
    spec = comp.pairwise(3)
    n = Y.shape[0]

    free = closed_form("emvn_pairwise_rho", Y)
    point = theta.with_values(rho=free.params["rho"],
                              sigma2=free.params["sigma2"])
    total = comp.composite_score(spec, model, Y, point).sum(axis=0)
    assert np.max(np.abs(total)) < 1e-8 * n

    known = closed_form("emvn_pairwise_rho_known_sigma", Y, {"sigma2": 1.2})
    point = theta.with_values(rho=known.params["rho"], sigma2=1.2)
    rho_idx = point.free_names.index("rho")
    total = comp.composite_score(spec, model, Y, point).sum(axis=0)
    assert abs(total[rho_idx]) < 1e-8 * n


def test_pairwise_rho_agrees_with_newton_over_datasets():
    model = EMVN(3)
    theta = model.params(rho=0.25, sigma2=0.9)
    spec = comp.pairwise(3)
    for seed in range(50):
        Y = model.sample(theta, 120, 1000 + seed)
        cf = closed_form("emvn_pairwise_rho", Y)
        start = method_of_moments_start(model, Y, theta).with_values(
            rho=min(cf.params["rho"] + 0.15, 0.95), sigma2=1.5)
        nr = mcle_newton(spec, model, Y, start)
        assert nr.converged
        assert nr.params["rho"] == pytest.approx(cf.params["rho"], abs=1e-8)


def test_pairwise_rho_equals_full_mle_and_full_conditional():
    model = EMVN(3)
    theta = model.params(rho=0.4, sigma2=1.5)
    Y = model.sample(theta, 1500, 7)
    cf = closed_form("emvn_pairwise_rho", Y)
    start = theta.with_values(rho=0.1, sigma2=1.0)
    mle = mcle_newton(comp.full_likelihood(3), model, Y, start)
    fc = mcle_newton(comp.full_conditional(3), model, Y, start)
    assert mle.converged and fc.converged
    assert mle.params["rho"] == pytest.approx(cf.params["rho"], abs=1e-6)
    assert fc.params["rho"] == pytest.approx(cf.params["rho"], abs=1e-6)


def test_newton_row_order_invariance():
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)
    Y = model.sample(theta, 300, 11)
    start = theta.with_values(rho=0.05, sigma2=1.4)
    res = mcle_newton(comp.full_conditional(3), model, Y, start)
    perm = np.random.default_rng(13).permutation(Y.shape[0])
    res_perm = mcle_newton(comp.full_conditional(3), model, Y[perm], start)
    assert res.params["rho"] == pytest.approx(res_perm.params["rho"], abs=1e-9)
    assert res.params["sigma2"] == pytest.approx(res_perm.params["sigma2"],
                                                 abs=1e-9)


def test_newton_estimates_land_in_sandwich_band():
    model = EMVN(3)
    theta = model.params(rho=0.4, sigma2=1.5)
    n = 10_000
    Y = model.sample(theta, n, 17)
    exact = comp.info_exact(comp.pairwise(3), model, theta)
    avar = np.linalg.inv(exact.godambe)
    res = fit(comp.pairwise(3), model, Y, theta)
    for i, name in enumerate(("rho", "sigma2")):
        band = 4 * np.sqrt(avar[i, i] / n)
        assert abs(res.params[name] - theta[name]) < band


def test_newton_reports_nonconvergence():
    model = Multinomial4(5.0)
    theta = model.params(0.2)
    Y = model.sample(theta, 1000, 19)
    res = mcle_newton(comp.full_likelihood(3), model, Y,
                      theta.with_values(theta=0.43), max_iter=1)
    assert not res.converged
    assert res.score_norm > 0


def test_newton_requires_small_free_dimension():
    model = TriNormal()
    theta = model.params(mu=0.0, rho=0.1, sigma2=1.0)
    Y = model.sample(theta, 100, 23)
    with pytest.raises(ValueError):
        mcle_newton(comp.pairwise(3), model, Y, theta)  # 3 free parameters


def test_newton_raises_on_singular_jacobian():
    # the independence score carries no information on rho
    model = EMVN(3)
    Y = model.sample(model.params(rho=0.0), 500, 5)
    with pytest.raises(SingularMatrix):
        mcle_newton(comp.independence(3), model, Y,
                    model.params(rho=0.3, sigma2=1.0))


def test_fit_rejects_spec_without_information():
    # the moment start already zeroes the sigma2 score and the rho score is
    # identically zero, so no step is taken: the Jacobian at the estimate
    # must still be checked
    model = EMVN(3)
    theta = model.params(rho=0.3)
    Y = model.sample(theta, 500, 5)
    with pytest.raises(SingularMatrix):
        fit(comp.independence(3), model, Y, theta)
    res = fit(comp.independence(3), model, Y, theta, fixed={"rho": 0.3})
    assert res.converged and res.iterations == 0


def test_newton_is_invariant_to_data_units():
    # rescaling the data by s leaves rho and scales sigma2 by s**2; the
    # singular-Jacobian check must not depend on the units of sigma2
    model = EMVN(3)
    Y = model.sample(model.params(rho=0.3), 500, 5)
    spec = comp.full_conditional(3)

    def newton(s):
        start = model.params(rho=0.1, sigma2=1.5 * s ** 2)
        res = mcle_newton(spec, model, s * Y, start)
        assert res.converged
        return res.params["rho"], res.params["sigma2"] / s ** 2

    rho, sigma2 = newton(1.0)
    for s in (1e-2, 1e3, 1e4):
        rho_s, sigma2_s = newton(s)
        assert rho_s == pytest.approx(rho, rel=1e-9)
        assert sigma2_s == pytest.approx(sigma2, rel=1e-9)


def test_no_root_in_domain_for_degenerate_data():
    # perfectly correlated columns push the correlation root to the boundary
    base = np.random.default_rng(29).standard_normal(40)
    Y = np.column_stack([base, base, base])
    with pytest.raises(NoRootInDomain):
        closed_form("emvn_pairwise_rho", Y)


def test_unknown_estimator_id():
    with pytest.raises(KeyError):
        closed_form("nope", np.zeros((5, 3)))


def test_registered_closed_form_dispatch():
    emvn = EMVN(3)
    theta = emvn.params(rho=0.2, sigma2=1.0)
    assert registered_closed_form(emvn, comp.pairwise(3), theta) is not None
    assert registered_closed_form(
        emvn, comp.pairwise(3), theta, {"sigma2": 1.0}) is not None
    assert registered_closed_form(emvn, comp.full_conditional(3), theta) is None

    tri = TriNormal()
    t3 = tri.params(mu=0.0, rho=0.1, sigma2=2.0)
    assert registered_closed_form(
        tri, comp.singleton_margins([0, 1]), t3,
        {"rho": 0.1, "sigma2": 2.0}) is not None
    assert registered_closed_form(
        tri, comp.singleton_margins([0, 1, 2]), t3,
        {"rho": 0.1, "sigma2": 2.0}) is not None
    # with free nuisance parameters there is no registered fast path
    assert registered_closed_form(tri, comp.singleton_margins([0, 1]), t3) is None

    mult = Multinomial4(5.0)
    tm = mult.params(0.2)
    assert registered_closed_form(mult, comp.full_likelihood(3), tm) is not None
    assert registered_closed_form(mult, comp.pairwise(3), tm) is None


def test_repeated_components_get_no_fast_path():
    # a repeated margin changes the summed score, so it must not be solved
    # as the spec without the repeat
    emvn = EMVN(3)
    pairs_plus = comp.CompositeSpec(
        "pairwise+(0,1)",
        [*comp.pairwise(3).components, comp.Component("margin", (0, 1))])
    tri = TriNormal()
    repeated = comp.CompositeSpec(
        "margins[0,0,1]", [comp.Component("margin", (i,)) for i in (0, 0, 1)])
    cases = [
        (emvn, emvn.params(rho=0.3, sigma2=1.0), pairs_plus),
        (tri, tri.params(mu=0.3, rho=0.5, sigma2=1.0,
                         roles={"rho": "known", "sigma2": "known"}), repeated),
    ]
    for model, theta, spec in cases:
        assert registered_closed_form(model, spec, theta) is None
        Y = model.sample(theta, 500, 5)
        res = fit(spec, model, Y, theta)
        newton = mcle_newton(spec, model, Y,
                             method_of_moments_start(model, Y, theta))
        assert res.solver == "newton" and res.converged
        np.testing.assert_array_equal(res.params.free_values,
                                      newton.params.free_values)


def test_fit_uses_fast_path_and_newton_consistently():
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.4)
    Y = model.sample(theta, 500, 31)
    fast = fit(comp.pairwise(3), model, Y, theta)
    assert fast.solver == "closed-form"
    slow = fit(comp.full_conditional(3), model, Y, theta)
    assert slow.solver == "newton"
    assert fast.params["rho"] == pytest.approx(slow.params["rho"], abs=1e-6)
