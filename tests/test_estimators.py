import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clik.composite as comp
from clik.errors import (DimensionMismatch, NoRootInDomain, SingularMatrix,
                         UnsupportedSpec)
from clik.estimators import (ESTIMATORS, NEWTON_MAX_ITER, batch_route,
                             check_identified, fit, moment_starts,
                             newton_solve, registered_closed_form)
from clik.models import EMVN, Multinomial4, ParamBatch, TriNormal, substreams


def newton_from(spec, model, Y, start, max_iter=NEWTON_MAX_ITER):
    """The Newton fit of one dataset from ``start``, as ``Fits``."""
    return newton_solve(spec, model, model.statistic(Y)[None],
                        ParamBatch.stack([start]), max_iter)


def test_trinormal_mu12_is_the_pair_mean():
    tri = TriNormal()
    Y = np.array([[1.0, 3.0, 9.9], [1.0, 3.0, -9.9]])
    res = fit(comp.singleton_margins([0, 1]), tri, Y, tri.params(),
              fixed={"rho": 0.5, "sigma2": 1.0})
    assert res.params["mu"] == pytest.approx(2.0, abs=1e-14)
    assert res.solver == "newton" and res.iterations <= 1
    assert res.converged


def test_trinormal_mu123_weighting():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((50, 3))
    tri = TriNormal()
    res = fit(comp.singleton_margins([0, 1, 2]), tri, Y, tri.params(),
              fixed={"rho": 0.0, "sigma2": 2.0})
    expect = (2.0 * (Y[:, 0].mean() + Y[:, 1].mean()) + Y[:, 2].mean()) / 5.0
    assert res.params["mu"] == pytest.approx(expect, abs=1e-14)


def test_multinomial_mle_formula():
    model = Multinomial4(5.0)
    Y = model.sample(model.params(0.2), 2000, 1)
    res = fit(comp.full_likelihood(3), model, Y, model.params(0.2))
    assert res.params["theta"] == pytest.approx(
        Y.mean(axis=0).sum() / 2.2, abs=1e-14)


def test_newton_reaches_multinomial_mle_exactly():
    model = Multinomial4(5.0)
    theta = model.params(0.2)
    Y = model.sample(theta, 3000, 2)
    target = fit(comp.full_likelihood(3), model, Y, theta).params["theta"]
    start = theta.with_values(theta=0.1)      # deliberately off
    res = newton_from(comp.full_likelihood(3), model, Y, start).result()
    assert res.converged
    assert res.params["theta"] == pytest.approx(target, abs=1e-10)


def test_newton_reaches_trinormal_mu123():
    model = TriNormal()
    truth = model.params(mu=0.5, rho=0.3, sigma2=2.0)
    Y = model.sample(truth, 2000, 3)
    spec = comp.singleton_margins([0, 1, 2])
    target = fit(spec, model, Y, truth,
                 fixed={"rho": 0.3, "sigma2": 2.0}).params["mu"]
    start = truth.with_values(mu=-1.0).with_roles(rho="known", sigma2="known")
    res = newton_from(spec, model, Y, start).result()
    assert res.converged
    assert res.params["mu"] == pytest.approx(target, abs=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mu=st.floats(-2.0, 2.0), rho=st.floats(-0.9, 0.9),
       s2=st.floats(0.2, 5.0), n=st.integers(2, 200),
       seed=st.integers(0, 2**32 - 1))
def test_trinormal_means_take_one_scoring_step(mu, rho, s2, n, seed):
    # with rho and sigma2 held the summed mu score is linear and its exact
    # H constant, so one scoring step lands on the explicit mean
    tri = TriNormal()
    theta = tri.params(mu=mu, rho=rho, sigma2=s2)
    Y = tri.sample(theta, n, seed)
    m = Y.mean(axis=0)
    explicit = {(0, 1): 0.5 * (m[0] + m[1]),
                (0, 1, 2): (s2 * (m[0] + m[1]) + m[2]) / (1.0 + 2.0 * s2)}
    for margins, want in explicit.items():
        res = fit(comp.singleton_margins(list(margins)), tri, Y, theta,
                  fixed={"rho": rho, "sigma2": s2})
        assert res.solver == "newton" and res.converged
        assert res.iterations <= 1
        assert abs(res.params["mu"] - want) <= 1e-14


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.floats(0.5, 20.0), u=st.floats(0.02, 0.98),
       n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_multinomial_mle_takes_at_most_one_scoring_step(k, u, n, seed):
    # the cell probabilities are linear in theta: the moment start is the
    # MLE (a step away where the start is clipped inside the domain)
    model = Multinomial4(k)
    theta = model.params(u * model.theta_max)
    Y = model.sample(theta, n, seed)
    res = fit(comp.full_likelihood(3), model, Y, theta)
    assert res.solver == "newton"
    if 0 < Y.sum() < n:
        assert res.converged and res.iterations <= 1
        want = Y.mean(axis=0).sum() / (2.0 + 1.0 / k)
        assert abs(res.params["theta"] - want) <= 1e-14
    else:
        assert res.converged is False


@settings(max_examples=6, deadline=None, derandomize=True)
@given(k=st.floats(0.5, 20.0), n=st.integers(1, 60),
       empty=st.sampled_from(["cells 1-3", "cell 4"]),
       seed=st.integers(0, 2**32 - 1))
def test_multinomial_mle_on_the_boundary_does_not_converge(k, n, empty, seed):
    # with no observation in cells 1-3 the MLE is theta = 0, with none in
    # cell 4 it is theta_max: neither is in the domain
    model = Multinomial4(k)
    if empty == "cells 1-3":
        Y = np.zeros((n, 3))
    else:
        Y = np.eye(3)[np.random.default_rng(seed).integers(0, 3, n)]
    res = fit(comp.full_likelihood(3), model, Y,
              model.params(0.2 * model.theta_max))
    assert res.solver == "newton"
    assert res.converged is False
    assert model.interior(res.params)


def test_trinormal_start_on_a_constant_column():
    # a constant column has no sample correlation: the start takes 0, and
    # neither the start nor the fits raise or warn
    tri = TriNormal()
    theta = tri.params(mu=0.0, rho=0.5, sigma2=1.0)
    Y = tri.sample(theta, 40, 3)
    Y[:, 0] = 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = moment_starts(tri, tri.statistic(Y)[None], theta)
        assert start.point(0)["rho"] == 0.0
        for spec, fixed in ((comp.chain(3), {"rho": 0.5}),
                            (comp.pairwise(3), {})):
            assert fit(spec, tri, Y, theta, fixed).converged
        one_row = moment_starts(tri, tri.statistic(Y[:1])[None], theta)
    assert one_row.point(0)["rho"] == 0.0
    assert one_row.point(0)["sigma2"] == 1e-6


def test_closed_form_estimators_zero_their_scores():
    model = EMVN(3)
    theta = model.params(rho=0.35, sigma2=1.2)
    Y = model.sample(theta, 800, 5)
    spec = comp.pairwise(3)
    n = Y.shape[0]

    for fixed in ({}, {"sigma2": 1.2}):
        res = fit(spec, model, Y, theta, fixed)
        assert res.solver == "closed-form"
        # the fitted point scores only its free parameters
        total = comp.composite_score(spec, model, Y, res.params).sum(axis=0)
        assert total.shape == (2 - len(fixed),)
        assert np.max(np.abs(total)) < 1e-8 * n


def test_pairwise_rho_agrees_with_newton_over_datasets():
    model = EMVN(3)
    theta = model.params(rho=0.25, sigma2=0.9)
    spec = comp.pairwise(3)
    for seed in range(50):
        Y = model.sample(theta, 120, 1000 + seed)
        cf = fit(spec, model, Y, theta)
        stats = model.statistic(Y)[None]
        start = moment_starts(model, stats, theta).point(0).with_values(
            rho=min(cf.params["rho"] + 0.15, 0.95), sigma2=1.5)
        nr = newton_from(spec, model, Y, start).result()
        assert nr.converged
        assert nr.params["rho"] == pytest.approx(cf.params["rho"], abs=1e-8)


def test_pairwise_rho_equals_full_mle_and_full_conditional():
    model = EMVN(3)
    theta = model.params(rho=0.4, sigma2=1.5)
    Y = model.sample(theta, 1500, 7)
    cf = fit(comp.pairwise(3), model, Y, theta)
    start = theta.with_values(rho=0.1, sigma2=1.0)
    mle = newton_from(comp.full_likelihood(3), model, Y, start).result()
    fc = newton_from(comp.full_conditional(3), model, Y, start).result()
    assert mle.converged and fc.converged
    assert mle.params["rho"] == pytest.approx(cf.params["rho"], abs=1e-6)
    assert fc.params["rho"] == pytest.approx(cf.params["rho"], abs=1e-6)


def test_newton_row_order_invariance():
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)
    Y = model.sample(theta, 300, 11)
    start = theta.with_values(rho=0.05, sigma2=1.4)
    res = newton_from(comp.full_conditional(3), model, Y, start).result()
    perm = np.random.default_rng(13).permutation(Y.shape[0])
    res_perm = newton_from(comp.full_conditional(3), model, Y[perm],
                           start).result()
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
    # one scoring step from far off cannot finish this fit (it would finish
    # a Multinomial4 full-likelihood fit, whose mean is linear in theta)
    model = EMVN(3)
    theta = model.params(rho=0.3, roles={"sigma2": "known"})
    Y = model.sample(theta, 1000, 19)
    res = newton_from(comp.full_conditional(3), model, Y,
                      theta.with_values(rho=-0.45), max_iter=1).result()
    assert not res.converged
    assert res.score_norm > 0


def test_newton_stops_at_the_domain_boundary():
    # a Multinomial4 dataset with no observation in cells 1-3, or none in
    # cell 4, has its MLE on the boundary of the domain: each full step
    # leaves the domain and is halved back, and after two such steps in a
    # row the fit stops, not converged and without an error
    model = Multinomial4(5.0)
    theta = model.params(0.03)
    stats = model.statistic(model.sampler(theta)(
        10, list(substreams(4, range(300)))))
    fits = batch_route(model, comp.full_likelihood(3), theta)(stats)
    stopped = np.flatnonzero(~fits.converged)
    assert len(stopped) == 144
    assert all(fits.errors[i] is None for i in stopped)
    assert np.all(fits.iterations[stopped] <= 3)


def test_newton_builds_the_spec_forms_once_per_point(monkeypatch):
    # the summed score and H at a point come from one build of the forms
    # of the spec's margins and the full one, made at the start and at
    # each trial point, never again at the same point; full_conditional
    # already reads the full margin, pairwise does not
    model = EMVN(3)
    theta = model.params(rho=0.5)
    stats = model.statistic(model.sampler(theta)(
        200, list(substreams(3, range(20)))))
    start = moment_starts(model, stats, theta, {"sigma2": 1.0})
    real = model.margin_score_reps
    for spec in (comp.full_conditional(3), comp.pairwise(3)):
        built = []

        def counted(sets, points):
            built.append((tuple(sets), np.array(points.values, ndmin=2)))
            return real(sets, points)
        monkeypatch.setattr(model, "margin_score_reps", counted)
        assert newton_solve(spec, model, stats, start).converged.all()
        want = set(comp._margins(spec)) | {(0, 1, 2)}
        assert len(built) > 1
        for sets, _ in built:
            assert len(sets) == len(want) and set(sets) == want
        np.testing.assert_array_equal(built[0][1], start.values)
        rows = np.concatenate([points for _, points in built])
        assert len(np.unique(rows, axis=0)) == len(rows)


def test_newton_fits_three_free_and_rejects_none():
    model = TriNormal()
    theta = model.params(mu=0.0, rho=0.1, sigma2=1.0)
    Y = model.sample(theta, 100, 23)
    res = newton_from(comp.pairwise(3), model, Y, theta).result()
    assert res.converged and res.params.free_names == ("mu", "rho", "sigma2")
    score = comp.composite_score(comp.pairwise(3), model, Y, res.params)
    assert np.max(np.abs(score.sum(axis=0))) < 1e-8 * len(Y)
    # from the moment start, fit reaches the same root
    np.testing.assert_allclose(fit(comp.pairwise(3), model, Y, theta)
                               .params.values, res.params.values, atol=1e-8)
    with pytest.raises(UnsupportedSpec, match="at least one free parameter"):
        fit(comp.pairwise(3), model, Y, theta,
            fixed={"mu": 0.0, "rho": 0.1, "sigma2": 1.0})


def test_newton_raises_on_singular_jacobian():
    # the independence score carries no information on rho
    model = EMVN(3)
    Y = model.sample(model.params(rho=0.0), 500, 5)
    fits = newton_from(comp.independence(3), model, Y,
                       model.params(rho=0.3, sigma2=1.0))
    assert isinstance(fits.errors[0], SingularMatrix)
    assert not fits.converged[0]


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
    # rescaling the data by s leaves rho and scales sigma2 by s**2; neither
    # the step nor the singular-sensitivity check may depend on the units of
    # sigma2.  s = 1e-4 is left out: its sigma2 estimate, about 1e-8, lies
    # inside the absolute BOUNDARY_MARGIN of the domain
    model = EMVN(3)
    Y = model.sample(model.params(rho=0.3), 500, 5)
    spec = comp.full_conditional(3)

    def newton(s):
        start = model.params(rho=0.1, sigma2=1.5 * s ** 2)
        res = newton_from(spec, model, s * Y, start).result()
        assert res.converged
        return res.params["rho"], res.params["sigma2"] / s ** 2

    rho, sigma2 = newton(1.0)
    for s in (1e-3, 1e-2, 1e3, 1e4):
        rho_s, sigma2_s = newton(s)
        assert rho_s == pytest.approx(rho, rel=1e-9)
        assert sigma2_s == pytest.approx(sigma2, rel=1e-9)


def test_no_root_in_domain_for_degenerate_data():
    # perfectly correlated columns push the correlation root to the boundary
    base = np.random.default_rng(29).standard_normal(40)
    Y = np.column_stack([base, base, base])
    model = EMVN(3)
    for fixed in ({}, {"sigma2": 1.0}):
        with pytest.raises(NoRootInDomain,
                           match=r"spec 'pairwise'.* EMVN\(p=3\)"):
            fit(comp.pairwise(3), model, Y, model.params(rho=0.3), fixed)


def test_fast_path_validates_data():
    # the fast path and Newton read only the statistic of the data, which
    # fit builds from checked data
    emvn, emvn4 = EMVN(3), EMVN(4)
    Y4 = emvn4.sample(emvn4.params(rho=0.3), 50, 3)
    with pytest.raises(DimensionMismatch):
        fit(comp.pairwise(3), emvn, Y4, emvn.params(rho=0.3))
    mult = Multinomial4(5.0)
    with pytest.raises(ValueError, match="0/1 indicators"):
        fit(comp.full_likelihood(3), mult, np.full((20, 3), 2.0),
            mult.params(0.2))


def test_fit_returns_theta_like_after_fixed_on_every_route():
    emvn, tri, mult = EMVN(3), TriNormal(), Multinomial4(5.0)
    t_emvn = emvn.params(rho=0.3, sigma2=1.2)
    t_tri = tri.params(mu=0.4, rho=0.5, sigma2=2.0)
    tri_held = {"rho": 0.5, "sigma2": 2.0}
    fast = [
        (emvn, comp.pairwise(3), t_emvn, {}),
        (emvn, comp.pairwise(3), t_emvn, {"sigma2": 1.2}),
    ]
    weighted = comp.CompositeSpec("weighted", [
        comp.Component("margin", (i,), weight=w) for i, w in enumerate(
            (1.0, 2.0, 0.5))])
    newton = [
        (tri, comp.singleton_margins([0, 1]), t_tri, tri_held),
        (tri, comp.singleton_margins([0, 1, 2]), t_tri, tri_held),
        (tri, weighted, t_tri, tri_held),
        (mult, comp.full_likelihood(3), mult.params(0.2), {}),
    ]
    for model, spec, theta, fixed in fast + newton:
        res = fit(spec, model, model.sample(theta, 200, 7), theta, fixed)
        held = theta.with_roles(**{name: "known" for name in fixed})
        assert res.solver == ("closed-form" if model is emvn else "newton")
        assert res.params.names == held.names
        assert res.params.roles == held.roles
        for name in set(held.names) - set(held.free_names):
            assert res.params[name] == held[name]
    # every fast path is covered
    assert [registered_closed_form(model, spec, theta, fixed)[0]
            for model, spec, theta, fixed in fast] == list(ESTIMATORS.values())


def test_registered_closed_form_dispatch():
    emvn = EMVN(3)
    theta = emvn.params(rho=0.2, sigma2=1.0)
    assert registered_closed_form(emvn, comp.pairwise(3), theta) is not None
    entry, known = registered_closed_form(
        emvn, comp.pairwise(3), theta, {"sigma2": 1.0})
    assert entry is ESTIMATORS["emvn_pairwise_rho_known_sigma"]
    assert known == {"sigma2": 1.0}
    assert registered_closed_form(emvn, comp.full_conditional(3), theta) is None

    # the two-block means and the multinomial MLE are scored by Newton,
    # whose first step lands on them
    tri = TriNormal()
    t3 = tri.params(mu=0.0, rho=0.1, sigma2=2.0)
    for margins in ([0, 1], [0, 1, 2]):
        for fixed in ({"rho": 0.1, "sigma2": 2.0}, {}):
            assert registered_closed_form(
                tri, comp.singleton_margins(margins), t3, fixed) is None

    mult = Multinomial4(5.0)
    tm = mult.params(0.2)
    assert registered_closed_form(mult, comp.full_likelihood(3), tm) is None
    assert registered_closed_form(mult, comp.pairwise(3), tm) is None
    assert list(ESTIMATORS) == ["emvn_pairwise_rho",
                                "emvn_pairwise_rho_known_sigma"]


def test_known_sigma2_is_read_from_roles_and_fixed_alike():
    # sigma2 tagged known by theta_like, or named in ``fixed``: one route
    # and one estimate
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)
    Y = model.sample(theta, 500, 5)
    tagged = fit(comp.pairwise(3), model, Y, theta.with_roles(sigma2="known"))
    held = fit(comp.pairwise(3), model, Y, theta, fixed={"sigma2": 1.0})
    assert tagged.solver == held.solver == "closed-form"
    assert tagged.params == held.params


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
        start = moment_starts(model, model.statistic(Y)[None], theta)
        newton = newton_from(spec, model, Y, start.point(0)).result()
        assert res.solver == "newton" and res.converged
        np.testing.assert_array_equal(res.params.free_values,
                                      newton.params.free_values)


def test_fit_holds_parameters_tagged_known():
    # parameters that theta_like tags known are held at their values,
    # whether or not ``fixed`` names them
    tri = TriNormal()
    theta = tri.params(mu=0.3, rho=0.5, sigma2=2.0,
                       roles={"rho": "known", "sigma2": "known"})
    spec = comp.CompositeSpec(
        "margins[0,0,1]", [comp.Component("margin", (i,)) for i in (0, 0, 1)])
    Y = tri.sample(theta, 500, 5)
    res = fit(spec, tri, Y, theta)
    assert res.converged
    assert (res.params["rho"], res.params["sigma2"]) == (0.5, 2.0)
    held = fit(spec, tri, Y, theta, fixed={"rho": 0.5, "sigma2": 2.0})
    assert res.params == held.params


def test_fit_uses_fast_path_and_newton_consistently():
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.4)
    Y = model.sample(theta, 500, 31)
    fast = fit(comp.pairwise(3), model, Y, theta)
    assert fast.solver == "closed-form"
    slow = fit(comp.full_conditional(3), model, Y, theta)
    assert slow.solver == "newton"
    assert fast.params["rho"] == pytest.approx(slow.params["rho"], abs=1e-6)


def test_check_identified():
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.5)
    # no information on rho, whether sigma2 is free or fixed
    for fixed in ({}, {"sigma2": 1.5}):
        with pytest.raises(UnsupportedSpec, match="'independence'"):
            check_identified(model, comp.independence(3), theta, fixed)
    # with rho fixed the independence score identifies sigma2
    check_identified(model, comp.independence(3), theta, {"rho": 0.3})
    check_identified(model, comp.full_conditional(3), theta)
    check_identified(model, comp.pairwise(3), theta)          # fast path
    # no difference stencil: the verdicts hold at a tiny sigma2 as well
    tiny = model.params(rho=0.3, sigma2=1e-7)
    check_identified(model, comp.full_conditional(3), tiny)
    with pytest.raises(UnsupportedSpec, match="'independence'"):
        check_identified(model, comp.independence(3), tiny)
