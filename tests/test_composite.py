from unittest import mock

import numpy as np
import pytest

import clik.composite as comp
from clik.errors import ClikError, InvalidArgument, SingularMatrix
from clik.matrixops import is_psd, loewner_geq
from clik.models import EMVN, Multinomial4, TriNormal


def emvn_case(rho=0.4, sigma2=1.5, p=3):
    model = EMVN(p)
    return model, model.params(rho=rho, sigma2=sigma2)


# -- specs ---------------------------------------------------------------------


def test_spec_constructors_component_counts():
    assert len(comp.independence(4).components) == 4
    assert len(comp.pairwise(4).components) == 6
    assert len(comp.full_conditional(4).components) == 4
    assert len(comp.chain(4).components) == 4
    assert len(comp.chain(4, subset=(0, 2)).components) == 2
    assert len(comp.full_likelihood(4).components) == 1


def test_component_validation():
    with pytest.raises(ValueError):
        comp.Component("margin", (0,), weight=-0.1)
    with pytest.raises(ValueError):
        comp.Component("conditional", (0,), (0, 1))
    with pytest.raises(ValueError):
        comp.Component("blah", (0,))
    with pytest.raises(ValueError):
        comp.CompositeSpec("empty", [])


# -- log densities ----------------------------------------------------------------


def test_single_pair_is_the_joint_likelihood():
    model, theta = emvn_case(rho=0.3, sigma2=0.8, p=2)
    Y = model.sample(theta, 30, 41)
    np.testing.assert_allclose(
        comp.composite_loglik(comp.pairwise(2), model, Y, theta),
        model.loglik(Y, theta), atol=1e-12)


def test_independence_equals_joint_when_independent():
    model = EMVN(3)
    theta = model.params(rho=0.0, sigma2=1.3)
    Y = model.sample(theta, 30, 43)
    np.testing.assert_allclose(
        comp.composite_loglik(comp.independence(3), model, Y, theta),
        model.loglik(Y, theta), atol=1e-12)


def test_pairwise_power_identity_under_independence():
    p = 4
    model = EMVN(p)
    theta = model.params(rho=0.0, sigma2=1.1)
    Y = model.sample(theta, 30, 47)
    np.testing.assert_allclose(
        comp.composite_loglik(comp.pairwise(p), model, Y, theta),
        (p - 1) * model.loglik(Y, theta), atol=1e-10)


def test_weights_scale_the_log_density():
    model, theta = emvn_case()
    y = model.sample(theta, 1, 53)
    doubled = comp.CompositeSpec(
        "w2", [comp.Component("margin", c.indices, weight=2.0)
               for c in comp.independence(3).components])
    assert comp.composite_loglik(doubled, model, y, theta) == pytest.approx(
        2 * comp.composite_loglik(comp.independence(3), model, y, theta))


# -- scores -----------------------------------------------------------------------


def test_analytic_score_matches_finite_differences():
    cases = [
        (*emvn_case(), comp.pairwise(3)),
        (*emvn_case(), comp.full_conditional(3)),
        (TriNormal(), TriNormal().params(mu=0.4, rho=0.3, sigma2=2.0),
         comp.pairwise(3)),
        (Multinomial4(5.0), Multinomial4(5.0).params(0.2), comp.independence(3)),
        (Multinomial4(5.0), Multinomial4(5.0).params(0.2), comp.pairwise(3)),
    ]
    for model, theta, spec in cases:
        Y = model.sample(theta, 25, 59)
        analytic = comp.composite_score(spec, model, Y, theta)
        numeric = comp.composite_score_fd(spec, model, Y, theta)
        scale = max(1.0, np.max(np.abs(analytic)))
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-6


def test_component_scores_sum_to_composite_score():
    model, theta = emvn_case()
    spec = comp.chain(3)
    Y = model.sample(theta, 20, 61)
    total = sum(comp.component_scores(spec, model, Y, theta))
    np.testing.assert_allclose(total,
                               comp.composite_score(spec, model, Y, theta),
                               atol=1e-12)


# -- information: Monte Carlo vs exact ----------------------------------------------


def test_composite_score_is_unbiased():
    model, theta = emvn_case()
    Y = model.sample(theta, 100_000, 63)
    U = comp.composite_score(comp.pairwise(3), model, Y, theta)
    se = U.std(axis=0, ddof=1) / np.sqrt(U.shape[0])
    assert np.all(np.abs(U.mean(axis=0)) < 4 * se)


def _random_theta(model, rng):
    if isinstance(model, EMVN):
        lo = -1.0 / (model.p - 1)
        return model.params(rho=rng.uniform(lo + 0.1, 0.85),
                            sigma2=rng.uniform(0.5, 2.5))
    if isinstance(model, TriNormal):
        return model.params(mu=rng.uniform(-1, 1), rho=rng.uniform(-0.8, 0.8),
                            sigma2=rng.uniform(0.5, 2.5))
    return model.params(rng.uniform(0.15, 0.85) * model.theta_max)


def test_information_unbiased_constructors_across_random_points():
    # chains and single components satisfy the second Bartlett identity on
    # every model; checked exactly, plus one Monte Carlo spot check each
    rng = np.random.default_rng(65)
    single = {
        "EMVN": comp.CompositeSpec("one-pair", [comp.Component("margin", (0, 1))]),
        "TriNormal": comp.CompositeSpec(
            "one-cond", [comp.Component("conditional", (0,), (1, 2))]),
        "Multinomial4": comp.CompositeSpec(
            "one-margin", [comp.Component("margin", (0, 2))]),
    }
    for model in (EMVN(3), TriNormal(), Multinomial4(5.0)):
        specs = [comp.chain(3), single[type(model).__name__]]
        for spec in specs:
            for _ in range(5):
                theta = _random_theta(model, rng)
                if spec.name == "one-cond":
                    # f(y1 | y2, y3) of the two-block normal involves only
                    # the mean and the correlation
                    theta = theta.with_roles(sigma2="known")
                exact = comp.info_exact(spec, model, theta)
                gap = np.max(np.abs(exact.sensitivity - exact.variability))
                scale = max(1.0, np.max(np.abs(exact.variability)))
                assert gap / scale < 1e-7, (model, spec.name, theta)
            theta = _random_theta(model, rng)
            if spec.name == "one-cond":
                theta = theta.with_roles(sigma2="known")
            mc = comp.info_monte_carlo(spec, model, theta, 10_000,
                                       rng.integers(2**32))
            assert comp.info_bias_zscore(mc) < 4.0


def test_full_spec_second_bartlett_identity():
    model, theta = emvn_case()
    triple = comp.info_monte_carlo(comp.full_likelihood(3), model, theta,
                                   40_000, 67)
    z = comp.info_bias_zscore(triple)
    assert z < 3.0
    fisher = comp.info_exact(comp.full_likelihood(3), model, theta).variability
    gap = np.abs(triple.sensitivity - fisher)
    assert np.all(gap < 3 * triple.sensitivity_se)


def test_monte_carlo_matches_exact_information():
    for model, theta, spec in [
        (*emvn_case(), comp.pairwise(3)),
        (*emvn_case(-0.3, 1.0), comp.full_conditional(3)),
        (TriNormal(), TriNormal().params(mu=0.4, rho=-0.3, sigma2=2.0),
         comp.pairwise(3)),
        (Multinomial4(5.0), Multinomial4(5.0).params(0.2), comp.pairwise(3)),
    ]:
        mc = comp.info_monte_carlo(spec, model, theta, 50_000, 73)
        exact = comp.info_exact(spec, model, theta)
        # structurally zero entries have zero batch error; allow round-off
        assert np.all(np.abs(mc.sensitivity - exact.sensitivity)
                      < 4 * mc.sensitivity_se + 1e-9)
        assert np.all(np.abs(mc.variability - exact.variability)
                      < 4 * mc.variability_se + 1e-9)


def test_multinomial_independence_sensitivity_value():
    model = Multinomial4(5.0)
    theta = model.params(0.2)
    t, k = 0.2, 5.0
    printed = 2 / t + 2 / (1 - t) + 1 / (k * t) + 1 / (k * (k - t))
    triple = comp.info_monte_carlo(comp.independence(3), model, theta,
                                   100_000, 79)
    assert printed == pytest.approx(13.541666666666666, rel=1e-12)
    assert abs(triple.sensitivity[0, 0] - printed) < 3 * triple.sensitivity_se[0, 0]


def test_pairwise_emvn_is_information_biased():
    model, theta = emvn_case()
    triple = comp.info_monte_carlo(comp.pairwise(3), model, theta, 50_000, 83)
    assert comp.info_bias_zscore(triple) > 10.0
    assert comp.info_bias_measure(triple) > 0.1


def test_info_triple_invariants_and_csv(tmp_path):
    model, theta = emvn_case()
    triple = comp.info_monte_carlo(comp.pairwise(3), model, theta, 20_000, 89)
    # G is recomputable from H and J
    H, J = triple.sensitivity, triple.variability
    np.testing.assert_allclose(triple.godambe, H @ np.linalg.solve(J, H),
                               rtol=1e-10)
    assert is_psd(triple.variability, 1e-12)
    assert np.array_equal(triple.sensitivity, triple.sensitivity.T)
    path = tmp_path / "triple.csv"
    triple.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "matrix,row,col,value,std_err"
    assert len(lines) == 1 + 3 * 4
    first = lines[1].split(",")
    assert float(first[3]) == triple.sensitivity[0, 0]


def test_info_monte_carlo_draw_floor():
    model, theta = emvn_case()
    with pytest.raises(ValueError):
        comp.info_monte_carlo(comp.pairwise(3), model, theta, 999, 1)


def test_monte_carlo_batch_floor():
    # nine batch values are too few for their spread to give a standard
    # error; every batch-means estimator refuses them
    model, theta = emvn_case()
    spec = comp.pairwise(3)
    base = comp.info_exact(spec, model, theta)
    calls = [
        lambda: comp.info_monte_carlo(spec, model, theta, 2000, 1, batches=9),
        lambda: comp.projected_info_monte_carlo(spec, model, theta, 2000, 1,
                                                base, batches=9),
        lambda: comp.full_efficiency_check(spec, model, theta, 2000, 1,
                                           batches=9),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="batches"):
            call()
    assert len(comp.batch_slices(2000, comp.MIN_BATCHES)) == comp.MIN_BATCHES


def test_singular_variability_raises():
    # the independence likelihood carries no information about rho
    model, theta = emvn_case()
    with pytest.raises(SingularMatrix):
        comp.info_monte_carlo(comp.independence(3), model, theta, 2000, 97)


# -- score recovery / full efficiency ------------------------------------------------


def test_pairwise_score_is_linear_in_full_score():
    # u_c = J H^-1 u pointwise for the equicorrelated pairwise likelihood
    model, theta = emvn_case()
    exact = comp.info_exact(comp.pairwise(3), model, theta)
    Y = model.sample(theta, 500, 101)
    uc = comp.composite_score(comp.pairwise(3), model, Y, theta)
    u = model.full_score(Y, theta)
    m = exact.variability @ np.linalg.solve(exact.sensitivity, u.T)
    assert np.max(np.abs(uc - m.T)) < 1e-7 * max(1, np.max(np.abs(uc)))


def test_full_efficiency_check_pairwise_emvn():
    model, theta = emvn_case()
    rep = comp.full_efficiency_check(comp.pairwise(3), model, theta, 10_000, 103)
    assert rep.fully_efficient
    assert rep.max_residual_z < 3.0
    assert np.all(np.abs(rep.b_estimate) < 3 * rep.b_se)
    assert rep.residual_identity_z < 3.0
    assert rep.crosscov_identity_z < 3.0
    assert is_psd(rep.residual_cov, 1e-12)


def test_full_efficiency_check_rejects_multinomial_pairwise():
    model = Multinomial4(5.0)
    rep = comp.full_efficiency_check(comp.pairwise(3), model,
                                     model.params(0.2), 20_000, 107)
    assert not rep.fully_efficient
    assert rep.lambda_max > 10 * rep.lambda_max_se


def test_full_spec_projection_residuals_vanish():
    model, theta = emvn_case()
    spec = comp.full_likelihood(3)
    exact = comp.info_exact(spec, model, theta)
    Y = model.sample(theta, 200, 109)
    u = model.full_score(Y, theta)
    resid = u - comp.project_score(exact, u)
    assert np.max(np.abs(resid)) < 1e-6


# -- projection -------------------------------------------------------------------


def test_projection_identity_for_information_unbiased_spec():
    model, theta = emvn_case()
    exact = comp.info_exact(comp.chain(3), model, theta)
    Y = model.sample(theta, 100, 113)
    uc = comp.composite_score(comp.chain(3), model, Y, theta)
    np.testing.assert_allclose(comp.project_score(exact, uc), uc,
                               rtol=1e-6, atol=1e-8)


def test_projected_pairwise_score_recovers_full_score():
    model, theta = emvn_case()
    exact = comp.info_exact(comp.pairwise(3), model, theta)
    Y = model.sample(theta, 1000, 127)
    uc = comp.composite_score(comp.pairwise(3), model, Y, theta)
    u = model.full_score(Y, theta)
    assert np.max(np.abs(comp.project_score(exact, uc) - u)) < 1e-5
    # single-observation path agrees with the batched one
    one = comp.project_score(exact, uc[0])
    np.testing.assert_allclose(one, comp.project_score(exact, uc)[0],
                               atol=1e-12)


def test_projected_score_keeps_godambe_and_gains_bartlett():
    model, theta = emvn_case()
    spec = comp.pairwise(3)
    exact = comp.info_exact(spec, model, theta)
    proj = comp.projected_info_monte_carlo(spec, model, theta, 50_000, 131,
                                           exact)
    assert comp.info_bias_zscore(proj) < 3.0
    assert np.all(np.abs(proj.godambe - exact.godambe) < 4 * proj.godambe_se)


def test_projection_preserves_score_roots():
    # H J^-1 is constant in the data, so projected and raw scores vanish at
    # the same parameter point on every dataset
    model, theta = emvn_case()
    spec = comp.pairwise(3)
    from clik.estimators import fit
    for seed in range(5):
        Y = model.sample(theta, 400, 137 + seed)
        root = fit(spec, model, Y, theta).params
        exact = comp.info_exact(spec, model, root)
        total = comp.composite_score(spec, model, Y, root).sum(axis=0)
        proj_total = comp.project_score(exact, total)
        assert np.max(np.abs(total)) < 1e-6 * Y.shape[0]
        assert np.max(np.abs(proj_total)) < 1e-6 * Y.shape[0]


# -- partitioned variances -----------------------------------------------------------


def test_partitioned_variance_orthogonal_case():
    triple = comp.InfoTriple(("a", "b"), np.diag([4.0, 2.0]),
                             np.diag([4.0, 2.0]), np.diag([4.0, 2.0]),
                             "analytic")
    prof, known = comp.partitioned_variance(triple, ["a"])
    assert prof[0, 0] == pytest.approx(0.25, abs=1e-14)
    assert known[0, 0] == pytest.approx(0.25, abs=1e-14)


def test_partitioned_variance_information_unbiased_ordering():
    # with H = J, knowing the nuisance can only help
    model, theta = emvn_case(0.4, 1.5)
    exact = comp.info_exact(comp.chain(3), model, theta)
    prof, known = comp.partitioned_variance(exact, theta)
    assert loewner_geq(prof, known, 1e-10)


def test_partitioned_variance_reversal_for_biased_spec():
    # near the lower correlation bound, fixing sigma2 at the truth hurts
    model, theta = emvn_case(-0.45, 1.0)
    exact = comp.info_exact(comp.pairwise(3), model, theta)
    prof, known = comp.partitioned_variance(exact, ["rho"])
    assert known[0, 0] > prof[0, 0]
    # a bare name is one name, not the letters of one
    one = comp.partitioned_variance(exact, "rho")
    assert one[0].tobytes() == prof.tobytes()
    assert one[1].tobytes() == known.tobytes()


def test_partitioned_variance_rank_deficient_godambe_raises():
    H, J = np.array([[2.0, 1.0], [1.0, 1.0]]), np.eye(2)
    # the nuisance column explains the interest column completely
    G = np.array([[1.0, 1.0], [1.0, 1.0]])
    triple = comp.InfoTriple(("a", "b"), H, J, G, "analytic")
    with pytest.raises(SingularMatrix):
        comp.partitioned_variance(triple, ["a"])
    # a singular nuisance block
    G3 = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    triple = comp.InfoTriple(("a", "b", "c"), np.eye(3), np.eye(3), G3,
                             "analytic")
    with pytest.raises(SingularMatrix):
        comp.partitioned_variance(triple, ["a"])


def test_partitioned_variance_is_scale_aware():
    # a well-conditioned triple at a tiny scale is not singular: the
    # variances scale inversely
    model, theta = emvn_case(0.4, 1.5)
    exact = comp.info_exact(comp.pairwise(3), model, theta)
    scale = 1e-305
    tiny = comp.InfoTriple(exact.param_names, exact.sensitivity * scale,
                           exact.variability * scale, exact.godambe * scale,
                           "analytic")
    prof, known = comp.partitioned_variance(exact, ["rho"])
    prof_t, known_t = comp.partitioned_variance(tiny, ["rho"])
    np.testing.assert_allclose(prof_t, prof / scale, rtol=1e-12)
    np.testing.assert_allclose(known_t, known / scale, rtol=1e-12)


def test_info_exact_is_invariant_to_variance_units():
    # sigma2 = s rescales every sigma2 row and column of H, J and G by 1/s;
    # the inversion behind G must not depend on those units
    model = EMVN(3)
    spec = comp.full_conditional(3)
    base = comp.info_exact(spec, model, model.params(rho=0.3, sigma2=1.0))
    for s in (1e4, 1e6):
        scaled = comp.info_exact(spec, model, model.params(rho=0.3, sigma2=s))
        units = np.diag([1.0, s])
        for got, want in [(scaled.sensitivity, base.sensitivity),
                          (scaled.variability, base.variability),
                          (scaled.godambe, base.godambe)]:
            np.testing.assert_allclose(units @ got @ units, want, rtol=1e-8)


def test_partitioned_variance_validates_blocks():
    model, theta = emvn_case()
    exact = comp.info_exact(comp.pairwise(3), model, theta)
    with pytest.raises(ValueError):
        comp.partitioned_variance(exact, ["rho", "sigma2"])
    with pytest.raises(ValueError):
        comp.partitioned_variance(exact, [])


# -- argument errors -------------------------------------------------------------


def invalid_arguments():
    """``(id, call)`` for each InvalidArgument raise site of the module."""
    model, theta = emvn_case()
    spec = comp.pairwise(3)
    exact = comp.info_exact(spec, model, theta)

    def asymmetric(call):
        def run():
            # any H is asymmetric beyond a negative tolerance
            with mock.patch.object(comp, "H_ASYMMETRY_TOL", -1.0):
                call()
        return run

    yield "component-kind", lambda: comp.Component("blah", (0,))
    yield "component-empty", lambda: comp.Component("margin", ())
    yield "margin-given", lambda: comp.Component("margin", (0,), (1,))
    yield "conditional-targets", lambda: comp.Component("conditional",
                                                        (0, 1), (2,))
    yield "conditional-self", lambda: comp.Component("conditional", (0,),
                                                     (0, 1))
    yield "component-weight", lambda: comp.Component("margin", (0,),
                                                     weight=-0.1)
    yield "spec-empty", lambda: comp.CompositeSpec("empty", [])
    yield "batch-floor", lambda: comp.batch_slices(1000, 5)
    # 600 batches of 1000 draws: some hold one row, too few for a covariance
    yield "batch-rows", lambda: comp.info_monte_carlo(spec, model, theta,
                                                      1000, 1, batches=600)
    yield "draws-info", lambda: comp.info_monte_carlo(spec, model, theta,
                                                      999, 1)
    yield "draws-projected", lambda: comp.projected_info_monte_carlo(
        spec, model, theta, 999, 1, exact)
    yield "draws-efficiency", lambda: comp.full_efficiency_check(
        spec, model, theta, 999, 1)
    yield "asymmetry-monte-carlo", asymmetric(
        lambda: comp.info_monte_carlo(spec, model, theta, 1000, 1))
    yield "asymmetry-exact", asymmetric(
        lambda: comp.info_exact(spec, model, theta))
    yield "zscore-exact", lambda: comp.info_bias_zscore(exact)
    yield "partition-empty", lambda: comp.partitioned_variance(exact, [])


@pytest.mark.parametrize("call", [call for _, call in invalid_arguments()],
                         ids=[name for name, _ in invalid_arguments()])
def test_each_argument_check_raises_a_clik_error(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, ClikError)
    assert isinstance(info.value, ValueError)
