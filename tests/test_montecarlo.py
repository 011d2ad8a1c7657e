import dataclasses

import numpy as np
import pytest

import clik.asymptotics as asy
import clik.composite as comp
import clik.estimators as est
import clik.montecarlo as mc
from clik.errors import (ClikError, DomainError, FailureBudgetExceeded,
                         SingularMatrix, UnsupportedSpec)
from clik.models import EMVN, Multinomial4, TriNormal
from oracles import numeric_hessian


def small_config(replicates=200, seed=3):
    model = EMVN(3)
    theta = model.params(rho=0.5, sigma2=1.0)
    spec = comp.pairwise(3)
    return mc.SimConfig(model, theta,
                        (mc.SpecRun(spec), mc.SpecRun(spec, {"sigma2": 1.0})),
                        n=200, replicates=replicates, seed=seed)


def newton_config(replicates=100, seed=5):
    """A study whose only run has no fast path."""
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)
    return mc.SimConfig(model, theta, (mc.SpecRun(comp.full_conditional(3)),),
                        n=100, replicates=replicates, seed=seed)


def test_config_validation():
    model = EMVN(3)
    theta = model.params(rho=0.5)
    spec = comp.pairwise(3)
    with pytest.raises(ValueError):
        mc.SimConfig(model, theta, (mc.SpecRun(spec),), n=5, replicates=200,
                     seed=0)
    with pytest.raises(ValueError):
        mc.SimConfig(model, theta, (mc.SpecRun(spec),), n=100, replicates=50,
                     seed=0)
    with pytest.raises(ValueError):
        mc.SimConfig(model, theta, (mc.SpecRun(spec), mc.SpecRun(spec)),
                     n=100, replicates=200, seed=0)


def test_config_rejects_specs_nothing_can_fit():
    # three free parameters: no fast path, and too many for Newton
    model = TriNormal()
    theta = model.params(mu=0.0, rho=0.1, sigma2=1.0)
    with pytest.raises(UnsupportedSpec, match="Newton"):
        mc.SimConfig(model, theta, (mc.SpecRun(comp.pairwise(3)),),
                     n=100, replicates=100, seed=0)
    # every parameter fixed leaves Newton nothing to fit either
    with pytest.raises(UnsupportedSpec):
        mc.SimConfig(model, theta, (mc.SpecRun(comp.pairwise(3), {
            "mu": 0.0, "rho": 0.1, "sigma2": 1.0}),),
                     n=100, replicates=100, seed=0)


def test_spec_run_labels():
    spec = comp.pairwise(3)
    assert mc.SpecRun(spec).label == "pairwise"
    assert mc.SpecRun(spec, {"sigma2": 1.0}).label == "pairwise!sigma2"
    assert mc.SpecRun(spec, {}, "custom").label == "custom"


def test_run_shapes_and_labels():
    config = small_config()
    result = mc.run(config)
    assert result.labels() == ["pairwise", "pairwise!sigma2"]
    assert result.estimates["pairwise"].shape == (200, 2)
    assert result.estimates["pairwise!sigma2"].shape == (200, 1)
    assert result.param_names("pairwise") == ("rho", "sigma2")
    assert result.param_names("pairwise!sigma2") == ("rho",)
    assert result.failures("pairwise") == 0


def test_run_deterministic_across_worker_counts():
    config = small_config()
    # one Newton run beside the two batched fast-path runs
    config = dataclasses.replace(config, runs=config.runs + (
        mc.SpecRun(comp.full_conditional(3), {"sigma2": 1.0}),))
    serial = mc.run(config, threads=1)
    for threads in (2, 3):
        parallel = mc.run(config, threads=threads)
        for label in serial.labels():
            np.testing.assert_array_equal(serial.estimates[label],
                                          parallel.estimates[label])
            np.testing.assert_array_equal(serial.converged[label],
                                          parallel.converged[label])


def test_reported_moments_are_permutation_invariant():
    config = small_config()
    result = mc.run(config)
    mean0 = result.mean("pairwise")
    ncov0 = result.ncov("pairwise")
    perm = np.random.default_rng(1).permutation(config.replicates)
    result.estimates["pairwise"] = result.estimates["pairwise"][perm]
    result.converged["pairwise"] = result.converged["pairwise"][perm]
    np.testing.assert_allclose(result.mean("pairwise"), mean0, rtol=1e-12)
    np.testing.assert_allclose(result.ncov("pairwise"), ncov0, rtol=1e-12)


def test_worker_count_resolution(monkeypatch):
    assert mc.worker_count(3) == 3
    monkeypatch.setenv("CLIK_THREADS", "2")
    assert mc.worker_count() == 2
    monkeypatch.setenv("CLIK_THREADS", "0")
    assert mc.worker_count() >= 1
    monkeypatch.setenv("CLIK_THREADS", "nope")
    with pytest.raises(ClikError):
        mc.worker_count()
    with pytest.raises(ClikError):
        mc.worker_count(-1)


def test_failure_budget_enforced(monkeypatch):
    # fast-path runs are fitted by their table entry's batched solve
    entry = est.ESTIMATORS["emvn_pairwise_rho"]

    def flaky(stats, known):
        estimates, converged, score_norm = entry.solve(stats, known)
        converged = converged.copy()
        converged[::20] = False               # 5% failure rate
        estimates[~converged] = np.nan
        return estimates, converged, score_norm

    monkeypatch.setitem(est.ESTIMATORS, "emvn_pairwise_rho",
                        dataclasses.replace(entry, solve=flaky))
    config = small_config()
    with pytest.raises(FailureBudgetExceeded):
        mc.run(config, threads=1)


def flaky_newton(monkeypatch, fail_on):
    """Make the batched Newton solve end the fit of row ``k`` (1-based)
    with ``fail_on(k)`` when that is not None."""
    real_solve = est.newton_solve

    def flaky(*args, **kwargs):
        fits = real_solve(*args, **kwargs)
        errors = [fail_on(k) or err
                  for k, err in enumerate(fits.errors, start=1)]
        return dataclasses.replace(fits, errors=errors)

    monkeypatch.setattr(est, "newton_solve", flaky)


def test_failure_budget_enforced_newton(monkeypatch):
    flaky_newton(monkeypatch, lambda k: DomainError("synthetic failure")
                 if k % 20 == 0 else None)   # 5% failure rate
    with pytest.raises(FailureBudgetExceeded):
        mc.run(newton_config(), threads=1)


def test_numerical_failures_count_against_budget(monkeypatch):
    flaky_newton(monkeypatch, lambda k: SingularMatrix("synthetic failure")
                 if k == 37 else None)
    result = mc.run(newton_config(), threads=1)
    assert result.failures("full_conditional") == 1
    assert not result.converged["full_conditional"][36]
    assert np.isnan(result.estimates["full_conditional"][36]).all()


def test_uninformative_spec_replicates_fail():
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)
    config = mc.SimConfig(model, theta, (mc.SpecRun(comp.independence(3)),),
                          n=100, replicates=100, seed=5)
    estimates, converged = mc._run_chunk(config, 0, 10)["independence"]
    assert not converged.any()
    assert np.isnan(estimates).all()
    with pytest.raises(FailureBudgetExceeded):
        mc.run(config, threads=1)


def test_simulated_variance_hits_closed_forms():
    model = EMVN(3)
    theta = model.params(rho=0.5, sigma2=1.0)
    spec = comp.pairwise(3)
    config = mc.SimConfig(model, theta,
                          (mc.SpecRun(spec), mc.SpecRun(spec, {"sigma2": 1.0})),
                          n=500, replicates=2000, seed=31)
    result = mc.run(config)
    nv = result.ncov("pairwise")[0, 0]
    se = result.ncov_se("pairwise")[0, 0]
    assert abs(nv - asy.avar_rho_free_sigma(3, 0.5)) < 3 * se
    nv_k = result.ncov("pairwise!sigma2")[0, 0]
    se_k = result.ncov_se("pairwise!sigma2")[0, 0]
    assert abs(nv_k - asy.avar_rho_known_sigma(3, 0.5)) < 3 * se_k


def test_simulated_variance_hits_closed_forms_p5():
    model = EMVN(5)
    theta = model.params(rho=0.3, sigma2=1.0)
    spec = comp.pairwise(5)
    config = mc.SimConfig(model, theta,
                          (mc.SpecRun(spec), mc.SpecRun(spec, {"sigma2": 1.0})),
                          n=500, replicates=1000, seed=61)
    result = mc.run(config)
    nv = result.ncov("pairwise")[0, 0]
    se = result.ncov_se("pairwise")[0, 0]
    assert abs(nv - asy.avar_rho_free_sigma(5, 0.3)) < 3 * se
    nv_k = result.ncov("pairwise!sigma2")[0, 0]
    se_k = result.ncov_se("pairwise!sigma2")[0, 0]
    assert abs(nv_k - asy.avar_rho_known_sigma(5, 0.3)) < 3 * se_k


def test_multinomial_mle_variance_matches_exact():
    model = Multinomial4(5.0)
    theta = model.params(0.2)
    config = mc.SimConfig(model, theta, (mc.SpecRun(comp.full_likelihood(3)),),
                          n=500, replicates=2000, seed=37)
    result = mc.run(config)
    label = "full"
    target = 0.2 / 2.2 - 0.04
    nv = result.ncov(label)[0, 0]
    se = result.ncov_se(label)[0, 0]
    assert abs(nv - target) < 3 * se


def test_sandwich_interval_coverage():
    model = EMVN(3)
    theta = model.params(rho=0.4, sigma2=1.5)
    n = 500
    config = mc.SimConfig(model, theta, (mc.SpecRun(comp.pairwise(3)),),
                          n=n, replicates=2000, seed=41)
    result = mc.run(config)
    avar = np.linalg.inv(comp.info_exact(comp.pairwise(3), model,
                                         theta).godambe)
    est = result.estimates["pairwise"]
    for j, name in enumerate(("rho", "sigma2")):
        half = 1.96 * np.sqrt(avar[j, j] / n)
        cover = np.mean(np.abs(est[:, j] - theta[name]) <= half)
        assert 0.93 <= cover <= 0.97


def test_sandwich_interval_coverage_multinomial():
    model = Multinomial4(5.0)
    theta = model.params(0.2)
    n = 500
    config = mc.SimConfig(model, theta, (mc.SpecRun(comp.pairwise(3)),),
                          n=n, replicates=2000, seed=59)
    result = mc.run(config)
    avar = 1.0 / comp.info_exact(comp.pairwise(3), model, theta).godambe[0, 0]
    est = result.estimates["pairwise"][:, 0]
    half = 1.96 * np.sqrt(avar / n)
    cover = np.mean(np.abs(est - 0.2) <= half)
    assert 0.93 <= cover <= 0.97


def test_result_csvs(tmp_path):
    config = small_config()
    result = mc.run(config)
    est_path = tmp_path / "est.csv"
    sum_path = tmp_path / "sum.csv"
    result.write_estimates_csv(est_path)
    result.write_summary_csv(sum_path)
    lines = est_path.read_text().splitlines()
    assert lines[0] == "spec,replicate,param,estimate,converged"
    assert len(lines) == 1 + 200 * 2 + 200 * 1
    summary = sum_path.read_text().splitlines()
    assert summary[0] == "spec,param,mean,n_var,std_err,failures"
    assert len(summary) == 1 + 3
    val = float(lines[1].split(",")[3])
    assert val == result.estimates["pairwise"][0, 0]


def test_cross_ncov_matches_direct_covariance():
    config = small_config()
    result = mc.run(config)
    val, se = result.cross_ncov("pairwise", 0, "pairwise", 1)
    est = result.estimates["pairwise"]
    direct = config.n * np.cov(est[:, 0], est[:, 1], ddof=1)[0, 1]
    assert val == pytest.approx(direct, rel=1e-12)
    assert se > 0


# -- numeric Hessian -------------------------------------------------------------


def test_numeric_hessian_quadratic_and_affine():
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    hess = numeric_hessian(lambda x: 0.5 * x @ a @ x - x[1], [0.3, -0.4])
    np.testing.assert_allclose(hess, a, atol=1e-8)
    zero = numeric_hessian(lambda x: 3.0 * x[0] - x[1] + 2.0, [0.1, 0.2])
    np.testing.assert_allclose(zero, 0.0, atol=1e-7)


def test_numeric_hessian_matches_score_jacobian():
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.2)
    y = model.sample(theta, 1, 43)[0]
    spec = comp.pairwise(3)

    def clik_at(x):
        return comp.composite_loglik(spec, model, y, theta.replace_free(x))

    hess = numeric_hessian(clik_at, theta.free_values)
    jac = np.empty((2, 2))
    for b, name in enumerate(theta.free_names):
        h = 1e-5 * max(1, abs(theta[name]))
        up = comp.composite_score(spec, model, y,
                                  theta.with_values(**{name: theta[name] + h}))
        dn = comp.composite_score(spec, model, y,
                                  theta.with_values(**{name: theta[name] - h}))
        jac[:, b] = (up - dn) / (2 * h)
    np.testing.assert_allclose(hess, jac, rtol=1e-4, atol=1e-6)


def test_numeric_hessian_propagates_domain_errors():
    model = Multinomial4(5.0)
    theta = model.params(0.4545)

    def loglik_at(x):
        return model.loglik(np.array([1.0, 0, 0]), theta.replace_free(x))

    with pytest.raises(DomainError):
        numeric_hessian(loglik_at, theta.free_values, h=1e-3)


# -- paradox diagnostics ------------------------------------------------------------


def test_paradox_diagnostics_match_covariance_formula():
    model = EMVN(3)
    spec = comp.pairwise(3)
    theta = model.params(rho=0.5, sigma2=1.0)
    rep = mc.paradox_covariance_diagnostics(spec, model, theta, n=500,
                                            replicates=1000, seed=47)
    target = asy.pairwise_rho_sigma_acov(3, 0.5, 1.0)
    assert abs(rep.ncov_joint - target) < 3 * rep.ncov_joint_se
    assert rep.interest == "rho" and rep.nuisance == "sigma2"
    # at rho = 0.5 the jointly estimated pair is plainly correlated
    assert not rep.joint_uncorrelated
    assert not rep.reversal_condition


def test_paradox_diagnostics_at_independence():
    model = EMVN(3)
    spec = comp.pairwise(3)
    theta = model.params(rho=0.0, sigma2=1.0)
    rep = mc.paradox_covariance_diagnostics(spec, model, theta, n=500,
                                            replicates=1000, seed=53)
    assert abs(rep.ncov_joint) < 3 * rep.ncov_joint_se
    assert rep.joint_uncorrelated


def test_paradox_diagnostics_needs_two_parameters():
    model = Multinomial4(5.0)
    with pytest.raises(ValueError):
        mc.paradox_covariance_diagnostics(comp.pairwise(3), model,
                                          model.params(0.2))
