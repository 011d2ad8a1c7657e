import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clik.asymptotics as asy
import clik.composite as comp
import clik.estimators as est
import clik.montecarlo as mc
from clik.errors import (ClikError, DomainError, FailureBudgetExceeded,
                         SingularMatrix, UnsupportedSpec)
from clik.models import (EMVN, Model, Multinomial4, NoiseMap, Sampler,
                         TriNormal)
from oracles import (assert_near_row_route, noise_run, numeric_hessian,
                     parent_column_means, parent_draw, parent_pair_stats,
                     parent_run, parent_statistic)


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
    # every parameter fixed leaves nothing to fit
    model = TriNormal()
    theta = model.params(mu=0.0, rho=0.1, sigma2=1.0)
    with pytest.raises(UnsupportedSpec, match="no free parameter"):
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
            np.testing.assert_array_equal(serial.score_norm[label],
                                          parallel.score_norm[label])


def test_a_huge_worker_count_is_bounded_by_the_cores_and_replicates(
        monkeypatch):
    # 10**12 workers passes worker_count; the partition and the pool are
    # bounded by the replicates and the cores, and no process is started
    import concurrent.futures
    pools = []

    class SerialPool:
        """Records ``max_workers`` and maps in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    config = small_config(replicates=100)
    serial = mc.run(config, threads=1)
    parallel = mc.run(config, threads=10 ** 12)
    assert pools == [min(100, os.cpu_count() or 1)]
    for label in serial.labels():
        for field in ("estimates", "converged", "score_norm"):
            assert getattr(parallel, field)[label].tobytes() == \
                getattr(serial, field)[label].tobytes()


_SPECS = {"independence": comp.independence, "pairwise": comp.pairwise,
          "full_conditional": comp.full_conditional,
          "full": comp.full_likelihood}


def study(model, values, tokens, n=100, replicates=250, seed=11):
    """A study with one run per ``spec!fixed...`` token."""
    theta = model.params(**values)
    runs = []
    for token in tokens:
        name, *fixed = token.split("!")
        runs.append(mc.SpecRun(_SPECS[name](model.dim),
                               {f: theta[f] for f in fixed}))
    return mc.SimConfig(model, theta, tuple(runs), n=n,
                        replicates=replicates, seed=seed)


EMVN_RUNS = ("pairwise", "pairwise!sigma2", "full_conditional!sigma2")
PARENT_ROUTE_STUDIES = {
    **{f"emvn{p}": (EMVN(p), {"rho": rho, "sigma2": 1.5}, EMVN_RUNS)
       for p, rho in ((3, -0.3), (4, 0.2), (5, 0.5), (6, -0.1))},
    "trinormal": (TriNormal(), {"mu": 0.4, "rho": 0.5, "sigma2": 2.0},
                  ("independence!rho!sigma2", "pairwise")),
    "multinomial4": (Multinomial4(5.0), {"theta": 0.2}, ("full", "pairwise")),
}


def assert_matches_noise_route(config, result):
    for label, want in noise_run(config).items():
        got = (result.estimates[label], result.converged[label],
               result.score_norm[label])
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def assert_near_parent_route(config, result):
    exact = isinstance(config.model, Multinomial4)
    for label, (est_, ok, _) in parent_run(config).items():
        assert_near_row_route((result.estimates[label],
                               result.converged[label]), (est_, ok), exact)


def one_replicate_tail(case):
    """The study of ``case`` with its last block holding one replicate."""
    config = study(*PARENT_ROUTE_STUDIES[case])
    size = mc._block_size(config)
    replicates = size * -(-mc.MIN_REPLICATES // size) + 1
    return dataclasses.replace(config, replicates=replicates)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("case", list(PARENT_ROUTE_STUDIES))
def test_run_matches_noise_route_bit_for_bit(case, threads):
    # block sampling, block statistics, the block's noise map and the
    # vectorised seeding give the bits of one numpy-seeded draw, one
    # statistic and one map per replicate, a last block of one included
    config = one_replicate_tail(case)
    assert config.replicates % mc._block_size(config) == 1
    assert mc._block_size(config) < config.replicates
    assert_matches_noise_route(config, mc.run(config, threads=threads))


@pytest.mark.parametrize("case", list(PARENT_ROUTE_STUDIES))
def test_run_matches_parent_route_to_rounding(case):
    # the rows built and reduced one replicate at a time: the same flags,
    # estimates within ROW_ROUTE_RTOL; Multinomial4 bit for bit
    config = one_replicate_tail(case)
    assert_near_parent_route(config, mc.run(config, threads=1))


@pytest.mark.parametrize("model, values, tokens", [
    (EMVN(3), {"rho": 0.4, "sigma2": 1.0}, ("pairwise", "pairwise!sigma2")),
    (TriNormal(), {"mu": -0.2, "rho": 0.3, "sigma2": 0.5},
     ("independence!rho!sigma2",)),
])
def test_run_matches_parent_route_at_large_n(model, values, tokens):
    # rows longer than numpy's default 8192-element ufunc buffer, every
    # block one replicate: bit for bit along the noise route, to rounding
    # along the row route
    config = study(model, values, tokens, n=9000, replicates=100, seed=4)
    assert mc._block_size(config) == 1
    result = mc.run(config, threads=1)
    assert_matches_noise_route(config, result)
    assert_near_parent_route(config, result)


_EMVN5, _EMVN9, _TRI, _MULT = EMVN(5), EMVN(9), TriNormal(), Multinomial4(2.0)
#: Gap allowed between what the fit routes read from ``Model.statistic``
#: and the textbook formulas, as a fraction of the largest entry of each
#: compared block: the two round each sum differently.
STATISTIC_RTOL = 1e-13


@pytest.mark.parametrize("name, model, theta", [
    (name, model, theta)
    for model, theta in ((_EMVN5, _EMVN5.params(rho=0.3, sigma2=2.0)),
                         (_EMVN9, _EMVN9.params(rho=-0.1, sigma2=0.7)),
                         (_TRI, _TRI.params(mu=1.0, rho=-0.5, sigma2=3.0)),
                         (_MULT, _MULT.params(0.3)),
                         (_TRI, _TRI.params(mu=1e3, rho=0.2, sigma2=1e-2)))
    for name in ("_pair_stats", "_column_means", "statistic")
    if name != "_pair_stats" or isinstance(model, EMVN)])
@pytest.mark.parametrize("n", [1, 7, 300, 8500])
def test_block_statistics_equal_one_dataset_formulas(name, model, theta, n):
    # ``name`` is the quantity checked against its one-dataset formula: the
    # pairwise sums (n, p, Q, W) and the column means the fast paths read,
    # or the whole statistic that Newton reads
    data = np.stack([parent_draw(model, theta, n, 8, r) for r in range(4)])
    before = data.copy()
    stacked = model.statistic(data)
    p = model.dim
    for Y, row in zip(data, stacked):
        assert Model.statistic(Y).tobytes() == row.tobytes()
        if name == "_column_means":
            # bit for bit, so the TriNormal and Multinomial4 fast estimates
            # keep their bits
            assert row[1:p + 1].tobytes() == parent_column_means(Y).tobytes()
            continue
        if name == "_pair_stats":
            got, want = est._pair_sums(row), parent_pair_stats(Y)
            assert got[:2].tolist() == want[:2].tolist()
            # W sums signed scatter entries: its gap is bounded on Q's scale
            blocks = [(got[2:], want[2:], want[2])]
        else:
            want = parent_statistic(Y)
            blocks = [(row[sl], want[sl], np.abs(want[sl]).max()) for sl in
                      (slice(0, 1), slice(1, p + 1), slice(p + 1, None))]
        for got, want, scale in blocks:
            assert np.abs(got - want).max() <= STATISTIC_RTOL * scale
    assert data.tobytes() == before.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.integers(3, 10), u=st.floats(0.001, 0.999),
       sigma2=st.floats(0.1, 10.0),
       n=st.one_of(st.integers(1, 60), st.integers(61, 8500)),
       seed=st.integers(0, 2**32 - 1))
def test_pair_sums_from_statistic_match_the_rows(p, u, sigma2, n, seed):
    # Q is a sum of nonnegative terms either way.  W = 1'S1 + n (1'ybar)^2
    # sums the signed scatter entries, so its gap is bounded on the scale
    # of Q (W <= p Q); relative to W alone it grows where W << p Q, with
    # rho near -1/(p - 1).
    model = EMVN(p)
    lo = -1.0 / (p - 1)
    theta = model.params(rho=lo + u * (1.0 - lo), sigma2=sigma2)
    Y = parent_draw(model, theta, n, seed, 0)
    got = est._pair_sums(model.statistic(Y)[None])[0]
    want = parent_pair_stats(Y)
    assert got[:2].tolist() == want[:2].tolist()
    assert abs(got[2] - want[2]) <= 1e-13 * want[2]
    assert abs(got[3] - want[3]) <= 1e-13 * want[2]


def test_each_block_is_reduced_once_by_model_statistic(monkeypatch):
    # one fast-path run and one Newton run read the same statistic: the
    # noise is touched by one ``Model.statistic`` call per block, and by no
    # other numpy call; one ``NoiseMap.statistic`` call maps each block's
    # statistic, and no row of the draws is built
    config = study(EMVN(3), {"rho": 0.3, "sigma2": 1.0},
                   ("pairwise", "full_conditional"), n=500, replicates=200)
    size = mc._block_size(config)
    assert -(-config.replicates // size) == 10
    plain = mc.run(config, threads=1)

    touched, calls, mapped = [], [], []

    class Draws(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            touched.append(ufunc.__name__)
            if out is not None:
                kwargs["out"] = tuple(np.asarray(x) for x in out)
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            touched.append(func.__name__)
            return super().__array_function__(func, types, args, kwargs)

    statistic, sampler = Model.statistic, EMVN.sampler
    map_statistic = NoiseMap.statistic

    def counted(Y):
        calls.append(len(Y))
        return statistic(np.asarray(Y))

    def counted_map(self, stats):
        mapped.append(len(stats))
        return map_statistic(self, stats)

    def watched(self, theta):
        draw = sampler(self, theta)
        return Sampler(lambda n, rngs: draw.noise(n, rngs).view(Draws),
                       draw.noise_map)

    def no_rows(self, noise):
        raise AssertionError("the engine built the rows of a block")

    monkeypatch.setattr(Model, "statistic", staticmethod(counted))
    monkeypatch.setattr(NoiseMap, "statistic", counted_map)
    monkeypatch.setattr(NoiseMap, "apply", no_rows)
    monkeypatch.setattr(EMVN, "sampler", watched)
    result = mc.run(config, threads=1)
    assert calls == [size] * 9 + [config.replicates - 9 * size]
    assert mapped == calls
    assert touched == []
    for label in result.labels():
        assert (result.estimates[label].tobytes()
                == plain.estimates[label].tobytes())


def test_score_norm_is_recorded_per_replicate():
    config = study(EMVN(4), {"rho": 0.3, "sigma2": 1.0},
                   ("full_conditional", "pairwise"), replicates=120)
    result = mc.run(config, threads=1)
    for label in result.labels():
        assert result.score_norm[label].shape == (config.replicates,)
    ok = result.converged["full_conditional"]
    assert ok.any()
    newton = result.score_norm["full_conditional"][ok]
    assert np.all(newton < est.NEWTON_TOL_PER_OBS * config.n)


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
    estimates, converged, _ = mc._run_chunk(config, 0, 10)["independence"]
    assert not converged.any()
    assert np.isnan(estimates).all()
    with pytest.raises(FailureBudgetExceeded):
        mc.run(config, threads=1)


def test_small_n_three_free_parameters_all_converge():
    # TriNormal pairwise with mu, rho and sigma2 free at n = 10: every
    # replicate reaches the score root near the truth, although some of
    # these datasets also have a root near rho = -0.2
    model = TriNormal()
    theta = model.params(mu=-2.0, rho=0.9, sigma2=5.0)
    config = mc.SimConfig(model, theta, (mc.SpecRun(comp.pairwise(3)),),
                          n=10, replicates=300, seed=7)
    result = mc.run(config, threads=1)
    assert result.failures("pairwise") == 0
    assert np.all(result.estimates["pairwise"][:, 1] > 0.5)


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


def _batch_means_se(per_batch):
    per_batch = np.asarray(per_batch)
    return per_batch.std(axis=0, ddof=1) / np.sqrt(per_batch.shape[0])


@pytest.mark.parametrize("batches", [10, 20, 33])
def test_ncov_se_is_batch_means_of_batch_covariances(batches, monkeypatch):
    monkeypatch.setattr(mc, "DEFAULT_BATCHES", batches)
    config = small_config(replicates=331)
    result = mc.run(config)
    rows = result.estimates["pairwise"]
    edges = np.linspace(0, rows.shape[0], batches + 1).astype(int)
    per_batch = [config.n * np.cov(rows[a:b].T, ddof=1)
                 for a, b in zip(edges[:-1], edges[1:])]
    np.testing.assert_allclose(result.ncov_se("pairwise"),
                               _batch_means_se(per_batch), rtol=1e-12)


@pytest.mark.parametrize("batches", [10, 20, 33])
def test_cross_ncov_se_is_batch_means_of_batch_covariances(batches,
                                                           monkeypatch):
    monkeypatch.setattr(mc, "DEFAULT_BATCHES", batches)
    config = small_config(replicates=331)
    result = mc.run(config)
    x = result.estimates["pairwise!sigma2"][:, 0]
    y = result.estimates["pairwise"][:, 1]
    edges = np.linspace(0, x.size, batches + 1).astype(int)
    per_batch = [config.n * np.cov(x[a:b], y[a:b], ddof=1)[0, 1]
                 for a, b in zip(edges[:-1], edges[1:])]
    _, se = result.cross_ncov("pairwise!sigma2", 0, "pairwise", 1)
    assert se == pytest.approx(float(_batch_means_se(per_batch)), rel=1e-12)


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
