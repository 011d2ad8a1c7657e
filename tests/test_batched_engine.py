"""The batched replicate engine against one ``fit`` per replicate.

Every run is solved once per chunk from stacked per-dataset statistics,
by a registered fast path or by lockstep Newton; the estimates and
convergence flags must equal, bit for bit, what ``fit`` gives on each
replicate's dataset alone.  The Newton statistic must give the summed
composite score exactly as the rows do.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clik.composite as comp
import clik.estimators as est
import clik.montecarlo as mc
from clik.errors import DomainError, NoRootInDomain, SingularMatrix
from clik.models import EMVN, Multinomial4, TriNormal, substream
from test_sensitivity_identity import cases

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def per_replicate(config, run, lo, hi):
    """(estimates, converged) from one ``fit`` call per replicate."""
    names = config.free_names(run)
    rows, flags = [], []
    for r in range(lo, hi):
        Y = config.model.sample(config.theta_true, config.n,
                                substream(config.seed, r))
        try:
            res = est.fit(run.spec, config.model, Y, config.theta_true,
                          fixed=run.fixed_dict)
        except (NoRootInDomain, DomainError, SingularMatrix):
            res = None
        ok = res is not None and res.converged
        rows.append([res.params[n] for n in names] if ok
                    else [np.nan] * len(names))
        flags.append(ok)
    return np.array(rows, dtype=float), np.array(flags, dtype=bool)


def assert_engine_matches_fits(config, lo, hi, fast=True):
    chunk = mc._run_chunk(config, lo, hi)
    for run in config.runs:
        match = est.registered_closed_form(config.model, run.spec,
                                           config.theta_true, run.fixed_dict)
        assert (match is not None) == fast
        got, ok = chunk[run.label]
        want, want_ok = per_replicate(config, run, lo, hi)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert ok.tobytes() == want_ok.tobytes()


def span(draw_lo, size, replicates=100):
    lo = min(draw_lo, replicates - 1)
    return lo, min(lo + size, replicates)


@SETTINGS
@given(p=st.integers(3, 6), u=st.floats(0.02, 0.98), n=st.integers(10, 60),
       seed=st.integers(0, 2**32 - 1), sigma2_known=st.booleans(),
       lo=st.integers(0, 99), size=st.integers(1, 30))
def test_pairwise_engine_bit_identical(p, u, n, seed, sigma2_known, lo, size):
    model = EMVN(p)
    lower = -1.0 / (p - 1)
    theta = model.params(rho=lower + (1.0 - lower) * u, sigma2=1.3)
    spec = comp.pairwise(p)
    runs = [mc.SpecRun(spec, {"sigma2": 1.3} if sigma2_known else {})]
    config = mc.SimConfig(model, theta, runs, n=n, replicates=100, seed=seed)
    assert_engine_matches_fits(config, *span(lo, size))


@SETTINGS
@given(mu=st.floats(-2.0, 2.0), rho=st.floats(-0.9, 0.9),
       s2=st.floats(0.2, 5.0), n=st.integers(10, 60),
       seed=st.integers(0, 2**32 - 1), lo=st.integers(0, 99),
       size=st.integers(1, 30))
def test_trinormal_engine_bit_identical(mu, rho, s2, n, seed, lo, size):
    model = TriNormal()
    theta = model.params(mu=mu, rho=rho, sigma2=s2)
    fixed = {"rho": rho, "sigma2": s2}
    runs = [mc.SpecRun(comp.singleton_margins([0, 1]), fixed, "mu12"),
            mc.SpecRun(comp.singleton_margins([0, 1, 2]), fixed, "mu123")]
    config = mc.SimConfig(model, theta, runs, n=n, replicates=100, seed=seed)
    assert_engine_matches_fits(config, *span(lo, size))


@SETTINGS
@given(k=st.floats(0.5, 20.0), u=st.floats(0.02, 0.98), n=st.integers(10, 60),
       seed=st.integers(0, 2**32 - 1), lo=st.integers(0, 99),
       size=st.integers(1, 30))
def test_multinomial_engine_bit_identical(k, u, n, seed, lo, size):
    model = Multinomial4(k)
    theta = model.params(u * model.theta_max)
    runs = [mc.SpecRun(comp.full_likelihood(3))]
    config = mc.SimConfig(model, theta, runs, n=n, replicates=100, seed=seed)
    assert_engine_matches_fits(config, *span(lo, size))


def degenerate_dataset(p):
    # perfectly correlated columns: the correlation root sits on the boundary
    base = np.random.default_rng(29).standard_normal(40)
    return np.column_stack([base] * p)


@SETTINGS
@given(p=st.integers(3, 6), rho=st.floats(-0.15, 0.9), others=st.integers(0, 8),
       where=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
       name=st.sampled_from(["emvn_pairwise_rho",
                             "emvn_pairwise_rho_known_sigma"]))
def test_no_root_replicate_inside_a_batch(p, rho, others, where, seed, name):
    model = EMVN(p)
    theta = model.params(rho=rho, sigma2=1.0)
    data = [model.sample(theta, 40, substream(seed, r)) for r in range(others)]
    where = min(where, others)
    data.insert(where, degenerate_dataset(p))
    entry = est.ESTIMATORS[name]
    known = {"sigma2": 1.0}
    estimates, converged, score_norm = entry.solve(
        np.array([entry.statistic(Y) for Y in data]), known)
    assert not converged[where]
    assert np.isnan(estimates[where]).all()
    for i, Y in enumerate(data):
        if i == where:
            with pytest.raises(NoRootInDomain):
                est.closed_form(name, Y, known)
            continue
        res = est.closed_form(name, Y, known)
        assert converged[i]
        values = [res.params[n] for n, _ in entry.free]
        assert np.array(values).tobytes() == estimates[i].tobytes()
        assert res.score_norm == score_norm[i]


# ---------------------------------------------------------------------------
# Newton runs
# ---------------------------------------------------------------------------


@st.composite
def newton_configs(draw, replicates=100):
    """A study whose runs have no fast path: EMVN(3..5) full conditionals
    with sigma2 free or known, TriNormal chain or weighted conditionals
    with one or two free parameters, or Multinomial4 pairwise and
    independence."""
    family = draw(st.sampled_from(["emvn", "trinormal", "multinomial"]))
    n = draw(st.integers(20, 80))
    if family == "emvn":
        model = EMVN(draw(st.integers(3, 5)))
        lo = -1.0 / (model.dim - 1)
        theta = model.params(rho=lo + draw(st.floats(0.1, 0.9)) * (1.0 - lo),
                             sigma2=draw(st.floats(0.3, 3.0)))
        spec = comp.full_conditional(model.dim)
        runs = [mc.SpecRun(spec), mc.SpecRun(spec, {"sigma2": theta["sigma2"]})]
    elif family == "trinormal":
        model = TriNormal()
        theta = model.params(mu=draw(st.floats(-2.0, 2.0)),
                             rho=draw(st.floats(-0.8, 0.8)),
                             sigma2=draw(st.floats(0.3, 3.0)))
        weights = [draw(st.floats(0.2, 3.0)) for _ in range(3)]
        weighted = comp.CompositeSpec("weighted", [
            comp.Component("conditional", (t,), g, w) for (t, g), w in
            zip(((0, (1,)), (1, (0, 2)), (2, (0,))), weights)])
        spec = draw(st.sampled_from([comp.chain(3), weighted]))
        known = draw(st.sampled_from([("rho", "sigma2"), ("sigma2",),
                                      ("rho",)]))
        runs = [mc.SpecRun(spec, {name: theta[name] for name in known})]
    else:
        model = Multinomial4(draw(st.floats(0.5, 10.0)))
        theta = model.params(draw(st.floats(0.1, 0.9)) * model.theta_max)
        runs = [mc.SpecRun(comp.pairwise(3)), mc.SpecRun(comp.independence(3))]
    return mc.SimConfig(model, theta, runs, n=n, replicates=replicates,
                        seed=draw(st.integers(0, 2**32 - 1)))


@SETTINGS
@given(config=newton_configs(), lo=st.integers(0, 99), size=st.integers(1, 30))
def test_newton_engine_bit_identical(config, lo, size):
    assert_engine_matches_fits(config, *span(lo, size), fast=False)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(config=newton_configs(replicates=100))
def test_newton_runs_bit_identical_across_worker_counts(config):
    serial = mc.run(config, threads=1)
    for threads in (2, 3):
        parallel = mc.run(config, threads=threads)
        for label in serial.labels():
            assert (serial.estimates[label].tobytes()
                    == parallel.estimates[label].tobytes())
            assert (serial.converged[label].tobytes()
                    == parallel.converged[label].tobytes())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=cases(), n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_statistic_gives_the_summed_score(case, n, seed):
    model, theta, spec = case
    Y = model.sample(theta, n, seed)
    scores = comp.composite_score(spec, model, Y, theta)
    total = comp.summed_score(spec, model, model.statistic(Y), theta)
    assert total.shape == scores.shape[1:]
    # the row sum itself cancels, so the gap is measured against the
    # largest score it adds up (below 3e-13 of it over 3000 examples)
    assert (np.max(np.abs(total - scores.sum(axis=0)))
            <= 1e-12 * np.max(np.abs(scores)))

