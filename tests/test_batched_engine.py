"""The batched replicate engine against one ``fit`` per replicate.

Runs with a registered fast path are solved once per chunk from stacked
per-dataset statistics; the estimates and convergence flags must equal,
bit for bit, what ``fit`` gives on each replicate's dataset alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clik.composite as comp
import clik.estimators as est
import clik.montecarlo as mc
from clik.errors import NoRootInDomain
from clik.models import EMVN, Multinomial4, TriNormal, substream

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
        except NoRootInDomain:
            rows.append([np.nan] * len(names))
            flags.append(False)
            continue
        rows.append([res.params[n] for n in names])
        flags.append(res.converged)
    return np.array(rows, dtype=float), np.array(flags, dtype=bool)


def assert_engine_matches_fits(config, lo, hi):
    chunk = mc._run_chunk(config, lo, hi)
    for run in config.runs:
        assert est.registered_closed_form(config.model, run.spec,
                                          config.theta_true,
                                          run.fixed_dict) is not None
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
