"""The batched replicate engine against one solve and one ``fit`` per
replicate.

Every run is solved once per chunk from stacked per-dataset statistics,
by a registered fast path or by lockstep Newton.  The engine reads each
replicate's statistic from its noise (``NoiseMap.statistic``), so its
estimates, convergence flags and score norms must equal, bit for bit,
the run's solve of that replicate's noise statistic alone; against
``fit`` on each replicate's rows the flags must be identical and the
estimates equal to rounding (``oracles.ROW_ROUTE_RTOL``), and bit for
bit for Multinomial4, whose noise is its rows.  The Newton statistic
must give the summed composite score exactly as the rows do.
"""

import csv
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import clik.composite as comp
import clik.estimators as est
import clik.montecarlo as mc
from clik.errors import (DomainError, FailureBudgetExceeded, NoRootInDomain,
                         SingularMatrix)
from clik.models import EMVN, Multinomial4, TriNormal, substream
from oracles import (assert_near_row_route, noise_statistic,
                     parent_estimates_csv)
from test_sensitivity_identity import cases

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def per_replicate(config, run, lo, hi):
    """(estimates, converged, score_norm) from one ``fit`` call per
    replicate; the score norm is NaN where ``fit`` raised."""
    names = config.free_names(run)
    rows, flags, norms = [], [], []
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
        norms.append(np.nan if res is None else res.score_norm)
    return (np.array(rows, dtype=float), np.array(flags, dtype=bool),
            np.array(norms))


def per_replicate_noise(config, run, lo, hi):
    """(estimates, converged, score_norm) from the run's solve of each
    replicate's noise statistic (``oracles.noise_statistic``) alone."""
    solve = est.batch_route(config.model, run.spec, config.theta_true,
                            run.fixed_dict)
    return tuple(np.concatenate(parts) for parts in zip(*(
        solve(noise_statistic(config, r)).columns() for r in range(lo, hi))))


def assert_engine_matches_fits(config, lo, hi, fast=True):
    chunk = mc._run_chunk(config, lo, hi)
    exact = isinstance(config.model, Multinomial4)
    for run in config.runs:
        match = est.registered_closed_form(config.model, run.spec,
                                           config.theta_true, run.fixed_dict)
        assert (match is not None) == fast
        got, ok, norm = chunk[run.label]
        assert norm.shape == (hi - lo,)
        for g, w in zip(chunk[run.label],
                        per_replicate_noise(config, run, lo, hi)):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        want, want_ok, want_norm = per_replicate(config, run, lo, hi)
        assert_near_row_route((got, ok), (want, want_ok), exact)
        if exact:
            # the score norm each solve reports is the one fit reports
            returned = ~np.isnan(want_norm)
            assert norm[returned].tobytes() == want_norm[returned].tobytes()


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
    assert_engine_matches_fits(config, *span(lo, size), fast=False)


@SETTINGS
@given(k=st.floats(0.5, 20.0), u=st.floats(0.02, 0.98), n=st.integers(10, 60),
       seed=st.integers(0, 2**32 - 1), lo=st.integers(0, 99),
       size=st.integers(1, 30))
def test_multinomial_engine_bit_identical(k, u, n, seed, lo, size):
    model = Multinomial4(k)
    theta = model.params(u * model.theta_max)
    runs = [mc.SpecRun(comp.full_likelihood(3))]
    config = mc.SimConfig(model, theta, runs, n=n, replicates=100, seed=seed)
    assert_engine_matches_fits(config, *span(lo, size), fast=False)


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
    spec = comp.pairwise(p)
    fixed = {"sigma2": 1.0} if name.endswith("known_sigma") else {}
    entry, known = est.registered_closed_form(model, spec, theta, fixed)
    assert entry is est.ESTIMATORS[name]
    estimates, converged, score_norm = entry.solve(
        np.array([model.statistic(Y) for Y in data]), known)
    assert not converged[where]
    assert np.isnan(estimates[where]).all()
    for i, Y in enumerate(data):
        if i == where:
            with pytest.raises(NoRootInDomain):
                est.fit(spec, model, Y, theta, fixed)
            continue
        res = est.fit(spec, model, Y, theta, fixed)
        assert converged[i]
        values = [res.params[n] for n in entry.free]
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


@pytest.mark.parametrize("make_spec", [comp.pairwise, comp.full_conditional,
                                       comp.chain, comp.full_likelihood])
def test_newton_engine_three_free_trinormal(make_spec):
    # mu, rho and sigma2 all free: no fast path, Newton in three dimensions
    model = TriNormal()
    config = mc.SimConfig(model, model.params(mu=0.4, rho=-0.3, sigma2=1.7),
                          (mc.SpecRun(make_spec(3)),), n=100, replicates=100,
                          seed=29)
    assert config.free_names(config.runs[0]) == ("mu", "rho", "sigma2")
    assert_engine_matches_fits(config, 0, 40, fast=False)


def run_outcome(config, threads):
    """The bytes of every run's estimates and flags, or the message of
    the failure budget the study exceeded."""
    try:
        result = mc.run(config, threads=threads)
    except FailureBudgetExceeded as exc:
        return str(exc)
    return [(result.estimates[label].tobytes(),
             result.converged[label].tobytes()) for label in result.labels()]


def assert_bit_identical_across_worker_counts(config):
    serial = run_outcome(config, 1)
    for threads in (2, 3):
        assert run_outcome(config, threads) == serial


@settings(max_examples=4, deadline=None, derandomize=True)
@given(config=newton_configs(replicates=100))
def test_newton_runs_bit_identical_across_worker_counts(config):
    assert_bit_identical_across_worker_counts(config)


@st.composite
def fast_path_configs(draw):
    """A study whose runs all take a registered fast path: EMVN(3..6)
    pairwise with sigma2 free and known."""
    model = EMVN(draw(st.integers(3, 6)))
    lo = -1.0 / (model.dim - 1)
    theta = model.params(rho=lo + draw(st.floats(0.05, 0.95)) * (1.0 - lo),
                         sigma2=draw(st.floats(0.3, 3.0)))
    spec = comp.pairwise(model.dim)
    runs = [mc.SpecRun(spec), mc.SpecRun(spec, {"sigma2": theta["sigma2"]})]
    return mc.SimConfig(model, theta, runs, n=draw(st.integers(20, 80)),
                        replicates=100, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=4, deadline=None, derandomize=True)
@given(config=fast_path_configs())
def test_fast_path_runs_bit_identical_across_worker_counts(config):
    for run in config.runs:
        assert est.registered_closed_form(config.model, run.spec,
                                          config.theta_true,
                                          run.fixed_dict) is not None
    assert_bit_identical_across_worker_counts(config)


@st.composite
def linear_score_configs(draw):
    """A study whose summed score is linear in its one free parameter, so
    that one scoring step lands on the estimate: the TriNormal means of two
    and three margins, or the Multinomial4 MLE."""
    if draw(st.booleans()):
        model = TriNormal()
        theta = model.params(mu=draw(st.floats(-2.0, 2.0)),
                             rho=draw(st.floats(-0.9, 0.9)),
                             sigma2=draw(st.floats(0.2, 5.0)))
        fixed = {"rho": theta["rho"], "sigma2": theta["sigma2"]}
        runs = [mc.SpecRun(comp.singleton_margins([0, 1]), fixed, "mu12"),
                mc.SpecRun(comp.singleton_margins([0, 1, 2]), fixed, "mu123")]
    else:
        model = Multinomial4(draw(st.floats(0.5, 20.0)))
        theta = model.params(draw(st.floats(0.05, 0.95)) * model.theta_max)
        runs = [mc.SpecRun(comp.full_likelihood(3))]
    return mc.SimConfig(model, theta, runs, n=draw(st.integers(20, 80)),
                        replicates=100, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=4, deadline=None, derandomize=True)
@given(config=linear_score_configs())
def test_linear_score_runs_bit_identical_across_worker_counts(config):
    for run in config.runs:
        assert est.registered_closed_form(config.model, run.spec,
                                          config.theta_true,
                                          run.fixed_dict) is None
    assert_bit_identical_across_worker_counts(config)


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



# ---------------------------------------------------------------------------
# simulate CSVs
# ---------------------------------------------------------------------------


@st.composite
def boundary_configs(draw):
    """EMVN(3..6) pairwise near the lower end of the rho domain with small
    n: with sigma2 known many replicates have no score root (NaN rows)."""
    model = EMVN(draw(st.integers(3, 6)))
    lo = -1.0 / (model.dim - 1)
    theta = model.params(rho=lo + draw(st.floats(0.02, 0.2)) * (1.0 - lo))
    spec = comp.pairwise(model.dim)
    return mc.SimConfig(model, theta, [mc.SpecRun(spec),
                                       mc.SpecRun(spec, {"sigma2": 1.0})],
                        n=draw(st.integers(10, 20)), replicates=100,
                        seed=draw(st.integers(0, 2**32 - 1)))


def same_bits(a, b):
    """Equal bit for bit, NaN compared by position (a NaN read back from
    text has no sign)."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def read_estimates(path, result):
    """label -> (estimates, converged) as read back from the CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for label in result.labels():
        names = result.param_names(label)
        est_ = np.full((result.config.replicates, len(names)), -1.0)
        conv = np.zeros(result.config.replicates, dtype=bool)
        for r in rows:
            if r["spec"] == label:
                i = int(r["replicate"])
                est_[i, names.index(r["param"])] = float(r["estimate"])
                conv[i] = {"True": True, "False": False}[r["converged"]]
        out[label] = est_, conv
    return out


@settings(max_examples=12, deadline=None, derandomize=True)
@given(config=st.one_of(fast_path_configs(), newton_configs(),
                        boundary_configs()))
def test_simulate_csvs_round_trip_bit_exactly(config):
    # the replicates of one chunk, failures kept whatever the budget says
    result = mc.SimResult(config)
    for label, (estimates, converged, _) in mc._run_chunk(
            config, 0, config.replicates).items():
        result.estimates[label] = estimates
        result.converged[label] = converged
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        est_path = os.path.join(tmp, "est.csv")
        sum_path = os.path.join(tmp, "sum.csv")
        result.write_estimates_csv(est_path)
        result.write_summary_csv(sum_path)
        back = read_estimates(est_path, result)
        with open(sum_path, newline="") as fh:
            summary = list(csv.DictReader(fh))
        for label in result.labels():
            got, conv = back[label]
            assert same_bits(got, result.estimates[label])
            assert conv.tobytes() == result.converged[label].tobytes()

            rows = [r for r in summary if r["spec"] == label]
            assert [r["param"] for r in rows] == list(result.param_names(label))
            got = np.array([[float(r[k]) for k in ("mean", "n_var", "std_err")]
                            for r in rows])
            want = np.column_stack([result.mean(label),
                                    np.diag(result.ncov(label)),
                                    np.diag(result.ncov_se(label))])
            assert same_bits(got, want)
            assert {int(r["failures"]) for r in rows} == {result.failures(label)}


#: Label text: plain letters, the characters the csv module quotes or
#: escapes (comma, quote, CR, LF), a space, non-ASCII text and any other
#: character but a lone surrogate, which no UTF-8 file holds.
LABEL_TEXT = st.text(st.sampled_from(list('ab,"\r\n é☃ß'))
                     | st.characters(blacklist_categories=("Cs",)),
                     min_size=1, max_size=8)


@st.composite
def written_results(draw):
    """A SimResult of EMVN(3) pairwise runs under drawn labels, holding
    drawn estimates (NaN, infinities, -0.0 and subnormals among them) and
    drawn convergence flags, as no study gives them."""
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)
    labels = draw(st.lists(LABEL_TEXT, min_size=1, max_size=3, unique=True))
    runs = [mc.SpecRun(comp.pairwise(3), draw(st.sampled_from(
        [{}, {"sigma2": 1.0}])), label) for label in labels]
    config = mc.SimConfig(model, theta, runs, n=50, replicates=100, seed=0)
    result = mc.SimResult(config)
    values = st.one_of(st.floats(width=64),
                       st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                                        0.1, 1e300]))
    for run in config.runs:
        d = len(config.free_names(run))
        result.estimates[run.label] = draw(arrays(np.float64, (100, d),
                                                  elements=values))
        result.converged[run.label] = draw(arrays(np.bool_, 100))
    return result


@settings(max_examples=40, deadline=None, derandomize=True)
@given(result=written_results())
def test_estimates_csv_is_the_csv_writer_file_and_reads_back(result):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        result.write_estimates_csv(got)
        parent_estimates_csv(result, want)
        with open(got, "rb") as fh, open(want, "rb") as oracle:
            assert fh.read() == oracle.read()
        back = read_estimates(got, result)
    for label in result.labels():
        estimates, converged = back[label]
        assert same_bits(estimates, result.estimates[label])
        assert converged.tobytes() == result.converged[label].tobytes()
