"""Argument checks raise InvalidArgument, a ClikError that is still a
ValueError, an unknown parameter name raises UnknownParameter, a
ClikError that is still a KeyError, and scores of the wrong length raise
DimensionMismatch.  A point with every parameter known raises
UnsupportedSpec on every information route, before any draw, and a
parameter value that is not finite raises DomainError.  The model, spec,
simulation, information, estimator and asymptotics layers let no other
error escape an odd argument, a wrong type included, and every closed form
returns finite values or raises a ClikError.  (More of ``composite``'s
checks are in ``test_composite.py``.)"""

import dataclasses
import math
import warnings
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import clik.asymptotics as asy
import clik.composite as comp
import clik.matrixops as mo
import clik.montecarlo as mc
import clik.verify as verify
from clik import models
import clik.estimators as est
from clik.errors import (ClikError, DimensionMismatch, DomainError,
                         InvalidArgument, UnknownParameter, UnsupportedSpec)
from clik.models import (EMVN, Model, Multinomial4, ParamBatch, ParamVector,
                         TriNormal, substream)


class NoCovariance(Multinomial4):
    """A model with score forms and a mean but no covariance, so no exact
    information route."""

    _cov = Model._cov


def invalid_arguments():
    """``(id, call)`` for each InvalidArgument raise site of montecarlo,
    asymptotics, matrixops and verify."""
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)
    spec = comp.pairwise(3)
    runs = (mc.SpecRun(spec),)

    def config(**changes):
        args = dict(n=50, replicates=200, seed=1, runs=runs) | changes
        return lambda: mc.SimConfig(model, theta, **args)

    def curve(rows, x_name="rho"):
        return lambda: asy.EfficiencyCurve(x_name, ("ratio",), rows)

    yield "sim-n", config(n=mc.MIN_N - 1)
    yield "sim-replicates", config(replicates=mc.MIN_REPLICATES - 1)
    yield "sim-seed", config(seed=-1)
    yield "sim-labels", config(runs=(mc.SpecRun(spec, label="a"),
                                     mc.SpecRun(spec, label="a")))
    yield "diagnostics-roles", lambda: mc.paradox_covariance_diagnostics(
        spec, model, theta.with_roles(sigma2="interest"))
    yield "curve-shape", curve(np.zeros((3, 3)))
    yield "curve-finite", curve([[0.0, 1.0], [1.0, np.nan]])
    yield "curve-increasing", curve([[1.0, 1.0], [0.0, 1.0]])
    yield "grid-size", lambda: asy.default_grid(0.0, 1.0, 1)
    yield "psd-tol", lambda: mo.is_psd(np.eye(2), -1.0)
    yield "verify-level", lambda: verify._level_params("slow")


def model_invalid_arguments():
    """``(id, call)`` for each InvalidArgument raise site of models, and
    ``info_exact`` on a model without a covariance."""
    model, multi = EMVN(3), Multinomial4(5.0)
    theta = model.params(rho=0.3, sigma2=1.0)
    y = np.zeros(3)

    def point(names=("a", "b"), roles=("interest", "known")):
        return lambda: ParamVector(names, (0.1, 0.2), roles)

    yield "point-lengths", point(roles=("interest",))
    yield "point-duplicates", point(names=("a", "a"))
    yield "point-role", point(roles=("interest", "fixed"))
    yield "seed-negative", lambda: substream(-1)
    yield "index-negative", lambda: substream(1, -1)
    yield "seed-words", lambda: models._SeedWords(
        np.zeros(4, dtype=np.uint64)).generate_state(8)
    yield "generator-index", lambda: substream(substream(1), 0)
    yield "indices-repeated", lambda: model.margin_score((0, 0), y, theta)
    yield "indices-empty", lambda: model.margin_loglik((), y, theta)
    yield "sample-n", lambda: model.sample(theta, 0, 1)
    yield "emvn-p", lambda: EMVN(1)
    yield "multinomial-k", lambda: Multinomial4(0.0)
    yield "indicators", lambda: multi.check_data([0.5, 0.0, 0.0])
    yield "one-indicator", lambda: multi.check_data([1.0, 1.0, 0.0])
    no_cov = NoCovariance(5.0)
    yield "no-exact-route", lambda: comp.info_exact(
        comp.pairwise(3), no_cov, no_cov.params(0.2))
    yield "point-of-another-model", lambda: comp.info_exact(
        comp.pairwise(3), model, TriNormal().params(mu=0.1, rho=0.2))


def composite_invalid_arguments():
    """``(id, call)`` for the InvalidArgument checks of composite on counts
    that are not a number of draws or batches, a repeated interest name and
    a spec entry that is not a Component."""
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)
    spec = comp.pairwise(3)

    def monte_carlo(draws, batches=20, route=comp.info_monte_carlo):
        return lambda: route(spec, model, theta, draws, 1, batches)

    yield "draws-nan", monte_carlo(math.nan)
    yield "draws-inf", monte_carlo(math.inf)
    yield "efficiency-draws-nan", monte_carlo(
        math.nan, route=comp.full_efficiency_check)
    yield "batches-fraction", monte_carlo(2000, 10.5)
    yield "efficiency-batches-fraction", monte_carlo(
        2000, 10.5, route=comp.full_efficiency_check)
    yield "slices-batches-fraction", lambda: comp.batch_slices(2000, 10.5)
    yield "interest-repeated", lambda: comp.partitioned_variance(
        comp.info_exact(spec, model, theta), ["rho", "rho"])
    yield "spec-entry", lambda: comp.CompositeSpec("odd", ["margin"])


def wrong_types():
    """``(id, call)`` for arguments of the wrong type to the model, spec,
    simulation, information and curve layers."""
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)
    spec = comp.pairwise(3)

    def config(**changes):
        args = dict(n=500, replicates=150, seed=1,
                    runs=(mc.SpecRun(spec),)) | changes
        return lambda: mc.SimConfig(model, theta, **args)

    yield "params-string", lambda: model.params("a")
    yield "params-numeric-string", lambda: model.params("0.3")
    yield "params-none", lambda: model.params(0.3, None)
    yield "params-roles", lambda: model.params(0.3, roles=["rho"])
    yield "point-names", lambda: ParamVector((1, 2), (0.1, 0.2),
                                             ("interest", "known"))
    yield "point-values", lambda: ParamVector(("a",), 0.1, ("interest",))
    yield "replace-free", lambda: theta.replace_free(["a", "b"])
    yield "with-values-string", lambda: theta.with_values(rho="x")
    yield "emvn-p-inf", lambda: EMVN(math.inf)
    yield "multinomial-k-string", lambda: Multinomial4("5")
    yield "component-index-string", lambda: comp.Component("margin", ("a",))
    yield "component-index-fraction", lambda: comp.Component("margin",
                                                             (0.5,))
    yield "component-indices-int", lambda: comp.Component("margin", 3)
    yield "component-weight-string", lambda: comp.Component(
        "margin", (0,), weight="a")
    yield "component-weight-inf", lambda: comp.Component(
        "margin", (0,), weight=math.inf)
    yield "spec-none", lambda: comp.CompositeSpec("x", None)
    yield "spec-name", lambda: comp.CompositeSpec(None, spec.components)
    yield "run-spec", lambda: mc.SpecRun("pairwise")
    yield "run-fixed", lambda: mc.SpecRun(spec, {"sigma2": "one"})
    yield "run-fixed-numeric-string", lambda: mc.SpecRun(spec,
                                                         {"sigma2": "1"})
    yield "sim-n-fraction", config(n=500.5)
    yield "sim-replicates-fraction", config(replicates=150.5)
    yield "sim-seed-nan", config(seed=math.nan)
    yield "sim-runs", config(runs=(spec,))
    yield "sim-model", lambda: mc.SimConfig("EMVN", theta, (), 500, 150, 1)
    yield "mc-seed-nan", lambda: comp.info_monte_carlo(
        spec, model, theta, 2000, math.nan)
    yield "mc-seed-string", lambda: comp.info_monte_carlo(
        spec, model, theta, 2000, "1")
    yield "mc-draws-string", lambda: comp.info_monte_carlo(
        spec, model, theta, "2000", 1)
    yield "efficiency-seed-float", lambda: comp.full_efficiency_check(
        spec, model, theta, 2000, 1.5)
    yield "grid-size-fraction", lambda: asy.default_grid(0.0, 1.0, 2.5)
    yield "interest-number", lambda: comp.partitioned_variance(
        comp.info_exact(spec, model, theta), 3)


ARGUMENT_CASES = (invalid_arguments, model_invalid_arguments,
                  composite_invalid_arguments, wrong_types)


@pytest.mark.parametrize(
    "call", [call for cases in ARGUMENT_CASES for _, call in cases()],
    ids=[name for cases in ARGUMENT_CASES for name, _ in cases()])
def test_each_argument_check_raises_a_clik_error(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, ClikError)
    assert isinstance(info.value, ValueError)


def unknown_parameters():
    """``(id, call)`` for each UnknownParameter raise site; a bare string is
    one interest name."""
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)

    def interest(names):
        return lambda: comp.partitioned_variance(
            comp.info_exact(comp.pairwise(3), model, theta), names)

    yield "with_values-1.0", lambda: theta.with_values(tau=1.0)
    yield "with_roles-known", lambda: theta.with_roles(tau="known")
    yield "interest-unknown", interest(["rho", "tau"])
    yield "interest-string", interest("tau")


@pytest.mark.parametrize("call", [call for _, call in unknown_parameters()],
                         ids=[name for name, _ in unknown_parameters()])
def test_unknown_parameter_is_a_clik_key_error(call):
    with pytest.raises(UnknownParameter) as info:
        call()
    assert isinstance(info.value, ClikError)
    assert isinstance(info.value, KeyError)


def odd_argument_calls():
    """``(id, call)``: odd arguments that once escaped as an error that is
    not a ClikError, or gave a value that means nothing."""
    model = EMVN(3)
    theta = model.params(rho=0.3, sigma2=1.0)
    spec = comp.pairwise(3)
    nan, inf = math.nan, math.inf
    config = mc.SimConfig(model, theta, (mc.SpecRun(spec),), 100, 100, 1)

    def projected(base):
        return lambda: comp.projected_info_monte_carlo(spec, model, theta,
                                                       2000, 1, base)

    def efficiency(sigma):
        return lambda: comp.full_efficiency_check(spec, model, theta, 2000,
                                                  1, sigma=sigma)

    def diagnostics(sigma):
        return lambda: mc.paradox_covariance_diagnostics(
            spec, model, theta, 100, 100, 1, sigma=sigma)

    yield "avar-known-rho-nan", lambda: asy.avar_rho_known_sigma(3, nan)
    yield "avar-free-rho-nan", lambda: asy.avar_rho_free_sigma(3, [0.1, nan])
    yield "acov-sigma2-nan", lambda: asy.pairwise_rho_sigma_acov(3, 0.1, nan)
    yield "acov-sigma2-inf", lambda: asy.pairwise_rho_sigma_acov(3, 0.1, inf)
    yield "two-block-sigma2-nan", lambda: asy.two_block_mean_variances(nan,
                                                                       0.1)
    yield "two-block-sigma2-inf", lambda: asy.two_block_mean_variances(inf,
                                                                       0.1)
    yield "threshold-nan", lambda: asy.two_block_threshold(nan)
    yield "grid-lo-nan", lambda: asy.default_grid(nan, 1, 5)
    yield "grid-margin-nan", lambda: asy.default_grid(0, 1, 5, margin=nan)
    yield "grid-margin-wide", lambda: asy.default_grid(0, 1, 5, margin=2)
    yield "avar-p-inf", lambda: asy.avar_rho_known_sigma(inf, 0.1)
    yield "avar-p-nan", lambda: asy.avar_rho_known_sigma(nan, 0.1)
    yield "avar-rho-string", lambda: asy.avar_rho_known_sigma(3, "a")
    yield "avar-rho-complex", lambda: asy.avar_rho_known_sigma(3, 0.1 + 1j)
    yield "acov-sigma2-string", lambda: asy.pairwise_rho_sigma_acov(3, 0.1,
                                                                     "a")
    yield "threshold-string", lambda: asy.two_block_threshold("a")
    yield "ratio-curve-p-string", lambda: asy.pairwise_ratio_curve("3")
    yield "ratio-curve-p-float", lambda: asy.pairwise_ratio_curve(3.0)
    yield "fc-curve-p-float", lambda: asy.full_conditional_ratio_curve(3.0)
    yield "fc-grid-p-string", lambda: asy.full_conditional_grid("3", 5)
    yield "multinomial-theta-string", lambda: asy.multinomial_info_scalars(
        "a", 5)
    yield "multinomial-k-string", lambda: asy.multinomial_info_scalars(0.1,
                                                                       "5")
    yield "curve-rows-string", lambda: asy.EfficiencyCurve("x", ("y",), "ab")
    yield "curve-names-int", lambda: asy.EfficiencyCurve("x", 5,
                                                         [[0.0, 1.0]])
    yield "pairwise-p-string", lambda: comp.pairwise("3")
    yield "pairwise-p-fraction", lambda: comp.pairwise(2.5)
    yield "chain-p-string", lambda: comp.chain("3")
    yield "chain-subset-above", lambda: comp.chain(3, [5])
    yield "chain-subset-negative", lambda: comp.chain(3, [-1])
    yield "singletons-string", lambda: comp.singleton_margins("ab")
    yield "singletons-fraction", lambda: comp.singleton_margins([1.5])
    yield "project-string", lambda: comp.project_score(
        comp.info_exact(spec, model, theta), "abc")
    yield "projected-stacked-base", projected(
        comp.info_monte_carlo(spec, model, theta, 2000, 5).batches)
    tri = TriNormal()
    yield "projected-trinormal-base", projected(comp.info_exact(
        spec, tri, tri.params(mu=0.2, rho=0.4, sigma2=2.0)))
    for sigma in ("x", nan, 0.0, -1.0):
        yield f"efficiency-sigma-{sigma}", efficiency(sigma)
        yield f"diagnostics-sigma-{sigma}", diagnostics(sigma)
    yield "run-threads-string", lambda: mc.run(config, threads="2")
    yield "run-threads-fraction", lambda: mc.run(config, threads=2.5)
    yield "workers-nan", lambda: mc.worker_count(nan)


@pytest.mark.parametrize("call", [call for _, call in odd_argument_calls()],
                         ids=[name for name, _ in odd_argument_calls()])
def test_each_odd_argument_raises_a_clik_error(call, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew before the check")
    monkeypatch.setattr(EMVN, "sampler", refuse)
    with pytest.raises(ClikError):
        call()


@pytest.mark.parametrize("shape", [(), (0,), (3,), (5, 3), (5, 1)],
                         ids=["scalar", "empty", "three", "rows-of-three",
                              "rows-of-one"])
def test_scores_of_another_length_are_a_dimension_mismatch(shape):
    model = EMVN(3)
    triple = comp.info_exact(comp.pairwise(3), model,
                             model.params(rho=0.3, sigma2=1.0))
    with pytest.raises(DimensionMismatch):
        comp.project_score(triple, np.zeros(shape))


# -- a point with nothing free; values that are not finite --------------------


def all_known_routes():
    """``(id, route)``: each information route as a call of a model and a
    point."""
    spec = comp.pairwise(3)

    def project(model, theta):
        base = comp.info_exact(spec, model, theta.with_roles(
            **{theta.names[0]: "interest"}))
        return comp.projected_info_monte_carlo(spec, model, theta, 2000, 1,
                                               base)

    yield "exact", lambda model, theta: comp.info_exact(spec, model, theta)
    yield "score-fd", lambda model, theta: comp.composite_score_fd(
        spec, model, np.zeros(3), theta)
    yield "monte-carlo", lambda model, theta: comp.info_monte_carlo(
        spec, model, theta, 2000, 1)
    yield "projected", project
    yield "efficiency", lambda model, theta: comp.full_efficiency_check(
        spec, model, theta, 2000, 1)


@pytest.mark.parametrize("model", [EMVN(3), TriNormal(), Multinomial4(5.0)],
                         ids=["emvn", "trinormal", "multinomial"])
@pytest.mark.parametrize("route", [r for _, r in all_known_routes()],
                         ids=[name for name, _ in all_known_routes()])
def test_a_point_with_nothing_free_is_unsupported_before_any_draw(
        model, route, monkeypatch):
    values = {"rho": 0.3, "sigma2": 1.5, "mu": 0.2, "theta": 0.2}
    theta = model.params(*[values[name] for name in model.param_names],
                         roles={name: "known" for name in model.param_names})

    def refuse(*args, **kwargs):
        raise AssertionError("drew before the check")
    monkeypatch.setattr(model, "sampler", refuse)
    monkeypatch.setattr(model, "sample", refuse)
    with pytest.raises(UnsupportedSpec):
        route(model, theta)


def non_finite_points():
    """``(id, model, values)``: one parameter of each model infinite, and
    the unbounded TriNormal ``mu`` NaN (a bounded NaN never passed)."""
    yield "trinormal-mu-nan", TriNormal(), (math.nan, 0.2, 1.5)
    for value in (math.inf, -math.inf):
        yield f"emvn-rho-{value}", EMVN(3), (value, 1.0)
        yield f"emvn-sigma2-{value}", EMVN(3), (0.3, value)
        yield f"trinormal-mu-{value}", TriNormal(), (value, 0.2, 1.5)
        yield f"multinomial-theta-{value}", Multinomial4(5.0), (value,)


@pytest.mark.parametrize("model, values",
                         [case[1:] for case in non_finite_points()],
                         ids=[case[0] for case in non_finite_points()])
def test_a_value_that_is_not_finite_is_a_domain_error(model, values):
    with pytest.raises(DomainError):
        model.params(*values)
    theta = ParamVector(model.param_names, values,
                        ("nuisance",) * len(values))
    assert not model.interior(theta)
    with pytest.raises(DomainError):
        comp.info_exact(comp.pairwise(3), model, theta)
    # validate and interior agree point by point, so Newton flags such a
    # trial row as outside and evaluates the others
    good = ParamVector(model.param_names,
                       model.params(*[0.2] * len(values)).values,
                       theta.roles)
    batch = ParamBatch.stack([good, theta, good])
    np.testing.assert_array_equal(model.interior(batch), [True, False, True])
    with pytest.raises(DomainError):
        model.validate(batch)
    stats = np.stack([Model.statistic(np.eye(3))] * 3)
    score, H, outside, _ = est._evaluate(comp.pairwise(3), model, stats,
                                         batch)
    np.testing.assert_array_equal(outside, [False, True, False])
    assert np.all(np.isnan(score[1])) and np.all(np.isfinite(score[[0, 2]]))


def non_finite_data_fits():
    """``(id, model, spec, theta)``: the fits that once failed the wrong
    way on data that is not finite (NoRootInDomain, DomainError at the
    start point, or a RuntimeWarning from the statistic)."""
    emvn, tri = EMVN(3), TriNormal()
    emvn_theta = emvn.params(rho=0.3, sigma2=1.0)
    tri_theta = tri.params(mu=0.1, rho=0.2)
    yield "emvn-pairwise", emvn, comp.pairwise(3), emvn_theta
    yield "emvn-full-conditional", emvn, comp.full_conditional(3), emvn_theta
    yield "trinormal-pairwise", tri, comp.pairwise(3), tri_theta


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("model, spec, theta",
                         [case[1:] for case in non_finite_data_fits()],
                         ids=[case[0] for case in non_finite_data_fits()])
def test_data_that_is_not_finite_is_an_invalid_argument(model, spec, theta,
                                                        bad):
    # one bad entry names its row; a dataset of bad rows names the first
    Y = model.sample(theta, 50, 3)
    Y[7, 1] = bad
    for data, row in ((Y, 7), (np.full((50, model.dim), bad), 0)):
        with pytest.raises(InvalidArgument, match=f"data row {row} "):
            est.fit(spec, model, data, theta)


# -- odd arguments to the model, spec, simulation and information layers -------


#: Specs within and beyond the coordinates of a three-coordinate model.
SPECS = [comp.pairwise(3), comp.pairwise(4), comp.full_conditional(3),
         comp.CompositeSpec("beyond", [comp.Component("margin", (0, 3))])]


@st.composite
def odd_points(draw, model=None):
    """A point of ``model`` (mostly) or of EMVN(3), TriNormal or
    Multinomial4(5), some of its values possibly NaN or infinite and some
    or all of its parameters known."""
    choices = [EMVN(3), TriNormal(), Multinomial4(5.0)]
    if model is not None:
        choices = [model] * 3 + choices
    model = draw(st.sampled_from(choices))
    base = {"rho": 0.3, "sigma2": 1.5, "mu": 0.2, "theta": 0.2}
    values = [draw(st.sampled_from([base[name]] * 3
                                   + [math.nan, math.inf, -math.inf]))
              for name in model.param_names]
    known = draw(st.lists(st.sampled_from(model.param_names), unique=True))
    roles = ["known" if name in known else "nuisance"
             for name in model.param_names]
    return ParamVector(model.param_names, values, roles)


#: Counts of draws or batches: too few, fractional, NaN or infinite.
COUNTS = st.one_of(st.integers(-5, 30), st.integers(990, 2500),
                   st.floats(990, 2500), st.floats(5, 30),
                   st.sampled_from([math.nan, math.inf, -math.inf]))
NAMES = st.sampled_from(["rho", "sigma2", "mu", "tau", ""])
#: Arguments of the wrong type, or of the right type and an odd value.
ODD = st.one_of(st.floats(), st.integers(-3, 6), st.text(max_size=2),
                st.none(), st.lists(st.integers(-1, 3), max_size=2))
SEEDS = st.one_of(st.integers(0, 9), ODD)
MODELS = st.sampled_from([EMVN(3), EMVN(4), TriNormal(), Multinomial4(5.0)])


def point_of(family, arg, values, roles):
    """``family(arg).params(*values, roles=roles)``."""
    return family(arg).params(*values, roles=roles)


#: Arguments of the closed forms: in and out of their domains, not finite,
#: beyond what a float holds exactly or at all, or of the wrong type.
DIMS = st.one_of(st.integers(2, 8), ODD, st.sampled_from(
    [2 ** 53, 2 ** 53 + 1, 10 ** 400, 3.0, 3.5, math.nan, math.inf]))
REALS = st.one_of(st.floats(-1.0, 1.0), st.floats(0.0, 10.0), st.floats(),
                  ODD, st.complex_numbers(max_magnitude=1.0),
                  st.sampled_from([10 ** 400, 5e-324, 1e308]))
GRIDS = st.one_of(st.none(), REALS,
                  st.lists(st.one_of(st.floats(-1.0, 1.0), REALS),
                           max_size=4))
#: Grid sizes stay small: a grid that is built is a small one.
SIZES = st.one_of(st.integers(-2, 30), ODD)
CLOSED_FORMS = {
    asy.avar_rho_known_sigma: (DIMS, GRIDS),
    asy.avar_rho_free_sigma: (DIMS, GRIDS),
    asy.pairwise_rho_sigma_acov: (DIMS, GRIDS, GRIDS),
    asy.two_block_mean_variances: (REALS, REALS),
    asy.two_block_threshold: (REALS,),
    asy.multinomial_info_scalars: (REALS, REALS),
    asy.pairwise_ratio_curve: (DIMS, GRIDS),
    asy.full_conditional_grid: (DIMS, SIZES),
    asy.default_grid: (REALS, REALS, SIZES, REALS),
    asy.multinomial_variance_curves: (REALS, GRIDS),
}


@st.composite
def closed_form_calls(draw):
    """One call, as a ``functools.partial``, of a closed form of
    ``clik.asymptotics`` or one of its grids with arguments that may not
    fit."""
    form = draw(st.sampled_from(list(CLOSED_FORMS)))
    return partial(form, *[draw(arg) for arg in CLOSED_FORMS[form]])


@st.composite
def odd_calls(draw):
    """One call, as a ``functools.partial``, of a model's ``params``,
    ``Component``, ``CompositeSpec``, a spec builder, ``SimConfig``,
    ``worker_count``, ``info_exact``, ``composite_score_fd``,
    ``info_monte_carlo``, ``projected_info_monte_carlo``,
    ``full_efficiency_check``, ``paradox_covariance_diagnostics``,
    ``partitioned_variance``, ``project_score``, a closed form or
    ``EfficiencyCurve`` with arguments that may not fit: model arguments,
    parameter values, roles, indices, weights, counts and seeds of the
    wrong type or an odd value, a spec reading coordinates the model lacks
    or entries that are not Components, a point of another model, with
    values that are not finite or with nothing free, unknown, repeated or
    no interest names, scores of any shape or not numbers, a projection
    base that is a stack, of another model or not a triple, a verdict
    threshold that is not a positive number."""
    kind = draw(st.sampled_from(["model", "component", "spec", "builder",
                                 "simulation", "workers", "exact",
                                 "score-fd", "monte-carlo", "projected",
                                 "efficiency", "sigma", "interest",
                                 "project", "asymptotics", "curve"]))
    if kind == "model":
        family, size = draw(st.sampled_from([(EMVN, 2), (TriNormal, 3),
                                             (Multinomial4, 1)]))
        values = draw(st.lists(st.one_of(st.floats(0.05, 0.5), ODD),
                               min_size=size, max_size=size))
        roles = draw(st.one_of(st.none(), ODD, st.dictionaries(
            NAMES, st.one_of(st.sampled_from(["known", "nuisance"]), ODD))))
        if family is TriNormal:
            return partial(TriNormal().params, *values, roles=roles)
        arg = draw(st.one_of(st.just(3 if family is EMVN else 5.0), ODD))
        return partial(point_of, family, arg, values, roles)
    if kind == "component":
        return partial(comp.Component,
                       draw(st.sampled_from(["margin", "conditional", "x"])),
                       draw(st.one_of(ODD, st.lists(ODD, max_size=2))),
                       draw(st.one_of(st.just(()), st.lists(ODD, max_size=2))),
                       draw(st.one_of(st.just(1.0), ODD)))
    if kind == "spec":
        entries = draw(st.lists(st.one_of(
            st.sampled_from(SPECS[-1].components), st.text(max_size=2),
            st.none(), st.integers()), max_size=3))
        return partial(comp.CompositeSpec,
                       draw(st.one_of(st.just("odd"), ODD)),
                       draw(st.one_of(st.just(entries), ODD)))
    if kind == "builder":
        builder = draw(st.sampled_from([
            comp.independence, comp.pairwise, comp.full_conditional,
            comp.chain, comp.full_likelihood, comp.singleton_margins]))
        args = [draw(st.one_of(st.integers(-2, 6), ODD))]
        if builder is comp.chain:
            args.append(draw(st.one_of(st.none(), ODD, st.lists(
                st.one_of(st.integers(-2, 6), ODD), max_size=3))))
        return partial(builder, *args)
    if kind == "workers":
        return partial(mc.worker_count,
                       draw(st.one_of(st.none(), st.integers(-3, 4), ODD)))
    if kind == "asymptotics":
        return draw(closed_form_calls())
    if kind == "curve":
        return partial(asy.EfficiencyCurve, draw(st.one_of(NAMES, ODD)),
                       draw(st.one_of(st.just(("ratio",)), ODD,
                                      st.lists(NAMES, max_size=2))),
                       draw(st.one_of(GRIDS, st.lists(GRIDS, max_size=3))))
    if kind == "sigma":
        sigma = draw(st.one_of(ODD, st.sampled_from(
            [math.nan, math.inf, 0.0, -1.0, 2.0])))
        if draw(st.booleans()):
            return partial(comp.full_efficiency_check, SPECS[0], EMVN(3),
                           EMVN(3).params(rho=0.3), 2000, 1, sigma=sigma)
        return partial(mc.paradox_covariance_diagnostics, SPECS[0], EMVN(3),
                       EMVN(3).params(rho=0.3), mc.MIN_N, mc.MIN_REPLICATES,
                       1, sigma=sigma)
    if kind == "simulation":
        runs = draw(st.one_of(
            st.just((mc.SpecRun(SPECS[0]),)), st.just(()), ODD,
            st.lists(st.sampled_from([SPECS[0], "pairwise"]), max_size=2)))
        model = draw(MODELS)
        return partial(mc.SimConfig, model, draw(odd_points(model)), runs,
                       draw(st.one_of(st.just(500), COUNTS, ODD)),
                       draw(st.one_of(st.just(150), COUNTS, ODD)),
                       draw(SEEDS))
    if kind in ("exact", "score-fd", "monte-carlo", "projected",
                "efficiency"):
        model = draw(MODELS)
        args = (draw(st.sampled_from(SPECS)), model, draw(odd_points(model)))
        if kind == "projected":
            return partial(comp.projected_info_monte_carlo, *args,
                           draw(COUNTS), draw(SEEDS),
                           draw(st.one_of(st.sampled_from(triples()), ODD)),
                           draw(COUNTS))
        if kind == "exact":
            return partial(comp.info_exact, *args)
        if kind == "score-fd":
            return partial(comp.composite_score_fd, args[0], args[1],
                           np.zeros(3), args[2])
        route = (comp.info_monte_carlo if kind == "monte-carlo"
                 else comp.full_efficiency_check)
        return partial(route, *args, draw(COUNTS), draw(SEEDS), draw(COUNTS))
    triple = draw(st.sampled_from(triples()))
    if kind == "interest":
        return partial(comp.partitioned_variance, triple,
                       draw(st.one_of(NAMES, st.lists(NAMES, max_size=3))))
    return partial(comp.project_score, triple, draw(st.one_of(
        hnp.arrays(float, hnp.array_shapes(
            min_dims=0, max_dims=3, min_side=0, max_side=4),
            elements=st.one_of(st.floats(-1e6, 1e6), st.just(math.nan))),
        ODD, st.complex_numbers(), st.lists(st.one_of(
            st.floats(), st.text(max_size=1)), max_size=4))))


@cache
def triples():
    """A point triple of EMVN(3) and of TriNormal, and a stack."""
    emvn, tri = EMVN(3), TriNormal()
    theta = emvn.params(rho=0.3, sigma2=1.5)
    mc_triple = comp.info_monte_carlo(comp.pairwise(3), emvn, theta, 2000, 5)
    return (comp.info_exact(comp.pairwise(3), emvn, theta), mc_triple.batches,
            comp.info_exact(comp.pairwise(3), tri,
                            tri.params(mu=0.2, rho=0.4, sigma2=2.0)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(call=odd_calls())
def test_odd_arguments_raise_only_clik_errors(call):
    try:
        call()
    except ClikError:
        pass


def all_finite(value) -> bool:
    """Whether every number of a closed form's value is finite."""
    if isinstance(value, asy.MultinomialInfo):
        value = dataclasses.astuple(value)
    if isinstance(value, asy.EfficiencyCurve):
        value = value.rows
    return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(call=closed_form_calls())
def test_closed_forms_give_finite_values_or_clik_errors(call):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = call()
    except ClikError:
        return
    assert all_finite(value), call


# -- odd arguments to the estimator layer ---------------------------------------

SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
#: Data of any shape, of numbers that may not be finite, of integers,
#: booleans or complex numbers, of objects that are not numbers, or not an
#: array at all.
ODD_DATA = st.one_of(
    hnp.arrays(float, SHAPES, elements=st.one_of(
        st.floats(-3, 3), st.sampled_from([math.nan, math.inf]))),
    hnp.arrays(int, SHAPES, elements=st.integers(-2, 2)),
    hnp.arrays(bool, SHAPES),
    hnp.arrays(complex, SHAPES,
               elements=st.complex_numbers(max_magnitude=3)),
    hnp.arrays(object, SHAPES, elements=st.one_of(
        st.text(max_size=1), st.none(), st.floats(-1, 1))),
    ODD, st.lists(st.lists(st.one_of(st.floats(), st.text(max_size=1)),
                           max_size=4), max_size=3))
#: ``fixed`` arguments: none, empty, of the wrong type, or mappings with
#: odd names and values.
ODD_FIXED = st.one_of(
    st.none(), st.just({}), ODD,
    st.dictionaries(st.one_of(NAMES, st.integers(-1, 2), st.none()),
                    st.one_of(st.floats(), st.text(max_size=2), st.none()),
                    max_size=2))


@st.composite
def odd_fit_calls(draw):
    """One call of ``fit`` on a dataset of the model or on odd data, or of
    the solve that ``batch_route`` returns on statistics of any shape,
    with a ``theta_like`` of the model, of another model or of the wrong
    type, and an odd ``fixed``."""
    model = draw(MODELS)
    spec = draw(st.sampled_from(SPECS))
    theta_like = draw(st.one_of(odd_points(model), ODD))
    fixed = draw(ODD_FIXED)
    if draw(st.booleans()):
        data = draw(st.one_of(st.just(None), ODD_DATA))
        if data is None:
            base = {"rho": 0.3, "sigma2": 1.5, "mu": 0.2, "theta": 0.2}
            data = model.sample(model.params(
                *[base[name] for name in model.param_names]), 40, 1)
        return partial(est.fit, spec, model, data, theta_like, fixed)
    stats = draw(st.one_of(
        hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3,
                                           min_side=0, max_side=14),
                   elements=st.floats(-3, 3)), ODD_DATA))
    return lambda: est.batch_route(model, spec, theta_like, fixed)(stats)


def overflowing_statistics():
    """A solve on statistics holding an integer beyond the float range,
    whose conversion to float overflows."""
    model = EMVN(3)
    solve = est.batch_route(model, comp.pairwise(3), model.params(rho=0.3))
    return solve([[10 ** 400] + [0.0] * 12])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(call=odd_fit_calls())
@example(call=overflowing_statistics)
def test_odd_fit_arguments_raise_only_clik_errors(call):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call()
    except ClikError:
        pass
