"""Argument checks raise InvalidArgument, a ClikError that is still a
ValueError, an unknown parameter name raises UnknownParameter, a
ClikError that is still a KeyError, and scores of the wrong length raise
DimensionMismatch.  The information layer lets no other error escape an
odd argument.  (More of ``composite``'s checks are in
``test_composite.py``.)"""

import math
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import clik.asymptotics as asy
import clik.composite as comp
import clik.matrixops as mo
import clik.montecarlo as mc
import clik.verify as verify
from clik import models
from clik.errors import (ClikError, DimensionMismatch, InvalidArgument,
                         UnknownParameter)
from clik.models import (EMVN, Model, Multinomial4, ParamVector, TriNormal,
                         substream)


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


ARGUMENT_CASES = (invalid_arguments, model_invalid_arguments,
                  composite_invalid_arguments)


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


@pytest.mark.parametrize("shape", [(), (0,), (3,), (5, 3), (5, 1)],
                         ids=["scalar", "empty", "three", "rows-of-three",
                              "rows-of-one"])
def test_scores_of_another_length_are_a_dimension_mismatch(shape):
    model = EMVN(3)
    triple = comp.info_exact(comp.pairwise(3), model,
                             model.params(rho=0.3, sigma2=1.0))
    with pytest.raises(DimensionMismatch):
        comp.project_score(triple, np.zeros(shape))


# -- odd arguments to the information layer -----------------------------------


#: Specs within and beyond the coordinates of a three-coordinate model.
SPECS = [comp.pairwise(3), comp.pairwise(4), comp.full_conditional(3),
         comp.CompositeSpec("beyond", [comp.Component("margin", (0, 3))])]


@st.composite
def odd_points(draw):
    """A point of EMVN(3), TriNormal or Multinomial4(5), some of its values
    possibly NaN and some parameters known (one stays free)."""
    model = draw(st.sampled_from([EMVN(3), TriNormal(), Multinomial4(5.0)]))
    base = {"rho": 0.3, "sigma2": 1.5, "mu": 0.2, "theta": 0.2}
    values = [draw(st.sampled_from([base[name], math.nan]))
              for name in model.param_names]
    known = draw(st.lists(st.sampled_from(model.param_names), unique=True,
                          max_size=len(model.param_names) - 1))
    roles = ["known" if name in known else "nuisance"
             for name in model.param_names]
    return ParamVector(model.param_names, values, roles)


#: Counts of draws or batches: too few, fractional, NaN or infinite.
COUNTS = st.one_of(st.integers(-5, 30), st.integers(990, 2500),
                   st.floats(990, 2500), st.floats(5, 30),
                   st.sampled_from([math.nan, math.inf, -math.inf]))
NAMES = st.sampled_from(["rho", "sigma2", "mu", "tau", ""])


@st.composite
def odd_calls(draw):
    """One call, as a ``functools.partial``, of ``info_exact``,
    ``info_monte_carlo``, ``partitioned_variance``, ``project_score`` or
    ``CompositeSpec`` with arguments that may not fit: a spec reading
    coordinates the model lacks or entries that are not Components, a
    point of another model or with NaN values, counts that are not counts,
    unknown, repeated or no interest names, scores of any shape."""
    kind = draw(st.sampled_from(["exact", "monte-carlo", "interest",
                                 "project", "spec"]))
    if kind == "spec":
        entries = draw(st.lists(st.one_of(
            st.sampled_from(SPECS[-1].components), st.text(max_size=2),
            st.none(), st.integers()), max_size=3))
        return partial(comp.CompositeSpec, "odd", entries)
    if kind in ("exact", "monte-carlo"):
        args = (draw(st.sampled_from(SPECS)),
                draw(st.sampled_from([EMVN(3), EMVN(4), TriNormal(),
                                      Multinomial4(5.0)])),
                draw(odd_points()))
        if kind == "exact":
            return partial(comp.info_exact, *args)
        return partial(comp.info_monte_carlo, *args, draw(COUNTS), 3,
                       draw(COUNTS))
    triple = draw(st.sampled_from(triples()))
    if kind == "interest":
        return partial(comp.partitioned_variance, triple,
                       draw(st.one_of(NAMES, st.lists(NAMES, max_size=3))))
    return partial(comp.project_score, triple,
                   draw(hnp.arrays(float, hnp.array_shapes(
                       min_dims=0, max_dims=3, min_side=0, max_side=4),
                       elements=st.one_of(st.floats(-1e6, 1e6),
                                          st.just(math.nan)))))


@cache
def triples():
    """A point triple of EMVN(3) and of TriNormal, and a stack."""
    emvn, tri = EMVN(3), TriNormal()
    theta = emvn.params(rho=0.3, sigma2=1.5)
    mc_triple = comp.info_monte_carlo(comp.pairwise(3), emvn, theta, 2000, 5)
    return (comp.info_exact(comp.pairwise(3), emvn, theta), mc_triple.batches,
            comp.info_exact(comp.pairwise(3), tri,
                            tri.params(mu=0.2, rho=0.4, sigma2=2.0)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(call=odd_calls())
def test_odd_arguments_raise_only_clik_errors(call):
    try:
        call()
    except ClikError:
        pass
