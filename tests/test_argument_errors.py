"""Argument checks raise InvalidArgument, a ClikError that is still a
ValueError, and an unknown parameter name raises UnknownParameter, a
ClikError that is still a KeyError.  (``composite``'s checks are in
``test_composite.py``.)"""

import numpy as np
import pytest

import clik.asymptotics as asy
import clik.composite as comp
import clik.matrixops as mo
import clik.montecarlo as mc
import clik.verify as verify
from clik import models
from clik.errors import ClikError, InvalidArgument, UnknownParameter
from clik.models import EMVN, Model, Multinomial4, ParamVector, substream


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


@pytest.mark.parametrize(
    "call", [call for cases in (invalid_arguments, model_invalid_arguments)
             for _, call in cases()],
    ids=[name for cases in (invalid_arguments, model_invalid_arguments)
         for name, _ in cases()])
def test_each_argument_check_raises_a_clik_error(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, ClikError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("method, value", [("with_values", 1.0),
                                           ("with_roles", "known")])
def test_unknown_parameter_is_a_clik_key_error(method, value):
    theta = EMVN(3).params(rho=0.3, sigma2=1.0)
    with pytest.raises(UnknownParameter) as info:
        getattr(theta, method)(tau=value)
    assert isinstance(info.value, ClikError)
    assert isinstance(info.value, KeyError)
