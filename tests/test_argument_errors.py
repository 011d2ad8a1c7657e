"""Argument checks outside ``models`` and ``composite`` raise InvalidArgument,
a ClikError that is still a ValueError."""

import numpy as np
import pytest

import clik.asymptotics as asy
import clik.composite as comp
import clik.matrixops as mo
import clik.montecarlo as mc
import clik.verify as verify
from clik.errors import ClikError, InvalidArgument
from clik.models import EMVN


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


@pytest.mark.parametrize("call", [call for _, call in invalid_arguments()],
                         ids=[name for name, _ in invalid_arguments()])
def test_each_argument_check_raises_a_clik_error(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, ClikError)
    assert isinstance(info.value, ValueError)
