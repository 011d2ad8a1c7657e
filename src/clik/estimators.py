"""Maximum composite likelihood estimation.

Small-dimension Newton iteration on the total composite score, plus a
table of registered fast paths: the four-cell multinomial MLE, the two
mean estimators of the two-block normal model, and the
equicorrelated-normal pairwise correlation estimators (variance known or
profiled out), which reduce to scalar root finding on a pair of
sufficient statistics.  A fast path is a per-dataset statistic and a
solve over the stacked statistics of many datasets, so a simulation study
fits all replicates of a run in one call.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import brentq

from .composite import CompositeSpec, composite_score
from .errors import (DomainError, NoRootInDomain, SingularMatrix,
                     UnsupportedSpec)
from .matrixops import is_singular
from .models import EMVN, Model, Multinomial4, ParamVector, TriNormal

NEWTON_MAX_ITER = 100
NEWTON_TOL_PER_OBS = 1e-8
#: Number of equispaced scan points used to bracket score roots.
ROOT_SCAN_POINTS = 16
#: How far inside the open domain the scan grid starts.
ROOT_SCAN_MARGIN = 1e-6


@dataclass(frozen=True)
class EstimateResult:
    """A fitted parameter point with solver metadata."""

    params: ParamVector
    iterations: int
    converged: bool
    score_norm: float
    solver: str                         # "closed-form" | "newton"


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------


def _check_newton_free(free) -> None:
    if not 1 <= len(free) <= 2:
        raise UnsupportedSpec(f"Newton solver expects 1 or 2 free "
                              f"parameters, got {len(free)}")


def mcle_newton(spec: CompositeSpec, model: Model, data, theta0: ParamVector,
                fixed=None, max_iter: int = NEWTON_MAX_ITER) -> EstimateResult:
    """Newton iteration on the summed composite score.

    ``fixed`` maps parameter names to values held at those values (tagged
    known); the remaining 1 or 2 free parameters are iterated with a
    finite-difference score Jacobian and step halving that keeps every
    iterate inside the model domain.  Convergence means the sup norm of
    the total score fell below ``1e-8 * n``.  Raises SingularMatrix when
    a step meets a score Jacobian that ``matrixops.is_singular`` calls
    singular, for example when the spec carries no information on a free
    parameter.
    """
    Y = model.check_data(data)
    n = Y.shape[0]
    theta = theta0
    if fixed:
        theta = theta.with_values(**fixed).with_roles(
            **{name: "known" for name in fixed})
    model.validate(theta)
    free = theta.free_names
    _check_newton_free(free)

    def total_score(th):
        return composite_score(spec, model, Y, th).sum(axis=0)

    tol = NEWTON_TOL_PER_OBS * n
    score = total_score(theta)
    best = (float(np.max(np.abs(score))), theta)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(score)) < tol:
            return EstimateResult(theta, iterations - 1, True,
                                  float(np.max(np.abs(score))), "newton")
        jac = np.empty((len(free), len(free)))
        for a, name in enumerate(free):
            h = 1e-5 * max(1.0, abs(theta[name]))
            up = total_score(theta.with_values(**{name: theta[name] + h}))
            dn = total_score(theta.with_values(**{name: theta[name] - h}))
            jac[:, a] = (up - dn) / (2.0 * h)
        if is_singular(jac):
            raise SingularMatrix(f"score Jacobian singular at "
                                 f"{theta.as_dict()}")
        delta = np.linalg.solve(jac, -score)
        step = 1.0
        for _ in range(60):
            try:
                candidate = theta.replace_free(theta.free_values + step * delta)
                model.validate(candidate)
                trial = total_score(candidate)
                if np.all(np.isfinite(trial)):
                    break
            except DomainError:
                pass
            step *= 0.5
        else:
            break
        theta, score = candidate, trial
        norm = float(np.max(np.abs(score)))
        if norm < best[0]:
            best = (norm, theta)

    norm, theta = best
    return EstimateResult(theta, iterations, bool(norm < tol), norm, "newton")


# ---------------------------------------------------------------------------
# equicorrelated-normal pairwise machinery
# ---------------------------------------------------------------------------
#
# Every bivariate margin has covariance sigma2 * [[1, rho], [rho, 1]], so the
# total pairwise log likelihood depends on the data only through
#   Q = sum of squared entries,   W = sum of squared row sums:
#   cl(rho, sigma2) = -Nc log(2 pi) - Nc log sigma2 - (Nc/2) log(1 - rho^2)
#                     - T(rho) / (2 sigma2),
# with Nc = n p (p-1)/2 and T(rho) = ((p-1) Q - (W - Q) rho) / (1 - rho^2).
# Maximizing over sigma2 gives sigma2_hat(rho) = T(rho) / (2 Nc).


def _pair_stats(Y) -> np.ndarray:
    """``(n, p, Q, W)`` of one dataset."""
    n, p = Y.shape
    q = float(np.sum(Y * Y))
    w = float(np.sum(Y.sum(axis=1) ** 2))
    return np.array([n, p, q, w])


def _t_and_deriv(rho, p, q, w):
    a = (p - 1) * q
    c = 0.5 * (w - q)
    om = 1.0 - rho * rho
    t = (a - 2.0 * rho * c) / om
    tp = (2.0 * rho * a - 2.0 * c * (1.0 + rho * rho)) / (om * om)
    return t, tp


def _pair_score(rho, p, q, w, nc, sigma2):
    """Score in rho with ``sigma2`` known, or the profile score when
    ``sigma2`` is None.  Elementwise, so scalars and arrays give the same
    bits."""
    t, tp = _t_and_deriv(rho, p, q, w)
    if sigma2 is None:
        return -nc * tp / t + nc * rho / (1.0 - rho * rho)
    return nc * rho / (1.0 - rho * rho) - tp / (2.0 * sigma2)


def _pair_loglik(rho, p, q, w, nc, sigma2):
    """The objective :func:`_pair_score` differentiates, up to a constant."""
    t, _ = _t_and_deriv(rho, p, q, w)
    if sigma2 is None:
        return -nc * np.log(t) - 0.5 * nc * np.log(1.0 - rho * rho)
    return (-nc * np.log(sigma2) - 0.5 * nc * np.log(1.0 - rho * rho)
            - t / (2.0 * sigma2))


def _solve_pairwise(stats, sigma2=None):
    """Pairwise rho (and the profiled sigma2 when ``sigma2`` is None) for
    each row ``(n, p, Q, W)`` of ``stats``.

    The score is scanned on ``ROOT_SCAN_POINTS`` equispaced points of the
    open domain for all rows at once; each sign change is polished with
    brentq, and a row with several roots keeps the one with the highest
    pairwise log likelihood.  Rows without a root get NaN.
    """
    n, p, q, w = (stats[:, [k]] for k in range(4))
    nc = n * p * (p - 1) / 2.0
    grid = np.linspace((-1.0 / (p - 1) + ROOT_SCAN_MARGIN)[:, 0],
                       1.0 - ROOT_SCAN_MARGIN, ROOT_SCAN_POINTS, axis=1)
    vals = _pair_score(grid, p, q, w, nc, sigma2)
    finite = np.isfinite(vals)
    paired = finite[:, :-1] & finite[:, 1:]
    at_zero = paired & (vals[:, :-1] == 0.0)
    crossing = paired & (vals[:, :-1] * vals[:, 1:] < 0.0)
    end_zero = finite[:, -1] & (vals[:, -1] == 0.0)

    p, q, w, nc = (col[:, 0] for col in (p, q, w, nc))
    args = list(zip(p.tolist(), q.tolist(), w.tolist(), nc.tolist()))
    roots = [[] for _ in args]
    for i, j in zip(*np.nonzero(at_zero | crossing)):
        if at_zero[i, j]:
            roots[i].append(float(grid[i, j]))
        else:
            roots[i].append(float(brentq(_pair_score, grid[i, j],
                                         grid[i, j + 1],
                                         args=(*args[i], sigma2), xtol=1e-13)))
    for i in np.flatnonzero(end_zero):
        roots[i].append(float(grid[i, -1]))

    rho = np.full(len(args), np.nan)
    for i, found in enumerate(roots):
        if len(found) == 1:
            rho[i] = found[0]
        elif found:
            objective = [_pair_loglik(r, *args[i], sigma2) for r in found]
            rho[i] = found[int(np.argmax(objective))]

    resid = np.abs(_pair_score(rho, p, q, w, nc, sigma2))
    if sigma2 is not None:
        return rho[:, None], ~np.isnan(rho), resid
    t, _ = _t_and_deriv(rho, p, q, w)
    return np.column_stack([rho, t / (2.0 * nc)]), ~np.isnan(rho), resid


# ---------------------------------------------------------------------------
# registered estimators
# ---------------------------------------------------------------------------


def _column_means(Y) -> np.ndarray:
    # column by column, as ``Y[:, j].mean()``: ``Y.mean(axis=0)`` sums in
    # another order and can differ in the last bit
    return np.array([col.mean() for col in Y.T])


def _explicit(estimates):
    """``(estimates, converged, score_norm)`` of an explicit formula in
    one parameter."""
    rows = len(estimates)
    return estimates.reshape(rows, 1), np.ones(rows, dtype=bool), np.zeros(rows)


def _solve_mu12(means, known):
    return _explicit(0.5 * (means[:, 0] + means[:, 1]))


def _solve_mu123(means, known):
    s2 = float(known["sigma2"])
    return _explicit((s2 * (means[:, 0] + means[:, 1]) + means[:, 2])
                     / (1.0 + 2.0 * s2))


def _solve_multinomial(means, known):
    return _explicit(means.sum(axis=1) / (2.0 + 1.0 / float(known["k"])))


def _solve_pairwise_free(stats, known):
    return _solve_pairwise(stats)


def _solve_pairwise_known(stats, known):
    return _solve_pairwise(stats, sigma2=float(known["sigma2"]))


@dataclass(frozen=True)
class FastPath:
    """A registered estimator: a per-dataset statistic and a batched solve.

    ``statistic(Y)`` reduces one dataset to a 1-D array.  ``solve(stats,
    known)`` maps the statistics of R datasets, stacked as the rows of
    ``stats``, to ``(estimates, converged, score_norm)``: the ``(R, d)``
    free-parameter values in ``free`` order (NaN rows where there is no
    estimate), an ``(R,)`` flag and the absolute score at each estimate.
    ``known`` supplies the fixed values the solve reads; the parameters
    among them, ``known_params``, are reported as known in a fit.
    """

    free: tuple                         # ((name, role), ...)
    known_params: tuple
    statistic: Callable[[np.ndarray], np.ndarray]
    solve: Callable[[np.ndarray, dict], tuple]


#: The registered estimators by id.  Runs whose entries share a statistic
#: (the two pairwise estimators) can share its computation.
ESTIMATORS = {
    "trinormal_mu12": FastPath((("mu", "interest"),), (),
                               _column_means, _solve_mu12),
    "trinormal_mu123": FastPath((("mu", "interest"),), ("sigma2",),
                                _column_means, _solve_mu123),
    "multinomial4_mle": FastPath((("theta", "interest"),), (),
                                 _column_means, _solve_multinomial),
    "emvn_pairwise_rho": FastPath((("rho", "interest"),
                                   ("sigma2", "nuisance")), (),
                                  _pair_stats, _solve_pairwise_free),
    "emvn_pairwise_rho_known_sigma": FastPath((("rho", "interest"),),
                                              ("sigma2",), _pair_stats,
                                              _solve_pairwise_known),
}


def closed_form(name: str, data, known=None) -> EstimateResult:
    """Evaluate a registered estimator on one dataset.

    Known ids: ``trinormal_mu12``, ``trinormal_mu123`` (needs ``sigma2``),
    ``multinomial4_mle`` (needs ``k``), ``emvn_pairwise_rho`` and
    ``emvn_pairwise_rho_known_sigma`` (needs ``sigma2``).  Raises KeyError
    for an unknown id or a missing known value, and NoRootInDomain when
    the score has no root inside the domain.
    """
    entry = ESTIMATORS[name]
    known = known or {}
    stats = entry.statistic(np.asarray(data, dtype=float))[None, :]
    estimates, converged, score_norm = entry.solve(stats, known)
    if not converged[0]:
        raise NoRootInDomain(f"{name}: no score root inside the domain")
    names = tuple(n for n, _ in entry.free) + entry.known_params
    values = (*estimates[0].tolist(),
              *(float(known[n]) for n in entry.known_params))
    roles = (tuple(r for _, r in entry.free)
             + ("known",) * len(entry.known_params))
    return EstimateResult(ParamVector(names, values, roles), 0, True,
                          float(score_norm[0]), "closed-form")


def _unit_margins(spec: CompositeSpec):
    """Sorted index tuples of a spec made only of unit-weight margins,
    repeats kept, or None for any other spec."""
    if any(comp.kind != "margin" or comp.weight != 1.0
           for comp in spec.components):
        return None
    return sorted(tuple(sorted(comp.indices)) for comp in spec.components)


def registered_closed_form(model: Model, spec: CompositeSpec, theta_like,
                           fixed=None):
    """Return ``(name, known)``: the id in :data:`ESTIMATORS` of the fast
    path for this fit and the values its solve reads, or None.

    Matching is structural (spec components plus which parameters are
    fixed), so hand-built specs qualify as well as the constructors.
    """
    fixed = dict(fixed or {})
    free_after = [n for n in theta_like.free_names if n not in fixed]
    margins = _unit_margins(spec)

    if (isinstance(model, EMVN)
            and margins == list(combinations(range(model.dim), 2))):
        if not fixed and free_after == ["rho", "sigma2"]:
            return "emvn_pairwise_rho", {}
        if set(fixed) == {"sigma2"} and free_after == ["rho"]:
            return "emvn_pairwise_rho_known_sigma", {"sigma2": fixed["sigma2"]}

    if isinstance(model, Multinomial4) and margins == [(0, 1, 2)] and not fixed:
        return "multinomial4_mle", {"k": model.k}

    if isinstance(model, TriNormal) and free_after == ["mu"]:
        if margins == [(0,), (1,)]:
            return "trinormal_mu12", {}
        if margins == [(0,), (1,), (2,)]:
            return "trinormal_mu123", {
                "sigma2": fixed.get("sigma2", theta_like["sigma2"])}
    return None


def check_fittable(model: Model, spec: CompositeSpec, theta_like,
                   fixed=None) -> None:
    """Raise UnsupportedSpec unless :func:`fit` can fit this spec: it has
    a registered fast path, or as many free parameters as Newton takes."""
    if registered_closed_form(model, spec, theta_like, fixed) is None:
        fixed = fixed or {}
        _check_newton_free([n for n in theta_like.free_names
                            if n not in fixed])


# ---------------------------------------------------------------------------
# default starting points (method of moments)
# ---------------------------------------------------------------------------


def method_of_moments_start(model: Model, Y, theta_like: ParamVector,
                            fixed=None) -> ParamVector:
    """A data-driven interior starting point for the Newton solver."""
    fixed = dict(fixed or {})
    Y = np.asarray(Y, dtype=float)
    updates = {}
    if isinstance(model, EMVN):
        n, p, q, w = _pair_stats(Y)
        s2 = max(q / (n * p), 1e-6)
        lo, hi = -1.0 / (p - 1), 1.0
        pad = 0.02 * (hi - lo)
        rho = np.clip((w / q - 1.0) / (p - 1), lo + pad, hi - pad)
        updates = {"rho": float(rho), "sigma2": float(s2)}
    elif isinstance(model, TriNormal):
        corr = np.corrcoef(Y[:, 0], Y[:, 1])[0, 1]
        updates = {"mu": float(Y.mean()),
                   "rho": float(np.clip(corr, -0.96, 0.96)),
                   "sigma2": float(max(Y[:, 2].var(ddof=1), 1e-6))}
    elif isinstance(model, Multinomial4):
        t = Y.mean(axis=0).sum() / (2.0 + 1.0 / model.k)
        pad = 0.02 * model.theta_max
        updates = {"theta": float(np.clip(t, pad, model.theta_max - pad))}
    for name in fixed:
        updates.pop(name, None)
    theta = theta_like.with_values(**updates, **fixed)
    if fixed:
        theta = theta.with_roles(**{name: "known" for name in fixed})
    return theta


def fit(spec: CompositeSpec, model: Model, data, theta_like: ParamVector,
        fixed=None) -> EstimateResult:
    """Fit a spec: registered fast path when one matches, Newton otherwise."""
    match = registered_closed_form(model, spec, theta_like, fixed)
    if match is not None:
        name, known = match
        return closed_form(name, data, known)
    start = method_of_moments_start(model, data, theta_like, fixed)
    return mcle_newton(spec, model, data, start, fixed=fixed)
