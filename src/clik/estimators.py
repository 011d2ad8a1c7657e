"""Maximum composite likelihood estimation.

Every fit is a per-dataset statistic and one solve over the stacked
statistics of many datasets, so a simulation study fits all replicates of
a run in one call, and :func:`fit` is the one-dataset case.  Registered
fast paths cover the four-cell multinomial MLE, the two mean estimators of
the two-block normal model, and the equicorrelated-normal pairwise
correlation estimators (variance known or profiled out), which reduce to
scalar root finding on a pair of sufficient statistics.  Every other spec
is solved by Newton iteration on the summed composite score, which
follows exactly from ``Model.statistic`` (``n``, the sample mean and the
scatter about it); all datasets iterate in lockstep.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import brentq

from .composite import CompositeSpec, summed_score
from .composite import composite_score  # noqa: F401  (perfbench/tracing.py wraps it here)
from .errors import (DomainError, NoRootInDomain, SingularMatrix,
                     UnsupportedSpec)
from .matrixops import is_singular
from .models import (EMVN, Model, Multinomial4, ParamBatch, ParamVector,
                     TriNormal)

NEWTON_MAX_ITER = 100
NEWTON_TOL_PER_OBS = 1e-8
#: Central-difference step scale of the Newton score Jacobian.
NEWTON_FD_STEP = 1e-5
#: Step halvings tried before a Newton fit stops where it is.
NEWTON_MAX_HALVINGS = 60
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


@dataclass(frozen=True)
class NewtonFits:
    """Outcome of :func:`newton_solve`, one entry per dataset.

    ``errors[i]`` is the exception that ended fit ``i`` (DomainError or
    SingularMatrix), or None; such a fit is not converged.
    """

    params: ParamBatch
    iterations: np.ndarray
    converged: np.ndarray
    score_norm: np.ndarray
    errors: list


def _scores(spec, model, stats, points):
    """``(scores, outside, singular)``: the summed score of each row of
    ``stats`` at the matching point of ``points``, NaN on the rows whose
    point is not interior (flagged in ``outside``) or whose margin
    covariances ``sym_invert`` finds singular (flagged in ``singular``)."""
    outside = ~model.interior(points)
    singular = np.zeros(len(points), dtype=bool)
    out = np.full((len(points), len(points.free_names)), np.nan)
    while not np.all(outside | singular):
        keep = np.flatnonzero(~(outside | singular))
        try:
            out[keep] = summed_score(spec, model, stats[keep],
                                     points.take(keep))
            break
        except SingularMatrix as exc:
            singular[keep[exc.rows]] = True
    return out, outside, singular


def _jacobian(spec, model, stats, points, cols):
    """Central-difference score Jacobians ``(N, q, q)`` at every point, with
    step ``NEWTON_FD_STEP * max(1, |x|)``, and the points whose stencil
    leaves the domain or meets a singular covariance (NaN Jacobians)."""
    h = NEWTON_FD_STEP * np.maximum(1.0, np.abs(points.values[:, cols]))
    jac = np.empty((len(points), len(cols), len(cols)))
    outside = np.zeros(len(points), dtype=bool)
    singular = outside.copy()
    for a, col in enumerate(cols):
        sides = []
        for sign in (1.0, -1.0):
            shifted = points.values.copy()
            shifted[:, col] += sign * h[:, a]
            score, out, sing = _scores(spec, model, stats,
                                       ParamBatch(points.names, shifted,
                                                  points.roles))
            sides.append(score)
            outside |= out
            singular |= sing
        jac[:, :, a] = (sides[0] - sides[1]) / (2.0 * h[:, a, None])
    return jac, outside, singular & ~outside


def newton_solve(spec: CompositeSpec, model: Model, stats,
                 start: ParamBatch, max_iter: int = NEWTON_MAX_ITER
                 ) -> NewtonFits:
    """Newton iteration on the summed composite score of many datasets.

    Row ``i`` of ``stats`` is ``model.statistic`` of dataset ``i`` and is
    fitted from ``start.point(i)``; the free parameters of ``start`` (1 or
    2) are iterated, the known ones held.  All rows iterate in lockstep,
    each exactly as it would alone: a central-difference score Jacobian
    with step ``1e-5 * max(1, |x|)``, a SingularMatrix failure when
    ``matrixops.is_singular`` calls it singular, step halving until the
    iterate is interior with a finite score, and the best iterate kept.  A
    fit converges when the sup norm of its summed score is below
    ``1e-8 * n``.  The score Jacobian at every returned estimate must be
    nonsingular as well, so a spec carrying no information on a free
    parameter fails even when the start already zeroes the score.  A fit
    whose start or Jacobian stencil leaves the domain fails with
    DomainError.
    """
    stats = np.asarray(stats, dtype=float)
    free = start.free_names
    _check_newton_free(free)
    cols = [start.names.index(name) for name in free]
    values = np.array(start.values, dtype=float)
    tol = NEWTON_TOL_PER_OBS * stats[:, 0]
    errors = [None] * len(start)
    iterations = np.zeros(len(start), dtype=int)

    def batch(vals):
        return ParamBatch(start.names, vals, start.roles)

    def fail(rows, error, what):
        for i in rows:
            point = dict(zip(start.names, values[i].tolist()))
            errors[i] = error(f"{what} at {point}")

    def alive():
        return np.flatnonzero([e is None for e in errors])

    def jacobians(rows, what):
        """Score Jacobians at the current points of ``rows``; the rows
        whose Jacobian fails or is singular are failed and dropped."""
        jac, outside, bad = _jacobian(spec, model, stats[rows],
                                      batch(values[rows]), cols)
        fail(rows[outside], DomainError,
             f"Jacobian stencil leaves the domain of {model!r}")
        fail(rows[bad], SingularMatrix, "singular covariance")
        ok = np.flatnonzero(~(outside | bad))
        singular = is_singular(jac[ok])
        fail(rows[ok[singular]], SingularMatrix, f"singular {what}")
        ok = ok[~singular]
        return rows[ok], jac[ok]

    score, outside, singular = _scores(spec, model, stats, start)
    fail(np.flatnonzero(outside), DomainError,
         f"start outside the domain of {model!r}")
    fail(np.flatnonzero(singular), SingularMatrix, "singular covariance")
    norm = np.max(np.abs(score), axis=1)
    best_norm, best = norm.copy(), values.copy()

    active = alive()
    active = active[~(norm[active] < tol[active])]
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        rows, jac = jacobians(active, "score Jacobian")
        delta = np.linalg.solve(jac, -score[rows][..., None])[..., 0]

        step = np.ones(rows.size)
        pending = np.arange(rows.size)
        moved = []
        for _ in range(NEWTON_MAX_HALVINGS):
            cand = values[rows[pending]]
            cand[:, cols] = cand[:, cols] + step[pending, None] * delta[pending]
            trial, outside, singular = _scores(spec, model, stats[rows[pending]],
                                               batch(cand))
            fail(rows[pending[singular]], SingularMatrix, "singular covariance")
            good = ~(outside | singular) & np.all(np.isfinite(trial), axis=1)
            accepted = rows[pending[good]]
            values[accepted] = cand[good]
            score[accepted] = trial[good]
            moved.append(accepted)
            pending = pending[~(good | singular)]
            if pending.size == 0:
                break
            step[pending] *= 0.5
        moved = np.concatenate(moved)
        iterations[moved] = it
        iterations[rows[pending]] = it          # no acceptable step: stop

        norm[moved] = np.max(np.abs(score[moved]), axis=1)
        better = moved[norm[moved] < best_norm[moved]]
        best_norm[better] = norm[better]
        best[better] = values[better]
        active = moved[~(norm[moved] < tol[moved])]

    values = best
    jacobians(alive(), "score Jacobian at the estimate")
    failed = np.array([e is not None for e in errors])
    return NewtonFits(batch(best), iterations, (best_norm < tol) & ~failed,
                      best_norm, errors)


def _one_fit(fits: NewtonFits) -> EstimateResult:
    """The EstimateResult of a one-dataset :func:`newton_solve`, or its
    failure raised."""
    if fits.errors[0] is not None:
        raise fits.errors[0]
    return EstimateResult(fits.params.point(0), int(fits.iterations[0]),
                          bool(fits.converged[0]), float(fits.score_norm[0]),
                          "newton")


def mcle_newton(spec: CompositeSpec, model: Model, data, theta0: ParamVector,
                fixed=None, max_iter: int = NEWTON_MAX_ITER) -> EstimateResult:
    """Newton iteration on the summed composite score of one dataset, from
    ``theta0``: the one-dataset case of :func:`newton_solve`.

    ``fixed`` maps parameter names to values held at those values (tagged
    known).  Raises the fit's failure: DomainError, or SingularMatrix when
    a score Jacobian is singular, for example when the spec carries no
    information on a free parameter.
    """
    Y = model.check_data(data)
    theta = theta0
    if fixed:
        theta = theta.with_values(**fixed).with_roles(
            **{name: "known" for name in fixed})
    return _one_fit(newton_solve(spec, model, model.statistic(Y)[None],
                                 ParamBatch.stack([theta]), max_iter))


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
# default starting points (method of moments) and the fit routes
# ---------------------------------------------------------------------------


def moment_starts(model: Model, stats, theta_like: ParamVector,
                  fixed=None) -> ParamBatch:
    """Data-driven interior starting points for Newton, one per row of
    ``stats`` (``model.statistic`` of each dataset): the method of moments,
    clipped inside the domain, with ``fixed`` values held and tagged known."""
    fixed = dict(fixed or {})
    stats = np.asarray(stats, dtype=float)
    p = model.dim
    n, ybar = stats[:, 0], stats[:, 1:p + 1]
    scatter = stats[:, p + 1:].reshape(-1, p, p)
    if isinstance(model, EMVN):
        q = np.trace(scatter, axis1=1, axis2=2) + n * (ybar * ybar).sum(axis=1)
        w = scatter.sum(axis=(1, 2)) + n * ybar.sum(axis=1) ** 2
        lo, hi = -1.0 / (p - 1), 1.0
        pad = 0.02 * (hi - lo)
        updates = {"rho": np.clip((w / q - 1.0) / (p - 1), lo + pad, hi - pad),
                   "sigma2": np.maximum(q / (n * p), 1e-6)}
    elif isinstance(model, TriNormal):
        corr = scatter[:, 0, 1] / np.sqrt(scatter[:, 0, 0] * scatter[:, 1, 1])
        updates = {"mu": ybar.mean(axis=1),
                   "rho": np.clip(corr, -0.96, 0.96),
                   "sigma2": np.maximum(scatter[:, 2, 2] / (n - 1), 1e-6)}
    else:
        pad = 0.02 * model.theta_max
        updates = {"theta": np.clip(ybar.sum(axis=1) / (2.0 + 1.0 / model.k),
                                    pad, model.theta_max - pad)}
    theta = theta_like.with_values(**fixed)
    if fixed:
        theta = theta.with_roles(**{name: "known" for name in fixed})
    values = np.tile(theta.values, (len(stats), 1))
    for name, column in updates.items():
        if name not in fixed:
            values[:, theta.names.index(name)] = column
    return ParamBatch(theta.names, values, theta.roles)


def method_of_moments_start(model: Model, Y, theta_like: ParamVector,
                            fixed=None) -> ParamVector:
    """The starting point :func:`fit` gives Newton on one dataset."""
    stats = model.statistic(np.asarray(Y, dtype=float))[None]
    return moment_starts(model, stats, theta_like, fixed).point(0)


def _newton_estimates(spec, model, stats, theta_like, fixed):
    """``(estimates, converged, score_norm)`` of batched Newton from the
    moment starts; failed rows hold NaN."""
    fits = newton_solve(spec, model, stats,
                        moment_starts(model, stats, theta_like, fixed))
    ok = fits.converged & np.array([e is None for e in fits.errors])
    cols = [fits.params.names.index(n) for n in fits.params.free_names]
    estimates = fits.params.values[:, cols]
    estimates[~ok] = np.nan
    return estimates, ok, fits.score_norm


def batch_route(model: Model, spec: CompositeSpec, theta_like, fixed=None):
    """``(statistic, solve)`` fitting a spec on many datasets.

    ``statistic(Y)`` reduces one dataset to a 1-D array and ``solve(stats)``
    maps the stacked statistics to ``(estimates, converged, score_norm)``
    as :class:`FastPath` does: the registered fast path when one matches,
    batched Newton from the moment starts otherwise.  Row ``i`` of every
    result equals what :func:`fit` gives on dataset ``i`` alone.
    """
    match = registered_closed_form(model, spec, theta_like, fixed)
    if match is not None:
        name, known = match
        entry = ESTIMATORS[name]
        return entry.statistic, lambda stats: entry.solve(stats, known)
    return model.statistic, lambda stats: _newton_estimates(
        spec, model, stats, theta_like, fixed)


def fit(spec: CompositeSpec, model: Model, data, theta_like: ParamVector,
        fixed=None) -> EstimateResult:
    """Fit a spec: registered fast path when one matches, Newton from the
    method of moments otherwise (raising the fit's failure)."""
    match = registered_closed_form(model, spec, theta_like, fixed)
    if match is not None:
        name, known = match
        return closed_form(name, data, known)
    stats = model.statistic(model.check_data(data))[None]
    return _one_fit(newton_solve(spec, model, stats,
                                 moment_starts(model, stats, theta_like, fixed)))
