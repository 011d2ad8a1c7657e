"""Maximum composite likelihood estimation.

Every fit is one solve over the stacked ``Model.statistic`` rows (``n``,
the sample mean and the scatter about it) of many datasets, so a
simulation study fits all replicates of a run in one call.
:func:`batch_route` is the one place that picks the solve for a spec,
and :func:`fit` is its one-dataset case; both routes fill the same
per-dataset record, :class:`Fits`.  Registered fast paths cover the
four-cell multinomial MLE and the two mean estimators of the two-block
normal model, which read the sample means, and the equicorrelated-normal
pairwise correlation estimators (variance known or profiled out), which
reduce to root finding in rho on two sums derived from the statistic: a
score scan, then one :func:`bracket_roots` pass (Brent's method, as
``scipy.optimize.brentq`` runs it, on every bracket of every dataset at
once).  Every other spec is solved by Fisher scoring on the summed
composite score, which follows exactly from the statistic, with the exact
sensitivity in place of the score Jacobian; all datasets iterate in
lockstep.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .composite import CompositeSpec, exact_sensitivity, summed_score
from .composite import composite_score  # noqa: F401  (perfbench/tracing.py wraps it here)
from .errors import (DomainError, NoRootInDomain, SingularMatrix,
                     UnsupportedSpec)
from .matrixops import is_singular
from .models import (EMVN, Model, Multinomial4, ParamBatch, ParamVector,
                     TriNormal, unpack_statistic)

NEWTON_MAX_ITER = 100
NEWTON_TOL_PER_OBS = 1e-8
#: Step halvings tried before a Newton fit stops where it is.
NEWTON_MAX_HALVINGS = 60
#: Number of equispaced scan points used to bracket score roots.
ROOT_SCAN_POINTS = 16
#: How far inside the open domain the scan grid starts.
ROOT_SCAN_MARGIN = 1e-6
#: Iteration cap and relative tolerance of :func:`bracket_roots`, as in
#: ``scipy.optimize.brentq``.
BRENT_MAX_ITER = 100
BRENT_RTOL = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class EstimateResult:
    """A fitted parameter point with solver metadata."""

    params: ParamVector
    iterations: int
    converged: bool
    score_norm: float
    solver: str                         # "closed-form" | "newton"


@dataclass(frozen=True)
class Fits:
    """Outcome of fitting a spec on many datasets, one entry per dataset.

    ``params.point(i)`` is fit ``i``: the ``theta_like`` it started from,
    fixed parameters tagged known, with the free values replaced.
    ``errors[i]`` is the exception that ended fit ``i`` (NoRootInDomain,
    DomainError or SingularMatrix), or None; such a fit is not converged.
    """

    params: ParamBatch
    iterations: np.ndarray
    converged: np.ndarray
    score_norm: np.ndarray
    errors: list
    solver: str                         # "closed-form" | "newton"

    def columns(self):
        """``(estimates, converged, score_norm)``: the free values of every
        fit, NaN rows where a fit failed or did not converge."""
        ok = self.converged & np.array([e is None for e in self.errors])
        cols = [self.params.names.index(n) for n in self.params.free_names]
        estimates = self.params.values[:, cols]
        estimates[~ok] = np.nan
        return estimates, ok, self.score_norm

    def result(self) -> EstimateResult:
        """The EstimateResult of the first fit, or its failure raised."""
        if self.errors[0] is not None:
            raise self.errors[0]
        return EstimateResult(self.params.point(0), int(self.iterations[0]),
                              bool(self.converged[0]),
                              float(self.score_norm[0]), self.solver)


# ---------------------------------------------------------------------------
# Newton solver (Fisher scoring)
# ---------------------------------------------------------------------------


def _guarded(model, points, evaluate, shape):
    """``(values, outside, singular)``: ``evaluate(keep)`` on the rows
    ``keep`` of ``points``, NaN on the rows whose point is not interior
    (flagged in ``outside``) or whose margin covariances ``sym_invert``
    finds singular (flagged in ``singular``)."""
    outside = ~model.interior(points)
    singular = np.zeros(len(points), dtype=bool)
    out = np.full((len(points),) + shape, np.nan)
    while not np.all(outside | singular):
        keep = np.flatnonzero(~(outside | singular))
        try:
            out[keep] = evaluate(keep)
            break
        except SingularMatrix as exc:
            singular[keep[exc.rows]] = True
    return out, outside, singular


def _scores(spec, model, stats, points):
    """The summed score of each row of ``stats`` at the matching point of
    ``points``, as :func:`_guarded` returns it."""
    return _guarded(model, points, lambda keep: summed_score(
        spec, model, stats[keep], points.take(keep)),
        (len(points.free_names),))


def newton_solve(spec: CompositeSpec, model: Model, stats,
                 start: ParamBatch, max_iter: int = NEWTON_MAX_ITER
                 ) -> Fits:
    """Fisher scoring on the summed composite score of many datasets.

    Row ``i`` of ``stats`` is ``model.statistic`` of dataset ``i`` and is
    fitted from ``start.point(i)``; the free parameters of ``start`` (any
    number, at least one) are iterated, the known ones held.  All rows
    iterate in lockstep, each exactly as it would alone: a step
    ``(n H)^-1 sum(u_c)`` with ``H`` the exact sensitivity at the iterate
    (:func:`clik.composite.exact_sensitivity`), a SingularMatrix failure
    when ``matrixops.is_singular`` calls ``H`` singular, step halving until
    the iterate is interior with a finite score, and the best iterate kept.
    A fit converges when the sup norm of its summed score is below ``1e-8
    * n``.  ``H`` at every returned estimate must be nonsingular as well,
    so a spec carrying no information on a free parameter fails even when
    the start already zeroes the score.  A fit whose start leaves the
    domain fails with DomainError.
    """
    stats = np.asarray(stats, dtype=float)
    free = start.free_names
    if not free:
        raise UnsupportedSpec("Newton solver needs at least one free "
                              "parameter, got none")
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

    def sensitivities(rows, what):
        """``H`` at the current points of ``rows``; the rows whose ``H`` or
        covariance is singular are failed and dropped."""
        points = batch(values[rows])
        H, _, bad = _guarded(model, points, lambda keep: exact_sensitivity(
            spec, model, points.take(keep)), (len(free), len(free)))
        fail(rows[bad], SingularMatrix, "singular covariance")
        ok = np.flatnonzero(~bad)
        singular = is_singular(H[ok])
        fail(rows[ok[singular]], SingularMatrix, f"singular {what}")
        ok = ok[~singular]
        return rows[ok], H[ok]

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
        rows, H = sensitivities(active, "sensitivity")
        delta = np.linalg.solve(stats[rows, 0][:, None, None] * H,
                                score[rows][..., None])[..., 0]

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
    sensitivities(alive(), "sensitivity at the estimate")
    failed = np.array([e is not None for e in errors])
    return Fits(batch(best), iterations, (best_norm < tol) & ~failed,
                best_norm, errors, "newton")


# ---------------------------------------------------------------------------
# bracketed roots
# ---------------------------------------------------------------------------


def bracket_roots(f, lo, hi, xtol, maxiter: int = BRENT_MAX_ITER):
    """Roots of ``f`` in the brackets ``[lo[k], hi[k]]``, all at once.

    ``f(x, rows)`` returns the values at ``x[m]`` of the functions of
    brackets ``rows[m]``; it is called only for the brackets still
    iterating.  Every bracket runs Brent's method exactly as
    ``scipy.optimize.brentq`` does, with ``rtol = 4 eps``: the same
    interpolation, extrapolation and bisection steps in the same
    floating-point order, so its root has the same bits.  Returns
    ``(roots, converged)``; a bracket whose ends do not differ in sign,
    whose function gives NaN, or that is not converged after ``maxiter``
    iterations has root NaN and ``converged`` False.
    """
    xpre, xcur = (np.array(x, dtype=float).ravel() for x in (lo, hi))
    rows = np.arange(xpre.size)
    with np.errstate(all="ignore"):
        fpre, fcur = (np.asarray(f(x, rows), dtype=float) for x in (xpre, xcur))
        # brentq's order: a NaN end fails, a zero end (lo first) is the
        # root, ends of one sign fail
        finite = ~(np.isnan(fpre) | np.isnan(fcur))
        roots = np.where(finite & (fpre == 0.0), xpre,
                         np.where(finite & (fcur == 0.0), xcur, np.nan))
        live = (finite & (fpre != 0.0) & (fcur != 0.0)
                & (np.signbit(fpre) != np.signbit(fcur)))
        rows, xpre, xcur, fpre, fcur = (a[live] for a in
                                        (rows, xpre, xcur, fpre, fcur))
        xblk = fblk = spre = scur = np.zeros(rows.size)
        for _ in range(maxiter):
            failed = np.isnan(fcur)
            flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre)
                                                    != np.signbit(fcur))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            spre, scur = (np.where(flip, xcur - xpre, s) for s in (spre, scur))
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre),
                                np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre),
                                np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))

            delta = (xtol + BRENT_RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = ~failed & ((fcur == 0.0) | (np.abs(sbis) < delta))
            roots[rows[done]] = xcur[done]
            keep = ~(failed | done)
            if not keep.all():
                (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
                 sbis) = (a[keep] for a in (rows, xpre, xcur, xblk, fpre, fcur,
                                           fblk, spre, scur, delta, sbis))
            if rows.size == 0:
                break

            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = (-fcur * (fblk * dblk - fpre * dpre)
                           / (dblk * dpre * (fblk - fpre)))
            stry = np.where(xpre == xblk, interpolate, extrapolate)
            short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2 * np.abs(stry)
                        < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
            spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur,
                                   np.where(sbis > 0, delta, -delta))
            fcur = np.asarray(f(xcur, rows), dtype=float)
    return roots, ~np.isnan(roots)


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


def _pair_sums(stats) -> np.ndarray:
    """``(n, p, Q, W)`` rows from ``Model.statistic`` rows: with ``S`` the
    scatter about the sample mean, ``Q = tr S + n ybar'ybar`` and
    ``W = 1'S1 + n (1'ybar)^2``, each a sum of two nonnegative terms."""
    n, ybar, scatter = unpack_statistic(stats)
    q = np.trace(scatter, axis1=-2, axis2=-1) + n * (ybar * ybar).sum(axis=-1)
    w = scatter.sum(axis=(-2, -1)) + n * ybar.sum(axis=-1) ** 2
    return np.stack([n, np.full_like(n, ybar.shape[-1]), q, w], axis=-1)


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
    open domain for all rows at once.  A scan point where the score is
    exactly zero is a root; every sign change between neighbouring points
    is polished by one :func:`bracket_roots` pass over the brackets of all
    rows.  The roots of a row sit in an ``(R, ROOT_SCAN_POINTS)`` candidate
    array in scan order, and a row with several keeps the one with the
    highest pairwise log likelihood (the first on a tie).  Rows without a
    root, or whose bracket did not converge, get NaN.
    """
    n, p, q, w = (stats[:, [k]] for k in range(4))
    nc = n * p * (p - 1) / 2.0
    grid = np.linspace((-1.0 / (p - 1) + ROOT_SCAN_MARGIN)[:, 0],
                       1.0 - ROOT_SCAN_MARGIN, ROOT_SCAN_POINTS, axis=1)
    vals = _pair_score(grid, p, q, w, nc, sigma2)
    finite = np.isfinite(vals)
    paired = finite[:, :-1] & finite[:, 1:]
    at_zero = np.append(paired, finite[:, -1:], axis=1) & (vals == 0.0)
    crossing = paired & (vals[:, :-1] * vals[:, 1:] < 0.0)

    cand = np.where(at_zero, grid, np.nan)
    i, j = np.nonzero(crossing)
    args = [col[i, 0] for col in (p, q, w, nc)]
    cand[i, j], _ = bracket_roots(
        lambda x, rows: _pair_score(x, *(a[rows] for a in args), sigma2),
        grid[i, j], grid[i, j + 1], xtol=1e-13)

    found = ~np.isnan(cand)
    with np.errstate(invalid="ignore", divide="ignore"):
        objective = np.where(found, _pair_loglik(cand, p, q, w, nc, sigma2),
                             -np.inf)
    pick = np.argmax(objective, axis=1)
    rows = np.arange(len(stats))
    # a max of -inf may land on an empty slot: take the first root then
    pick = np.where(found[rows, pick], pick, np.argmax(found, axis=1))
    rho = cand[rows, pick]

    p, q, w, nc = (col[:, 0] for col in (p, q, w, nc))
    resid = np.abs(_pair_score(rho, p, q, w, nc, sigma2))
    if sigma2 is not None:
        return rho[:, None], ~np.isnan(rho), resid
    t, _ = _t_and_deriv(rho, p, q, w)
    return np.column_stack([rho, t / (2.0 * nc)]), ~np.isnan(rho), resid


# ---------------------------------------------------------------------------
# registered estimators
# ---------------------------------------------------------------------------


def _explicit(estimates):
    """``(estimates, converged, score_norm)`` of an explicit formula in
    one parameter."""
    rows = len(estimates)
    return estimates.reshape(rows, 1), np.ones(rows, dtype=bool), np.zeros(rows)


def _solve_mu12(stats, known):
    _, means, _ = unpack_statistic(stats)
    return _explicit(0.5 * (means[:, 0] + means[:, 1]))


def _solve_mu123(stats, known):
    _, means, _ = unpack_statistic(stats)
    s2 = float(known["sigma2"])
    return _explicit((s2 * (means[:, 0] + means[:, 1]) + means[:, 2])
                     / (1.0 + 2.0 * s2))


def _solve_multinomial(stats, known):
    _, means, _ = unpack_statistic(stats)
    return _explicit(means.sum(axis=1) / (2.0 + 1.0 / float(known["k"])))


def _solve_pairwise_free(stats, known):
    return _solve_pairwise(_pair_sums(stats))


def _solve_pairwise_known(stats, known):
    return _solve_pairwise(_pair_sums(stats), sigma2=float(known["sigma2"]))


@dataclass(frozen=True)
class FastPath:
    """A registered estimator: a batched solve over ``Model.statistic``.

    ``solve(stats, known)`` maps the statistics of R datasets, stacked as
    the rows of ``stats``, to ``(estimates, converged, score_norm)``: the
    ``(R, d)`` values of the ``free`` parameters (NaN rows where there is
    no estimate), an ``(R,)`` flag and the absolute score at each
    estimate.  ``known`` supplies the fixed values the solve reads.
    """

    free: tuple
    solve: Callable[[np.ndarray, dict], tuple]


#: The registered estimators by id.
ESTIMATORS = {
    "trinormal_mu12": FastPath(("mu",), _solve_mu12),
    "trinormal_mu123": FastPath(("mu",), _solve_mu123),
    "multinomial4_mle": FastPath(("theta",), _solve_multinomial),
    "emvn_pairwise_rho": FastPath(("rho", "sigma2"), _solve_pairwise_free),
    "emvn_pairwise_rho_known_sigma": FastPath(("rho",), _solve_pairwise_known),
}


def _unit_margins(spec: CompositeSpec):
    """Sorted index tuples of a spec made only of unit-weight margins,
    repeats kept, or None for any other spec."""
    if any(comp.kind != "margin" or comp.weight != 1.0
           for comp in spec.components):
        return None
    return sorted(tuple(sorted(comp.indices)) for comp in spec.components)


def registered_closed_form(model: Model, spec: CompositeSpec, theta_like,
                           fixed=None):
    """Return ``(entry, known)``: the :class:`FastPath` in
    :data:`ESTIMATORS` that fits this spec and the values its solve reads,
    or None.

    Matching is structural (spec components plus which parameters are
    known, by ``fixed`` or by a known tag in ``theta_like``), so hand-built
    specs qualify as well as the constructors.
    """
    theta = _hold(theta_like, fixed)
    free = list(theta.free_names)
    margins = _unit_margins(spec)

    if (isinstance(model, EMVN)
            and margins == list(combinations(range(model.dim), 2))):
        if free == ["rho", "sigma2"]:
            return ESTIMATORS["emvn_pairwise_rho"], {}
        if free == ["rho"]:
            return (ESTIMATORS["emvn_pairwise_rho_known_sigma"],
                    {"sigma2": theta["sigma2"]})

    if (isinstance(model, Multinomial4) and margins == [(0, 1, 2)]
            and free == ["theta"]):
        return ESTIMATORS["multinomial4_mle"], {"k": model.k}

    if isinstance(model, TriNormal) and free == ["mu"]:
        if margins == [(0,), (1,)]:
            return ESTIMATORS["trinormal_mu12"], {}
        if margins == [(0,), (1,), (2,)]:
            return ESTIMATORS["trinormal_mu123"], {"sigma2": theta["sigma2"]}
    return None


def _hold(theta_like: ParamVector, fixed) -> ParamVector:
    """``theta_like`` with the ``fixed`` values set and tagged known."""
    fixed = dict(fixed or {})
    return theta_like.with_values(**fixed).with_roles(
        **{name: "known" for name in fixed})


def check_identified(model: Model, spec: CompositeSpec, theta_like,
                     fixed=None) -> None:
    """Raise UnsupportedSpec when a Newton-route spec carries no
    information on its free parameters at ``theta_like`` (``fixed`` held
    known): its exact sensitivity, the H that Newton steps with, is
    singular.  Every Newton fit of such a spec fails on it, so a study can
    reject it before drawing any data.  Fast-path specs pass unchecked."""
    if registered_closed_form(model, spec, theta_like, fixed) is not None:
        return
    theta = _hold(theta_like, fixed)
    try:
        singular = is_singular(exact_sensitivity(spec, model, theta))
    except SingularMatrix:
        singular = True
    if singular:
        raise UnsupportedSpec(f"spec {spec.name!r} does not identify "
                              f"{', '.join(theta.free_names)} in {model!r}: "
                              f"its exact information is singular")


# ---------------------------------------------------------------------------
# default starting points (method of moments) and the fit routes
# ---------------------------------------------------------------------------


def moment_starts(model: Model, stats, theta_like: ParamVector,
                  fixed=None) -> ParamBatch:
    """Data-driven interior starting points for Newton, one per row of
    ``stats`` (``model.statistic`` of each dataset): the method of moments,
    clipped inside the domain.  Parameters that ``theta_like`` tags known
    keep their values, and so do the ``fixed`` ones, which are tagged known."""
    n, ybar, scatter = unpack_statistic(stats)
    p = model.dim
    if isinstance(model, EMVN):
        _, _, q, w = _pair_sums(stats).T
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
    theta = _hold(theta_like, fixed)
    values = np.tile(theta.values, (len(stats), 1))
    for name, column in updates.items():
        if name in theta.free_names:
            values[:, theta.names.index(name)] = column
    return ParamBatch(theta.names, values, theta.roles)


def batch_route(model: Model, spec: CompositeSpec, theta_like, fixed=None):
    """``solve(stats) -> Fits`` fitting a spec on many datasets.

    ``solve`` fits the datasets whose ``model.statistic`` rows are stacked
    in ``stats``: by the registered fast path when one matches, where a
    dataset with no score root in the domain fails with NoRootInDomain,
    and by batched Newton from the moment starts otherwise.  :func:`fit`
    is the one-dataset case.
    """
    match = registered_closed_form(model, spec, theta_like, fixed)
    if match is None:
        return lambda stats: newton_solve(
            spec, model, stats, moment_starts(model, stats, theta_like, fixed))
    entry, known = match
    theta = _hold(theta_like, fixed)
    cols = [theta.names.index(name) for name in entry.free]

    def solve(stats):
        estimates, converged, score_norm = entry.solve(stats, known)
        values = np.tile(theta.values, (len(stats), 1))
        values[:, cols] = estimates
        errors = [None] * len(stats)
        for i in np.flatnonzero(~converged):
            errors[i] = NoRootInDomain(f"spec {spec.name!r}: no score root "
                                       f"inside the domain of {model!r}")
        return Fits(ParamBatch(theta.names, values, theta.roles),
                    np.zeros(len(stats), dtype=int), converged, score_norm,
                    errors, "closed-form")
    return solve


def fit(spec: CompositeSpec, model: Model, data, theta_like: ParamVector,
        fixed=None) -> EstimateResult:
    """Fit a spec on one dataset: the one-row case of :func:`batch_route`.

    Returns ``theta_like`` with ``fixed`` held known and the free values
    fitted, or raises the fit's failure (NoRootInDomain, DomainError,
    SingularMatrix, or UnsupportedSpec when nothing is free).
    """
    stats = model.statistic(model.check_data(data))[None]
    return batch_route(model, spec, theta_like, fixed)(stats).result()


closed_form = mcle_newton = fit  # perfbench/tracing.py wraps these names; remove with ROADMAP item 5
