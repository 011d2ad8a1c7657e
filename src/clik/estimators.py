"""Maximum composite likelihood estimation.

Every fit is one solve over the stacked ``Model.statistic`` rows (``n``,
the sample mean and the scatter about it) of many datasets, so a
simulation study fits all replicates of a run in one call.
:func:`batch_route` is the one place that picks the solve for a spec,
and :func:`fit` is its one-dataset case; both routes fill the same
per-dataset record, :class:`Fits`.  The registered fast paths are the
equicorrelated-normal pairwise correlation estimators, which read two
sums derived from the statistic: with the variance profiled out the
estimate is explicit, and with it known the estimate is a root of a
cubic, found for every dataset at once by one batched eigenvalue call.
Every other spec is solved by Fisher scoring on the summed composite
score, which follows exactly from the statistic, with the exact
sensitivity in place of the score Jacobian; all datasets iterate in
lockstep.  Where the score is linear in the free parameters (the
two-block normal means, the four-cell multinomial MLE) one scoring step
from the moment start lands on the estimate.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .composite import (CompositeSpec, _contract, _moment,
                        _sensitivity_forms, exact_sensitivity)
from .composite import composite_score  # noqa: F401  (perfbench/tracing.py wraps it here)
from .errors import (DomainError, NoRootInDomain, SingularMatrix,
                     UnsupportedSpec)
from .matrixops import is_singular
from .models import (EMVN, Model, ParamBatch, ParamVector, TriNormal,
                     unpack_statistic)

NEWTON_MAX_ITER = 100
NEWTON_TOL_PER_OBS = 1e-8
#: Step halvings tried before a Newton fit stops where it is.
NEWTON_MAX_HALVINGS = 60
#: How far inside the open domain a pairwise estimate of rho must lie.
ROOT_MARGIN = 1e-6
#: Newton steps that polish each eigenvalue root of a cubic.
POLISH_STEPS = 2


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


def _evaluate(spec, model, stats, points):
    """``(score, H, outside, singular)``: the summed score of each row of
    ``stats`` at the matching point of ``points`` and the exact sensitivity
    there (:func:`clik.composite.exact_sensitivity`), from one build of the
    forms of the spec's margins and the full one; NaN on the rows whose
    point is not interior (flagged in ``outside``) or whose margin
    covariances ``sym_invert`` finds singular (flagged in ``singular``)."""
    q = len(points.free_names)
    outside = ~model.interior(points)
    singular = np.zeros(len(points), dtype=bool)
    score = np.full((len(points), q), np.nan)
    H = np.full((len(points), q, q), np.nan)
    while not np.all(outside | singular):
        keep = np.flatnonzero(~(outside | singular))
        at = points.take(keep)
        try:
            forms, full = _sensitivity_forms(spec, model, at)
        except SingularMatrix as exc:
            singular[keep[exc.rows]] = True
        else:
            score[keep] = _contract(forms, stats[keep], model._mean(at))
            H[keep] = _moment(forms, full, model._cov(at))
            break
    return score, H, outside, singular


def newton_solve(spec: CompositeSpec, model: Model, stats,
                 start: ParamBatch, max_iter: int = NEWTON_MAX_ITER
                 ) -> Fits:
    """Fisher scoring on the summed composite score of many datasets.

    Row ``i`` of ``stats`` is ``model.statistic`` of dataset ``i`` and is
    fitted from ``start.point(i)``; the free parameters of ``start`` (any
    number, at least one) are iterated, the known ones held.  All rows
    iterate in lockstep, each exactly as it would alone: a step
    ``(n H)^-1 sum(u_c)``, the score and the exact sensitivity ``H`` from
    one evaluation (:func:`_evaluate`) at the start and at each trial
    point; a SingularMatrix failure when ``matrixops.is_singular`` calls
    ``H`` singular; step halving until the iterate is interior with a
    finite score; and the best iterate kept with its ``H``.  A fit
    converges when the sup norm of its summed score is below ``1e-8 * n``.
    A fit whose step is halved on two consecutive iterations is pressed
    against the domain boundary and stops there, not converged and without
    an error.  ``H`` at every returned estimate must be nonsingular as
    well, so a spec carrying no information on a free parameter fails even
    when the start already zeroes the score.  A fit whose start leaves the
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

    score, H, outside, singular = _evaluate(spec, model, stats, start)
    fail(np.flatnonzero(outside), DomainError,
         f"start outside the domain of {model!r}")
    fail(np.flatnonzero(singular), SingularMatrix, "singular covariance")
    norm = np.max(np.abs(score), axis=1)
    best_norm, best, best_H = norm.copy(), values.copy(), H.copy()
    cut = np.zeros(len(start), dtype=bool)      # step halved last iteration

    active = np.flatnonzero(~(outside | singular | (norm < tol)))
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        flat = is_singular(H[active])
        fail(active[flat], SingularMatrix, "singular sensitivity")
        rows = active[~flat]
        delta = np.linalg.solve(stats[rows, 0][:, None, None] * H[rows],
                                score[rows][..., None])[..., 0]

        step = np.ones(rows.size)
        pending = np.arange(rows.size)
        moved = []
        for _ in range(NEWTON_MAX_HALVINGS):
            cand = values[rows[pending]]
            cand[:, cols] = cand[:, cols] + step[pending, None] * delta[pending]
            trial, trial_H, outside, singular = _evaluate(
                spec, model, stats[rows[pending]], batch(cand))
            fail(rows[pending[singular]], SingularMatrix, "singular covariance")
            good = ~(outside | singular) & np.all(np.isfinite(trial), axis=1)
            accepted = rows[pending[good]]
            values[accepted] = cand[good]
            score[accepted] = trial[good]
            H[accepted] = trial_H[good]
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
        best_H[better] = H[better]
        halved = np.zeros(len(start), dtype=bool)
        halved[rows] = step < 1.0
        active = moved[~(norm[moved] < tol[moved]) & ~(halved & cut)[moved]]
        cut = halved

    values = best
    ok = np.flatnonzero([e is None for e in errors])
    fail(ok[is_singular(best_H[ok])], SingularMatrix,
         "singular sensitivity at the estimate")
    failed = np.array([e is not None for e in errors])
    return Fits(batch(best), iterations, (best_norm < tol) & ~failed,
                best_norm, errors, "newton")


# ---------------------------------------------------------------------------
# equicorrelated-normal pairwise estimators
# ---------------------------------------------------------------------------
#
# Every bivariate margin has covariance sigma2 * [[1, rho], [rho, 1]], so the
# total pairwise log likelihood depends on the data only through
#   Q = sum of squared entries,   W = sum of squared row sums:
#   cl(rho, sigma2) = -Nc log(2 pi) - Nc log sigma2 - (Nc/2) log(1 - rho^2)
#                     - T(rho) / (2 sigma2),
# with Nc = n p (p-1)/2 and T(rho) = (a - 2 c rho) / (1 - rho^2), where
# a = (p-1) Q and c = (W - Q)/2.  Both estimators are roots of polynomials:
# - sigma2 profiled out (sigma2_hat(rho) = T(rho) / (2 Nc)), the profile
#   score Nc (2c - a rho) / ((1 - rho^2)(a - 2 c rho)), whose denominator is
#   positive on the domain, has the one root rho = 2c/a, where sigma2_hat =
#   Q / (n p): the method of moments, and the Gaussian MLE;
# - sigma2 known, sigma2 (1 - rho^2)^2 times the score is the cubic
#   -s rho^3 + c rho^2 + (s - a) rho + c, with s = Nc sigma2.


def _pair_sums(stats) -> np.ndarray:
    """``(n, p, Q, W)`` rows from ``Model.statistic`` rows: with ``S`` the
    scatter about the sample mean, ``Q = tr S + n ybar'ybar`` and
    ``W = 1'S1 + n (1'ybar)^2``, each a sum of two nonnegative terms."""
    n, ybar, scatter = unpack_statistic(stats)
    q = np.trace(scatter, axis1=-2, axis2=-1) + n * (ybar * ybar).sum(axis=-1)
    w = scatter.sum(axis=(-2, -1)) + n * ybar.sum(axis=-1) ** 2
    return np.stack([n, np.full_like(n, ybar.shape[-1]), q, w], axis=-1)


def _pair_moments(n, p, q, w):
    """``(rho, sigma2)``: ``(W/Q - 1) / (p-1)`` and ``Q / (n p)``, the
    method of moments and the pairwise estimates with sigma2 free; NaN
    where ``Q = 0``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return (w / q - 1.0) / (p - 1), q / (n * p)


def _pair_domain(p):
    """Ends of the closed interval in which a pairwise estimate of rho must
    lie: ``ROOT_MARGIN`` inside ``(-1/(p-1), 1)``."""
    return -1.0 / (p - 1) + ROOT_MARGIN, 1.0 - ROOT_MARGIN


def _t_and_deriv(rho, p, q, w):
    a = (p - 1) * q
    c = 0.5 * (w - q)
    om = 1.0 - rho * rho
    t = (a - 2.0 * rho * c) / om
    tp = (2.0 * rho * a - 2.0 * c * (1.0 + rho * rho)) / (om * om)
    return t, tp


def _pair_score(rho, p, q, w, nc, sigma2):
    """Score in rho with ``sigma2`` known."""
    _, tp = _t_and_deriv(rho, p, q, w)
    return nc * rho / (1.0 - rho * rho) - tp / (2.0 * sigma2)


def _pair_loglik(rho, p, q, w, nc, sigma2):
    """The objective :func:`_pair_score` differentiates, up to a constant."""
    t, _ = _t_and_deriv(rho, p, q, w)
    return (-nc * np.log(sigma2) - 0.5 * nc * np.log(1.0 - rho * rho)
            - t / (2.0 * sigma2))


def _cubic_roots(coef, lo, hi):
    """Real roots in ``[lo[k, 0], hi[k, 0]]`` of the cubic ``coef[k, 0] x^3 +
    coef[k, 1] x^2 + coef[k, 2] x + coef[k, 3]`` of every row ``k``.

    The roots are the eigenvalues of the companion matrices, all rows in
    one ``np.linalg.eigvals`` call; an eigenvalue with a nonzero imaginary
    part is not a root.  Each real one is polished by ``POLISH_STEPS``
    Newton steps on the cubic.  Returns an ``(R, 3)`` array, the roots of a
    row ascending and NaN after them; a row with a non-finite coefficient or
    a zero leading one has none.
    """
    coef = np.asarray(coef, dtype=float)
    with np.errstate(all="ignore"):
        monic = coef[:, 1:] / coef[:, :1]
        ok = np.all(np.isfinite(monic), axis=1)
        companion = np.zeros((len(coef), 3, 3))
        companion[:, 0] = np.where(ok[:, None], -monic, 0.0)
        companion[:, 1, 0] = companion[:, 2, 1] = 1.0
        eig = np.linalg.eigvals(companion)
        x = np.where((np.imag(eig) == 0.0) & ok[:, None], np.real(eig), np.nan)
        b2, b1, b0 = (monic[:, [k]] for k in range(3))
        for _ in range(POLISH_STEPS):
            f = ((x + b2) * x + b1) * x + b0
            df = (3.0 * x + 2.0 * b2) * x + b1
            step = x - f / df
            x = np.where(np.isfinite(step), step, x)
        inside = (x >= lo) & (x <= hi)
    return np.sort(np.where(inside, x, np.nan), axis=1)


def _solve_pairwise_free(stats, known):
    """Pairwise rho and sigma2 of each dataset: the closed form of
    :func:`_pair_moments`.  A row converges when its rho lies in the
    interval of :func:`_pair_domain`, where the profile score changes sign
    once; other rows get NaN."""
    n, p, q, w = _pair_sums(stats).T
    rho, sigma2 = _pair_moments(n, p, q, w)
    lo, hi = _pair_domain(p)
    ok = (rho >= lo) & (rho <= hi)
    estimates = np.where(ok[:, None], np.column_stack([rho, sigma2]), np.nan)
    return estimates, ok, np.zeros(len(ok))


def _solve_pairwise_known(stats, known):
    """Pairwise rho of each dataset with ``known["sigma2"]`` held.

    The candidates are the roots of the score's cubic in the interval of
    :func:`_pair_domain` (:func:`_cubic_roots`); a row with several keeps
    the one with the highest pairwise log likelihood, the lowest on a tie.
    Rows without one get NaN.
    """
    sigma2 = float(known["sigma2"])
    n, p, q, w = (col[:, None] for col in _pair_sums(stats).T)
    nc = n * p * (p - 1) / 2.0
    with np.errstate(all="ignore"):
        s, a, c = nc * sigma2, (p - 1) * q, 0.5 * (w - q)
        cand = _cubic_roots(np.hstack([-s, c, s - a, c]), *_pair_domain(p))
        found = ~np.isnan(cand)
        objective = np.where(found, _pair_loglik(cand, p, q, w, nc, sigma2),
                             -np.inf)
        pick = np.argmax(objective, axis=1)
        rows = np.arange(len(cand))
        # roots ascend, NaN last: a max of -inf on an empty slot takes slot 0
        rho = cand[rows, np.where(found[rows, pick], pick, 0)]
        resid = np.abs(_pair_score(rho, p[:, 0], q[:, 0], w[:, 0], nc[:, 0],
                                   sigma2))
    return rho[:, None], ~np.isnan(rho), resid


# ---------------------------------------------------------------------------
# registered estimators
# ---------------------------------------------------------------------------


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
    return None


def _hold(theta_like: ParamVector, fixed) -> ParamVector:
    """``theta_like`` with the ``fixed`` values set and tagged known."""
    fixed = dict(fixed or {})
    return theta_like.with_values(**fixed).with_roles(
        **{name: "known" for name in fixed})


def check_identified(model: Model, spec: CompositeSpec, theta_like,
                     fixed=None) -> None:
    """Raise UnsupportedSpec when a spec carries no information on its
    free parameters at ``theta_like`` (``fixed`` held known): its exact
    sensitivity, the H that Newton steps with, is singular.  Every Newton
    fit of such a spec fails on it, so a study can reject it before drawing
    any data."""
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
        rho, sigma2 = _pair_moments(*_pair_sums(stats).T)
        lo, hi = -1.0 / (p - 1), 1.0
        pad = 0.02 * (hi - lo)
        updates = {"rho": np.clip(rho, lo + pad, hi - pad),
                   "sigma2": np.maximum(sigma2, 1e-6)}
    elif isinstance(model, TriNormal):
        # a constant column (or a single row) has no sample correlation or
        # variance: the start takes 0 and the floor instead
        spread = np.sqrt(scatter[:, 0, 0] * scatter[:, 1, 1])
        corr = np.divide(scatter[:, 0, 1], spread, out=np.zeros_like(spread),
                         where=spread > 0)
        updates = {"mu": ybar.mean(axis=1),
                   "rho": np.clip(corr, -0.96, 0.96),
                   "sigma2": np.maximum(scatter[:, 2, 2] / np.maximum(n - 1, 1),
                                        1e-6)}
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
