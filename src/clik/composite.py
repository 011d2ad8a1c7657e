"""Composite likelihoods: specs, scores, and information matrices.

A composite spec is a weighted collection of margin / conditional
components.  This module evaluates the composite log density and score,
estimates the sensitivity matrix H (expected negative score Jacobian),
variability matrix J (score covariance) and Godambe information
G = H J^-1 H either by Monte Carlo or exactly (Gaussian quadratic-form
moments; four-cell enumeration for the multinomial), quantifies
information bias, checks full efficiency through the linear score
recovery condition, projects scores onto information-unbiased form, and
computes profile / known-nuisance asymptotic variances from a triple.

Every component score is an affine-quadratic form in ``r = y - mean``,
and one ``Model.margin_score_reps`` call builds the forms of every
distinct margin of a spec, so the composite score is one combined form
per free parameter: :func:`composite_score` contracts it with each row,
and :func:`summed_score` with a dataset's statistic.  One moment kernel,
:func:`_moment`, gives ``E[u_a u_b']`` of the forms of any two scores:
the exact J, and the exact sensitivity ``E[u_c u']`` that the Newton
route steps with (:func:`exact_sensitivity`).  Monte Carlo information
is one blocked pass over the draws: each batch is scored at ``theta``,
reduced to its score mean and covariance, and summarised by its
statistic while it is in cache.  Monte Carlo H is a central difference
of sample-mean scores over common draws, with the means at the stencil
points taken from the batch statistics; J is pooled from the batch
covariances and means, and the batch Godambe matrices are one stacked
solve, as are the partitioned variances of a stack of triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .fileio import atomic_csv, fmt
from .matrixops import asymmetry, solve_sym, sym_invert, symmetrize
from .models import (GaussianModel, Model, Multinomial4, ParamBatch,
                     ParamVector, _as_rows, affine_quadratic, unpack_forms,
                     unpack_statistic)

#: Central-difference step scale for the Monte Carlo sensitivity matrix.
FD_STEP_INFO = 1e-4
#: Step scale for the finite-difference fallback score.
FD_STEP_SCORE = 1e-5
#: Step scale for differentiating exact mean scores.
FD_STEP_EXACT = 1e-6

#: Largest tolerated relative asymmetry of a numerically computed H.
H_ASYMMETRY_TOL = 1e-6
#: Fewest batches a batch-means standard error is computed from.
MIN_BATCHES = 10
#: Fewest draws a Monte Carlo information estimate accepts.
MIN_DRAWS = 1000


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    """One component likelihood: a margin over ``indices``, or the
    conditional of ``indices[0]`` given the ``given`` set."""

    kind: str                   # "margin" | "conditional"
    indices: tuple
    given: tuple = ()
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in ("margin", "conditional"):
            raise InvalidArgument(f"unknown component kind {self.kind!r}")
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "given", tuple(int(i) for i in self.given))
        if not self.indices:
            raise InvalidArgument("component needs at least one index")
        if self.kind == "margin" and self.given:
            raise InvalidArgument("margin components take no given set")
        if self.kind == "conditional":
            if len(self.indices) != 1:
                raise InvalidArgument(
                    "conditional components have a single target")
            if self.indices[0] in self.given:
                raise InvalidArgument("target appears in its own given set")
        if not self.weight >= 0:
            raise InvalidArgument("component weights must be nonnegative")


@dataclass(frozen=True)
class CompositeSpec:
    """A named, weighted set of component likelihoods."""

    name: str
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise InvalidArgument("spec needs at least one component")

    def __repr__(self):
        return f"CompositeSpec({self.name!r}, {len(self.components)} components)"


def independence(p: int) -> CompositeSpec:
    """All univariate margins."""
    return CompositeSpec("independence",
                         [Component("margin", (r,)) for r in range(p)])


def pairwise(p: int) -> CompositeSpec:
    """All p(p-1)/2 bivariate margins."""
    comps = [Component("margin", (r, s))
             for r in range(p) for s in range(r + 1, p)]
    return CompositeSpec("pairwise", comps)


def full_conditional(p: int) -> CompositeSpec:
    """Each coordinate conditioned on all the others."""
    comps = [Component("conditional", (r,),
                       tuple(j for j in range(p) if j != r))
             for r in range(p)]
    return CompositeSpec("full_conditional", comps)


def chain(p: int, subset=None) -> CompositeSpec:
    """Product of ``f(y_i | y_0..y_{i-1})`` over ``i`` in ``subset``.

    Such products are information-unbiased by construction: the component
    scores are mutually uncorrelated.
    """
    subset = tuple(range(p)) if subset is None else tuple(sorted(set(subset)))
    comps = []
    for i in subset:
        if i == 0:
            comps.append(Component("margin", (0,)))
        else:
            comps.append(Component("conditional", (i,), tuple(range(i))))
    return CompositeSpec("chain", comps)


def singleton_margins(indices) -> CompositeSpec:
    """Independence-style spec over a chosen subset of coordinates."""
    idx = tuple(sorted(set(int(i) for i in indices)))
    return CompositeSpec(f"margins{list(idx)}",
                         [Component("margin", (r,)) for r in idx])


def full_likelihood(p: int) -> CompositeSpec:
    """The joint density as a single component."""
    return CompositeSpec("full", [Component("margin", tuple(range(p)))])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _margins(spec: CompositeSpec) -> tuple:
    """The distinct (sorted) index sets of the margins the components of
    ``spec`` read: each component's joint set and, for a conditional, its
    given set, in order of first use."""
    sets = {}
    for comp in spec.components:
        sets[tuple(sorted(comp.given + comp.indices))] = None
        if comp.kind == "conditional":
            sets[tuple(sorted(comp.given))] = None
    return tuple(sets)


def _component_values(spec: CompositeSpec, values):
    """Yield ``(weight, value)`` for each component of ``spec``, with
    ``values`` mapping each index set of :func:`_margins` to that margin's
    value: a margin's value is ``values[indices]``, a conditional's
    ``values[joint] - values[given]``."""
    for comp in spec.components:
        value = values[tuple(sorted(comp.given + comp.indices))]
        if comp.kind == "conditional":
            value = value - values[tuple(sorted(comp.given))]
        yield comp.weight, value


def _weighted_total(spec: CompositeSpec, values):
    """Sum of ``weight * value`` over :func:`_component_values`."""
    return sum(weight * value
               for weight, value in _component_values(spec, values))


def _margin_values(spec: CompositeSpec, margin) -> dict:
    """``{indices: margin(indices)}`` over :func:`_margins`: one call per
    distinct margin."""
    return {idx: margin(idx) for idx in _margins(spec)}


def _spec_forms(spec, model, theta):
    """Total composite score as packed affine-quadratic forms of
    ``r = y - mean`` (see :func:`clik.models.pack_forms`), from one
    ``margin_score_reps`` call."""
    sets = _margins(spec)
    return _weighted_total(spec, dict(zip(
        sets, model.margin_score_reps(sets, theta))))


def composite_loglik(spec: CompositeSpec, model: Model, Y, theta: ParamVector):
    """Weighted sum of component log densities, per observation."""
    rows, single = _as_rows(Y, model.dim)
    total = _weighted_total(spec, _margin_values(
        spec, lambda idx: model.margin_loglik(idx, rows, theta)))
    return float(total[0]) if single else total


def composite_score(spec: CompositeSpec, model: Model, Y, theta: ParamVector):
    """Gradient of :func:`composite_loglik` in the free parameters, per row.

    The spec's combined forms (:func:`_spec_forms`) are built once at
    ``theta`` and contracted with every row; :func:`component_scores`
    keeps the per-margin route.
    """
    rows, single = _as_rows(Y, model.dim)
    total = affine_quadratic(*unpack_forms(_spec_forms(spec, model, theta),
                                           model.dim),
                             rows - model._mean(theta))
    return total[0] if single else total


def summed_score(spec: CompositeSpec, model: Model, stats, theta):
    """``composite_score(spec, model, Y, theta).sum(axis=0)`` from the
    statistic ``model.statistic(Y)`` alone.

    With ``d = ybar - mean(theta)``, the scatter about the model mean is
    ``n d d' + W``, so each margin's summed score is one contraction of its
    packed forms with ``[n, n d, (n d d' + W) / 2]``.  ``stats`` may be a
    stack ``(R, K)`` with ``theta`` a ParamBatch of R points; the result is
    then ``(R, q)``.
    """
    n, ybar, scatter = unpack_statistic(stats)
    n, d = n[..., None], ybar - model._mean(theta)
    moment = 0.5 * (n[..., None] * (d[..., :, None] * d[..., None, :]) + scatter)
    z = np.concatenate([n, n * d, moment.reshape(moment.shape[:-2] + (-1,))],
                       axis=-1)
    sets = _margins(spec)
    sums = (model.margin_score_reps(sets, theta) * z[..., None, :]).sum(axis=-1)
    return _weighted_total(spec, dict(zip(sets, sums)))


def component_scores(spec: CompositeSpec, model: Model, Y, theta: ParamVector):
    """Unweighted per-component score arrays (list of ``(n, q)``)."""
    rows, _ = _as_rows(Y, model.dim)
    return [value for _, value in _component_values(spec, _margin_values(
        spec, lambda idx: model.margin_score(idx, rows, theta)))]


def composite_score_fd(spec: CompositeSpec, model: Model, Y, theta: ParamVector,
                       step_scale: float = FD_STEP_SCORE):
    """Central-difference score: the independent numeric route used to
    validate the analytic one (and available for custom specs)."""
    rows, single = _as_rows(Y, model.dim)
    free = theta.free_names
    out = np.empty((rows.shape[0], len(free)))
    for a, name in enumerate(free):
        h = step_scale * max(1.0, abs(theta[name]))
        up = composite_loglik(spec, model, rows, theta.with_values(**{name: theta[name] + h}))
        dn = composite_loglik(spec, model, rows, theta.with_values(**{name: theta[name] - h}))
        out[:, a] = (up - dn) / (2.0 * h)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# information triples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfoTriple:
    """Sensitivity H, variability J and Godambe information G = H J^-1 H
    at a fixed parameter point, with provenance and (for Monte Carlo)
    batch-means standard errors and the batch matrices behind them."""

    param_names: tuple
    sensitivity: np.ndarray
    variability: np.ndarray
    godambe: np.ndarray
    provenance: str                      # "analytic" | "monte-carlo"
    draws: int | None = None
    sensitivity_se: np.ndarray | None = None
    variability_se: np.ndarray | None = None
    godambe_se: np.ndarray | None = None
    batch_sensitivity: np.ndarray | None = None     # (B, q, q)
    batch_variability: np.ndarray | None = None
    batch_godambe: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.sensitivity.shape[0]

    def to_csv(self, path) -> None:
        """Write ``matrix,row,col,value,std_err`` rows for H, J and G."""
        named = [("H", self.sensitivity, self.sensitivity_se),
                 ("J", self.variability, self.variability_se),
                 ("G", self.godambe, self.godambe_se)]
        rows = []
        for label, mat, se in named:
            for i in range(self.dim):
                for j in range(self.dim):
                    err = "" if se is None else fmt(se[i, j])
                    rows.append([label, i, j, fmt(mat[i, j]), err])
        atomic_csv(path, ["matrix", "row", "col", "value", "std_err"], rows)


def batch_slices(n: int, batches: int) -> list:
    """``batches`` contiguous slices partitioning ``range(n)``: the batches
    behind every batch-means standard error.  Raises InvalidArgument for
    fewer than ``MIN_BATCHES``, too few for the spread of the batch values
    to estimate their standard error, and when a batch would hold fewer
    than 2 rows, too few for a batch covariance."""
    if batches < MIN_BATCHES:
        raise InvalidArgument(
            f"batches must be >= {MIN_BATCHES}, got {batches}")
    edges = np.linspace(0, n, batches + 1).astype(int)
    if np.min(np.diff(edges)) < 2:
        raise InvalidArgument(f"{batches} batches of {n} rows leave a batch "
                              f"with fewer than 2 rows")
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def batch_se(per_batch) -> np.ndarray:
    """Batch-means standard error of the values stacked along axis 0, one
    per batch of :func:`batch_slices`."""
    per_batch = np.asarray(per_batch)
    return per_batch.std(axis=0, ddof=1) / np.sqrt(per_batch.shape[0])


def sample_cov(x, y=None):
    """Sample cross-covariance of paired rows ``x`` (n, a) and ``y`` (n, b),
    or of paired values when both are (n,); with ``y`` omitted, the
    symmetrized covariance of ``x``, always (a, a)."""
    dev = x - x.mean(axis=0)
    if y is None:
        return symmetrize(dev.T @ dev / (x.shape[0] - 1))
    return dev.T @ (y - y.mean(axis=0)) / (x.shape[0] - 1)


def _pooled_cov(covs, means, sizes):
    """The :func:`sample_cov` of the rows of every batch together, from each
    batch's covariance, mean and size: ``(sum_b (n_b - 1) C_b + sum_b n_b
    (m_b - m)(m_b - m)') / (n - 1)``, with ``m`` the mean of all rows."""
    n = sizes.sum()
    dev = means - sizes @ means / n
    within = np.tensordot(sizes - 1, covs, axes=1)
    return symmetrize((within + (sizes[:, None] * dev).T @ dev) / (n - 1))


def _godambe(H: np.ndarray, J: np.ndarray) -> np.ndarray:
    """``H J^-1 H``, or that of each matrix pair of a stack."""
    return symmetrize(H @ solve_sym(J, H))


def _info_from_sample(spec: CompositeSpec, model: Model, Y, theta: ParamVector,
                      batches: int, M=None):
    """Monte Carlo InfoTriple of the composite score (right-multiplied by
    ``M`` when given) over the draws ``Y``.  Returns ``(triple,
    scores_at_theta)``, the scores ``(n, q)`` the transpose of one
    feature-major ``(q, n)`` buffer.

    One blocked pass over the ``batches`` contiguous batches of
    :func:`batch_slices`: the spec's forms are built once at ``theta``,
    and each batch, while it is in cache, is scored by
    :func:`clik.models.affine_quadratic`, written feature-major into the
    buffer, reduced to its mean and covariance, and summarised by
    ``model.statistic``.  J is the sample covariance of all the scores,
    pooled (:func:`_pooled_cov`) from the batch covariances and means.  H
    is minus the central difference of the sample-mean score in each free
    parameter (common draws across shifts); the mean at every stencil
    point comes from the batch statistics through one :func:`summed_score`
    call, so only the scores at ``theta`` are evaluated row by row.
    Standard errors come from the batch values; the batch Godambe matrices
    are one stacked solve.  ``Y`` is not modified.

    A genuine composite score is a gradient field, so its per-draw
    Jacobian is symmetric and the estimated H must be symmetric to
    round-off; for a projected score (``M`` given) H is symmetric only in
    expectation, and the check is relaxed to the batch noise level.
    """
    free = theta.free_names
    q, n = len(free), Y.shape[0]
    slices = batch_slices(n, batches)
    c, B, A = unpack_forms(_spec_forms(spec, model, theta), model.dim)
    sizes = np.array([sl.stop - sl.start for sl in slices])
    mean = model._mean(theta)
    scores = np.empty((q, n))
    means = np.empty((batches, q))
    J_batch = np.empty((batches, q, q))
    stats = []
    for b, sl in enumerate(slices):
        U = affine_quadratic(c, B, A, Y[sl] - mean).T
        block = scores[:, sl]
        block[...] = U if M is None else M.T @ U
        # block.T is column-major, so both reduce along contiguous rows
        means[b] = block.mean(axis=1)
        J_batch[b] = sample_cov(block.T)
        stats.append(model.statistic(Y[sl]))
    J_full = _pooled_cov(J_batch, means, sizes)

    steps = np.array([FD_STEP_INFO * max(1.0, abs(theta[name])) for name in free])
    stencil = ParamBatch.stack([theta.with_values(**{name: theta[name] + sign * h})
                                for name, h in zip(free, steps)
                                for sign in (1.0, -1.0)])
    sums = summed_score(spec, model, np.tile(np.stack(stats), (2 * q, 1)),
                        stencil.take(np.repeat(np.arange(2 * q), batches)))
    if M is not None:
        sums = sums @ M
    sums = sums.reshape(q, 2, batches, q)         # (column, side, batch, row)
    diff = (sums[:, 0] - sums[:, 1]) / (2.0 * steps[:, None, None])
    Hcols_full = -(diff.sum(axis=1) / n).T
    Hcols_batch = -np.transpose(diff / sizes[:, None], (1, 2, 0))

    allow = H_ASYMMETRY_TOL
    if M is not None:
        se = batch_se(Hcols_batch - np.transpose(Hcols_batch, (0, 2, 1)))
        scale = max(1.0, float(np.max(np.abs(Hcols_full))))
        allow = max(allow, 6.0 * float(np.max(se)) / scale)
    if asymmetry(Hcols_full) > allow:
        raise InvalidArgument(f"sensitivity estimate asymmetric beyond "
                              f"tolerance: {asymmetry(Hcols_full):g}")
    H_full, H_batch = symmetrize(Hcols_full), symmetrize(Hcols_batch)
    G_full, G_batch = _godambe(H_full, J_full), _godambe(H_batch, J_batch)

    triple = InfoTriple(
        param_names=free,
        sensitivity=H_full,
        variability=J_full,
        godambe=G_full,
        provenance="monte-carlo",
        draws=n,
        sensitivity_se=batch_se(H_batch),
        variability_se=batch_se(J_batch),
        godambe_se=batch_se(G_batch),
        batch_sensitivity=H_batch,
        batch_variability=J_batch,
        batch_godambe=G_batch,
    )
    return triple, scores.T


def info_monte_carlo(spec: CompositeSpec, model: Model, theta: ParamVector,
                     draws: int, seed, batches: int = 20) -> InfoTriple:
    """Monte Carlo information triple of a composite spec.

    ``draws`` independent observations are sampled at ``theta``; H is minus
    the central difference of the sample-mean score over these common
    draws (the stencil means evaluated from per-batch statistics), J the
    score covariance, and per-entry standard errors come from ``batches``
    batch means.
    """
    if draws < MIN_DRAWS:
        raise InvalidArgument(f"draws must be >= {MIN_DRAWS}")
    Y = model.sample(theta, draws, seed)
    triple, _ = _info_from_sample(spec, model, Y, theta, batches)
    return triple


def projection_matrix(triple: InfoTriple) -> np.ndarray:
    """The matrix ``J^-1 H``; rows of scores are projected by ``U @ M``."""
    return solve_sym(triple.variability, triple.sensitivity)


def project_score(triple: InfoTriple, scores):
    """Project composite scores onto ``H J^-1 u``: the information-unbiased
    estimating function with the same roots and Godambe information."""
    M = projection_matrix(triple)
    arr = np.asarray(scores, dtype=float)
    if arr.ndim == 1:
        return M.T @ arr
    return arr @ M


def projected_info_monte_carlo(spec: CompositeSpec, model: Model,
                               theta: ParamVector, draws: int, seed,
                               base: InfoTriple, batches: int = 20) -> InfoTriple:
    """Monte Carlo triple of the projected score ``H J^-1 u_c`` with the
    projection frozen from ``base`` (fresh draws, fresh randomness)."""
    if draws < MIN_DRAWS:
        raise InvalidArgument(f"draws must be >= {MIN_DRAWS}")
    M = projection_matrix(base)
    Y = model.sample(theta, draws, seed)
    triple, _ = _info_from_sample(spec, model, Y, theta, batches, M)
    return triple


# ---------------------------------------------------------------------------
# exact information (independent of the Monte Carlo route)
# ---------------------------------------------------------------------------


def _moment(model, forms_a, forms_b, theta):
    """``E[u_a u_b']`` of two scores, given as packed forms at ``theta``,
    under data drawn at ``theta``: their covariance, since both have mean
    zero there.  Gaussian: ``B_a S B_b' + tr(A_a S A_b S) / 2``; four-cell
    multinomial: a sum over the outcomes, in an order that no batch or
    layout changes.  Shape ``(..., q_a, q_b)`` over a ParamBatch."""
    p = model.dim
    (_, Ba, Aa), (_, Bb, Ab) = (unpack_forms(f, p) for f in (forms_a, forms_b))
    if isinstance(model, Multinomial4):
        resid = (model.outcomes() - model._mean(theta)[..., None, :])[..., None, :]
        ua, ub = (c[..., None, :] + (resid * B[..., None, :, :]).sum(axis=-1)
                  for c, B in ((forms_a[..., 0], Ba), (forms_b[..., 0], Bb)))
        w = model.cell_probs(theta)[..., :, None]
        ma, mb = (w * ua).sum(axis=-2), (w * ub).sum(axis=-2)
        return ((w[..., None] * ua[..., :, None] * ub[..., None, :]).sum(axis=-3)
                - ma[..., :, None] * mb[..., None, :])
    cov = model._cov(theta)
    ASa, ASb = Aa @ cov[..., None, :, :], Ab @ cov[..., None, :, :]
    return (Ba @ cov @ np.swapaxes(Bb, -1, -2)
            + 0.5 * np.einsum("...aij,...bji->...ab", ASa, ASb))


def exact_sensitivity(spec: CompositeSpec, model: Model, theta):
    """Exact H of a spec at a point or ParamBatch: ``E[u_c u']`` with ``u``
    the full score (differentiate ``E[u_c] = 0``).  Not symmetrized, so a
    parameter the spec carries no information on keeps a zero row."""
    return _moment(model, _spec_forms(spec, model, theta),
                   _spec_forms(full_likelihood(model.dim), model, theta), theta)


def _mean_scores(model, forms, points):
    """The exact mean of the scores with packed forms ``forms`` at
    ``points[1:]`` under data drawn at ``points[0]``, ``(len(points) - 1,
    q)``.

    For the multinomial it is a sum over the four outcomes.  With ``y ~
    N(mean0, S)``, the mean of ``c + B r + r' A r / 2`` at a point whose
    mean is ``mean0 - d`` is ``c + B d + (tr(A S) + d' A d) / 2``.  Each of
    those products is one stacked matmul that rounds as the product of one
    point's vectors and matrices does: the central difference in
    :func:`info_exact` magnifies the rounding of the means by ``1 / h``."""
    mean = model._mean(points)
    if isinstance(model, Multinomial4):
        U = affine_quadratic(*unpack_forms(forms, model.dim),
                             model.outcomes() - mean[:, None, :])
        return model.cell_probs(points)[0] @ U[1:]
    c, B, A = unpack_forms(forms[1:], model.dim)
    d = (mean[0] - mean[1:])[:, None, :, None]      # (S, 1, p, 1)
    dAd = (np.swapaxes(d, -1, -2) @ A @ d)[..., 0, 0]
    Bd = (B[..., None, :] @ d)[..., 0, 0]
    trAS = np.trace(A @ model._cov(points)[0], axis1=-2, axis2=-1)
    return c + Bd + 0.5 * (trAS + dAd)


def info_exact(spec: CompositeSpec, model: Model, theta: ParamVector) -> InfoTriple:
    """Exact information triple (no sampling).

    For Gaussian models the score of every component is an affine-quadratic
    form in the observation, so J follows from Gaussian product moments; for
    the four-cell multinomial, expectations are finite sums over the four
    outcomes (:func:`_moment`).  H is minus the derivative of the exact mean
    score, taken by central differences with a tiny step: the mean scores at
    ``theta`` and at the ``2q`` stencil points come from one batch of forms.
    """
    if not isinstance(model, (GaussianModel, Multinomial4)):
        raise TypeError(f"no exact information route for {model!r}")

    free = theta.free_names
    q = len(free)
    steps = np.array([FD_STEP_EXACT * max(1.0, abs(theta[name]))
                      for name in free])
    cols = np.repeat([theta.names.index(name) for name in free], 2)
    values = np.array([theta.values] * (2 * q + 1))
    values[np.arange(1, 2 * q + 1), cols] += (steps[:, None]
                                              * [1.0, -1.0]).ravel()
    points = ParamBatch(theta.names, values, theta.roles)
    forms = _spec_forms(spec, model, points)
    J = _moment(model, forms[0], forms[0], theta)
    means = _mean_scores(model, forms, points)
    means = means.reshape(q, 2, q)          # (column, side, row)
    H = -((means[:, 0] - means[:, 1]) / (2.0 * steps[:, None])).T
    if asymmetry(H) > H_ASYMMETRY_TOL:
        raise InvalidArgument(f"exact sensitivity asymmetric beyond "
                              f"tolerance: {asymmetry(H):g}")
    H, J = symmetrize(H), symmetrize(J)
    return InfoTriple(free, H, J, _godambe(H, J), "analytic")


# ---------------------------------------------------------------------------
# information bias
# ---------------------------------------------------------------------------


def info_bias_measure(triple: InfoTriple) -> float:
    """Scale-free information bias ``||H - J||_F / ||J||_F``."""
    num = np.linalg.norm(triple.sensitivity - triple.variability)
    den = np.linalg.norm(triple.variability)
    return float(num / den)


def info_bias_zscore(triple: InfoTriple) -> float:
    """``||H - J||_F`` in units of its batch-means sampling noise.

    Values below ~3 are consistent with an information-unbiased spec.
    """
    if triple.batch_sensitivity is None:
        raise InvalidArgument(
            "z-score needs a Monte Carlo triple with batch data")
    se = batch_se(triple.batch_sensitivity - triple.batch_variability)
    return float(np.linalg.norm(triple.sensitivity - triple.variability)
                 / np.linalg.norm(se))


# ---------------------------------------------------------------------------
# full-efficiency check (linear score recovery)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullEfficiencyReport:
    """Diagnostics for whether ``u = H J^-1 u_c + b`` holds, i.e. whether the
    composite spec attains the full-likelihood information.

    ``residual_cov`` is the covariance of ``u - H J^-1 u_c`` over the draws;
    it coincides with ``I - G`` up to sampling noise, and vanishes exactly
    when the spec is fully efficient.
    """

    param_names: tuple
    triple: InfoTriple
    fisher: np.ndarray                 # sample covariance of the full score
    b_estimate: np.ndarray
    b_se: np.ndarray
    residual_cov: np.ndarray
    max_residual_z: float              # max |residual| / propagated se
    lambda_max: float                  # largest eigenvalue of residual_cov
    lambda_max_se: float
    residual_identity_z: float         # residual_cov vs I - G, in se units
    crosscov_identity_z: float         # H vs Cov(u_c, u), in se units
    fully_efficient: bool
    sigma: float                       # the z threshold used for the verdict


def full_efficiency_check(spec: CompositeSpec, model: Model, theta: ParamVector,
                          draws: int, seed, batches: int = 20,
                          sigma: float = 3.0) -> FullEfficiencyReport:
    """Monte Carlo check of the linear score-recovery condition.

    Estimates H and J from ``draws`` samples, forms per-draw residuals
    ``u - H J^-1 u_c`` against the full score, and reports: the residual
    covariance and its largest eigenvalue (with batch standard error), the
    mean residual (the constant-offset estimate), the per-draw residual
    z-scores propagated from the uncertainty of ``H J^-1``, and the two
    internal identities residual_cov = I - G and H = Cov(u_c, u).
    """
    if draws < MIN_DRAWS:
        raise InvalidArgument(f"draws must be >= {MIN_DRAWS}")
    Y = model.sample(theta, draws, seed)
    triple, Uc = _info_from_sample(spec, model, Y, theta, batches)
    U = model.full_score(Y, theta)

    M = projection_matrix(triple)                      # J^-1 H
    M_batch = solve_sym(triple.batch_variability, triple.batch_sensitivity)

    resid = U - Uc @ M
    slices = batch_slices(draws, batches)

    b_est = resid.mean(axis=0)
    b_se = batch_se([resid[sl].mean(axis=0) for sl in slices])

    residual_cov = sample_cov(resid)
    fisher = sample_cov(U)
    gap_full = residual_cov - (fisher - triple.godambe)

    # batch versions (each batch uses its own projection)
    gap_b, cross_b, lam_b = [], [], []
    for sl, Mb, Gb in zip(slices, M_batch, triple.batch_godambe):
        rb = U[sl] - Uc[sl] @ Mb
        rcov = sample_cov(rb)
        Ib = sample_cov(U[sl])
        cross_b.append(sample_cov(Uc[sl], U[sl]))
        gap_b.append(rcov - (Ib - Gb))
        lam_b.append(float(np.max(np.linalg.eigvalsh(rcov))))
    se_floor = 1e-12 * max(1.0, float(np.max(np.abs(fisher))))
    gap_se = batch_se(gap_b)
    residual_identity_z = float(np.max(np.abs(gap_full)
                                       / np.maximum(gap_se, se_floor)))

    crosscov = sample_cov(Uc, U)
    cross_se = batch_se(cross_b)
    crosscov_identity_z = float(np.max(np.abs(triple.sensitivity - crosscov)
                                       / np.maximum(cross_se, se_floor)))

    # per-draw residual noise propagated from the uncertainty of J^-1 H
    se_r = batch_se([Uc @ Mb for Mb in M_batch])        # (n, q)
    floor = 1e-12 * (1.0 + float(np.max(np.abs(U))))
    max_residual_z = float(np.max(np.abs(resid) / np.maximum(se_r, floor)))

    lam = float(np.max(np.linalg.eigvalsh(residual_cov)))
    lam_se = float(batch_se(lam_b))
    return FullEfficiencyReport(
        param_names=theta.free_names,
        triple=triple,
        fisher=fisher,
        b_estimate=b_est,
        b_se=b_se,
        residual_cov=residual_cov,
        max_residual_z=max_residual_z,
        lambda_max=lam,
        lambda_max_se=lam_se,
        residual_identity_z=residual_identity_z,
        crosscov_identity_z=crosscov_identity_z,
        fully_efficient=bool(lam < sigma * lam_se),
        sigma=sigma,
    )


# ---------------------------------------------------------------------------
# partitioned (interest / nuisance) asymptotic variances
# ---------------------------------------------------------------------------


def _partitioned_from_mats(H, J, G, i_idx, n_idx):
    """:func:`partitioned_variance` from the matrices of a triple, or from
    stacks ``(..., q, q)`` of them, matrix by matrix."""
    i_idx, n_idx = np.asarray(i_idx), np.asarray(n_idx)
    ii = (Ellipsis, i_idx[:, None], i_idx[None, :])
    nn = (Ellipsis, n_idx[:, None], n_idx[None, :])
    in_ = (Ellipsis, i_idx[:, None], n_idx[None, :])
    ni = (Ellipsis, n_idx[:, None], i_idx[None, :])
    schur = G[ii] - G[in_] @ solve_sym(G[nn], G[ni])
    avar_profile = sym_invert(schur)
    h_ii_inv = sym_invert(H[ii])
    avar_known = symmetrize(h_ii_inv @ J[ii] @ h_ii_inv)
    return avar_profile, avar_known


def partitioned_variance(triple: InfoTriple, interest):
    """Asymptotic variances of the interest block, nuisance unknown vs known.

    ``interest`` may be a ParamVector (its interest-tagged names are used)
    or an iterable of parameter names.  Returns ``(avar_profile,
    avar_known)``: the inverse Schur complement of G on the interest block
    (nuisance estimated), and ``H_ii^-1 J_ii H_ii^-1`` from the interest
    sub-blocks of H and J (nuisance fixed at the truth).  For an
    information-unbiased triple the latter reduces to ``G_ii^-1``, which can
    never exceed the profile variance; under information bias it can.
    Raises SingularMatrix (scale-aware, as ``sym_invert``) when a block that
    must be inverted is singular.
    """
    if isinstance(interest, ParamVector):
        names = interest.interest_names
    else:
        names = tuple(interest)
    i_idx = [triple.param_names.index(n) for n in names]
    n_idx = [k for k in range(triple.dim) if k not in i_idx]
    if not i_idx or not n_idx:
        raise InvalidArgument(
            "both the interest and nuisance blocks must be nonempty")
    return _partitioned_from_mats(triple.sensitivity, triple.variability,
                                  triple.godambe, i_idx, n_idx)
