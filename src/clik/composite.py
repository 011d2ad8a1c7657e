"""Composite likelihoods: specs, scores, and information matrices.

A composite spec is a weighted collection of margin / conditional
components.  This module evaluates the composite log density and score,
estimates the sensitivity matrix H (expected negative score Jacobian),
variability matrix J (score covariance) and Godambe information
G = H J^-1 H either by Monte Carlo or exactly (quadratic-form moments
from each model's mean and covariance), quantifies
information bias, checks full efficiency through the linear score
recovery condition, projects scores onto information-unbiased form, and
computes profile / known-nuisance asymptotic variances from a triple.

Every component score is an affine-quadratic form in ``r = y - mean``,
and one ``Model.margin_score_reps`` call builds the forms of every
distinct margin of a spec, so the composite score is one combined form
per free parameter (:func:`_spec_forms`), built once per parameter
point: :func:`composite_score` contracts it with each row, and every
summed score is its one contraction (:func:`_contract`) with a dataset's
statistic (:func:`summed_score`) or, for an exact mean score, the
population's ``[1, mean, cov]``.  One moment kernel, :func:`_moment`,
gives ``E[u_a u_b']`` of the forms of any two scores: the exact J, and
the exact sensitivity ``E[u_c u']`` (:func:`exact_sensitivity`), which
the Newton route takes with its summed score from one build of the forms
of the spec's margins and the full one (:func:`_sensitivity_forms`) at
each point.  Monte Carlo information is one blocked pass over the draws
that holds one batch at a time, so its memory is O(draws / batches): each
batch is drawn and read once by :func:`clik.models.score_kernel`, which
fills its scores at ``theta``, reduced to their mean and covariance, and
returns the feature sums that give its statistic, before the next is
drawn; only :mod:`clik.models` knows the feature layout.  Monte Carlo H
is a central difference of sample-mean scores over common draws: the
forms at the ``2q`` stencil points are contracted with every batch
statistic; J is pooled from the batch covariances and means.  The batch
triples are one stacked triple (one stacked Godambe solve), which
:func:`partitioned_variance` and :func:`projection_matrix` take as they
take a point.  Every stencil comes from :func:`_stencil`, the first step
of every information route: a point with nothing free raises
UnsupportedSpec there, before any draw.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, InvalidArgument, UnknownParameter,
                     UnsupportedSpec)
from .fileio import atomic_csv, fmt
from .matrixops import asymmetry, solve_sym, sym_invert, symmetrize
from .models import (Model, ParamBatch, ParamVector, _as_rows, _index_tuple,
                     affine_quadratic, feature_scratch, feature_statistic,
                     score_kernel, substream, unpack_forms, unpack_statistic)

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
#: Batches of a Monte Carlo route or a simulation summary, by default.
DEFAULT_BATCHES = 20
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
        if not (isinstance(self.kind, str)
                and self.kind in ("margin", "conditional")):
            raise InvalidArgument(f"unknown component kind {self.kind!r}")
        object.__setattr__(self, "indices", _index_tuple(self.indices))
        object.__setattr__(self, "given", _index_tuple(self.given))
        if not (isinstance(self.weight, numbers.Real)
                and 0 <= self.weight < np.inf):
            raise InvalidArgument(f"component weights must be finite and "
                                  f"nonnegative, got {self.weight!r}")
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


@dataclass(frozen=True)
class CompositeSpec:
    """A named, weighted set of component likelihoods."""

    name: str
    components: tuple

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidArgument(f"spec name {self.name!r} is not a string")
        try:
            object.__setattr__(self, "components", tuple(self.components))
        except TypeError:
            raise InvalidArgument(f"spec components {self.components!r} are "
                                  f"not a sequence") from None
        if not self.components:
            raise InvalidArgument("spec needs at least one component")
        for comp in self.components:
            if not isinstance(comp, Component):
                raise InvalidArgument(f"spec entry {comp!r} is not a Component")

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


def _sensitivity_forms(spec, model, theta):
    """``(forms, full)``: :func:`_spec_forms` of ``spec`` and of the full
    likelihood, both from one ``margin_score_reps`` call over the spec's
    margins and the full one; the pair whose moment is the exact
    sensitivity (:func:`exact_sensitivity`)."""
    whole = full_likelihood(model.dim)
    sets = tuple(dict.fromkeys(_margins(spec) + _margins(whole)))
    values = dict(zip(sets, model.margin_score_reps(sets, theta)))
    return _weighted_total(spec, values), _weighted_total(whole, values)


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
    statistic ``model.statistic(Y)`` alone: the spec's combined forms
    (:func:`_spec_forms`) contracted with it (:func:`_contract`).
    ``stats`` may be a stack ``(R, K)`` with ``theta`` a ParamBatch of R
    points; the result is then ``(R, q)``.
    """
    return _contract(_spec_forms(spec, model, theta), stats, model._mean(theta))


def _contract(forms, stats, mean):
    """Summed scores ``(..., q)`` of packed forms ``(..., q, L)`` in ``r = y
    - mean`` over the dataset with statistic ``stats``: with ``d = ybar -
    mean`` the scatter about ``mean`` is ``n d d' + W``, so the sum is the
    contraction of the forms with ``[n, n d, (n d d' + W) / 2]``."""
    n, ybar, scatter = unpack_statistic(stats)
    n, d = n[..., None], ybar - mean
    moment = 0.5 * (n[..., None] * (d[..., :, None] * d[..., None, :]) + scatter)
    z = np.concatenate([n, n * d, moment.reshape(moment.shape[:-2] + (-1,))],
                       axis=-1)
    return (forms * z[..., None, :]).sum(axis=-1)


def component_scores(spec: CompositeSpec, model: Model, Y, theta: ParamVector):
    """Unweighted per-component score arrays (list of ``(n, q)``)."""
    rows, _ = _as_rows(Y, model.dim)
    return [value for _, value in _component_values(spec, _margin_values(
        spec, lambda idx: model.margin_score(idx, rows, theta)))]


def composite_score_fd(spec: CompositeSpec, model: Model, Y, theta: ParamVector):
    """Central-difference score, step scale ``FD_STEP_SCORE``: the
    independent numeric route used to validate the analytic one (and
    available for custom specs)."""
    rows, single = _as_rows(Y, model.dim)
    stencil, steps = _stencil(model, theta, FD_STEP_SCORE)
    ll = np.array([composite_loglik(spec, model, rows, stencil.point(i))
                   for i in range(len(stencil))])
    out = ((ll[0::2] - ll[1::2]) / (2.0 * steps[:, None])).T
    return out[0] if single else out


def _free_names(theta: ParamVector) -> tuple:
    """``theta.free_names``; UnsupportedSpec when every parameter is known,
    as a point with nothing free has no information matrix."""
    free = theta.free_names
    if not free:
        raise UnsupportedSpec(f"every parameter of {theta.names} is known: "
                              f"there is no information to compute")
    return free


def _stencil(model: Model, theta: ParamVector, step_scale: float):
    """The ``2q`` central-difference points about ``theta`` (``+h`` then
    ``-h`` for each free parameter in turn) as a ParamBatch, and the ``q``
    steps: ``step_scale * x`` for a parameter bounded to ``(0, inf)``, so
    that it keeps its sign at any scale, else ``step_scale * max(1, |x|)``.
    The first step of every information route: raises UnsupportedSpec
    (:func:`_free_names`) when nothing is free, and DomainError
    (:meth:`clik.models.Model.validate`) for a value that is not finite,
    before stepping from it."""
    free, bounds = _free_names(theta), model.bounds()
    if not all(map(math.isfinite, theta.values)):
        model.validate(theta)
    steps = step_scale * np.array(
        [theta[name] if bounds.get(name) == (0.0, np.inf)
         else max(1.0, abs(theta[name])) for name in free])
    cols = [theta.names.index(name) for name in free for _ in (1, -1)]
    values = np.array([theta.values] * len(cols))
    values[np.arange(len(cols)), cols] += (steps[:, None] * [1.0, -1.0]).ravel()
    return ParamBatch(theta.names, values, theta.roles), steps


# ---------------------------------------------------------------------------
# information triples
# ---------------------------------------------------------------------------


def _batch_spread(field: str) -> property:
    """The read-only batch-means standard error (:func:`batch_se`) of one
    matrix of a triple over its ``batches``, or None without them."""
    return property(lambda triple: None if triple.batches is None
                    else batch_se(getattr(triple.batches, field)))


@dataclass(frozen=True)
class InfoTriple:
    """Sensitivity H, variability J and Godambe information G = H J^-1 H
    at a parameter point, or a stack of them (``(B, q, q)``), with
    provenance; a Monte Carlo triple holds its batch triples as one stack,
    ``batches``, whose batch-means spread gives its standard errors."""

    param_names: tuple
    sensitivity: np.ndarray
    variability: np.ndarray
    godambe: np.ndarray
    provenance: str                      # "analytic" | "monte-carlo"
    draws: int | None = None
    batches: InfoTriple | None = None

    @property
    def dim(self) -> int:
        return self.sensitivity.shape[-1]

    sensitivity_se = _batch_spread("sensitivity")
    variability_se = _batch_spread("variability")
    godambe_se = _batch_spread("godambe")

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
    to estimate their standard error, or not an integer, and when a batch
    would hold fewer than 2 rows, too few for a batch covariance."""
    if not (isinstance(batches, (int, np.integer)) and batches >= MIN_BATCHES):
        raise InvalidArgument(
            f"batches must be an integer >= {MIN_BATCHES}, got {batches!r}")
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


def _info_from_sample(spec: CompositeSpec, model: Model, blocks,
                      theta: ParamVector, M=None) -> InfoTriple:
    """Monte Carlo InfoTriple of the composite score (right-multiplied by
    ``M`` when given) over the draws given as ``blocks``: the batches of
    :func:`batch_slices`, an iterable of ``(k_b, dim)`` row blocks, in
    order.  The draws are the ``n = sum(k_b)`` rows of the blocks.

    One blocked pass over the batches that holds one batch at a time and
    reads each once: the spec's forms are built once at ``theta`` into one
    :func:`clik.models.score_kernel`, the kernel of
    :func:`clik.models.affine_quadratic`.  One call of it per batch, as
    ``blocks`` yields it, fills the batch's scores at ``r = y -
    mean(theta)``, a contiguous feature-major ``(q, k_b)`` block, through
    one scratch buffer that every batch reuses, and returns the row sums of
    its feature rows, ``sum r`` and ``sum r_a r_b``.  The block is reduced
    to its mean and covariance, and the sums give the batch statistic
    ``[n, ybar, W]`` (:func:`clik.models.feature_statistic`).  J is the
    sample covariance of all the scores, pooled (:func:`_pooled_cov`) from
    the batch covariances and means.  H is minus the central difference of
    the sample-mean score in each free parameter (common draws across
    shifts); the spec's forms are built once more, at the ``2q`` stencil
    points, and the mean at each comes from contracting them
    (:func:`_contract`) with every batch statistic, so only the scores at
    ``theta`` are evaluated row by row.
    Standard errors come from the batch values; the batch Godambe matrices
    are one stacked solve.  No block is modified, and the stencil is built,
    so a point with nothing free is refused, before the first block is
    read.

    A genuine composite score is a gradient field, so its per-draw
    Jacobian is symmetric and the estimated H must be symmetric to
    round-off; for a projected score (``M`` given) H is symmetric only in
    expectation, and the check is relaxed to the batch noise level.
    """
    stencil, steps = _stencil(model, theta, FD_STEP_INFO)
    free = theta.free_names
    q, m = len(free), model.dim
    fill = score_kernel(*unpack_forms(_spec_forms(spec, model, theta), m))
    mean, scratch = model._mean(theta), feature_scratch(m)
    sizes, means, J_batch, totals = [], [], [], []
    for rows in blocks:
        block = np.empty((q, rows.shape[0]))
        total = fill(rows, mean, block, scratch)
        if M is not None:
            block = M.T @ block
        # block.T is column-major, so both reduce along contiguous rows
        means.append(block.mean(axis=1))
        J_batch.append(sample_cov(block.T))
        totals.append(total)
        sizes.append(rows.shape[0])
    sizes, means, J_batch = np.array(sizes), np.stack(means), np.stack(J_batch)
    batches, n = len(sizes), int(sizes.sum())
    J_full = _pooled_cov(J_batch, means, sizes)
    stats = feature_statistic(sizes, np.stack(totals), mean)

    sums = _contract(_spec_forms(spec, model, stencil)[:, None],
                     np.tile(stats, (2 * q, 1, 1)),
                     model._mean(stencil)[:, None])
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

    return InfoTriple(free, H_full, J_full, G_full, "monte-carlo", n,
                      InfoTriple(free, H_batch, J_batch, G_batch,
                                 "monte-carlo"))


def _check_draws(theta: ParamVector, draws, seed) -> None:
    """The checks a Monte Carlo route makes before it draws: something is
    free (:func:`_free_names`), ``draws`` is a finite number of at least
    ``MIN_DRAWS`` (a fraction counts as its integer part) and ``seed`` an
    integer or a Generator (:func:`clik.models.substream`)."""
    _free_names(theta)
    if not (isinstance(draws, numbers.Real) and MIN_DRAWS <= draws < np.inf):
        raise InvalidArgument(f"draws must be finite and >= {MIN_DRAWS}, "
                              f"got {draws!r}")
    if not isinstance(seed, (int, np.integer, np.random.Generator)):
        raise InvalidArgument(f"seed must be an integer or a Generator, "
                              f"got {seed!r}")


def _drawn_batches(model: Model, theta: ParamVector, draws: int, seed,
                   batches: int):
    """The batches of :func:`batch_slices` over ``draws`` rows drawn at
    ``theta``, as an iterator that draws each batch from one
    ``substream(seed)`` Generator when it reaches it.  Taken in order, the
    batches are ``model.sample(theta, draws, seed)``, bit for bit."""
    _check_draws(theta, draws, seed)
    draw = model.sampler(theta)
    rng = substream(seed)
    return (draw(sl.stop - sl.start, [rng])[0]
            for sl in batch_slices(int(draws), batches))


def info_monte_carlo(spec: CompositeSpec, model: Model, theta: ParamVector,
                     draws: int, seed,
                     batches: int = DEFAULT_BATCHES) -> InfoTriple:
    """Monte Carlo information triple of a composite spec.

    ``draws`` independent observations are sampled at ``theta``; H is minus
    the central difference of the sample-mean score over these common
    draws (the stencil means evaluated from per-batch statistics), J the
    score covariance, and per-entry standard errors come from ``batches``
    batch means.  The draws are sampled, scored and reduced one batch at a
    time (:func:`_info_from_sample`), so memory is O(draws / batches).
    """
    return _info_from_sample(spec, model, _drawn_batches(
        model, theta, draws, seed, batches), theta)


def projection_matrix(triple: InfoTriple) -> np.ndarray:
    """The matrix ``J^-1 H`` (of each triple of a stack); rows of scores
    are projected by ``U @ M``."""
    return solve_sym(triple.variability, triple.sensitivity)


def project_score(triple: InfoTriple, scores):
    """Project composite scores onto ``H J^-1 u``: the information-unbiased
    estimating function with the same roots and Godambe information.
    Raises DimensionMismatch for a stacked triple, and unless the last axis
    of ``scores`` has ``triple.dim`` entries."""
    arr = np.asarray(scores, dtype=float)
    if triple.sensitivity.ndim != 2 or arr.shape[-1:] != (triple.dim,):
        raise DimensionMismatch(f"scores of shape {arr.shape} for a triple "
                                f"of shape {triple.sensitivity.shape}")
    M = projection_matrix(triple)
    if arr.ndim == 1:
        return M.T @ arr
    return arr @ M


def projected_info_monte_carlo(spec: CompositeSpec, model: Model,
                               theta: ParamVector, draws: int, seed,
                               base: InfoTriple,
                               batches: int = DEFAULT_BATCHES) -> InfoTriple:
    """Monte Carlo triple of the projected score ``H J^-1 u_c`` with the
    projection frozen from ``base`` (fresh draws, fresh randomness)."""
    blocks = _drawn_batches(model, theta, draws, seed, batches)
    return _info_from_sample(spec, model, blocks, theta,
                             projection_matrix(base))


# ---------------------------------------------------------------------------
# exact information (independent of the Monte Carlo route)
# ---------------------------------------------------------------------------


def _moment(forms_a, forms_b, cov):
    """``E[u_a u_b']`` of two scores, given as packed forms at ``theta``,
    under data drawn at ``theta`` with covariance ``cov`` (``model._cov``):
    their covariance, since both have mean zero there, ``B_a S B_b' +
    tr(A_a S A_b S) / 2`` with ``S = cov``.  Exact for Gaussian data, and
    for any data when ``A`` is zero, as it is for every multinomial score.
    Shape ``(..., q_a, q_b)`` over a ParamBatch."""
    p = cov.shape[-1]
    (_, Ba, Aa), (_, Bb, Ab) = (unpack_forms(f, p) for f in (forms_a, forms_b))
    ASa, ASb = Aa @ cov[..., None, :, :], Ab @ cov[..., None, :, :]
    return (Ba @ cov @ np.swapaxes(Bb, -1, -2)
            + 0.5 * np.einsum("...aij,...bji->...ab", ASa, ASb))


def exact_sensitivity(spec: CompositeSpec, model: Model, theta):
    """Exact H of a spec at a point or ParamBatch: ``E[u_c u']`` with ``u``
    the full score (differentiate ``E[u_c] = 0``).  Not symmetrized, so a
    parameter the spec carries no information on keeps a zero row."""
    return _moment(*_sensitivity_forms(spec, model, theta), model._cov(theta))


def info_exact(spec: CompositeSpec, model: Model, theta: ParamVector) -> InfoTriple:
    """Exact information triple (no sampling).

    The score of every component is an affine-quadratic form in the
    observation, so J follows from the model's mean and covariance
    (:func:`_moment`): exactly for Gaussian data, and for the multinomial,
    whose scores are linear.  H is minus the central difference of the
    exact mean score over the points of :func:`_stencil`: the mean under
    ``theta`` of the score at a stencil point is that score summed
    (:func:`_contract`) over the population statistic ``[1, mean(theta),
    cov(theta)]``, and the forms at ``theta`` and the stencil come from one
    batch.
    A model without a covariance (``Model._cov``) raises InvalidArgument.
    """
    stencil, steps = _stencil(model, theta, FD_STEP_EXACT)
    points = ParamBatch(theta.names, np.concatenate(
        [[theta.values], stencil.values]), theta.roles)
    forms, mean, cov = (_spec_forms(spec, model, points), model._mean(points),
                        model._cov(theta))
    J = _moment(forms[0], forms[0], cov)
    population = np.concatenate([[1.0], mean[0], cov.ravel()])
    means = _contract(forms[1:], np.broadcast_to(
        population, (len(stencil), population.size)), mean[1:])
    H = -((means[0::2] - means[1::2]) / (2.0 * steps[:, None])).T
    if asymmetry(H) > H_ASYMMETRY_TOL:
        raise InvalidArgument(f"exact sensitivity asymmetric beyond "
                              f"tolerance: {asymmetry(H):g}")
    H, J = symmetrize(H), symmetrize(J)
    return InfoTriple(theta.free_names, H, J, _godambe(H, J), "analytic")


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
    if triple.batches is None:
        raise InvalidArgument(
            "z-score needs a Monte Carlo triple with batch data")
    se = batch_se(triple.batches.sensitivity - triple.batches.variability)
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
                          draws: int, seed, batches: int = DEFAULT_BATCHES,
                          sigma: float = 3.0) -> FullEfficiencyReport:
    """Monte Carlo check of the linear score-recovery condition.

    Estimates H and J from ``draws`` samples, forms per-draw residuals
    ``u - H J^-1 u_c`` against the full score, and reports: the residual
    covariance and its largest eigenvalue (with batch standard error), the
    mean residual (the constant-offset estimate), the per-draw residual
    z-scores propagated from the uncertainty of ``H J^-1``, and the two
    internal identities residual_cov = I - G and H = Cov(u_c, u).
    """
    _check_draws(theta, draws, seed)
    Y = model.sample(theta, draws, seed)
    slices = batch_slices(len(Y), batches)
    triple = _info_from_sample(spec, model, (Y[sl] for sl in slices), theta)
    Uc = composite_score(spec, model, Y, theta)
    U = model.full_score(Y, theta)

    M = projection_matrix(triple)                      # J^-1 H
    M_batch = projection_matrix(triple.batches)

    resid = U - Uc @ M

    b_est = resid.mean(axis=0)
    b_se = batch_se([resid[sl].mean(axis=0) for sl in slices])

    residual_cov = sample_cov(resid)
    fisher = sample_cov(U)
    gap_full = residual_cov - (fisher - triple.godambe)

    # batch versions (each batch uses its own projection)
    rcov_b = np.stack([sample_cov(U[sl] - Uc[sl] @ Mb)
                       for sl, Mb in zip(slices, M_batch)])
    fisher_b = np.stack([sample_cov(U[sl]) for sl in slices])
    gap_b = rcov_b - (fisher_b - triple.batches.godambe)
    cross_b = [sample_cov(Uc[sl], U[sl]) for sl in slices]
    lam_b = np.linalg.eigvalsh(rcov_b).max(-1)
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


def partitioned_variance(triple: InfoTriple, interest):
    """Asymptotic variances of the interest block, nuisance unknown vs known.

    ``interest`` may be a ParamVector (its interest-tagged names are used),
    one parameter name, or an iterable of them.  Returns ``(avar_profile,
    avar_known)``: the inverse Schur complement of G on the interest block
    (nuisance estimated), and ``H_ii^-1 J_ii H_ii^-1`` from the interest
    sub-blocks of H and J (nuisance fixed at the truth).  For an
    information-unbiased triple the latter reduces to ``G_ii^-1``, which can
    never exceed the profile variance; under information bias it can.  Of
    a stacked triple, both are stacks.  Raises UnknownParameter for a name
    the triple lacks, InvalidArgument for a repeated name or an empty
    block, and SingularMatrix (scale-aware, as ``sym_invert``) when a block
    that must be inverted is singular.
    """
    if isinstance(interest, ParamVector):
        names = interest.interest_names
    elif isinstance(interest, str):
        names = (interest,)
    else:
        try:
            names = tuple(interest)
        except TypeError:
            raise InvalidArgument(f"interest {interest!r} is not a name or "
                                  f"names") from None
    unknown = [name for name in names if name not in triple.param_names]
    if unknown:
        raise UnknownParameter(f"{unknown} not in {triple.param_names}")
    if len(set(names)) != len(names):
        raise InvalidArgument(f"repeated interest names in {names}")
    i_idx = [triple.param_names.index(n) for n in names]
    n_idx = [k for k in range(triple.dim) if k not in i_idx]
    if not i_idx or not n_idx:
        raise InvalidArgument(
            "both the interest and nuisance blocks must be nonempty")
    # G with the interest block first: its four blocks are slices
    k, order = len(i_idx), np.array(i_idx + n_idx)
    G = triple.godambe[..., order[:, None], order]
    schur = G[..., :k, :k] - G[..., :k, k:] @ solve_sym(G[..., k:, k:],
                                                         G[..., k:, :k])
    avar_profile = sym_invert(schur)
    ii = (Ellipsis, order[:k, None], order[:k])
    h_ii_inv = sym_invert(triple.sensitivity[ii])
    avar_known = symmetrize(h_ii_inv @ triple.variability[ii] @ h_ii_inv)
    return avar_profile, avar_known
