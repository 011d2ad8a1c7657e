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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import atomic_csv, fmt
from .matrixops import asymmetry, solve_sym, sym_invert, symmetrize
from .models import (GaussianModel, Model, Multinomial4, ParamBatch,
                     ParamVector, _as_rows)

#: Central-difference step scale for the Monte Carlo sensitivity matrix.
FD_STEP_INFO = 1e-4
#: Step scale for the finite-difference fallback score.
FD_STEP_SCORE = 1e-5
#: Step scale for differentiating exact mean scores.
FD_STEP_EXACT = 1e-6

#: Largest tolerated relative asymmetry of a numerically computed H.
H_ASYMMETRY_TOL = 1e-6


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
            raise ValueError(f"unknown component kind {self.kind!r}")
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "given", tuple(int(i) for i in self.given))
        if not self.indices:
            raise ValueError("component needs at least one index")
        if self.kind == "margin" and self.given:
            raise ValueError("margin components take no given set")
        if self.kind == "conditional":
            if len(self.indices) != 1:
                raise ValueError("conditional components have a single target")
            if self.indices[0] in self.given:
                raise ValueError("target appears in its own given set")
        if not self.weight >= 0:
            raise ValueError("component weights must be nonnegative")


@dataclass(frozen=True)
class CompositeSpec:
    """A named, weighted set of component likelihoods."""

    name: str
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("spec needs at least one component")

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


def _component_values(spec: CompositeSpec, margin):
    """Yield ``(weight, value)`` for each component of ``spec``.

    A margin's value is ``margin(indices)``; a conditional's is
    ``margin(joint) - margin(given)``.  ``margin`` is called once per
    distinct (sorted) index set.
    """
    cache = {}

    def at(idx):
        idx = tuple(sorted(idx))
        if idx not in cache:
            cache[idx] = margin(idx)
        return cache[idx]

    for comp in spec.components:
        value = at(comp.given + comp.indices)
        if comp.kind == "conditional":
            value = value - at(comp.given)
        yield comp.weight, value


def _weighted_total(spec: CompositeSpec, margin):
    """Sum of ``weight * value`` over :func:`_component_values`."""
    return sum(weight * value
               for weight, value in _component_values(spec, margin))


def composite_loglik(spec: CompositeSpec, model: Model, Y, theta: ParamVector):
    """Weighted sum of component log densities, per observation."""
    rows, single = _as_rows(Y, model.dim)
    total = _weighted_total(
        spec, lambda idx: model.margin_loglik(idx, rows, theta))
    return float(total[0]) if single else total


def composite_score(spec: CompositeSpec, model: Model, Y, theta: ParamVector):
    """Gradient of :func:`composite_loglik` in the free parameters, per row."""
    rows, single = _as_rows(Y, model.dim)
    total = _weighted_total(
        spec, lambda idx: model.margin_score(idx, rows, theta))
    return total[0] if single else total


def component_scores(spec: CompositeSpec, model: Model, Y, theta: ParamVector):
    """Unweighted per-component score arrays (list of ``(n, q)``)."""
    rows, _ = _as_rows(Y, model.dim)
    return [value for _, value in _component_values(
        spec, lambda idx: model.margin_score(idx, rows, theta))]


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
    batch-means standard errors."""

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


def _batch_edges(n: int, batches: int) -> np.ndarray:
    return np.linspace(0, n, batches + 1).astype(int)


def _cov(rows: np.ndarray) -> np.ndarray:
    """Sample covariance of row vectors, always (q, q)."""
    dev = rows - rows.mean(axis=0)
    return symmetrize(dev.T @ dev / (rows.shape[0] - 1))


def _godambe(H: np.ndarray, J: np.ndarray) -> np.ndarray:
    return symmetrize(H @ solve_sym(J, H))


def _info_from_score_fn(score_fn, theta: ParamVector, n: int, batches: int,
                        provenance: str, statistical_asymmetry: bool = False):
    """Build an InfoTriple from a vectorized score function over a fixed
    sample of ``n`` draws.  Returns ``(triple, scores_at_theta)``.

    J is the sample covariance of the scores; H is minus the averaged
    central-difference Jacobian of the score in the free parameters
    (common draws across shifts).  Standard errors come from ``batches``
    contiguous batch means.

    A genuine composite score is a gradient field, so its per-draw
    Jacobian is symmetric and the estimated H must be symmetric to
    round-off; ``statistical_asymmetry`` relaxes the check to the batch
    noise level for transformed scores (projections) whose H is symmetric
    only in expectation.
    """
    free = theta.free_names
    q = len(free)
    U0 = np.asarray(score_fn(theta))
    if U0.ndim != 2 or U0.shape != (n, q):
        raise ValueError(f"score function returned shape {U0.shape}, "
                         f"expected ({n}, {q})")
    edges = _batch_edges(n, batches)
    slices = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]

    J_full = _cov(U0)
    J_batch = np.stack([_cov(U0[sl]) for sl in slices])

    Hcols_full = np.empty((q, q))
    Hcols_batch = np.empty((batches, q, q))
    for b, name in enumerate(free):
        h = FD_STEP_INFO * max(1.0, abs(theta[name]))
        up = np.asarray(score_fn(theta.with_values(**{name: theta[name] + h})))
        dn = np.asarray(score_fn(theta.with_values(**{name: theta[name] - h})))
        Hcols_full[:, b] = -(up.mean(axis=0) - dn.mean(axis=0)) / (2.0 * h)
        for bi, sl in enumerate(slices):
            Hcols_batch[bi, :, b] = -(up[sl].mean(axis=0) - dn[sl].mean(axis=0)) / (2.0 * h)

    allow = H_ASYMMETRY_TOL
    if statistical_asymmetry:
        gap_b = Hcols_batch - np.transpose(Hcols_batch, (0, 2, 1))
        se = gap_b.std(axis=0, ddof=1) / np.sqrt(batches)
        scale = max(1.0, float(np.max(np.abs(Hcols_full))))
        allow = max(allow, 6.0 * float(np.max(se)) / scale)
    if asymmetry(Hcols_full) > allow:
        raise ValueError(f"sensitivity estimate asymmetric beyond tolerance: "
                         f"{asymmetry(Hcols_full):g}")
    H_full = symmetrize(Hcols_full)
    H_batch = np.stack([symmetrize(m) for m in Hcols_batch])

    G_full = _godambe(H_full, J_full)
    G_batch = np.stack([_godambe(h_, j_) for h_, j_ in zip(H_batch, J_batch)])

    root_b = np.sqrt(batches)
    triple = InfoTriple(
        param_names=free,
        sensitivity=H_full,
        variability=J_full,
        godambe=G_full,
        provenance=provenance,
        draws=n,
        sensitivity_se=H_batch.std(axis=0, ddof=1) / root_b,
        variability_se=J_batch.std(axis=0, ddof=1) / root_b,
        godambe_se=G_batch.std(axis=0, ddof=1) / root_b,
        batch_sensitivity=H_batch,
        batch_variability=J_batch,
    )
    return triple, U0


def info_monte_carlo(spec: CompositeSpec, model: Model, theta: ParamVector,
                     draws: int, seed, batches: int = 20) -> InfoTriple:
    """Monte Carlo information triple of a composite spec.

    ``draws`` independent observations are sampled at ``theta``; H comes
    from the averaged finite-difference score Jacobian, J from the score
    covariance, and per-entry standard errors from ``batches`` batch means.
    """
    if draws < 1000:
        raise ValueError("draws must be >= 1000")
    Y = model.sample(theta, draws, seed)
    triple, _ = _info_from_score_fn(
        lambda th: composite_score(spec, model, Y, th),
        theta, draws, batches, "monte-carlo")
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
    if draws < 1000:
        raise ValueError("draws must be >= 1000")
    M = projection_matrix(base)
    Y = model.sample(theta, draws, seed)
    triple, _ = _info_from_score_fn(
        lambda th: composite_score(spec, model, Y, th) @ M,
        theta, draws, batches, "monte-carlo", statistical_asymmetry=True)
    return triple


# ---------------------------------------------------------------------------
# exact information (independent of the Monte Carlo route)
# ---------------------------------------------------------------------------


def _packed_rep(model, idx, theta):
    """:meth:`~clik.models.Model.margin_score_rep` of one margin packed into
    one ``(..., q, 1 + p + p*p)`` array ``[c, B, A.ravel()]``, so that
    components combine by plain array arithmetic; the leading axes are those
    of a ParamBatch ``theta``."""
    c, B, A = model.margin_score_rep(idx, theta)
    return np.concatenate([c[..., None], B, A.reshape(A.shape[:-2] + (-1,))],
                          axis=-1)


def _spec_forms(spec, model, theta):
    """Total composite score as packed affine-quadratic forms of
    ``r = y - mean`` (see :func:`_packed_rep`)."""
    return _weighted_total(spec, lambda idx: _packed_rep(model, idx, theta))


def summed_score(spec: CompositeSpec, model: Model, stats, theta):
    """``composite_score(spec, model, Y, theta).sum(axis=0)`` from the
    statistic ``model.statistic(Y)`` alone.

    With ``d = ybar - mean(theta)``, the scatter about the model mean is
    ``n d d' + W``, so each margin's summed score is one contraction of its
    packed forms with ``[n, n d, (n d d' + W) / 2]``.  ``stats`` may be a
    stack ``(R, K)`` with ``theta`` a ParamBatch of R points; the result is
    then ``(R, q)``.
    """
    p = model.dim
    stats = np.asarray(stats, dtype=float)
    n, ybar, scatter = stats[..., :1], stats[..., 1:p + 1], stats[..., p + 1:]
    d = ybar - model._mean(theta)
    outer = (d[..., :, None] * d[..., None, :]).reshape(d.shape[:-1] + (p * p,))
    z = np.concatenate([n, n * d, 0.5 * (n * outer + scatter)], axis=-1)
    return _weighted_total(spec, lambda idx: (
        _packed_rep(model, idx, theta) * z[..., None, :]).sum(axis=-1))


def _gaussian_info_exact(spec, model, theta, stencil):
    """J at ``theta`` and the exact mean score (data drawn at ``theta``) at
    each stencil point; the forms of all the points are built as one
    batch."""
    q, p = len(theta.free_names), model.dim
    points = ParamBatch.stack([theta, *stencil])
    forms = _spec_forms(spec, model, points)
    c_all = forms[..., 0]
    B_all = forms[..., 1:p + 1]
    A_all = forms[..., p + 1:].reshape(forms.shape[:-1] + (p, p))
    cov0 = model._cov(theta)
    mean0 = model._mean(theta)

    B0, A0 = B_all[0], A_all[0]
    J = np.empty((q, q))
    for a in range(q):
        for b in range(a, q):
            J[a, b] = J[b, a] = (B0[a] @ cov0 @ B0[b]
                                 + 0.5 * np.trace(A0[a] @ cov0 @ A0[b] @ cov0))

    means = []
    for c, B, A, mean in zip(c_all[1:], B_all[1:], A_all[1:],
                             model._mean(points)[1:]):
        delta = mean0 - mean
        vals = np.empty(q)
        for a in range(q):
            vals[a] = (c[a] + B[a] @ delta
                       + 0.5 * (np.trace(A[a] @ cov0) + delta @ A[a] @ delta))
        means.append(vals)
    return J, means


def _multinomial_info_exact(spec, model, theta, stencil):
    q = len(theta.free_names)
    outs = model.outcomes()
    w = model.cell_probs(theta)
    U0 = composite_score(spec, model, outs, theta)
    m0 = w @ U0
    J = symmetrize(np.einsum("o,oi,oj->ij", w, U0, U0) - np.outer(m0, m0))
    J = J.reshape(q, q)
    return J, [w @ composite_score(spec, model, outs, th) for th in stencil]


def info_exact(spec: CompositeSpec, model: Model, theta: ParamVector) -> InfoTriple:
    """Exact information triple (no sampling).

    For Gaussian models the score of every component is an affine-quadratic
    form in the observation, so J follows from Gaussian product moments; for
    the four-cell multinomial, expectations are finite sums over the four
    outcomes.  H is minus the derivative of the exact mean score, taken by
    central differences with a tiny step.
    """
    if isinstance(model, GaussianModel):
        exact = _gaussian_info_exact
    elif isinstance(model, Multinomial4):
        exact = _multinomial_info_exact
    else:
        raise TypeError(f"no exact information route for {model!r}")

    free = theta.free_names
    q = len(free)
    steps = [FD_STEP_EXACT * max(1.0, abs(theta[name])) for name in free]
    stencil = [theta.with_values(**{name: theta[name] + sign * h})
               for name, h in zip(free, steps) for sign in (1.0, -1.0)]
    J, means = exact(spec, model, theta, stencil)
    H = np.empty((q, q))
    for b, h in enumerate(steps):
        H[:, b] = -(means[2 * b] - means[2 * b + 1]) / (2.0 * h)
    if asymmetry(H) > H_ASYMMETRY_TOL:
        raise ValueError(f"exact sensitivity asymmetric beyond tolerance: "
                         f"{asymmetry(H):g}")
    H = symmetrize(H)
    return InfoTriple(free, H, symmetrize(J), _godambe(H, J), "analytic")


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
        raise ValueError("z-score needs a Monte Carlo triple with batch data")
    diff_b = triple.batch_sensitivity - triple.batch_variability
    se = diff_b.std(axis=0, ddof=1) / np.sqrt(diff_b.shape[0])
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
    if draws < 1000:
        raise ValueError("draws must be >= 1000")
    Y = model.sample(theta, draws, seed)
    triple, Uc = _info_from_score_fn(
        lambda th: composite_score(spec, model, Y, th),
        theta, draws, batches, "monte-carlo")
    U = model.full_score(Y, theta)

    M = projection_matrix(triple)                      # J^-1 H
    M_batch = [solve_sym(jb, hb) for hb, jb in
               zip(triple.batch_sensitivity, triple.batch_variability)]

    resid = U - Uc @ M
    edges = _batch_edges(draws, batches)
    slices = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]

    b_est = resid.mean(axis=0)
    b_means = np.stack([resid[sl].mean(axis=0) for sl in slices])
    b_se = b_means.std(axis=0, ddof=1) / np.sqrt(batches)

    residual_cov = _cov(resid)
    fisher = _cov(U)
    gap_full = residual_cov - (fisher - triple.godambe)

    # batch versions (each batch uses its own projection)
    gap_b, cross_b, lam_b = [], [], []
    for bi, (sl, Mb) in enumerate(zip(slices, M_batch)):
        rb = U[sl] - Uc[sl] @ Mb
        rcov = _cov(rb)
        Ib = _cov(U[sl])
        Gb = _godambe(triple.batch_sensitivity[bi], triple.batch_variability[bi])
        dev_c = Uc[sl] - Uc[sl].mean(axis=0)
        dev_u = U[sl] - U[sl].mean(axis=0)
        cross_b.append(dev_c.T @ dev_u / (sl.stop - sl.start - 1))
        gap_b.append(rcov - (Ib - Gb))
        lam_b.append(float(np.max(np.linalg.eigvalsh(rcov))))
    root_b = np.sqrt(batches)
    se_floor = 1e-12 * max(1.0, float(np.max(np.abs(fisher))))
    gap_se = np.stack(gap_b).std(axis=0, ddof=1) / root_b
    residual_identity_z = float(np.max(np.abs(gap_full)
                                       / np.maximum(gap_se, se_floor)))

    dev_c = Uc - Uc.mean(axis=0)
    dev_u = U - U.mean(axis=0)
    crosscov = dev_c.T @ dev_u / (draws - 1)
    cross_se = np.stack(cross_b).std(axis=0, ddof=1) / root_b
    crosscov_identity_z = float(np.max(np.abs(triple.sensitivity - crosscov)
                                       / np.maximum(cross_se, se_floor)))

    # per-draw residual noise propagated from the uncertainty of J^-1 H
    proj_b = np.stack([Uc @ Mb for Mb in M_batch])      # (B, n, q)
    se_r = proj_b.std(axis=0, ddof=1) / root_b
    floor = 1e-12 * (1.0 + float(np.max(np.abs(U))))
    max_residual_z = float(np.max(np.abs(resid) / np.maximum(se_r, floor)))

    lam = float(np.max(np.linalg.eigvalsh(residual_cov)))
    lam_se = float(np.std(lam_b, ddof=1) / root_b)
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
    ii = np.ix_(i_idx, i_idx)
    nn = np.ix_(n_idx, n_idx)
    in_ = np.ix_(i_idx, n_idx)
    ni = np.ix_(n_idx, i_idx)
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
        raise ValueError("both the interest and nuisance blocks must be nonempty")
    return _partitioned_from_mats(triple.sensitivity, triple.variability,
                                  triple.godambe, i_idx, n_idx)
