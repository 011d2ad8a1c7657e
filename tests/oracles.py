"""Numerical oracles that the tests compare the library against."""

import numpy as np


def numeric_hessian(f, x, h=None) -> np.ndarray:
    """Symmetrized central-difference Hessian of a scalar function.

    Exact on quadratics up to round-off; the default step is
    ``1e-4 * max(|x_i|, 1)`` per coordinate.  Domain errors raised by
    ``f`` on stencil points propagate.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    steps = np.array([h if h is not None else 1e-4 * max(1.0, abs(v))
                      for v in x])
    f0 = f(x)
    hess = np.empty((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = steps[i]
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / steps[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = steps[j]
            val = (f(x + ei + ej) - f(x + ei - ej)
                   - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * steps[i] * steps[j])
            hess[i, j] = hess[j, i] = val
    return 0.5 * (hess + hess.T)


def fd_step(theta, name, scale):
    """The library's central-difference step for parameter ``name``:
    ``scale * x`` for sigma2, the one parameter bounded to ``(0, inf)``
    (EMVN and TriNormal), and ``scale * max(1, |x|)`` for every other."""
    x = theta[name]
    return scale * (x if name == "sigma2" else max(1.0, abs(x)))


def stencil_info(score_fn, theta, n, batches):
    """Monte Carlo ``(H, H_batch, J)`` of a per-row score function over a
    fixed sample of ``n`` draws, as the library computed them before the
    stencil means came from per-batch statistics.

    ``score_fn(point)`` returns the ``(n, q)`` scores at a parameter point.
    H is minus the central difference (step ``fd_step(theta, name,
    1e-4)``) of the sample-mean score, over the whole sample and over each
    of ``batches`` contiguous batches, symmetrized; J is the sample
    covariance of the scores at ``theta``.
    """
    free = theta.free_names
    q = len(free)
    edges = np.linspace(0, n, batches + 1).astype(int)
    slices = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    H = np.empty((q, q))
    H_batch = np.empty((batches, q, q))
    for b, name in enumerate(free):
        h = fd_step(theta, name, 1e-4)
        up = score_fn(theta.with_values(**{name: theta[name] + h}))
        dn = score_fn(theta.with_values(**{name: theta[name] - h}))
        H[:, b] = -(up.mean(axis=0) - dn.mean(axis=0)) / (2.0 * h)
        for bi, sl in enumerate(slices):
            H_batch[bi, :, b] = -(up[sl].mean(axis=0)
                                  - dn[sl].mean(axis=0)) / (2.0 * h)
    U = score_fn(theta)
    dev = U - U.mean(axis=0)
    J = dev.T @ dev / (n - 1)
    return (0.5 * (H + H.T), 0.5 * (H_batch + H_batch.transpose(0, 2, 1)),
            0.5 * (J + J.T))


def conditional_moments(model, target, given, theta):
    """Conditional mean weights and variance of ``y_target | y_given`` in a
    Gaussian model, by partitioned-covariance arithmetic.

    Returns ``(intercept, weights, var)`` so the conditional mean at an
    observation is ``intercept + weights @ y[given]``.
    """
    model.validate(theta)
    given = sorted(given)
    cov, mu = model._cov(theta), model._mean(theta)
    cross = cov[target, given]
    w = np.linalg.solve(cov[np.ix_(given, given)], cross)
    var = float(cov[target, target] - w @ cross)
    intercept = float(mu[target] - w @ mu[given])
    return intercept, w, var


#: Scan points and margin of :func:`brentq_pairwise`, as the EMVN pairwise
#: fast path once scanned its score.
SCAN_POINTS = 16
SCAN_MARGIN = 1e-6


def brentq_pairwise(sums, sigma2):
    """The EMVN pairwise fit of rho with ``sigma2`` known, as it once ran:
    ``(estimates, converged, score_norm)`` of each row ``(n, p, Q, W)`` of
    ``sums``.

    The score is scanned on ``SCAN_POINTS`` equispaced points from
    ``SCAN_MARGIN`` inside the domain.  A scan point where it is exactly
    zero is a candidate, and so is the root of one scalar
    ``scipy.optimize.brentq`` call (``xtol=1e-13``) across every sign
    change; a row with several keeps the first with the highest pairwise
    log likelihood.  A root in a cell whose ends share a sign is missed.
    """
    from scipy.optimize import brentq

    from clik import estimators as est
    sums = np.asarray(sums, dtype=float)
    n, p, q, w = (sums[:, [k]] for k in range(4))
    nc = n * p * (p - 1) / 2.0
    grid = np.linspace((-1.0 / (p - 1) + SCAN_MARGIN)[:, 0],
                       1.0 - SCAN_MARGIN, SCAN_POINTS, axis=1)
    vals = est._pair_score(grid, p, q, w, nc, sigma2)
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
            roots[i].append(float(brentq(est._pair_score, grid[i, j],
                                         grid[i, j + 1],
                                         args=(*args[i], sigma2),
                                         xtol=1e-13)))
    for i in np.flatnonzero(end_zero):
        roots[i].append(float(grid[i, -1]))

    rho = np.full(len(args), np.nan)
    for i, found in enumerate(roots):
        if found:
            objective = [est._pair_loglik(r, *args[i], sigma2) for r in found]
            rho[i] = found[int(np.argmax(objective))]
    resid = np.abs(est._pair_score(rho, p, q, w, nc, sigma2))
    return rho[:, None], ~np.isnan(rho), resid


def parent_draw(model, theta, n, seed, index):
    """Dataset ``index`` of a study, drawn as one replicate was before
    replicates were drawn in blocks: numpy's own seeding, then
    ``mean + Z @ factor`` (Gaussian) or one ``searchsorted`` of uniforms
    over the cumulative cell probabilities (Multinomial4)."""
    from clik.models import Multinomial4
    rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                       spawn_key=(index,)))
    if isinstance(model, Multinomial4):
        cum = np.cumsum(model.cell_probs(theta))
        cells = np.searchsorted(cum, rng.random(n), side="right")
        return model.outcomes()[np.minimum(cells, 3)]
    factor = np.linalg.cholesky(model._cov(theta)).T
    return model._mean(theta) + rng.standard_normal((n, model.dim)) @ factor


def parent_pair_stats(Y):
    """``(n, p, Q, W)`` of one dataset straight from its rows: the sum of
    squared entries and the sum of squared row sums."""
    n, p = Y.shape
    q = float(np.sum(Y * Y))
    w = float(np.sum(Y.sum(axis=1) ** 2))
    return np.array([n, p, q, w])


def parent_column_means(Y):
    return np.array([col.mean() for col in Y.T])


def parent_statistic(Y):
    """``Model.statistic`` of one dataset by the textbook formula: its
    mean and scatter round differently, so it is a tolerance oracle."""
    ybar = Y.mean(axis=0)
    dev = Y - ybar
    return np.concatenate([[Y.shape[0]], ybar, (dev.T @ dev).ravel()])


def parent_run(config):
    """``label -> (estimates, converged, score_norm)`` of a simulation
    study along the per-replicate route: :func:`parent_draw` and one
    ``Model.statistic`` call for every replicate, then each run's batched
    solve over the stacked statistics."""
    from clik.estimators import batch_route
    stats = np.array([config.model.statistic(
        parent_draw(config.model, config.theta_true, config.n, config.seed, r))
        for r in range(config.replicates)])
    return {run.label: batch_route(config.model, run.spec, config.theta_true,
                                   run.fixed_dict)(stats).columns()
            for run in config.runs}


def parent_margin_score_rep(model, indices, theta):
    """``(c, B, A)`` of one margin as ``margin_score_rep`` built them one
    margin per call, before every margin of a spec was built in one pass:
    for a Gaussian model one ``sym_invert`` of the margin covariance and a
    loop over the free parameters, scattering each block into zeros."""
    from clik.matrixops import sym_invert
    from clik.models import Multinomial4, _check_indices
    model.validate(theta)
    idx = _check_indices(model.dim, indices)
    if isinstance(model, Multinomial4):
        idx = list(idx)
        probs = model.cell_probs(theta)
        grads = model.cell_grads()[idx]
        rest = -grads.sum() / (1.0 - probs[..., idx].sum(axis=-1))
        B = np.zeros(probs.shape[:-1] + (1, 3))
        B[..., 0, idx] = grads / probs[..., idx] - rest[..., None]
        c = rest[..., None] + (B * probs[..., None, :3]).sum(axis=-1)
        return c, B, np.zeros(B.shape + (3,))
    cols, ix = list(idx), (Ellipsis, *np.ix_(idx, idx))
    cinv = sym_invert(model._cov(theta)[ix])
    dmu, dS = model._jacobians(theta)
    free, p = theta.free_names, model.dim
    lead = cinv.shape[:-2]
    c = np.empty(lead + (len(free),))
    B = np.zeros(lead + (len(free), p))
    A = np.zeros(lead + (len(free), p, p))
    for a in range(len(free)):
        cd = cinv @ dS[..., a, :, :][ix]
        c[..., a] = -0.5 * np.trace(cd, axis1=-2, axis2=-1)
        A[(Ellipsis, a, *ix[1:])] = cd @ cinv
        B[..., a, cols] = (cinv @ dmu[..., a, :][..., cols, None])[..., 0]
    return c, B, A


def parent_packed_rep(model, indices, theta):
    """:func:`parent_margin_score_rep` packed as ``[c, B, A.ravel()]``."""
    c, B, A = parent_margin_score_rep(model, indices, theta)
    return np.concatenate([c[..., None], B, A.reshape(A.shape[:-2] + (-1,))],
                          axis=-1)


def parent_info_exact(spec, model, theta):
    """``(H, J, G)`` of ``info_exact`` along the parent's loops: one
    :func:`parent_packed_rep` per margin, a Python loop over the ``q**2``
    entries of J and over the ``2q`` stencil points, and H as the central
    difference (step ``fd_step(theta, name, 1e-6)``) of the exact mean
    scores."""
    from clik.models import GaussianModel, ParamBatch
    free, p = theta.free_names, model.dim
    q = len(free)
    steps = [fd_step(theta, name, 1e-6) for name in free]
    stencil = [theta.with_values(**{name: theta[name] + sign * h})
               for name, h in zip(free, steps) for sign in (1.0, -1.0)]
    points = ParamBatch.stack([theta, *stencil])
    forms = 0
    for comp in spec.components:
        value = parent_packed_rep(model, comp.given + comp.indices, points)
        if comp.kind == "conditional":
            value = value - parent_packed_rep(model, comp.given, points)
        forms = forms + comp.weight * value
    c_all = forms[..., 0]
    B_all = forms[..., 1:p + 1]
    A_all = forms[..., p + 1:].reshape(forms.shape[:-1] + (p, p))
    mean_all = model._mean(points)
    if isinstance(model, GaussianModel):
        cov0, mean0 = model._cov(theta), model._mean(theta)
        B0, A0 = B_all[0], A_all[0]
        J = np.empty((q, q))
        for a in range(q):
            for b in range(a, q):
                J[a, b] = J[b, a] = (B0[a] @ cov0 @ B0[b] + 0.5 * np.trace(
                    A0[a] @ cov0 @ A0[b] @ cov0))
        means = []
        for c, B, A, mean in zip(c_all[1:], B_all[1:], A_all[1:],
                                 mean_all[1:]):
            delta = mean0 - mean
            means.append([c[a] + B[a] @ delta + 0.5 * (
                np.trace(A[a] @ cov0) + delta @ A[a] @ delta)
                for a in range(q)])
    else:
        resid = model.outcomes() - mean_all[:, None, :]
        U = (c_all[:, None, :] + np.einsum("soj,saj->soa", resid, B_all)
             + 0.5 * np.einsum("soi,saij,soj->soa", resid, A_all, resid))
        w = model.cell_probs(theta)
        m0 = w @ U[0]
        J = np.einsum("o,oi,oj->ij", w, U[0], U[0]) - np.outer(m0, m0)
        J = 0.5 * (J + J.T)
        means = [w @ u for u in U[1:]]
    H = np.empty((q, q))
    for b, h in enumerate(steps):
        H[:, b] = -(np.asarray(means[2 * b]) - means[2 * b + 1]) / (2.0 * h)
    H = 0.5 * (H + H.T)
    G = H @ np.linalg.solve(J, H)
    return H, J, 0.5 * (G + G.T)


def parent_summed_score(spec, model, stats, theta):
    """``composite.summed_score`` as it was taken margin by margin: each
    distinct margin's packed forms contracted with the statistic, then the
    weighted total over the components."""
    import clik.composite as comp
    sets = comp._margins(spec)
    return comp._weighted_total(spec, dict(zip(sets, comp._contract(
        model.margin_score_reps(sets, theta), stats, model._mean(theta)))))


def parent_mean_scores(model, forms, points):
    """The exact mean of the scores with packed forms ``forms`` at
    ``points[1:]`` under data drawn at ``points[0]``, ``(len(points) - 1,
    q)``, in the closed form ``info_exact`` took them from before the
    population statistic: with ``y`` of mean ``mean0`` and covariance
    ``S``, the mean of ``c + B r + r' A r / 2`` at a point whose mean is
    ``mean0 - d`` is ``c + B d + (tr(A S) + d' A d) / 2``."""
    p = model.dim
    mean = model._mean(points)
    c = forms[1:, ..., 0]
    B = forms[1:, ..., 1:p + 1]
    A = forms[1:, ..., p + 1:].reshape(forms[1:].shape[:-1] + (p, p))
    d = (mean[0] - mean[1:])[:, None, :, None]      # (S, 1, p, 1)
    dAd = (np.swapaxes(d, -1, -2) @ A @ d)[..., 0, 0]
    Bd = (B[..., None, :] @ d)[..., 0, 0]
    trAS = np.trace(A @ model._cov(points)[0], axis1=-2, axis2=-1)
    return c + Bd + 0.5 * (trAS + dAd)


def parent_affine_quadratic(c, B, A, resid):
    """``models.affine_quadratic`` with the quadratic term as a product and
    a sum over the last axis, ``((r @ A_a) * r).sum(-1)``, as it was
    before the term became one ``einsum``; a zero ``A_a`` is skipped."""
    out = c[..., None, :] + resid @ np.swapaxes(B, -1, -2)
    for a in range(c.shape[-1]):
        if np.any(A[..., a, :, :]):
            out[..., a] += 0.5 * ((resid @ A[..., a, :, :]) * resid).sum(axis=-1)
    return out


def parent_partitioned(H, J, G, i_idx, n_idx):
    """``(avar_profile, avar_known)`` of one triple's matrices, indexed by
    ``np.ix_`` as before the blocks were taken from stacks."""
    from clik.matrixops import solve_sym, sym_invert, symmetrize
    ii, nn = np.ix_(i_idx, i_idx), np.ix_(n_idx, n_idx)
    in_, ni = np.ix_(i_idx, n_idx), np.ix_(n_idx, i_idx)
    schur = G[ii] - G[in_] @ solve_sym(G[nn], G[ni])
    h_ii_inv = sym_invert(H[ii])
    return sym_invert(schur), symmetrize(h_ii_inv @ J[ii] @ h_ii_inv)


def parent_estimates_csv(result, path):
    """``SimResult.write_estimates_csv`` as it was: one list per row, each
    estimate through ``fileio.fmt``, each flag through ``str(bool(...))``."""
    import csv

    from clik.fileio import fmt
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["spec", "replicate", "param", "estimate",
                         "converged"])
        for label in result.labels():
            names = result.param_names(label)
            est, conv = result.estimates[label], result.converged[label]
            for r in range(est.shape[0]):
                for j, name in enumerate(names):
                    writer.writerow([label, r, name, fmt(est[r, j]),
                                     str(bool(conv[r]))])


def parent_info_from_sample(spec, model, Y, theta, batches, M=None):
    """``(triple, scores, batch_means)`` of ``composite._info_from_sample``
    along the parent's whole-sample route: one ``composite_score`` call
    over all the draws, then one ``sample_cov`` per batch and the batch
    means by ``np.add.reduceat``; H from the batch statistics through one
    ``summed_score`` call, the contraction the library takes."""
    import clik.composite as comp
    from clik.matrixops import symmetrize
    from clik.models import ParamBatch
    free = theta.free_names
    q, n = len(free), Y.shape[0]
    slices = comp.batch_slices(n, batches)
    U0 = comp.composite_score(spec, model, Y, theta)
    if M is not None:
        U0 = U0 @ M
    starts = [sl.start for sl in slices]
    sizes = np.diff(starts + [n])
    J_batch = np.stack([comp.sample_cov(U0[sl]) for sl in slices])
    means = np.add.reduceat(U0, starts, axis=0) / sizes[:, None]
    J = comp._pooled_cov(J_batch, means, sizes)

    steps = np.array([fd_step(theta, name, comp.FD_STEP_INFO)
                      for name in free])
    stencil = ParamBatch.stack([theta.with_values(**{name: theta[name] + s * h})
                                for name, h in zip(free, steps)
                                for s in (1.0, -1.0)])
    stats = np.stack([model.statistic(Y[sl]) for sl in slices])
    sums = comp.summed_score(spec, model, np.tile(stats, (2 * q, 1)),
                             stencil.take(np.repeat(np.arange(2 * q), batches)))
    if M is not None:
        sums = sums @ M
    sums = sums.reshape(q, 2, batches, q)
    diff = (sums[:, 0] - sums[:, 1]) / (2.0 * steps[:, None, None])
    H = symmetrize(-(diff.sum(axis=1) / n).T)
    H_batch = symmetrize(-np.transpose(diff / sizes[:, None], (1, 2, 0)))
    G, G_batch = comp._godambe(H, J), comp._godambe(H_batch, J_batch)
    triple = comp.InfoTriple(
        free, H, J, G, "monte-carlo", n,
        comp.InfoTriple(free, H_batch, J_batch, G_batch, "monte-carlo"))
    return triple, U0, means
