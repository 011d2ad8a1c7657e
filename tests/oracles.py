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


def stencil_info(score_fn, theta, n, batches):
    """Monte Carlo ``(H, H_batch, J)`` of a per-row score function over a
    fixed sample of ``n`` draws, as the library computed them before the
    stencil means came from per-batch statistics.

    ``score_fn(point)`` returns the ``(n, q)`` scores at a parameter point.
    H is minus the central difference (step ``1e-4 * max(1, |x|)``) of the
    sample-mean score, over the whole sample and over each of ``batches``
    contiguous batches, symmetrized; J is the sample covariance of the
    scores at ``theta``.
    """
    free = theta.free_names
    q = len(free)
    edges = np.linspace(0, n, batches + 1).astype(int)
    slices = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    H = np.empty((q, q))
    H_batch = np.empty((batches, q, q))
    for b, name in enumerate(free):
        h = 1e-4 * max(1.0, abs(theta[name]))
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
