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
