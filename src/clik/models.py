"""The three generative model families and their exact likelihood pieces.

Each model exposes, for arbitrary index subsets of its observation vector:
margin log densities, analytic margin scores in the free parameters, the
same scores as affine-quadratic forms in the observation, and an exact
sampler.  (Fisher information is the variability matrix of the full
likelihood; see :func:`clik.composite.info_exact`.)  Conditionals are
formed by :mod:`clik.composite` through the identity
``log f(y_t | y_G) = log f(y_{t,G}) - log f(y_G)``, so one margin code
path serves independence, pairwise, full-conditional and chain composite
likelihoods alike.

Evaluation is vectorized over observations: ``Y`` may be a single vector
or an ``(n, dim)`` array, and log densities / scores come back with a
matching leading shape.  The parameter-only pieces (means, covariances,
their derivatives, cell probabilities and score forms) also take a
:class:`ParamBatch` and then carry its leading axis: one call serves
every point of a batched solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, DomainError
from .fileio import atomic_csv  # noqa: F401  (perfbench/tracing.py wraps it here)
from .matrixops import cholesky_lower, solve_sym, sym_invert

LOG_2PI = float(np.log(2.0 * np.pi))

#: Parameters this close to a domain boundary are rejected: information
#: matrices degenerate at the boundary itself.
BOUNDARY_MARGIN = 1e-8

_ROLES = ("interest", "nuisance", "known")


def _free(names, roles) -> tuple:
    return tuple(n for n, r in zip(names, roles) if r != "known")


def _within(x, lo, hi):
    """Whether ``x`` lies at least BOUNDARY_MARGIN inside ``(lo, hi)``:
    a bool for a number, elementwise for an array."""
    return (lo + BOUNDARY_MARGIN <= x) & (x <= hi - BOUNDARY_MARGIN)


def _lift(x, ndim: int):
    """A parameter shaped to scale ``ndim``-dimensional blocks: a number
    stays as it is, a batch gains ``ndim`` trailing axes."""
    return x[(..., *(None,) * ndim)] if isinstance(x, np.ndarray) else x


@dataclass(frozen=True)
class ParamVector:
    """A named parameter point with interest/nuisance/known tags.

    ``names`` fixes the coordinate order used by every score vector and
    information matrix in the library; the free coordinates are the ones
    not tagged ``"known"``, in declaration order.
    """

    names: tuple
    values: tuple
    roles: tuple

    #: Leading (batch) shape of every parameter-only model quantity.
    shape = ()

    def __post_init__(self):
        if not (len(self.names) == len(self.values) == len(self.roles)):
            raise ValueError("names, values and roles must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate parameter names in {self.names}")
        for r in self.roles:
            if r not in _ROLES:
                raise ValueError(f"unknown role {r!r}; expected one of {_ROLES}")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "roles", tuple(self.roles))

    def __getitem__(self, name: str) -> float:
        return self.values[self.names.index(name)]

    def role(self, name: str) -> str:
        return self.roles[self.names.index(name)]

    def as_dict(self) -> dict:
        return dict(zip(self.names, self.values))

    @property
    def free_names(self) -> tuple:
        return _free(self.names, self.roles)

    @property
    def free_values(self) -> np.ndarray:
        return np.array([self[n] for n in self.free_names])

    @property
    def interest_names(self) -> tuple:
        return tuple(n for n, r in zip(self.names, self.roles) if r == "interest")

    @property
    def nuisance_names(self) -> tuple:
        return tuple(n for n, r in zip(self.names, self.roles) if r == "nuisance")

    def with_values(self, **updates) -> "ParamVector":
        for n in updates:
            if n not in self.names:
                raise KeyError(f"unknown parameter {n!r}")
        vals = tuple(float(updates.get(n, v)) for n, v in zip(self.names, self.values))
        return replace(self, values=vals)

    def with_roles(self, **updates) -> "ParamVector":
        for n in updates:
            if n not in self.names:
                raise KeyError(f"unknown parameter {n!r}")
        roles = tuple(updates.get(n, r) for n, r in zip(self.names, self.roles))
        return replace(self, roles=roles)

    def replace_free(self, vector) -> "ParamVector":
        """Return a copy with the free coordinates set from ``vector`` (in order)."""
        vec = np.asarray(vector, dtype=float).ravel()
        free = self.free_names
        if vec.size != len(free):
            raise DimensionMismatch(f"{vec.size} values for {len(free)} free parameters")
        return self.with_values(**dict(zip(free, vec)))


@dataclass(frozen=True)
class ParamBatch:
    """Parameter points that share names and roles.

    Row ``i`` of ``values`` is one point, in ``names`` order, and
    ``batch[name]`` is that coordinate of every point.  Model methods that
    read parameters by name broadcast over this leading axis, so a batch is
    evaluated in one call; a :class:`ParamVector` is the unbatched case.
    """

    names: tuple
    values: np.ndarray                  # (R, len(names))
    roles: tuple

    @classmethod
    def stack(cls, points) -> "ParamBatch":
        """The batch of a sequence of ParamVectors with equal names and roles."""
        first = points[0]
        return cls(first.names, np.array([pt.values for pt in points]),
                   first.roles)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def shape(self) -> tuple:
        return self.values.shape[:1]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    @property
    def free_names(self) -> tuple:
        return _free(self.names, self.roles)

    def take(self, rows) -> "ParamBatch":
        return replace(self, values=self.values[rows])

    def point(self, i: int) -> ParamVector:
        return ParamVector(self.names, self.values[i], self.roles)


def substream(seed, index=None) -> np.random.Generator:
    """Deterministic RNG substream for a replicate index.

    ``substream(seed, i)`` yields independent streams for distinct ``i``,
    so replicates may be generated concurrently in any partitioning with
    bit-identical results.
    """
    if isinstance(seed, np.random.Generator):
        if index is not None:
            raise ValueError("cannot derive an indexed substream from a Generator")
        return seed
    ss = (np.random.SeedSequence(seed) if index is None
          else np.random.SeedSequence(seed, spawn_key=(index,)))
    return np.random.default_rng(ss)


def _as_rows(y, dim: int):
    """Promote a single observation to a 1-row matrix; report if it was 1-D."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 1:
        if arr.size != dim:
            raise DimensionMismatch(f"observation has length {arr.size}, model dim {dim}")
        return arr.reshape(1, dim), True
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(f"data shape {arr.shape} incompatible with dim {dim}")
    return arr, False


def _canon(indices) -> tuple:
    idx = tuple(sorted(int(i) for i in indices))
    if len(set(idx)) != len(idx):
        raise ValueError(f"repeated indices in {indices}")
    return idx


class Model:
    """Common interface of the three model families (0-based indices)."""

    dim: int
    param_names: tuple

    # -- parameters ----------------------------------------------------

    def params(self, **kwargs) -> ParamVector:
        raise NotImplementedError

    def bounds(self) -> dict:
        """Open interval ``(lo, hi)`` of each bounded parameter."""
        raise NotImplementedError

    def interior(self, theta):
        """Whether ``theta`` lies at least BOUNDARY_MARGIN inside every
        bound: a bool, or one per point of a ParamBatch."""
        inside = True
        for name, (lo, hi) in self.bounds().items():
            inside = inside & _within(theta[name], lo, hi)
        return inside

    def validate(self, theta) -> None:
        """Raise :class:`DomainError` unless every point of ``theta`` is
        interior."""
        for name, (lo, hi) in self.bounds().items():
            inside = _within(theta[name], lo, hi)
            if not (inside is True or np.all(inside)):
                bad = np.asarray(theta[name])[~np.asarray(inside)]
                raise DomainError(f"{name}={bad.flat[0]} outside "
                                  f"({lo}, {hi}) (margin {BOUNDARY_MARGIN})")

    def _check_indices(self, indices):
        idx = _canon(indices)
        if not idx:
            raise ValueError("index set must be nonempty")
        if idx[0] < 0 or idx[-1] >= self.dim:
            raise DimensionMismatch(f"indices {idx} outside 0..{self.dim - 1}")
        return idx

    # -- margins (implemented by subclasses, vectorized over rows) ------

    def margin_loglik(self, indices, Y, theta):
        raise NotImplementedError

    def margin_score(self, indices, Y, theta):
        raise NotImplementedError

    def margin_score_rep(self, indices, theta):
        """Affine-quadratic form of each score coordinate in the full space.

        Returns ``(c, B, A)`` with shapes ``(..., q)``, ``(..., q, dim)`` and
        ``(..., q, dim, dim)`` such that score coordinate ``a`` equals
        ``c[a] + B[a] @ r + 0.5 * r @ A[a] @ r`` for ``r = y - mean(theta)``;
        the leading axes are those of a ParamBatch ``theta``.
        """
        raise NotImplementedError

    def _mean(self, theta) -> np.ndarray:
        """Mean of the observation, shape ``(..., dim)``."""
        raise NotImplementedError

    # -- full likelihood -------------------------------------------------

    def loglik(self, Y, theta):
        return self.margin_loglik(range(self.dim), Y, theta)

    def full_score(self, Y, theta):
        return self.margin_score(range(self.dim), Y, theta)

    # -- sampling -------------------------------------------------------------

    def sample(self, theta: ParamVector, n: int, seed) -> np.ndarray:
        raise NotImplementedError

    def check_data(self, Y) -> np.ndarray:
        arr, _ = _as_rows(Y, self.dim)
        return arr

    def statistic(self, Y) -> np.ndarray:
        """The sufficient statistic ``(n, sum y, sum y y')`` of a dataset,
        held as ``[n, ybar, W.ravel()]`` with ``W`` the scatter about the
        sample mean ``ybar``: every composite score is affine-quadratic in
        ``y``, so its sum over the rows follows from these alone
        (:func:`clik.composite.summed_score`)."""
        ybar = Y.mean(axis=0)
        dev = Y - ybar
        return np.concatenate([[Y.shape[0]], ybar, (dev.T @ dev).ravel()])


class GaussianModel(Model):
    """Gaussian family: margins from the partitioned mean/covariance.

    Subclasses supply the full mean vector, covariance matrix and their
    derivatives in each free parameter; margin log densities and scores
    for any index subset follow from the generic formulas
    ``l = -m/2 log(2 pi) - 1/2 log|S| - 1/2 r' S^-1 r`` and
    ``dl/da = -1/2 tr(S^-1 dS) + 1/2 (S^-1 r)' dS (S^-1 r) + dmu' S^-1 r``.
    """

    def _mean_jac(self, theta) -> dict:
        """Map free-parameter name -> d(mean)/d(param), shape (..., dim)."""
        raise NotImplementedError

    def _cov(self, theta) -> np.ndarray:
        """Covariance of the observation, shape (..., dim, dim)."""
        raise NotImplementedError

    def _cov_jac(self, theta) -> dict:
        """Map free-parameter name -> d(cov)/d(param), shape (..., dim, dim)."""
        raise NotImplementedError

    # -- margins -----------------------------------------------------------

    def margin_loglik(self, indices, Y, theta):
        self.validate(theta)
        idx = self._check_indices(indices)
        rows, single = _as_rows(Y, self.dim)
        ix = np.ix_(idx, idx)
        cov = self._cov(theta)[ix]
        mu = self._mean(theta)[list(idx)]
        L = cholesky_lower(cov)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        resid = rows[:, idx] - mu
        z = np.linalg.solve(L, resid.T).T          # L z = r  =>  |z|^2 = r' S^-1 r
        quad = np.einsum("ni,ni->n", z, z)
        out = -0.5 * (len(idx) * LOG_2PI + logdet + quad)
        return float(out[0]) if single else out

    def _margin_forms(self, idx, ix, theta):
        """:meth:`margin_score_rep` on the margin's own coordinates only:
        ``(c, b, A)`` of shapes ``(..., q)``, ``(..., q, m)``,
        ``(..., q, m, m)`` for the residual ``r = y[idx] - mean[idx]``.
        ``ix`` is ``(Ellipsis, *np.ix_(idx, idx))``.
        """
        cinv = sym_invert(self._cov(theta)[ix])
        cov_jac = self._cov_jac(theta)
        mean_jac = self._mean_jac(theta)
        free, cols = theta.free_names, list(idx)
        lead = cinv.shape[:-2]
        c = np.empty(lead + (len(free),))
        b = np.empty(lead + (len(free), len(cols)))
        A = np.empty(lead + (len(free), len(cols), len(cols)))
        for a, name in enumerate(free):
            cd = cinv @ cov_jac[name][ix]
            c[..., a] = -0.5 * np.trace(cd, axis1=-2, axis2=-1)
            A[..., a, :, :] = cd @ cinv
            b[..., a, :] = (cinv @ mean_jac[name][..., cols, None])[..., 0]
        return c, b, A

    def margin_score(self, indices, Y, theta):
        self.validate(theta)
        idx = self._check_indices(indices)
        rows, single = _as_rows(Y, self.dim)
        c, b, A = self._margin_forms(idx, (Ellipsis, *np.ix_(idx, idx)), theta)
        resid = rows[:, idx] - self._mean(theta)[list(idx)]
        out = np.full((rows.shape[0], len(c)), c)
        for a in range(len(c)):
            if np.any(A[a]):
                out[:, a] += 0.5 * ((resid @ A[a]) * resid).sum(1)
            if np.any(b[a]):
                out[:, a] += resid @ b[a]
        return out[0] if single else out

    def margin_score_rep(self, indices, theta):
        """See :meth:`Model.margin_score_rep`.  :meth:`margin_score`
        evaluates the same forms; exact moments of the composite score
        follow from them."""
        self.validate(theta)
        idx = self._check_indices(indices)
        ix = np.ix_(idx, idx)
        c, b, A_idx = self._margin_forms(idx, (Ellipsis, *ix), theta)
        p = self.dim
        B = np.zeros(b.shape[:-1] + (p,))
        B[..., list(idx)] = b
        A = np.zeros(A_idx.shape[:-2] + (p, p))
        A[(Ellipsis, *ix)] = A_idx
        return c, B, A

    def conditional_moments(self, target, given, theta):
        """Conditional mean weights and variance of ``y_target | y_given``.

        Returns ``(intercept, weights, var)`` so the conditional mean at an
        observation is ``intercept + weights @ y[given]``.
        """
        self.validate(theta)
        given = _canon(given)
        if target in given:
            raise ValueError("target appears in given set")
        cov = self._cov(theta)
        mu = self._mean(theta)
        cross = cov[np.ix_([target], given)].ravel()
        w = solve_sym(cov[np.ix_(given, given)], cross)
        var = float(cov[target, target] - w @ cross)
        intercept = float(mu[target] - w @ mu[list(given)])
        return intercept, w, var

    # -- sampling -------------------------------------------------------------

    def sample(self, theta, n, seed) -> np.ndarray:
        self.validate(theta)
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = substream(seed)
        L = cholesky_lower(self._cov(theta))
        return self._mean(theta) + rng.standard_normal((int(n), self.dim)) @ L.T


class EMVN(GaussianModel):
    """Equicorrelated multivariate normal: zero mean, common variance and
    common correlation.  Covariance ``sigma2 * ((1 - rho) I + rho J)``;
    ``rho`` is bounded below by ``-1/(p-1)``.
    """

    param_names = ("rho", "sigma2")

    def __init__(self, p: int):
        if int(p) != p or p < 2:
            raise ValueError("p must be an integer >= 2")
        self.p = int(p)
        self.dim = self.p

    def __repr__(self):
        return f"EMVN(p={self.p})"

    def params(self, rho, sigma2=1.0, roles=None) -> ParamVector:
        roles = roles or {}
        theta = ParamVector(
            self.param_names,
            (rho, sigma2),
            (roles.get("rho", "interest"), roles.get("sigma2", "nuisance")),
        )
        self.validate(theta)
        return theta

    def bounds(self):
        return {"rho": (-1.0 / (self.p - 1), 1.0), "sigma2": (0.0, np.inf)}

    def _mean(self, theta):
        return np.zeros(theta.shape + (self.p,))

    def _mean_jac(self, theta):
        zero = self._mean(theta)
        return {name: zero for name in theta.free_names}

    def _cov(self, theta):
        rho, sigma2 = _lift(theta["rho"], 2), _lift(theta["sigma2"], 2)
        return sigma2 * ((1.0 - rho) * np.eye(self.p) + rho * np.ones((self.p, self.p)))

    def _cov_jac(self, theta):
        rho, sigma2 = _lift(theta["rho"], 2), _lift(theta["sigma2"], 2)
        jac = {}
        if "rho" in theta.free_names:
            jac["rho"] = sigma2 * (np.ones((self.p, self.p)) - np.eye(self.p))
        if "sigma2" in theta.free_names:
            jac["sigma2"] = (1.0 - rho) * np.eye(self.p) + rho * np.ones((self.p, self.p))
        return jac


class TriNormal(GaussianModel):
    """Trivariate normal with mean ``mu * (1, 1, 1)`` and covariance
    ``[[1, rho, 0], [rho, 1, 0], [0, 0, sigma2]]``: two correlated unit-variance
    coordinates plus an independent third one.
    """

    param_names = ("mu", "rho", "sigma2")
    dim = 3

    def __repr__(self):
        return "TriNormal()"

    def params(self, mu=0.0, rho=0.0, sigma2=1.0, roles=None) -> ParamVector:
        roles = roles or {}
        theta = ParamVector(
            self.param_names,
            (mu, rho, sigma2),
            (roles.get("mu", "interest"),
             roles.get("rho", "nuisance"),
             roles.get("sigma2", "nuisance")),
        )
        self.validate(theta)
        return theta

    def bounds(self):
        return {"rho": (-1.0, 1.0), "sigma2": (0.0, np.inf)}

    def _mean(self, theta):
        return _lift(theta["mu"], 1) * np.ones(3)

    def _mean_jac(self, theta):
        shape = theta.shape + (3,)
        jac = {name: np.zeros(shape) for name in theta.free_names}
        if "mu" in jac:
            jac["mu"] = np.ones(shape)
        return jac

    def _cov(self, theta):
        cov = np.zeros(theta.shape + (3, 3))
        cov[..., 0, 0] = cov[..., 1, 1] = 1.0
        cov[..., 0, 1] = cov[..., 1, 0] = theta["rho"]
        cov[..., 2, 2] = theta["sigma2"]
        return cov

    def _cov_jac(self, theta):
        jac = {}
        if "mu" in theta.free_names:
            jac["mu"] = np.zeros((3, 3))
        if "rho" in theta.free_names:
            d = np.zeros((3, 3))
            d[0, 1] = d[1, 0] = 1.0
            jac["rho"] = d
        if "sigma2" in theta.free_names:
            d = np.zeros((3, 3))
            d[2, 2] = 1.0
            jac["sigma2"] = d
        return jac


class Multinomial4(Model):
    """Single multinomial trial over four cells with probabilities
    ``(theta, theta, theta/k, 1 - 2 theta - theta/k)``.

    The observation is the indicator triple ``(y1, y2, y3)``; the fourth
    cell is redundant.  ``theta`` lives in ``(0, k/(2k+1))``.
    """

    param_names = ("theta",)
    dim = 3

    def __init__(self, k: float):
        if not k > 0:
            raise ValueError("k must be positive")
        self.k = float(k)

    def __repr__(self):
        return f"Multinomial4(k={self.k})"

    @property
    def theta_max(self) -> float:
        return self.k / (2.0 * self.k + 1.0)

    def params(self, theta, roles=None) -> ParamVector:
        roles = roles or {}
        pv = ParamVector(("theta",), (theta,), (roles.get("theta", "interest"),))
        self.validate(pv)
        return pv

    def bounds(self):
        return {"theta": (0.0, self.theta_max)}

    def cell_probs(self, theta) -> np.ndarray:
        """The four cell probabilities, shape ``(..., 4)``."""
        t = theta["theta"]
        return np.array([t, t, t / self.k, 1.0 - (2.0 + 1.0 / self.k) * t]).T

    def cell_grads(self) -> np.ndarray:
        return np.array([1.0, 1.0, 1.0 / self.k, -(2.0 + 1.0 / self.k)])

    def outcomes(self) -> np.ndarray:
        """The four possible observation rows, in cell order."""
        return np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)

    def margin_loglik(self, indices, Y, theta):
        self.validate(theta)
        idx = self._check_indices(indices)
        rows, single = _as_rows(Y, self.dim)
        probs = self.cell_probs(theta)[list(idx)]
        rest = 1.0 - probs.sum()
        sel = rows[:, idx]
        out = sel @ np.log(probs) + (1.0 - sel.sum(axis=1)) * np.log(rest)
        return float(out[0]) if single else out

    def margin_score(self, indices, Y, theta):
        self.validate(theta)
        idx = self._check_indices(indices)
        rows, single = _as_rows(Y, self.dim)
        probs = self.cell_probs(theta)[list(idx)]
        grads = self.cell_grads()[list(idx)]
        rest_grad = -grads.sum()
        rest = 1.0 - probs.sum()
        sel = rows[:, idx]
        col = sel @ (grads / probs) + (1.0 - sel.sum(axis=1)) * (rest_grad / rest)
        out = col.reshape(-1, 1)
        return out[0] if single else out

    def _mean(self, theta):
        return self.cell_probs(theta)[..., :3]

    def margin_score_rep(self, indices, theta):
        """See :meth:`Model.margin_score_rep`; the score is linear in the
        indicators, so ``A`` is zero."""
        self.validate(theta)
        idx = list(self._check_indices(indices))
        probs = self.cell_probs(theta)
        grads = self.cell_grads()[idx]
        rest = -grads.sum() / (1.0 - probs[..., idx].sum(axis=-1))
        B = np.zeros(probs.shape[:-1] + (1, 3))
        B[..., 0, idx] = grads / probs[..., idx] - rest[..., None]
        c = rest[..., None] + (B * probs[..., None, :3]).sum(axis=-1)
        return c, B, np.zeros(B.shape + (3,))

    def sample(self, theta, n, seed) -> np.ndarray:
        self.validate(theta)
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = substream(seed)
        cum = np.cumsum(self.cell_probs(theta))
        cells = np.searchsorted(cum, rng.random(int(n)), side="right")
        return self.outcomes()[np.minimum(cells, 3)]

    def check_data(self, Y) -> np.ndarray:
        arr, _ = _as_rows(Y, self.dim)
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("multinomial data must be 0/1 indicators")
        if np.any(arr.sum(axis=1) > 1):
            raise ValueError("at most one indicator may be set per row")
        return arr
