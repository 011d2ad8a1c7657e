"""The three generative model families and their exact likelihood pieces.

Each model exposes, for arbitrary index subsets of its observation vector:
log densities of margins and conditionals, analytic scores in the free
parameters and an exact sampler.  (Fisher information is the variability
matrix of the full likelihood; see :func:`clik.composite.info_exact`.)
Conditionals are evaluated through the identity
``log f(y_t | y_G) = log f(y_{t,G}) - log f(y_G)``, so one margin code
path serves independence, pairwise, full-conditional and chain composite
likelihoods alike.

Evaluation is vectorized over observations: ``Y`` may be a single vector
or an ``(n, dim)`` array, and log densities / scores come back with a
matching leading shape.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, DomainError
from .fileio import atomic_csv, fmt
from .matrixops import cholesky_lower, solve_sym, sym_invert

LOG_2PI = float(np.log(2.0 * np.pi))

#: Parameters this close to a domain boundary are rejected: information
#: matrices degenerate at the boundary itself.
BOUNDARY_MARGIN = 1e-8

_ROLES = ("interest", "nuisance", "known")


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
        return tuple(n for n, r in zip(self.names, self.roles) if r != "known")

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

    def validate(self, theta: ParamVector) -> None:
        """Raise :class:`DomainError` unless ``theta`` is interior."""
        raise NotImplementedError

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

    # -- conditionals via the margin difference -------------------------

    def conditional_loglik(self, target, given, Y, theta):
        given = _canon(given) if given else ()
        if target in given:
            raise ValueError(f"target {target} appears in given set {given}")
        if not given:
            return self.margin_loglik((target,), Y, theta)
        joint = self.margin_loglik(given + (int(target),), Y, theta)
        return joint - self.margin_loglik(given, Y, theta)

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


class GaussianModel(Model):
    """Gaussian family: margins from the partitioned mean/covariance.

    Subclasses supply the full mean vector, covariance matrix and their
    derivatives in each free parameter; margin log densities and scores
    for any index subset follow from the generic formulas
    ``l = -m/2 log(2 pi) - 1/2 log|S| - 1/2 r' S^-1 r`` and
    ``dl/da = -1/2 tr(S^-1 dS) + 1/2 (S^-1 r)' dS (S^-1 r) + dmu' S^-1 r``.
    """

    def _mean(self, theta: ParamVector) -> np.ndarray:
        raise NotImplementedError

    def _mean_jac(self, theta: ParamVector) -> dict:
        """Map free-parameter name -> d(mean)/d(param), shape (dim,)."""
        raise NotImplementedError

    def _cov(self, theta: ParamVector) -> np.ndarray:
        raise NotImplementedError

    def _cov_jac(self, theta: ParamVector) -> dict:
        """Map free-parameter name -> d(cov)/d(param), shape (dim, dim)."""
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
        ``(c, b, A)`` of shapes ``(q,)``, ``(q, m)``, ``(q, m, m)`` for the
        residual ``r = y[idx] - mean[idx]``.  ``ix`` is ``np.ix_(idx, idx)``.
        """
        cinv = sym_invert(self._cov(theta)[ix])
        cov_jac = self._cov_jac(theta)
        mean_jac = self._mean_jac(theta)
        free, cols = theta.free_names, list(idx)
        c = np.empty(len(free))
        b = np.empty((len(free), len(cols)))
        A = np.empty((len(free), len(cols), len(cols)))
        for a, name in enumerate(free):
            cd = cinv @ cov_jac[name][ix]
            c[a] = -0.5 * float(np.trace(cd))
            A[a] = cd @ cinv
            b[a] = cinv @ mean_jac[name][cols]
        return c, b, A

    def margin_score(self, indices, Y, theta):
        self.validate(theta)
        idx = self._check_indices(indices)
        rows, single = _as_rows(Y, self.dim)
        c, b, A = self._margin_forms(idx, np.ix_(idx, idx), theta)
        resid = rows[:, idx] - self._mean(theta)[list(idx)]
        out = np.full((rows.shape[0], len(c)), c)
        for a in range(len(c)):
            if np.any(A[a]):
                out[:, a] += 0.5 * ((resid @ A[a]) * resid).sum(1)
            if np.any(b[a]):
                out[:, a] += resid @ b[a]
        return out[0] if single else out

    def margin_score_rep(self, indices, theta):
        """Affine-quadratic form of each score coordinate in the full space.

        Returns ``(c, B, A)`` with shapes ``(q,)``, ``(q, dim)`` and
        ``(q, dim, dim)`` such that score coordinate ``a`` equals
        ``c[a] + B[a] @ r + 0.5 * r @ A[a] @ r`` for ``r = y - mean(theta)``.
        :meth:`margin_score` evaluates the same forms; exact moments of the
        composite score follow from them.
        """
        self.validate(theta)
        idx = self._check_indices(indices)
        ix = np.ix_(idx, idx)
        c, b, A_idx = self._margin_forms(idx, ix, theta)
        q, p = len(c), self.dim
        B = np.zeros((q, p))
        B[:, list(idx)] = b
        A = np.zeros((q, p, p))
        for a in range(q):
            A[a][ix] = A_idx[a]
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

    def validate(self, theta):
        rho, sigma2 = theta["rho"], theta["sigma2"]
        lo = -1.0 / (self.p - 1)
        if not (lo + BOUNDARY_MARGIN <= rho <= 1.0 - BOUNDARY_MARGIN):
            raise DomainError(f"rho={rho} outside ({lo}, 1) (margin {BOUNDARY_MARGIN})")
        if sigma2 < BOUNDARY_MARGIN:
            raise DomainError(f"sigma2={sigma2} must be positive")

    def _mean(self, theta):
        return np.zeros(self.p)

    def _mean_jac(self, theta):
        zero = np.zeros(self.p)
        return {name: zero for name in theta.free_names}

    def _cov(self, theta):
        rho, sigma2 = theta["rho"], theta["sigma2"]
        return sigma2 * ((1.0 - rho) * np.eye(self.p) + rho * np.ones((self.p, self.p)))

    def _cov_jac(self, theta):
        rho, sigma2 = theta["rho"], theta["sigma2"]
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

    def validate(self, theta):
        rho, sigma2 = theta["rho"], theta["sigma2"]
        if not (-1.0 + BOUNDARY_MARGIN <= rho <= 1.0 - BOUNDARY_MARGIN):
            raise DomainError(f"rho={rho} outside (-1, 1)")
        if sigma2 < BOUNDARY_MARGIN:
            raise DomainError(f"sigma2={sigma2} must be positive")

    def _mean(self, theta):
        return theta["mu"] * np.ones(3)

    def _mean_jac(self, theta):
        zero = np.zeros(3)
        jac = {name: zero for name in theta.free_names}
        if "mu" in jac:
            jac["mu"] = np.ones(3)
        return jac

    def _cov(self, theta):
        rho, sigma2 = theta["rho"], theta["sigma2"]
        return np.array([[1.0, rho, 0.0], [rho, 1.0, 0.0], [0.0, 0.0, sigma2]])

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

    def validate(self, theta):
        t = theta["theta"]
        if not (BOUNDARY_MARGIN <= t <= self.theta_max - BOUNDARY_MARGIN):
            raise DomainError(f"theta={t} outside (0, {self.theta_max})")

    def cell_probs(self, theta) -> np.ndarray:
        t = theta["theta"]
        return np.array([t, t, t / self.k, 1.0 - (2.0 + 1.0 / self.k) * t])

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


# -- dataset serialization ---------------------------------------------------


def write_dataset(path, Y) -> None:
    """Write observations as CSV ``rep,y1,...,yp`` at full precision."""
    arr = np.asarray(Y, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch("expected an (n, p) array")
    header = ["rep"] + [f"y{j + 1}" for j in range(arr.shape[1])]
    atomic_csv(path, header,
               ([i] + [fmt(v) for v in row] for i, row in enumerate(arr)))


def read_dataset(path) -> np.ndarray:
    """Read a dataset written by :func:`write_dataset`; values round-trip exactly."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "rep":
            raise ValueError(f"{path}: not a dataset CSV (header {header})")
        rows = [[float(v) for v in row[1:]] for row in reader]
    return np.asarray(rows, dtype=float)
