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

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, DomainError, SingularMatrix
from .fileio import atomic_csv  # noqa: F401  (perfbench/tracing.py wraps it here)
from .matrixops import cholesky_lower, sym_invert

LOG_2PI = float(np.log(2.0 * np.pi))

#: Parameters this close to a domain boundary are rejected: information
#: matrices degenerate at the boundary itself.
BOUNDARY_MARGIN = 1e-8

_ROLES = ("interest", "nuisance", "known")

#: Rows per feature buffer of :func:`affine_quadratic`: bounds its
#: temporary to ``(m + m (m + 1) / 2) * _KERNEL_ROWS`` floats, however
#: many rows are scored.
_KERNEL_ROWS = 1 << 14


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


# ---------------------------------------------------------------------------
# random substreams
# ---------------------------------------------------------------------------
#
# Replicate ``i`` of seed ``s`` draws from the stream numpy seeds with
# ``default_rng(SeedSequence(s, spawn_key=(i,)))``.  numpy hashes one
# SeedSequence at a time; the same hash runs here on arrays, one lane per
# index: ``mix_entropy`` folds the 32-bit words of the seed (padded to the
# pool size) and of the index into a pool of four words, and
# ``generate_state(4, uint64)`` expands the pool into the four words PCG64
# seeds from.  The hash constants advance independently of the data, so
# every lane steps through the same sequence.  NEP 19 keeps both the hash
# and PCG64's seeding stable across numpy versions.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words32(value) -> list:
    """Little-endian 32-bit words of a non-negative integer (``[0]`` for 0)."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_consts(start: int, mult: int):
    """The hash constant sequence: ``(xor, multiplier)`` per hash step."""
    const = start
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _hashmix(value, consts):
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x, y):
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> 16)


def _seed_state(entropy) -> np.ndarray:
    """``(R, 4)`` uint64 PCG64 seed words from the entropy words ``(R,)``
    uint32 each, in SeedSequence's order."""
    consts = _hash_consts(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [_hashmix(entropy[i] if i < len(entropy) else zero, consts)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    half = [_hashmix(pool[i % _POOL_SIZE], consts).astype(np.uint64)
            for i in range(2 * _POOL_SIZE)]
    return np.stack([half[2 * j] | (half[2 * j + 1] << 32)
                     for j in range(_POOL_SIZE)], axis=1)


def _stream_words(seed, indices) -> np.ndarray:
    """PCG64 seed words of ``SeedSequence(seed, spawn_key=(i,))`` for each
    ``i`` of ``indices``, ``(len(indices), 4)`` uint64; one row, of
    ``SeedSequence(seed)``, when ``indices`` is None."""
    run = _words32(seed)
    if indices is None:
        return _seed_state([np.array([w], dtype=np.uint32) for w in run])
    keys = np.asarray(indices)
    if np.any(keys < 0):
        raise ValueError("substream indices must be non-negative")
    keys = keys.astype(np.uint64)
    low = (keys & _MASK32).astype(np.uint32)
    high = (keys >> 32).astype(np.uint32)
    run += [0] * (_POOL_SIZE - len(run))
    out = np.empty((keys.size, _POOL_SIZE), dtype=np.uint64)
    for wide in (False, True):              # one or two words per index
        rows = np.flatnonzero((high > 0) == wide)
        if rows.size:
            entropy = [np.full(rows.size, w, dtype=np.uint32) for w in run]
            entropy += [low[rows], high[rows]] if wide else [low[rows]]
            out[rows] = _seed_state(entropy)
    return out


class _SeedWords:
    """Seed sequence of one stream whose PCG64 seed words are precomputed.

    It implements numpy's ``ISeedSequence`` and is registered as one by
    :func:`substreams`, so that ``import clik`` does not load
    ``numpy.random``."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words seed PCG64 only")
        return self.words


def _generator(words) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def substreams(seed, indices):
    """Iterator over ``substream(seed, i)`` for each ``i`` of ``indices``.

    The seed words of every index are hashed at once, here; each Generator
    is built, by PCG64's own seeding, when the iterator reaches it.  Raises
    ValueError for a negative seed or index and TypeError for a seed that
    is not an integer.
    """
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_SeedWords)     # a no-op once registered
    return map(_generator, _stream_words(seed, indices))


def substream(seed, index=None) -> np.random.Generator:
    """Deterministic RNG substream for a replicate index.

    ``substream(seed, i)`` draws exactly what
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))``
    draws, and ``substream(seed)`` what ``default_rng(seed)`` draws, so
    distinct ``i`` give independent streams and replicates may be generated
    concurrently in any partitioning with bit-identical results.  A
    Generator ``seed`` is returned as it is.  The stream cannot ``spawn``
    children.
    """
    if isinstance(seed, np.random.Generator):
        if index is not None:
            raise ValueError("cannot derive an indexed substream from a Generator")
        return seed
    return next(substreams(seed, None if index is None else [index]))


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


def affine_quadratic(c, B, A, resid):
    """Rows ``c + B r + r' A r / 2`` of affine-quadratic score forms with
    shapes ``(..., q)``, ``(..., q, m)`` and ``(..., q, m, m)`` at the
    residual rows ``resid`` ``(..., n, m)``; returns ``(..., n, q)``.
    ``resid`` is not modified.

    A column whose ``A`` is zero is ``c + r @ B'``, bit for bit as a
    linear form always was.  The other columns are taken feature-major,
    ``_KERNEL_ROWS`` rows at a time: the rows ``r'`` of a copy of
    ``resid`` transposed, and their ``m (m + 1) / 2`` distinct products
    ``r_i r_j`` (``i <= j``), meet ``B`` and the packed entries of ``A``
    (``(A_ij + A_ji) / 2`` off the diagonal, ``A_ii / 2`` on it) in one
    matmul.  When every column is quadratic the result is the transpose of
    the ``(..., q, n)`` product."""
    m, n = resid.shape[-1], resid.shape[-2]
    quad = np.any(A, axis=tuple(range(A.ndim - 3)) + (-2, -1)) \
        if A.any() else None
    if quad is None or not quad.all():
        linear = c[..., None, :] + resid @ np.swapaxes(B, -1, -2)
        if quad is None:
            return linear
    coef = np.empty(A.shape[:-2] + (m + m * (m + 1) // 2,))  # (..., q, m + K)
    coef[..., :m] = B
    k = m
    for a in range(m):
        coef[..., k:k + m - a] = 0.5 * (A[..., a, a:] + A[..., a:, a])
        coef[..., k] *= 0.5
        k += m - a
    # every column's row of coef takes part, so a column's bits do not
    # depend on which other columns are quadratic
    if quad.all():
        out = np.empty(np.broadcast_shapes(c.shape[:-1], resid.shape[:-2])
                       + (c.shape[-1], n))                    # (..., q, n)
    else:
        out = np.swapaxes(linear, -1, -2)
    for start in range(0, n, _KERNEL_ROWS):
        rows = resid[..., start:start + _KERNEL_ROWS, :]
        # feature rows: r' copied into a fresh buffer (so nothing below can
        # write to the caller's rows, even one row), then r_a r_b, b >= a
        feats = np.empty(rows.shape[:-2] + (coef.shape[-1], rows.shape[-2]))
        feats[..., :m, :] = np.swapaxes(rows, -1, -2)
        k = m
        for a in range(m):
            np.multiply(feats[..., a:m, :], feats[..., a:a + 1, :],
                        out=feats[..., k:k + m - a, :])
            k += m - a
        vals = coef @ feats
        vals += c[..., None]
        cols = slice(start, start + rows.shape[-2])
        if quad.all():
            out[..., cols] = vals
        else:
            out[..., quad, cols] = vals[..., quad, :]
    return np.swapaxes(out, -1, -2)


def pack_forms(c, B, A):
    """Score forms ``(c, B, A)`` (see :meth:`Model.margin_score_rep`) packed
    into one ``(..., q, 1 + dim + dim**2)`` array ``[c, B, A.ravel()]``, so
    that forms combine by plain array arithmetic."""
    return np.concatenate([c[..., None], B, A.reshape(A.shape[:-2] + (-1,))],
                          axis=-1)


def unpack_forms(forms, dim: int):
    """``(c, B, A)`` views of packed forms (see :func:`pack_forms`)."""
    return (forms[..., 0], forms[..., 1:dim + 1],
            forms[..., dim + 1:].reshape(forms.shape[:-1] + (dim, dim)))


def unpack_statistic(stats):
    """``(n, ybar, W)`` of statistics laid out as :meth:`Model.statistic`
    gives them, shapes ``(...)``, ``(..., dim)`` and ``(..., dim, dim)``;
    ``dim`` is read from the row length ``1 + dim + dim**2``."""
    stats = np.asarray(stats, dtype=float)
    dim = (math.isqrt(4 * stats.shape[-1] - 3) - 1) // 2
    if 1 + dim + dim * dim != stats.shape[-1]:
        raise DimensionMismatch(f"statistic of length {stats.shape[-1]} is "
                                f"not 1 + dim + dim**2")
    return (stats[..., 0], stats[..., 1:dim + 1],
            stats[..., dim + 1:].reshape(stats.shape[:-1] + (dim, dim)))


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
        """Score of the margin over ``indices`` in the free parameters, per
        row: :meth:`margin_score_rep` evaluated at ``r = y - mean(theta)``."""
        rows, single = _as_rows(Y, self.dim)
        out = affine_quadratic(*self.margin_score_rep(indices, theta),
                               rows - self._mean(theta))
        return out[0] if single else out

    def margin_score_rep(self, indices, theta):
        """Affine-quadratic form of each score coordinate in the full space.

        Returns ``(c, B, A)`` with shapes ``(..., q)``, ``(..., q, dim)`` and
        ``(..., q, dim, dim)`` such that score coordinate ``a`` equals
        ``c[a] + B[a] @ r + 0.5 * r @ A[a] @ r`` for ``r = y - mean(theta)``;
        the leading axes are those of a ParamBatch ``theta``.  The one-margin
        case of :meth:`margin_score_reps`.
        """
        return unpack_forms(self.margin_score_reps([indices], theta)[0],
                            self.dim)

    def margin_score_reps(self, index_sets, theta):
        """The forms of :meth:`margin_score_rep` of every margin in
        ``index_sets``, packed (:func:`pack_forms`) and stacked along a new
        first axis: shape ``(len(index_sets), ..., q, 1 + dim + dim**2)``,
        the middle axes those of a ParamBatch ``theta``.  Every margin is
        built in one pass: ``theta`` is validated, and what the margins
        share is computed, once per call.
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

    def sampler(self, theta: ParamVector):
        """``draw(n, rngs)``: one dataset of ``n`` exact draws at ``theta``
        from each Generator of the sequence ``rngs``, stacked as an
        ``(len(rngs), n, dim)`` array.  ``theta`` is validated and
        everything that does not depend on ``n`` or ``rngs`` (a covariance
        factor, cell probabilities) is computed once, here.  The noise of
        the whole block is drawn into one array, a generator at a time, and
        transformed in one call; dataset ``k`` equals a draw of ``rngs[k]``
        alone."""
        raise NotImplementedError

    def sample(self, theta: ParamVector, n: int, seed) -> np.ndarray:
        """``n`` exact draws at ``theta`` from ``substream(seed)``: one
        call of :meth:`sampler`."""
        draw = self.sampler(theta)
        if n < 1:
            raise ValueError("n must be >= 1")
        return draw(n, [substream(seed)])[0]

    def check_data(self, Y) -> np.ndarray:
        arr, _ = _as_rows(Y, self.dim)
        return arr

    @staticmethod
    def statistic(Y) -> np.ndarray:
        """The sufficient statistic ``(n, sum y, sum y y')`` of a dataset,
        held as ``[n, ybar, W.ravel()]`` with ``W`` the scatter about the
        sample mean ``ybar`` (read back by :func:`unpack_statistic`): every
        composite score is affine-quadratic in ``y``, so its sum over the
        rows follows from these alone
        (:func:`clik.composite.summed_score`).  A stack of datasets
        ``(..., n, dim)`` gives one statistic per dataset, each with the
        bits of that dataset alone.  ``Y`` is not modified."""
        n = Y.shape[-2]
        # a copy even where swapaxes would be contiguous (n = 1): the
        # centring below writes to it
        dev = np.swapaxes(Y, -1, -2).copy()
        # each column summed alone, as ``Y[:, j].mean()`` sums it
        ybar = dev.sum(axis=-1) / n
        dev -= ybar[..., None]
        scatter = dev @ np.swapaxes(dev, -1, -2)
        count = np.full(ybar.shape[:-1] + (1,), float(n))
        flat = scatter.reshape(ybar.shape[:-1] + (-1,))
        return np.concatenate([count, ybar, flat], axis=-1)


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

    margin_score = Model.margin_score   # perfbench/tracing.py wraps it per class

    def margin_score_reps(self, index_sets, theta):
        """See :meth:`Model.margin_score_reps`.  With ``S``, ``dS`` and
        ``dmu`` a margin's covariance and the derivatives of covariance and
        mean in parameter ``a``: ``c = -tr(S^-1 dS) / 2``, ``B = S^-1 dmu``
        and ``A = S^-1 dS S^-1`` on the margin's coordinates, zero elsewhere.

        The full covariance and the derivatives are computed once; the
        margins of one size are inverted as one stack by one ``sym_invert``
        call, and their blocks are embedded into the full space by 0/1
        selection matrices ``Sel`` (``B Sel`` and ``Sel' A Sel``), which
        copy every entry exactly.  Each margin's forms equal those of the
        margin alone, bit for bit.  A SingularMatrix lists in ``rows`` the
        points of a ParamBatch ``theta`` at which some margin is singular.
        """
        self.validate(theta)
        sets = [self._check_indices(idx) for idx in index_sets]
        free, p = theta.free_names, self.dim
        cov, cov_jac, mean_jac = (self._cov(theta), self._cov_jac(theta),
                                  self._mean_jac(theta))
        lead = cov.shape[:-2]
        dS = np.empty(lead + (len(free), p, p))
        dmu = np.empty(lead + (len(free), p))
        for a, name in enumerate(free):
            dS[..., a, :, :] = cov_jac[name]
            dmu[..., a, :] = mean_jac[name]
        out = np.empty((len(sets),) + lead + (len(free), 1 + p + p * p))
        for size in sorted(set(map(len, sets))):
            group = [k for k, idx in enumerate(sets) if len(idx) == size]
            members = np.array([sets[k] for k in group])        # (K, m)
            block = (Ellipsis, members[:, :, None], members[:, None, :])
            try:
                cinv = sym_invert(cov[block])                   # (..., K, m, m)
            except SingularMatrix as exc:
                raise SingularMatrix(str(exc), rows=np.unique(
                    exc.rows // len(group))) from None
            cinv = cinv[..., None, :, :, :]                     # (..., 1, K, m, m)
            sel = np.eye(p)[members]                            # (K, m, p)
            cd = cinv @ dS[block]                               # (..., q, K, m, m)
            B = (cinv @ dmu[..., members, None])[..., None, :, 0] @ sel
            A = np.swapaxes(sel, -1, -2) @ (cd @ cinv) @ sel
            forms = np.concatenate(
                [-0.5 * np.trace(cd, axis1=-2, axis2=-1)[..., None],
                 B[..., 0, :], A.reshape(A.shape[:-2] + (-1,))], axis=-1)
            out[group] = np.moveaxis(forms, -2, 0)
        return out

    # -- sampling -------------------------------------------------------------

    def sampler(self, theta):
        self.validate(theta)
        factor = cholesky_lower(self._cov(theta)).T
        mean = self._mean(theta)

        def draw(n, rngs):
            noise = np.empty((len(rngs), int(n), self.dim))
            for rng, block in zip(rngs, noise):
                rng.standard_normal(out=block)
            out = noise @ factor
            out += mean
            return out
        return draw

    sample = Model.sample   # perfbench/tracing.py wraps it per class


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
        if not math.isfinite(2.0 * k + 1.0):
            raise DomainError(f"k={k:g} is too large: 2k + 1 overflows, so "
                              f"theta has no admissible range")
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

    margin_score = Model.margin_score   # perfbench/tracing.py wraps it per class

    def _mean(self, theta):
        return self.cell_probs(theta)[..., :3]

    def margin_score_reps(self, index_sets, theta):
        """See :meth:`Model.margin_score_reps`.  The score is linear in the
        indicators, so ``A`` is zero; the cell probabilities are computed
        once for every margin."""
        self.validate(theta)
        probs = self.cell_probs(theta)
        cell_grads = self.cell_grads()
        out = np.zeros((len(index_sets),) + probs.shape[:-1] + (1, 1 + 3 + 3 * 3))
        for forms, indices in zip(out, index_sets):
            idx = list(self._check_indices(indices))
            grads = cell_grads[idx]
            rest = -grads.sum() / (1.0 - probs[..., idx].sum(axis=-1))
            B = forms[..., 0, 1:4]
            B[..., idx] = grads / probs[..., idx] - rest[..., None]
            forms[..., 0, 0] = rest + (B * probs[..., :3]).sum(axis=-1)
        return out

    def sampler(self, theta):
        self.validate(theta)
        cum = np.cumsum(self.cell_probs(theta))
        outcomes = self.outcomes()

        def draw(n, rngs):
            uniform = np.empty((len(rngs), int(n)))
            for rng, block in zip(rngs, uniform):
                rng.random(out=block)
            cells = np.searchsorted(cum, uniform, side="right")
            return outcomes[np.minimum(cells, 3)]
        return draw

    sample = Model.sample   # perfbench/tracing.py wraps it per class

    def check_data(self, Y) -> np.ndarray:
        arr, _ = _as_rows(Y, self.dim)
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("multinomial data must be 0/1 indicators")
        if np.any(arr.sum(axis=1) > 1):
            raise ValueError("at most one indicator may be set per row")
        return arr
