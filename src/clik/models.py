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

Rows are scored by one kernel, :func:`score_kernel`, the only code that
knows the feature layout ``[r; r_a r_b]`` of a residual; a Monte Carlo
pass takes its batch statistic from the feature sums it returns.

Evaluation is vectorized over observations: ``Y`` may be a single vector
or an ``(n, dim)`` array, and log densities / scores come back with a
matching leading shape.  The parameter-only pieces (means, covariances,
their derivatives, cell probabilities and score forms) also take a
:class:`ParamBatch` and then carry its leading axis: one call serves
every point of a batched solve.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatch, DomainError, InvalidArgument,
                     SingularMatrix, UnknownParameter)
from .fileio import atomic_csv  # noqa: F401  (perfbench/tracing.py wraps it here)
from .matrixops import cholesky_lower, sym_invert

LOG_2PI = float(np.log(2.0 * np.pi))

#: Parameters this close to a domain boundary are rejected: information
#: matrices degenerate at the boundary itself.
BOUNDARY_MARGIN = 1e-8

_ROLES = ("interest", "nuisance", "known")

_UNBOUNDED = (-math.inf, math.inf)
_FLOAT_MAX = sys.float_info.max

#: Rows per feature buffer of :func:`residual_features`: bounds the
#: scratch of a :func:`score_kernel` fill (any rows, or a Monte Carlo
#: batch) to ``(m + m (m + 1) / 2) * _KERNEL_ROWS`` floats, however many
#: rows are scored.
_KERNEL_ROWS = 1 << 14

#: Margin plans kept by :func:`_margin_plan`, least recently used first
#: out: one per dimension and tuple of index sets in use, such as each
#: spec's margins, the one-margin tuples of ``margin_score_rep`` and the
#: spec-plus-full tuples of the exact sensitivity.
MARGIN_PLAN_CACHE = 256


def _free(names, roles) -> tuple:
    return tuple(n for n, r in zip(names, roles) if r != "known")


def _within(x, lo, hi):
    """Whether ``x`` is finite and lies at least BOUNDARY_MARGIN inside
    ``(lo, hi)``: a bool for a number, elementwise for an array.  The
    limits are clipped to the finite floats, so NaN and infinities fail
    whatever the bounds."""
    return ((max(lo + BOUNDARY_MARGIN, -_FLOAT_MAX) <= x)
            & (x <= min(hi - BOUNDARY_MARGIN, _FLOAT_MAX)))


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
        try:
            names, roles = tuple(self.names), tuple(self.roles)
            values = tuple(self.values)
            if not all(isinstance(v, numbers.Real) for v in values):
                raise TypeError
        except TypeError:
            raise InvalidArgument(f"names, values and roles must be sequences, "
                                  f"the values numbers: got {self.names!r}, "
                                  f"{self.values!r}, {self.roles!r}") from None
        values = tuple(map(float, values))
        if not (len(names) == len(values) == len(roles)):
            raise InvalidArgument("names, values and roles must have equal length")
        if not all(isinstance(name, str) for name in names):
            raise InvalidArgument(f"parameter names {names} are not all strings")
        if len(set(names)) != len(names):
            raise InvalidArgument(f"duplicate parameter names in {names}")
        for r in roles:
            if not (isinstance(r, str) and r in _ROLES):
                raise InvalidArgument(f"unknown role {r!r}; expected one of {_ROLES}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "roles", roles)

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
                raise UnknownParameter(f"unknown parameter {n!r}")
        vals = tuple(updates.get(n, v) for n, v in zip(self.names, self.values))
        return replace(self, values=vals)

    def with_roles(self, **updates) -> "ParamVector":
        for n in updates:
            if n not in self.names:
                raise UnknownParameter(f"unknown parameter {n!r}")
        roles = tuple(updates.get(n, r) for n, r in zip(self.names, self.roles))
        return replace(self, roles=roles)

    def replace_free(self, vector) -> "ParamVector":
        """Return a copy with the free coordinates set from ``vector`` (in order)."""
        try:
            vec = np.asarray(vector, dtype=float).ravel()
        except (TypeError, ValueError):
            raise InvalidArgument(f"free values {vector!r} are not "
                                  f"numbers") from None
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
        raise InvalidArgument(f"seed must be non-negative, got {value}")
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
    if keys.ndim != 1 or (keys.size and keys.dtype.kind not in "iu"):
        raise InvalidArgument(f"substream indices {indices!r} are not a "
                              f"sequence of integers")
    if np.any(keys < 0):
        raise InvalidArgument("substream indices must be non-negative")
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
            raise InvalidArgument("precomputed seed words seed PCG64 only")
        return self.words


def _generator(words) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def substreams(seed, indices):
    """Iterator over ``substream(seed, i)`` for each ``i`` of ``indices``.

    The seed words of every index are hashed at once, here; each Generator
    is built, by PCG64's own seeding, when the iterator reaches it.  Raises
    InvalidArgument for a negative seed or index or for ``indices`` that
    are not a sequence of integers, and TypeError for a seed that is not
    an integer.
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
            raise InvalidArgument("cannot derive an indexed substream from a Generator")
        return seed
    return next(substreams(seed, None if index is None else [index]))


def _as_rows(y, dim: int):
    """Promote a single observation to a 1-row matrix; report if it was 1-D.
    InvalidArgument unless ``y`` holds real numbers."""
    try:
        if np.iscomplexobj(y):
            raise TypeError
        arr = np.asarray(y, dtype=float)
    except (TypeError, ValueError):
        raise InvalidArgument(f"data of type {type(y).__name__} are not "
                              f"real numbers") from None
    if arr.ndim == 1:
        if arr.size != dim:
            raise DimensionMismatch(f"observation has length {arr.size}, model dim {dim}")
        return arr.reshape(1, dim), True
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(f"data shape {arr.shape} incompatible with dim {dim}")
    return arr, False


def _feature_width(m: int) -> int:
    """Feature rows of an ``m``-coordinate residual: ``r`` and its
    ``m (m + 1) / 2`` distinct products."""
    return m + m * (m + 1) // 2


def feature_scratch(dim: int) -> np.ndarray:
    """A flat buffer that holds the feature rows (:func:`residual_features`)
    of ``_KERNEL_ROWS`` residuals of length ``dim``: reused, it bounds the
    feature scratch of a pass over any number of rows."""
    return np.empty(_feature_width(dim) * _KERNEL_ROWS)


def residual_features(rows, mean, scratch=None):
    """Yield ``(cols, feats)`` over the rows ``rows`` ``(..., n, m)``,
    ``_KERNEL_ROWS`` of them at a time: ``cols`` the slice of rows taken
    and ``feats`` ``(..., m + m (m + 1) / 2, w)`` their feature rows, the
    residuals ``r = y - mean`` transposed as they are subtracted, then
    their distinct products ``r_a r_b`` (``a <= b``, ``a`` major).  Each
    ``feats`` is a C-contiguous view of one flat buffer, ``scratch`` (see
    :func:`feature_scratch`) or a fresh one, and the next overwrites it.
    No chunk holds a lone row unless ``rows`` does: numpy multiplies one
    row as a vector, which rounds differently, so a row's scores would
    depend on where the chunks fall.  ``rows`` is not modified."""
    m, n = rows.shape[-1], rows.shape[-2]
    width, lead = _feature_width(m), rows.shape[:-2]
    per_row = width * math.prod(lead)
    if scratch is None:
        scratch = np.empty(per_row * min(n, _KERNEL_ROWS))
    stops = list(range(_KERNEL_ROWS, n, _KERNEL_ROWS)) + [n]
    if len(stops) > 1 and n - stops[-2] == 1:
        stops[-2] -= 1
    for start, stop in zip([0] + stops[:-1], stops):
        chunk = np.swapaxes(rows[..., start:stop, :], -1, -2)
        w = chunk.shape[-1]
        feats = scratch[:per_row * w].reshape(lead + (width, w))
        np.subtract(chunk, mean[..., :, None], out=feats[..., :m, :])
        k = m
        for a in range(m):
            np.multiply(feats[..., a:m, :], feats[..., a:a + 1, :],
                        out=feats[..., k:k + m - a, :])
            k += m - a
        yield slice(start, start + w), feats


def feature_statistic(sizes, sums, mean):
    """The statistics ``[n, ybar, W]`` (see :meth:`Model.statistic`) of
    datasets of ``sizes`` rows from the sums ``(..., m + m (m + 1) / 2)``
    of their feature rows about ``mean`` (:func:`residual_features`):
    ``ybar = mean + sum r / n`` and ``W = sum r r' - (sum r)(sum r)' / n``."""
    m = mean.shape[-1]
    n = np.asarray(sizes, dtype=float)[..., None]
    lin, upper = sums[..., :m], np.triu_indices(m)
    prods = np.empty(sums.shape[:-1] + (m, m))
    prods[..., upper[0], upper[1]] = prods[..., upper[1], upper[0]] = sums[..., m:]
    W = prods - lin[..., :, None] * lin[..., None, :] / n[..., None]
    return np.concatenate([n, mean + lin / n, W.reshape(W.shape[:-2] + (-1,))],
                          axis=-1)


def score_kernel(c, B, A):
    """``fill(rows, mean, out, scratch=None)`` for score forms ``c + B r +
    r' A r / 2`` of shapes ``(..., q)``, ``(..., q, m)``, ``(..., q, m, m)``:
    it writes the scores at ``r = y - mean`` of ``rows`` ``(..., n, m)``
    into ``out`` ``(..., q, n)`` and returns the sums ``(..., m + m (m +
    1) / 2)`` of their feature rows (:func:`residual_features`, in
    ``scratch`` when given).  The coefficients that meet the features,
    ``B`` then the packed ``A`` (``(A_ij + A_ji) / 2`` off the diagonal,
    ``A_ii / 2`` on it), are built once, one row per column, linear or
    not, and every chunk of scores is one matmul of them with the
    features."""
    m = B.shape[-1]
    coef = np.empty(A.shape[:-2] + (_feature_width(m),))
    coef[..., :m] = B
    k = m
    for a in range(m):
        coef[..., k:k + m - a] = 0.5 * (A[..., a, a:] + A[..., a:, a])
        coef[..., k] *= 0.5
        k += m - a

    def fill(rows, mean, out, scratch=None):
        total = 0.0
        for cols, feats in residual_features(rows, mean, scratch):
            block = out[..., cols]
            np.matmul(coef, feats, out=block)
            block += c[..., None]
            total = total + feats.sum(axis=-1)
        return total
    return fill


def affine_quadratic(c, B, A, resid):
    """Rows ``c + B r + r' A r / 2`` of affine-quadratic score forms with
    shapes ``(..., q)``, ``(..., q, m)`` and ``(..., q, m, m)`` at the
    residual rows ``resid`` ``(..., n, m)``; returns ``(..., n, q)``.
    ``resid`` is not modified.

    The result is the transpose of a ``(..., q, n)`` block that one
    :func:`score_kernel` call fills about a zero mean, the kernel a Monte
    Carlo pass (``composite._info_from_sample``) fills its batch blocks
    with."""
    out = np.empty(np.broadcast_shapes(c.shape[:-1], resid.shape[:-2])
                   + (c.shape[-1], resid.shape[-2]))              # (..., q, n)
    score_kernel(c, B, A)(resid, np.zeros(resid.shape[-1]), out)
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


def _index_tuple(indices) -> tuple:
    """``indices`` as a tuple of ints; InvalidArgument unless it is a
    sequence of integral numbers."""
    try:
        raw = tuple(indices)
        out = tuple(int(i) for i in raw)
        integral = all(isinstance(i, numbers.Real) and i == j
                       for i, j in zip(raw, out))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise InvalidArgument(f"indices {indices!r} are not a sequence of "
                              f"integers")
    return out


def _check_indices(dim: int, indices) -> tuple:
    """The sorted index set of ``indices``; InvalidArgument unless it is a
    nonempty sequence of distinct integers, DimensionMismatch unless they
    lie in ``0..dim-1``."""
    idx = tuple(sorted(_index_tuple(indices)))
    if len(set(idx)) != len(idx):
        raise InvalidArgument(f"repeated indices in {indices}")
    if not idx:
        raise InvalidArgument("index set must be nonempty")
    if idx[0] < 0 or idx[-1] >= dim:
        raise DimensionMismatch(f"indices {idx} outside 0..{dim - 1}")
    return idx


class _MarginGroup(NamedTuple):
    """The margins of one size in a :class:`_MarginPlan`."""

    positions: np.ndarray       # (K,) their places in the plan's sets
    members: np.ndarray         # (K, m) their indices
    block: tuple                # indexes the (K, m, m) blocks of a matrix
    sel: np.ndarray             # (K, m, dim) 0/1 rows selecting them
    sel_t: np.ndarray           # (K, dim, m) view of ``sel`` transposed


class _MarginPlan(NamedTuple):
    """What :meth:`Model.margin_score_reps` needs of its index sets that
    does not depend on the parameters: the checked sets, and the margins
    grouped by size (increasing)."""

    sets: tuple
    groups: tuple


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=MARGIN_PLAN_CACHE)
def _cached_plan(dim: int, key: tuple) -> _MarginPlan:
    sets = tuple(_check_indices(dim, idx) for idx in key)
    groups = []
    for size in sorted(set(map(len, sets))):
        positions = [k for k, idx in enumerate(sets) if len(idx) == size]
        members = _read_only(np.array([sets[k] for k in positions]))
        sel = _read_only(np.eye(dim)[members])
        groups.append(_MarginGroup(
            _read_only(np.array(positions)), members,
            (Ellipsis, members[:, :, None], members[:, None, :]),
            sel, np.swapaxes(sel, -1, -2)))
    return _MarginPlan(sets, tuple(groups))


def _margin_plan(dim: int, index_sets) -> _MarginPlan:
    """The :class:`_MarginPlan` of ``index_sets`` at dimension ``dim``,
    built once per distinct tuple of index sets and then shared (its
    arrays are read-only).  Raises as :func:`_check_indices` does, on
    every call: a failed build is not kept."""
    try:
        key = tuple(map(tuple, index_sets))
        hash(key)
    except TypeError:
        raise InvalidArgument(f"index sets {index_sets!r} are not "
                              f"sequences of integers") from None
    return _cached_plan(dim, key)


class Model:
    """Common interface of the three model families (0-based indices)."""

    dim: int
    param_names: tuple

    # -- parameters ----------------------------------------------------

    def params(self, **kwargs) -> ParamVector:
        raise NotImplementedError

    def _point(self, values, roles, defaults) -> ParamVector:
        """The validated point of ``values`` (in ``param_names`` order), each
        parameter's role taken from the mapping ``roles`` (None for none)
        or else from ``defaults``."""
        if roles is None:
            roles = {}
        if not isinstance(roles, Mapping):
            raise InvalidArgument(f"roles must be a mapping of parameter "
                                  f"names to roles, got {roles!r}")
        theta = ParamVector(self.param_names, values, tuple(
            roles.get(name, role)
            for name, role in zip(self.param_names, defaults)))
        self.validate(theta)
        return theta

    def bounds(self) -> dict:
        """Open interval ``(lo, hi)`` of each bounded parameter."""
        raise NotImplementedError

    def interior(self, theta):
        """Whether every value of ``theta`` is finite and lies at least
        BOUNDARY_MARGIN inside its bounds (:func:`_within`; a parameter
        without bounds lies in ``(-inf, inf)``): a bool, or one per point
        of a ParamBatch."""
        bounds, inside = self.bounds(), True
        for name in self.param_names:
            inside = inside & _within(theta[name],
                                      *bounds.get(name, _UNBOUNDED))
        return inside

    def validate(self, theta) -> None:
        """Raise :class:`InvalidArgument` unless ``theta`` names this model's
        parameters, :class:`DomainError` unless all its points are interior
        (:meth:`interior`)."""
        if tuple(theta.names) != self.param_names:
            raise InvalidArgument(f"{self!r} takes {self.param_names}, not "
                                  f"{tuple(theta.names)}")
        inside = self.interior(theta)
        if inside is True or np.all(inside):
            return
        point = theta if isinstance(theta, ParamVector) \
            else theta.point(int(np.argmin(inside)))
        bounds = self.bounds()
        for name, value in zip(point.names, point.values):
            lo, hi = bounds.get(name, _UNBOUNDED)
            if not _within(value, lo, hi):
                raise DomainError(f"{name}={value} is not a finite value "
                                  f"inside ({lo}, {hi}) (margin "
                                  f"{BOUNDARY_MARGIN})")

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

    def _cov(self, theta) -> np.ndarray:
        """Covariance of the observation, shape ``(..., dim, dim)``.  With
        :meth:`_mean` and the score forms, all that the exact information
        route (:func:`clik.composite.info_exact`) reads of a model."""
        raise InvalidArgument(f"no exact information route for {self!r}")

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
            raise InvalidArgument("n must be >= 1")
        return draw(n, [substream(seed)])[0]

    def check_data(self, Y) -> np.ndarray:
        arr, _ = _as_rows(Y, self.dim)
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if bad.size:
            raise InvalidArgument(f"data row {bad[0]} is not finite")
        return arr

    @staticmethod
    def statistic(Y) -> np.ndarray:
        """The sufficient statistic ``(n, sum y, sum y y')`` of a dataset,
        held as ``[n, ybar, W.ravel()]`` with ``W`` the scatter about the
        sample mean ``ybar`` (read back by :func:`unpack_statistic`): every
        composite score is affine-quadratic in ``y``, so its sum over the
        rows is one contraction of the spec's combined forms with these
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


def _free_rows(theta, dmu, dS):
    """The rows of the free parameters of ``theta``, in ``free_names``
    order, of Jacobians ``dmu`` ``(..., len(names), dim)`` and ``dS``
    ``(..., len(names), dim, dim)`` laid out in ``theta.names`` order."""
    rows = [theta.names.index(name) for name in theta.free_names]
    return dmu[..., rows, :], dS[..., rows, :, :]


class GaussianModel(Model):
    """Gaussian family: margins from the partitioned mean/covariance.

    Subclasses supply the full mean vector (:meth:`_mean`), covariance
    matrix (:meth:`_cov`) and their derivatives in the free parameters
    (:meth:`_jacobians`); margin log densities and scores for any index
    subset follow from the generic formulas
    ``l = -m/2 log(2 pi) - 1/2 log|S| - 1/2 r' S^-1 r`` and
    ``dl/da = -1/2 tr(S^-1 dS) + 1/2 (S^-1 r)' dS (S^-1 r) + dmu' S^-1 r``.
    """

    def _jacobians(self, theta):
        """``(dmu, dS)``: the derivatives of the mean and the covariance in
        each free parameter, in ``theta.free_names`` order, shapes ``(...,
        q, dim)`` and ``(..., q, dim, dim)``."""
        raise NotImplementedError

    # -- margins -----------------------------------------------------------

    def margin_loglik(self, indices, Y, theta):
        self.validate(theta)
        idx = _check_indices(self.dim, indices)
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
        copy every entry exactly.  The index blocks and ``Sel`` depend on
        the index sets alone: they are built once per tuple of index sets
        (:func:`_margin_plan`).  Each margin's forms equal those of the
        margin alone, bit for bit.  A SingularMatrix lists in ``rows`` the
        points of a ParamBatch ``theta`` at which some margin is singular.
        """
        self.validate(theta)
        plan = _margin_plan(self.dim, index_sets)
        p, cov = self.dim, self._cov(theta)
        dmu, dS = self._jacobians(theta)
        out = np.empty((len(plan.sets),) + dS.shape[:-2] + (1 + p + p * p,))
        for positions, members, block, sel, sel_t in plan.groups:
            try:
                cinv = sym_invert(cov[block])                   # (..., K, m, m)
            except SingularMatrix as exc:
                raise SingularMatrix(str(exc), rows=np.unique(
                    exc.rows // len(positions))) from None
            cinv = cinv[..., None, :, :, :]                     # (..., 1, K, m, m)
            cd = cinv @ dS[block]                               # (..., q, K, m, m)
            B = (cinv @ dmu[..., members, None])[..., None, :, 0] @ sel
            A = sel_t @ (cd @ cinv) @ sel
            forms = np.concatenate(
                [-0.5 * np.trace(cd, axis1=-2, axis2=-1)[..., None],
                 B[..., 0, :], A.reshape(A.shape[:-2] + (-1,))], axis=-1)
            out[positions] = np.moveaxis(forms, -2, 0)
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
            # each dataset's rows flattened and the mean tiled along them:
            # the sums of ``out += mean`` in one long loop, not a loop of
            # length dim per row
            flat = out.reshape(len(rngs), int(n) * self.dim)
            flat += np.tile(mean, int(n))
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
        if not (isinstance(p, numbers.Real) and 2 <= p < np.inf
                and int(p) == p):
            raise InvalidArgument(f"p must be an integer >= 2, got {p!r}")
        self.p = int(p)
        self.dim = self.p

    def __repr__(self):
        return f"EMVN(p={self.p})"

    def params(self, rho, sigma2=1.0, roles=None) -> ParamVector:
        return self._point((rho, sigma2), roles, ("interest", "nuisance"))

    def bounds(self):
        return {"rho": (-1.0 / (self.p - 1), 1.0), "sigma2": (0.0, np.inf)}

    def _mean(self, theta):
        return np.zeros(theta.shape + (self.p,))

    def _cov(self, theta):
        rho, sigma2 = _lift(theta["rho"], 2), _lift(theta["sigma2"], 2)
        return sigma2 * ((1.0 - rho) * np.eye(self.p) + rho * np.ones((self.p, self.p)))

    def _jacobians(self, theta):
        rho, sigma2 = _lift(theta["rho"], 2), _lift(theta["sigma2"], 2)
        eye, ones = np.eye(self.p), np.ones((self.p, self.p))
        dS = np.empty(theta.shape + (2, self.p, self.p))
        dS[..., 0, :, :] = sigma2 * (ones - eye)
        dS[..., 1, :, :] = (1.0 - rho) * eye + rho * ones
        return _free_rows(theta, np.zeros(dS.shape[:-1]), dS)


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
        return self._point((mu, rho, sigma2), roles,
                           ("interest", "nuisance", "nuisance"))

    def bounds(self):
        return {"rho": (-1.0, 1.0), "sigma2": (0.0, np.inf)}

    def _mean(self, theta):
        return _lift(theta["mu"], 1) * np.ones(3)

    def _cov(self, theta):
        cov = np.zeros(theta.shape + (3, 3))
        cov[..., 0, 0] = cov[..., 1, 1] = 1.0
        cov[..., 0, 1] = cov[..., 1, 0] = theta["rho"]
        cov[..., 2, 2] = theta["sigma2"]
        return cov

    def _jacobians(self, theta):
        dmu = np.zeros(theta.shape + (3, 3))
        dmu[..., 0, :] = 1.0
        dS = np.zeros(theta.shape + (3, 3, 3))
        dS[..., 1, 0, 1] = dS[..., 1, 1, 0] = dS[..., 2, 2, 2] = 1.0
        return _free_rows(theta, dmu, dS)


class Multinomial4(Model):
    """Single multinomial trial over four cells with probabilities
    ``(theta, theta, theta/k, 1 - 2 theta - theta/k)``.

    The observation is the indicator triple ``(y1, y2, y3)``; the fourth
    cell is redundant.  ``theta`` lives in ``(0, k/(2k+1))``.
    """

    param_names = ("theta",)
    dim = 3

    def __init__(self, k: float):
        if not (isinstance(k, numbers.Real) and k > 0):
            raise InvalidArgument(f"k must be a positive number, got {k!r}")
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
        return self._point((theta,), roles, ("interest",))

    def bounds(self):
        return {"theta": (0.0, self.theta_max)}

    def cell_probs(self, theta) -> np.ndarray:
        """The four cell probabilities, shape ``(..., 4)``."""
        t = theta["theta"]
        return np.stack([t, t, t / self.k, 1.0 - (2.0 + 1.0 / self.k) * t],
                        axis=-1)

    def cell_grads(self) -> np.ndarray:
        return np.array([1.0, 1.0, 1.0 / self.k, -(2.0 + 1.0 / self.k)])

    def outcomes(self) -> np.ndarray:
        """The four possible observation rows, in cell order."""
        return np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)

    def margin_loglik(self, indices, Y, theta):
        self.validate(theta)
        idx = _check_indices(self.dim, indices)
        rows, single = _as_rows(Y, self.dim)
        probs = self.cell_probs(theta)[list(idx)]
        rest = 1.0 - probs.sum()
        sel = rows[:, idx]
        out = sel @ np.log(probs) + (1.0 - sel.sum(axis=1)) * np.log(rest)
        return float(out[0]) if single else out

    margin_score = Model.margin_score   # perfbench/tracing.py wraps it per class

    def _mean(self, theta):
        return self.cell_probs(theta)[..., :3]

    def _cov(self, theta):
        """``diag(m) - m m'``, the covariance of the indicators, with ``m``
        the mean (:meth:`_mean`)."""
        m = self._mean(theta)[..., :, None]
        return m * (np.eye(3) - np.swapaxes(m, -1, -2))

    def margin_score_reps(self, index_sets, theta):
        """See :meth:`Model.margin_score_reps`.  The score is linear in the
        indicators, so ``A`` is zero; the cell probabilities are computed
        once for every margin."""
        self.validate(theta)
        sets = _margin_plan(self.dim, index_sets).sets
        probs = self.cell_probs(theta)
        cell_grads = self.cell_grads()
        out = np.zeros((len(sets),) + probs.shape[:-1] + (1, 1 + 3 + 3 * 3))
        for forms, idx in zip(out, map(list, sets)):
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
            raise InvalidArgument("multinomial data must be 0/1 indicators")
        if np.any(arr.sum(axis=1) > 1):
            raise InvalidArgument("at most one indicator may be set per row")
        return arr
