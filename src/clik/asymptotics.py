"""Closed-form asymptotic variances, efficiency ratios and thresholds.

All variances are reported on the per-observation scale (asymptotic
variance multiplied by the sample size).  The equicorrelated-normal
pairwise formulas and the four-cell multinomial information scalars are
exact; the full-conditional ratio curve has no closed form here and is
produced by the Monte Carlo sandwich with batch standard errors.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .composite import (batch_se, full_conditional, info_monte_carlo,
                        partitioned_variance)
from .errors import ClikError, DomainError, InvalidArgument
from .fileio import atomic_csv, fmt
from .models import (EMVN, Multinomial4, _count, _finite, _real_array,
                     substream)


# ---------------------------------------------------------------------------
# curve container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EfficiencyCurve:
    """A swept parameter grid with named value columns.

    ``rows[:, 0]`` is the swept parameter (strictly increasing); the
    remaining columns are the named values.  CSV round-trips are
    bit-exact (shortest round-trip decimal formatting).
    """

    x_name: str
    value_names: tuple
    rows: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        rows = _real_array(self.rows, "curve rows")
        object.__setattr__(self, "rows", rows)
        try:
            names = tuple(self.value_names)
        except TypeError:
            names = (None,)
        if not all(isinstance(n, str) for n in (self.x_name, *names)):
            raise InvalidArgument(f"curve names {self.x_name!r}, "
                                  f"{self.value_names!r} are not strings")
        object.__setattr__(self, "value_names", names)
        if rows.ndim != 2 or rows.shape[1] != 1 + len(self.value_names):
            raise InvalidArgument(f"rows shape {rows.shape} does not match "
                                  f"{len(self.value_names)} value columns")
        if not np.all(np.isfinite(rows)):
            raise InvalidArgument("curve contains non-finite values")
        if np.any(np.diff(rows[:, 0]) <= 0):
            raise InvalidArgument(
                f"{self.x_name} grid must be strictly increasing")

    @property
    def x(self) -> np.ndarray:
        return self.rows[:, 0]

    def value(self, name: str) -> np.ndarray:
        return self.rows[:, 1 + self.value_names.index(name)]

    def to_csv(self, path) -> None:
        atomic_csv(path, [self.x_name, *self.value_names],
                   ([fmt(v) for v in row] for row in self.rows))

    @classmethod
    def from_csv(cls, path) -> "EfficiencyCurve":
        with open(path, newline="") as fh:
            header, *body = list(csv.reader(fh)) or [[]]
        if not header or any(len(row) != len(header) for row in body):
            raise InvalidArgument(f"curve file {path} is empty or ragged")
        try:
            rows = [[float(v) for v in row] for row in body]
        except ValueError as exc:
            raise InvalidArgument(f"curve file {path}: {exc}") from None
        return cls(header[0], tuple(header[1:]), np.asarray(rows))


def default_grid(lo: float, hi: float, size: int = 201,
                 margin: float = 0.01) -> np.ndarray:
    """Equispaced grid clipped ``margin`` inside an open interval.
    DomainError unless ``lo``, ``hi`` and ``margin >= 0`` are finite and
    leave an interval."""
    if not (isinstance(size, (int, np.integer)) and size >= 2):
        raise InvalidArgument(f"grid needs an integer number of points, at "
                              f"least 2, got {size!r}")
    a = _finite(lo, "lo") + _finite(margin, "margin")
    b = _finite(hi, "hi") - margin
    if not (margin >= 0 and math.isfinite(b - a) and a < b):
        raise DomainError(f"margin {margin!r} leaves no interval inside "
                          f"({lo!r}, {hi!r})")
    return np.linspace(a, b, size)


# ---------------------------------------------------------------------------
# equicorrelated normal, pairwise likelihood (variances of the rho estimator)
# ---------------------------------------------------------------------------


def _grid(values) -> np.ndarray:
    """``values`` as a 1-D float array; InvalidArgument unless it is a
    sequence of real numbers."""
    grid = _real_array(values, "grid")
    if grid.ndim != 1:
        raise InvalidArgument(f"grid of shape {grid.shape} is not a sequence")
    return grid


def _check_emvn_domain(p: int, rho):
    """``(p, rho)`` as an int and a float array, checked against EMVN(p):
    ``p`` from 3 to 2**53."""
    # the closed forms extend continuously to the lower endpoint, where the
    # free-variance estimator becomes exact; the model domain itself is open
    p = _count(p, "p", 3)
    lo = -1.0 / (p - 1)
    rho = _real_array(rho, "rho")
    if not np.all((rho >= lo) & (rho < 1.0)):
        raise DomainError(f"rho must lie in [{lo}, 1)")
    return p, rho


def avar_rho_known_sigma(p: int, rho):
    """Per-observation asymptotic variance of the pairwise correlation
    estimator when the common variance is known:

        2 (1-rho)^2 c(p, rho) / (p (p-1) (1+rho^2)^2),
        c(p, rho) = (1-rho)^2 (3 rho^2 + p^2 rho^2 + 1)
                    + p rho (-3 rho^3 + 8 rho^2 - 3 rho + 2).
    """
    p, rho = _check_emvn_domain(p, rho)
    c = ((1 - rho) ** 2 * (3 * rho ** 2 + p ** 2 * rho ** 2 + 1)
         + p * rho * (-3 * rho ** 3 + 8 * rho ** 2 - 3 * rho + 2))
    out = 2 * (1 - rho) ** 2 * c / (p * (p - 1) * (1 + rho ** 2) ** 2)
    return float(out) if out.ndim == 0 else out


def avar_rho_free_sigma(p: int, rho):
    """Per-observation asymptotic variance of the pairwise correlation
    estimator with the common variance estimated jointly:

        2 (1-rho)^2 (1 + (p-1) rho)^2 / (p (p-1)).

    Vanishes at the lower domain boundary ``rho = -1/(p-1)``.
    """
    p, rho = _check_emvn_domain(p, rho)
    out = 2 * (1 - rho) ** 2 * (1 + (p - 1) * rho) ** 2 / (p * (p - 1))
    return float(out) if out.ndim == 0 else out


def pairwise_ratio_curve(p: int, grid=None) -> EfficiencyCurve:
    """Ratio of the two pairwise variances (variance known over variance
    estimated) across the correlation range.

    Equals 1 at rho = 0, stays below 1 on the positive side, and diverges
    at the lower boundary where the free-variance estimator becomes exact.
    """
    p = _count(p, "p", 3)
    if grid is None:
        grid = default_grid(-1.0 / (p - 1), 1.0)
    grid = _grid(grid)
    # the curve refuses the ratio at the lower bound, which is infinite
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = avar_rho_known_sigma(p, grid) / avar_rho_free_sigma(p, grid)
    return EfficiencyCurve("rho", ("ratio",), np.column_stack([grid, ratio]),
                           {"p": p})


def pairwise_rho_sigma_acov(p: int, rho, sigma2):
    """Per-observation asymptotic covariance between the pairwise estimators
    of the correlation and of the common variance (both estimated):

        2 rho (1-rho) (1 + (p-1) rho) sigma2 / p.

    Vanishes at rho = 0 and at the lower domain boundary.
    """
    (p, rho), sigma2 = _check_emvn_domain(p, rho), _real_array(sigma2,
                                                                "sigma2")
    if not np.all((sigma2 > 0) & (sigma2 < np.inf)):
        raise DomainError("sigma2 must be positive and finite")
    with np.errstate(over="ignore"):
        out = 2 * rho * (1 - rho) * (1 + (p - 1) * rho) * sigma2 / p
    if not np.all(np.isfinite(out)):
        raise DomainError(f"the covariance overflows at sigma2={sigma2}")
    return float(out) if out.ndim == 0 else out


#: How far inside the EMVN(p) domain ``(-1/(p-1), 1)`` the grid of
#: :func:`full_conditional_grid` stays.  The Monte Carlo H is a central
#: difference: 0.01 inside either bound of EMVN(3), its truncation error
#: made H asymmetric beyond ``H_ASYMMETRY_TOL`` at 2e3 to 2e5 draws.
FULL_CONDITIONAL_GRID_MARGIN = 0.05


def full_conditional_grid(p: int, size: int) -> np.ndarray:
    """The ``rho`` grid of :func:`full_conditional_ratio_curve` and ``clik
    figure2``: ``size`` equispaced points FULL_CONDITIONAL_GRID_MARGIN
    inside the EMVN(p) domain."""
    p = _count(p, "p", 3)
    return default_grid(-1.0 / (p - 1), 1.0, size,
                        margin=FULL_CONDITIONAL_GRID_MARGIN)


def full_conditional_ratio_curve(p: int, grid=None, draws: int = 200_000,
                                 seed=0, sigma2: float = 1.0) -> EfficiencyCurve:
    """Monte Carlo ratio of known-variance to free-variance asymptotic
    variance for the full-conditional correlation estimator.

    Each grid point gets an independent substream; ``std_err`` is the
    batch-means error of the ratio.  The default grid is
    :func:`full_conditional_grid` with 21 points.  A ClikError at a grid
    point is raised again, as the same class, with ``rho`` and ``sigma2``
    named.
    """
    p, grid = _check_emvn_domain(
        p, _grid(full_conditional_grid(p, 21) if grid is None else grid))
    sigma2 = _finite(sigma2, "sigma2")
    model = EMVN(p)
    spec = full_conditional(p)
    rows = []
    for i, rho in enumerate(grid):
        try:
            theta = model.params(rho=float(rho), sigma2=sigma2)
            triple = info_monte_carlo(spec, model, theta, draws,
                                      substream(seed, i))
            prof, known = partitioned_variance(triple, ["rho"])
            pb, kb = partitioned_variance(triple.batches, ["rho"])
        except ClikError as exc:
            raise type(exc)(f"rho={rho:g}, sigma2={sigma2:g}: {exc}") from exc
        rows.append([rho, float(known[0, 0] / prof[0, 0]),
                     float(batch_se(kb[:, 0, 0] / pb[:, 0, 0]))])
    return EfficiencyCurve("rho", ("ratio", "std_err"), np.asarray(rows),
                           {"p": p, "draws": draws, "sigma2": sigma2})


# ---------------------------------------------------------------------------
# two-block normal model: when an extra independent coordinate hurts
# ---------------------------------------------------------------------------


def two_block_mean_variances(sigma2: float, rho: float):
    """Per-observation variances of the two mean estimators in the
    two-block normal model: the mean of the correlated pair, and the
    weighted mean that adds the independent third coordinate.

    Returns ``(v12, v123)`` with ``v12 = (1+rho)/2`` and
    ``v123 = (2 (1+rho) sigma2^2 + sigma2) / (1 + 2 sigma2)^2``; above
    ``sigma2 = 1`` the same ratio is evaluated in ``u = 1/sigma2``, as
    ``(2 (1+rho) + u) / (2 + u)^2``, so that no power of ``sigma2``
    overflows.
    """
    sigma2 = _finite(sigma2, "sigma2", positive=True)
    rho = _finite(rho, "rho")
    if not -1.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [-1, 1]")
    v12 = (1.0 + rho) / 2.0
    if sigma2 > 1.0:
        u = 1.0 / sigma2
        return v12, (2.0 * (1.0 + rho) + u) / (2.0 + u) ** 2
    v123 = (2.0 * (1.0 + rho) * sigma2 ** 2 + sigma2) / (1.0 + 2.0 * sigma2) ** 2
    return v12, v123


def two_block_threshold(sigma2: float) -> float:
    """The correlation below which adding the independent third coordinate
    makes the mean estimator worse: ``rho* = -(1 + 2 sigma2)/(1 + 4 sigma2)``.

    Tends to -1/2 as ``sigma2`` grows, so an arbitrarily precise extra
    coordinate still hurts on a nonvanishing correlation range.  Above
    ``sigma2 = 1`` it is evaluated as ``-(2 + u)/(4 + u)``, ``u =
    1/sigma2``, which stays finite where ``4 sigma2`` overflows.
    """
    sigma2 = _finite(sigma2, "sigma2", positive=True)
    if sigma2 > 1.0:
        u = 1.0 / sigma2
        return -(2.0 + u) / (4.0 + u)
    return -(1.0 + 2.0 * sigma2) / (1.0 + 4.0 * sigma2)


# ---------------------------------------------------------------------------
# four-cell multinomial: independence vs pairwise vs full
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultinomialInfo:
    """The five information scalars of the four-cell multinomial."""

    h_ind: float
    j_ind: float
    h_pair: float
    j_pair: float
    fisher_full: float

    @property
    def nvar_full(self) -> float:
        return 1.0 / self.fisher_full

    @property
    def nvar_ind(self) -> float:
        return self.j_ind / self.h_ind ** 2

    @property
    def nvar_pair(self) -> float:
        return self.j_pair / self.h_pair ** 2


def _check_multinomial_domain(theta, k: float) -> np.ndarray:
    """``theta`` as a float array, checked against Multinomial4(k)."""
    if k <= 0:
        raise DomainError("k must be positive")
    tmax = Multinomial4(k).theta_max
    theta = _real_array(theta, "theta")
    if not np.all((theta > 0) & (theta < tmax)):
        raise DomainError(f"theta must lie in (0, {tmax})")
    return theta


def multinomial_info_scalars(theta: float, k: float) -> MultinomialInfo:
    """Exact sensitivity/variability scalars of the independence and
    pairwise likelihoods, plus the full-likelihood Fisher information.

    Raises DomainError where ``k * theta`` underflows (below the smallest
    normal float) or a scalar is not finite in double precision.
    """
    t, k = _finite(theta, "theta"), _finite(k, "k")
    _check_multinomial_domain(t, k)
    if not k * t >= sys.float_info.min:
        raise DomainError(f"k * theta = {k * t:g} underflows "
                          f"(k={k:g}, theta={t:g})")
    try:
        h_ind = 2 / t + 2 / (1 - t) + 1 / (k * t) + 1 / (k * (k - t))
        j_ind = (2 / (t * (1 - t)) + 1 / (t * (k - t))
                 - 2 / (1 - t) ** 2 - 4 / ((1 - t) * (k - t)))
        h_pair = (4 / t + 2 / (k * t) + 4 / (1 - 2 * t)
                  + 2 * (1 + 1 / k) ** 2 / (1 - (1 + 1 / k) * t))
        a = 2 / t + 2 / (1 - 2 * t) + (1 + 1 / k) / (1 - t - t / k)
        b = 2 / t + 2 * (1 + 1 / k) / (1 - t - t / k)
        j_pair = (2 * a ** 2 * t * (1 - t) + b ** 2 * (t / k) * (1 - t / k)
                  - 2 * a ** 2 * t ** 2 - 4 * a * b * t ** 2 / k)
        fisher = 1.0 / (t / (2 + 1 / k) - t ** 2)
        scalars = (h_ind, j_ind, h_pair, j_pair, fisher)
        finite = all(map(math.isfinite, scalars))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"multinomial information is not finite at "
                          f"k={k:g}, theta={t:g}")
    return MultinomialInfo(*scalars)


def multinomial_variance_curves(k: float, grid=None) -> EfficiencyCurve:
    """Per-observation asymptotic variances of the three estimators across
    the admissible range, and the pairwise-over-independence ratio."""
    model = Multinomial4(k)
    if grid is None:
        grid = default_grid(0.0, model.theta_max, margin=0.01 * model.theta_max)
    grid = _check_multinomial_domain(_grid(grid), k)
    rows = []
    for t in grid:
        info = multinomial_info_scalars(float(t), k)
        try:
            row = [t, info.nvar_full, info.nvar_ind, info.nvar_pair,
                   info.nvar_pair / info.nvar_ind]
        except (OverflowError, ZeroDivisionError):
            row = [math.nan]
        if not all(map(math.isfinite, row)):
            raise DomainError(f"multinomial variances are not finite at "
                              f"k={k:g}, theta={t:g}")
        rows.append(row)
    return EfficiencyCurve(
        "theta", ("nvar_full", "nvar_ind", "nvar_pair", "ratio_pair_over_ind"),
        np.asarray(rows), {"k": k})
