"""Dense symmetric-matrix helpers for the information computations.

Every matrix handled here is tiny (dimension 1 to 5): sensitivity,
variability, Godambe and Fisher information matrices, and the model
covariances they are built from.  All functions are pure and operate on
plain ``numpy`` arrays; symmetric inputs are re-symmetrized on output so
equality of mirrored entries is exact.  :func:`symmetrize`,
:func:`is_singular` and :func:`sym_invert` also take a stack ``(..., k,
k)`` and treat it matrix by matrix, with the same arithmetic as for one
matrix, so a batched solve gets the same bits as one solve per matrix.

:func:`is_singular` is the one singularity decision: every inversion and
every Newton step meets it, and it ignores the units of the parameters.
One matrix takes a path of its own, with the screen in Python floats and
the same verdict as in a stack: the information routes call these
functions on 1x1 to 3x3 matrices thousands of times, and there numpy's
per-call cost, not the arithmetic, is the time.  :func:`sym_invert` and
:func:`solve_sym` make one symmetrization, one screen and one LAPACK call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DimensionMismatch, InvalidArgument, NotPositiveDefinite,
                     SingularMatrix)

#: Floor of :func:`is_singular` on the ratio of the smallest to the largest
#: singular value of the equilibrated matrix: a relative gap, so it does not
#: shrink with the dimension as a determinant floor does.
SINGULAR_TOL_FACTOR = 1e-12


def symmetrize(m) -> np.ndarray:
    """Return ``(m + m.T) / 2`` as a float array, making symmetry exact."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.swapaxes(-1, -2))


def asymmetry(m) -> float:
    """Relative asymmetry ``max|m - m.T| / max(1, max|m|)`` of a square matrix."""
    a = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    return float(np.max(np.abs(a - a.T))) / scale


def is_singular(m):
    """Whether a square matrix is singular, whatever the units of its axes.

    Each row, then each column, is divided by its largest absolute entry
    (a zero row or column stays zero), and the matrix is singular when the
    smallest singular value of the result is at most SINGULAR_TOL_FACTOR
    times the largest.  The scaled matrix has ``|det| >= |det(m)| /
    max|entry| ** dim`` and no singular value above ``dim``, so a matrix
    with ``|det(m)| > SINGULAR_TOL_FACTOR * (dim * max|entry|) ** dim`` is
    regular without scaling, and only the others are decomposed.  A matrix
    with a NaN or infinite entry is not called singular.  A stack gives a
    boolean array of verdicts, one matrix gives a bool.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim == 2:
        return _is_singular_one(a)
    dim = a.shape[-1]
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    # a NaN or infinite entry is never decomposed (the SVD would not
    # converge), so its determinant, which may warn, is not read; the solve
    # that follows propagates it.  Where the screen overflows (entries above
    # about 1e100) it reads inf <= inf and leaves the verdict to the SVD
    with np.errstate(all="ignore"):
        det = np.abs(np.linalg.det(a))
        undecided = np.asarray(np.isfinite(scale) & (
            det <= SINGULAR_TOL_FACTOR * (dim * scale) ** dim))
    if undecided.any():
        undecided[undecided] = _scaled_svd_singular(a[undecided])
    return undecided


def _is_singular_one(a) -> bool:
    """:func:`is_singular` of one matrix, the screen in Python floats: the
    same maximum, power and determinant, so the same verdict as in a
    stack.  Where the power overflows, the stacked screen decides quietly."""
    flat = a.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        return False
    dim, scale = a.shape[-1], max(map(abs, flat), default=0.0)
    try:
        bound = SINGULAR_TOL_FACTOR * (dim * scale) ** dim
    except OverflowError:
        return bool(is_singular(a[None])[0])
    if abs(float(np.linalg.det(a))) > bound:
        return False
    return bool(_scaled_svd_singular(a[None])[0])


def _scaled_svd_singular(sub) -> np.ndarray:
    """The SVD verdict of :func:`is_singular` on each matrix of a stack
    ``(k, dim, dim)`` of finite matrices."""
    rows = np.abs(sub).max(axis=-1, keepdims=True)
    scaled = sub / np.where(rows == 0.0, 1.0, rows)
    cols = np.abs(scaled).max(axis=-2, keepdims=True)
    sv = np.linalg.svd(scaled / np.where(cols == 0.0, 1.0, cols),
                       compute_uv=False)
    return sv[:, -1] <= SINGULAR_TOL_FACTOR * sv[:, 0]


def _nonsingular_sym(m) -> np.ndarray:
    """``symmetrize(m)``, or SingularMatrix if :func:`is_singular` says so
    (for a stack: of any matrix, listed in the exception's ``rows``)."""
    a = symmetrize(m)
    if a.ndim == 2:
        if _is_singular_one(a):
            raise SingularMatrix(f"singular matrix (determinant "
                                 f"{np.linalg.det(a):g})", rows=np.array([0]))
        return a
    singular = is_singular(a)
    if singular.any():
        dets = np.linalg.det(a[singular])
        raise SingularMatrix(
            "singular matrix (determinant "
            + ", ".join(f"{d:g}" for d in dets) + ")",
            rows=np.flatnonzero(singular))
    return a


def _lapack(solve, a, *rhs):
    """``solve(a, *rhs)``, or SingularMatrix naming in ``rows`` the matrices
    of ``a`` on which LAPACK's LU meets an exactly zero pivot although
    :func:`is_singular` calls them regular (an off-diagonal entry whose
    square underflows, say)."""
    try:
        return solve(a, *rhs)
    except np.linalg.LinAlgError:
        rows = []
        for i, mat in enumerate(a.reshape((-1,) + a.shape[-2:])):
            try:
                np.linalg.inv(mat)
            except np.linalg.LinAlgError:
                rows.append(i)
        raise SingularMatrix("matrix not solvable in double precision",
                             rows=np.array(rows)) from None


def sym_invert(m) -> np.ndarray:
    """Invert a small symmetric matrix, or each matrix of a stack.

    Parameters
    ----------
    m : array_like
        Symmetric matrix of dimension 1..5, or a stack ``(..., k, k)``.

    Returns
    -------
    numpy.ndarray
        The inverse, re-symmetrized so mirrored entries match exactly.

    Raises
    ------
    SingularMatrix
        If :func:`is_singular` says so, or the LU factorization meets a
        zero pivot.
    """
    return symmetrize(_lapack(np.linalg.inv, _nonsingular_sym(m)))


def is_psd(m, tol: float) -> bool:
    """Test positive semidefiniteness up to an eigenvalue floor.

    Parameters
    ----------
    m : array_like
        Symmetric matrix.
    tol : float
        Nonnegative slack: the verdict is true iff every eigenvalue
        is ``>= -tol``.
    """
    if tol < 0:
        raise InvalidArgument("tol must be nonnegative")
    a = symmetrize(m)
    return bool(np.min(np.linalg.eigvalsh(a)) >= -tol)


def loewner_geq(a, b, tol: float) -> bool:
    """Matrix-inequality ordering: is ``a - b`` positive semidefinite?

    Parameters
    ----------
    a, b : array_like
        Symmetric matrices of equal dimension.
    tol : float
        Eigenvalue slack passed through to :func:`is_psd`.

    Raises
    ------
    DimensionMismatch
        If the two matrices differ in shape.
    """
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if aa.shape != bb.shape:
        raise DimensionMismatch(f"shapes {aa.shape} and {bb.shape} differ")
    return is_psd(aa - bb, tol)


def cholesky_lower(m) -> np.ndarray:
    """Lower-triangular Cholesky factor ``L`` with ``L @ L.T == m``.

    Raises
    ------
    NotPositiveDefinite
        If the factorization fails.
    """
    a = symmetrize(m)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None


def solve_sym(m, rhs) -> np.ndarray:
    """Solve ``m @ x = rhs`` for symmetric nonsingular ``m``.

    Equivalent to ``sym_invert(m) @ rhs`` but via a direct solve; raises
    SingularMatrix as :func:`sym_invert` does.
    """
    return _lapack(np.linalg.solve, _nonsingular_sym(m),
                   np.asarray(rhs, dtype=float))
