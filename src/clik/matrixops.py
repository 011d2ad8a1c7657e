"""Dense symmetric-matrix helpers for the information computations.

Every matrix handled here is tiny (dimension 1 to 4): sensitivity,
variability, Godambe and Fisher information matrices, and the model
covariances they are built from.  All functions are pure and operate on
plain ``numpy`` arrays; symmetric inputs are re-symmetrized on output so
equality of mirrored entries is exact.

:func:`is_singular` is the one singularity decision: every inversion and
every Newton step meets it, and it ignores the units of the parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, SingularMatrix

#: Determinant floor of :func:`is_singular` for the equilibrated matrix.
SINGULAR_TOL_FACTOR = 1e-12


def symmetrize(m) -> np.ndarray:
    """Return ``(m + m.T) / 2`` as a float array, making symmetry exact."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def asymmetry(m) -> float:
    """Relative asymmetry ``max|m - m.T| / max(1, max|m|)`` of a square matrix."""
    a = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    return float(np.max(np.abs(a - a.T))) / scale


def is_singular(m) -> bool:
    """Whether a square matrix is singular, whatever the units of its axes.

    Each row, then each column, is divided by its largest absolute entry; a
    zero row or column is singular, else ``|det(scaled)| <=
    SINGULAR_TOL_FACTOR``.  Scaling never lowers ``|det|`` relative to
    ``SINGULAR_TOL_FACTOR * max|entry| ** dim``, so above that bound the
    verdict is taken without scaling.
    """
    a = np.asarray(m, dtype=float)
    mag = np.abs(a)
    scale = float(mag.max()) if a.size else 0.0
    if abs(np.linalg.det(a)) > SINGULAR_TOL_FACTOR * scale ** a.shape[0]:
        return False
    rows = mag.max(axis=1)
    if np.any(rows == 0.0):
        return True
    scaled = a / rows[:, None]
    cols = np.max(np.abs(scaled), axis=0)
    if np.any(cols == 0.0):
        return True
    return bool(abs(np.linalg.det(scaled / cols)) <= SINGULAR_TOL_FACTOR)


def _nonsingular_sym(m) -> np.ndarray:
    """``symmetrize(m)``, or SingularMatrix if :func:`is_singular` says so."""
    a = symmetrize(m)
    if is_singular(a):
        raise SingularMatrix(f"singular matrix (determinant "
                             f"{np.linalg.det(a):g})")
    return a


def sym_invert(m) -> np.ndarray:
    """Invert a small symmetric matrix.

    Parameters
    ----------
    m : array_like
        Symmetric matrix of dimension 1..4.

    Returns
    -------
    numpy.ndarray
        The inverse, re-symmetrized so mirrored entries match exactly.

    Raises
    ------
    SingularMatrix
        If :func:`is_singular` says so.
    """
    return symmetrize(np.linalg.inv(_nonsingular_sym(m)))


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
        raise ValueError("tol must be nonnegative")
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
    SingularMatrix when :func:`is_singular` says so.
    """
    return np.linalg.solve(_nonsingular_sym(m), np.asarray(rhs, dtype=float))
