"""Dense complex linear algebra kernels.

The two hot-path kernels go to LAPACK: ``solve_linear`` is one
``numpy.linalg.solve`` call, and ``cofactors_at`` is one stacked
``numpy.linalg.det`` over every requested minor of a whole stack of
matrices.  The explicit LU with partial max-modulus pivoting stays for
diagnostics: it exposes the permutation sign, the determinant and the
pivot magnitudes that the start-regularity checks and the rank checks
report, and it defines the singularity threshold ``solve_linear`` keeps.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

#: A pivot below PIVOT_RTOL * (largest input entry modulus) counts as zero.
PIVOT_RTOL = 1e-14


class SingularMatrixError(ValueError):
    """A linear solve met a numerically singular matrix."""


@dataclass(frozen=True)
class LUFactors:
    """Combined LU factors of a row-permuted square matrix.

    ``lu`` holds the strict lower factor below the diagonal (unit diagonal
    implied) and the upper factor on and above it.  Row ``i`` of the
    factored matrix came from input row ``perm[i]``.
    """

    lu: np.ndarray
    perm: np.ndarray
    det: complex
    scale: float
    min_pivot: float


def lu_decompose(a) -> LUFactors:
    """Factor a square complex matrix with partial (max-modulus) pivoting."""
    lu = np.array(a, dtype=np.complex128)
    if lu.ndim != 2 or lu.shape[0] != lu.shape[1] or lu.shape[0] == 0:
        raise ValueError(f"nonempty square matrix required, got shape {lu.shape}")
    n = lu.shape[0]
    scale = float(np.max(np.abs(lu)))
    perm = np.arange(n)
    sign = 1
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
            sign = -sign
        pivot = lu[k, k]
        if pivot != 0:  # pivot == 0 means the whole subcolumn is zero already
            lu[k + 1 :, k] /= pivot
            lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    diag = np.diagonal(lu)
    return LUFactors(
        lu=lu,
        perm=perm,
        det=sign * complex(np.prod(diag)),
        scale=scale,
        min_pivot=float(np.min(np.abs(diag))),
    )


def det(a) -> complex:
    """Determinant via LU (product of pivots times the permutation sign)."""
    return lu_decompose(a).det


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b``, raising SingularMatrixError on rank deficiency.

    One LAPACK solve against ``[b | I]`` also yields the inverse.  With
    |l_ij| <= 1, every pivot of ``lu_decompose(a)`` is at least
    1 / (||a^-1||_F sqrt(n(n+1)/2)), so the bound below rejects every
    matrix whose smallest LU pivot is at most PIVOT_RTOL * max|a_ij|
    (and some whose pivots sit just above that).
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"nonempty square matrix required, got shape {a.shape}")
    n = a.shape[0]
    rhs = np.empty((n, n + 1), dtype=np.complex128)
    rhs[:, 0] = b
    rhs[:, 1:] = np.eye(n)
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LAPACK: {exc}") from None
    bound = (
        np.linalg.norm(sol[:, 1:]) * PIVOT_RTOL * float(np.max(np.abs(a)))
        * np.sqrt(n * (n + 1) / 2)
    )
    if not (np.all(np.isfinite(sol)) and bound < 1.0):
        raise SingularMatrixError(
            f"||inv||_F * {PIVOT_RTOL:.0e} * scale * sqrt(n(n+1)/2) = {bound:.3e} >= 1"
        )
    return sol[:, 0]


def cofactor(a, row: int, col: int) -> complex:
    """Signed cofactor (-1)^(row+col) * det(minor), row/col zero-based.

    Computed from the explicit minor so it stays meaningful when ``a``
    itself is singular (the usual case at a determinant-equation solution).
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 1:
        return 1 + 0j
    minor = np.delete(np.delete(a, row, axis=0), col, axis=1)
    sign = -1 if (row + col) % 2 else 1
    return sign * det(minor)


@functools.lru_cache(maxsize=None)
def _minor_selectors(n: int, rows: bytes, cols: bytes):
    """Index arrays picking every requested minor, and the cofactor signs."""
    rows = np.frombuffer(rows, dtype=np.intp)
    cols = np.frombuffer(cols, dtype=np.intp)
    keep = np.arange(n - 1)
    rowsel = np.where(keep[None, :] < rows[:, None], keep, keep + 1)
    colsel = np.where(keep[None, :] < cols[:, None], keep, keep + 1)
    return rowsel[:, :, None], colsel[:, None, :], np.where((rows + cols) % 2, -1.0, 1.0)


def cofactors_at(a, rows, cols) -> np.ndarray:
    """Signed cofactors at paired (rows, cols) positions of a matrix stack.

    ``a`` has shape (..., n, n); the result has shape (..., len(rows)).
    All requested minors of every matrix go through one fancy-indexing
    expression and a single stacked determinant call; positions may repeat.
    The selectors are built once per (n, rows, cols).
    """
    a = np.asarray(a, dtype=np.complex128)
    rowsel, colsel, signs = _minor_selectors(
        a.shape[-1],
        np.asarray(rows, dtype=np.intp).tobytes(),
        np.asarray(cols, dtype=np.intp).tobytes(),
    )
    return signs * np.linalg.det(a[..., rowsel, colsel])
