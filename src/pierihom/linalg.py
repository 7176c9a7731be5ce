"""Dense complex linear algebra kernels.

The hot-path kernels go to LAPACK: ``solve_linear`` is one
``numpy.linalg.solve`` call, ``solve_stack`` is one stacked call that
solves each matrix on its own and flags only the singular ones, and
``cofactors_at`` is one stacked ``numpy.linalg.det`` over every requested
minor of a whole stack of matrices.  The explicit LU with partial
max-modulus pivoting stays for diagnostics: it exposes the permutation
sign, the determinant and the pivot magnitudes that the start-regularity
checks and the rank checks report, and it defines the singularity
threshold both solves keep.
"""
from __future__ import annotations

import functools
import math
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


def _singularity_bound(a: np.ndarray, sol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ok, bound) per matrix of a stack, from its solution against ``[b | I]``.

    The bound is ||a^-1||_F * PIVOT_RTOL * max|a_ij| * sqrt(n(n+1)/2); a
    matrix passes when its solution is finite and its bound is below 1.
    """
    n = a.shape[-1]
    inv = sol[..., 1:]
    bound = (
        np.sqrt((inv.real ** 2 + inv.imag ** 2).sum(axis=(-2, -1))) * PIVOT_RTOL
        * np.abs(a).max(axis=(-2, -1)) * math.sqrt(n * (n + 1) / 2)
    )
    return np.isfinite(sol).all(axis=(-2, -1)) & (bound < 1.0), bound


def _with_identity(a: np.ndarray, b) -> np.ndarray:
    """``[b | I]`` for a (stack of) square a: an (..., n, n + 1) right-hand side.

    A matrix right-hand side reads the same in numpy 1.24 and 2.x; a stack
    of vectors (k, n) does not.
    """
    n = a.shape[-1]
    rhs = np.empty(a.shape[:-1] + (n + 1,), dtype=np.complex128)
    rhs[..., 0] = b
    rhs[..., 1:] = np.eye(n)
    return rhs


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b``, raising SingularMatrixError on rank deficiency.

    One LAPACK solve against ``[b | I]`` also yields the inverse.  With
    |l_ij| <= 1, every pivot of ``lu_decompose(a)`` is at least
    1 / (||a^-1||_F sqrt(n(n+1)/2)), so the bound of ``_singularity_bound``
    rejects every matrix whose smallest LU pivot is at most
    PIVOT_RTOL * max|a_ij| (and some whose pivots sit just above that).
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"nonempty square matrix required, got shape {a.shape}")
    try:
        sol = np.linalg.solve(a, _with_identity(a, b))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LAPACK: {exc}") from None
    ok, bound = _singularity_bound(a, sol)
    if not ok:
        raise SingularMatrixError(
            f"||inv||_F * {PIVOT_RTOL:.0e} * scale * sqrt(n(n+1)/2) = {bound:.3e} >= 1"
        )
    return sol[:, 0]


def solve_stack(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``a[k] @ x[k] = b[k]`` for a stack; returns ``(x, ok)``.

    ``a`` is (k, n, n) and ``b`` is (k, n).  ``ok[k]`` is False exactly
    where ``solve_linear(a[k], b[k])`` would raise, and then ``x[k]`` is
    undefined; no other matrix of the stack is affected.  Each matrix
    gets its own LAPACK solve, so ``x[k]`` does not depend on the rest of
    the stack.
    """
    a = np.asarray(a, dtype=np.complex128)
    rhs = _with_identity(a, b)
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        # LAPACK stops the whole stack at one exactly singular matrix
        sol = np.full(rhs.shape, np.nan, dtype=np.complex128)
        for k in range(len(a)):
            try:
                sol[k] = np.linalg.solve(a[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
    with np.errstate(invalid="ignore", over="ignore"):
        ok = _singularity_bound(a, sol)[0]
    return sol[..., 0], ok


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
