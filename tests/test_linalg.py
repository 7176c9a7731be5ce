"""Tests for the dense complex linear algebra kernels.

The determinant oracle here is an independent cofactor (Laplace) expansion on
plain Python lists, deliberately sharing no code with the LU implementation.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from pierihom.linalg import (
    PIVOT_RTOL,
    LUFactors,
    cofactor,
    cofactors_at,
    det,
    lu_decompose,
    solve_linear,
)


def laplace_det(a: list[list[complex]]) -> complex:
    """Determinant by first-row cofactor expansion, pure Python."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0j
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * laplace_det(minor)
    return total


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_det_small_known_values() -> None:
    assert det(np.eye(3)) == pytest.approx(1.0)
    assert det([[0, 1], [1, 0]]) == pytest.approx(-1.0)
    assert det([[1, 2], [3, 4]]) == pytest.approx(-2.0)
    # hand value: expansion along the first row
    assert det([[2, 1], [1j, 3]]) == pytest.approx(6 - 1j)


def test_det_matches_laplace_oracle_to_1e12() -> None:
    rng = np.random.default_rng(20260816)
    for n in range(2, 7):
        for _ in range(8):
            a = random_complex(rng, (n, n))
            expected = laplace_det([list(row) for row in a])
            got = det(a)
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_lu_factors_reconstruct_input() -> None:
    rng = np.random.default_rng(7)
    a = random_complex(rng, (5, 5))
    f = lu_decompose(a)
    lower = np.tril(f.lu, -1) + np.eye(5)
    upper = np.triu(f.lu)
    assert np.allclose(lower @ upper, a[f.perm], atol=1e-12)
    assert f.min_pivot > 0
    assert f.scale == pytest.approx(np.max(np.abs(a)))


def test_lu_rejects_nonsquare() -> None:
    with pytest.raises(ValueError):
        lu_decompose(np.ones((2, 3)))
    with pytest.raises(ValueError):
        lu_decompose(np.ones((0, 0)))


def test_det_of_singular_matrix_is_zero() -> None:
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
    assert abs(det(a)) <= 1e-14


def solved(a, b) -> np.ndarray:
    """``solve_linear``'s x for one matrix that must pass its bound."""
    x, ok = solve_linear(a, b)
    assert ok.shape == () and ok
    return x


def test_solve_linear_recovers_known_solutions() -> None:
    assert np.allclose(solved(np.eye(2), [1 + 2j, 3]), [1 + 2j, 3])
    x = solved(np.diag([2.0, 4j]), [2.0, 4j])
    assert np.allclose(x, [1.0, 1.0])
    rng = np.random.default_rng(11)
    for n in (2, 4, 8):
        a = random_complex(rng, (n, n))
        x_true = random_complex(rng, n)
        x = solved(a, a @ x_true)
        assert np.linalg.norm(x - x_true) <= 1e-9 * (1 + np.linalg.norm(x_true))


def test_solve_residual_property_seeded() -> None:
    rng = np.random.default_rng(2026)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        a = random_complex(rng, (n, n))
        b = random_complex(rng, n)
        x = solved(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))


def test_solve_singular_is_not_ok() -> None:
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    assert not solve_linear(a, [1.0, 1.0])[1]
    assert not solve_linear(np.zeros((3, 3)), np.ones(3))[1]
    for shape in ((2, 3), (0, 0), (3,), (4, 2, 3)):
        with pytest.raises(ValueError, match="square"):
            solve_linear(np.ones(shape), np.ones(shape[:-1]))


def test_solve_near_singular_below_threshold_is_not_ok() -> None:
    # the second pivot is eps relative to scale 1.0, at or below the 1e-14
    # threshold; 1 + 1e-16 rounds to exactly 1, so that one is singular
    for eps in (1e-16, 1e-15, 1e-14):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + eps]])
        assert not solve_linear(a, [1.0, 2.0])[1]


def test_solve_tiny_pivot_is_not_ok_and_silent() -> None:
    # the inverse's entries near 1e200 overflow when squared; that must stay
    # a quiet rejection, alone and in a stack
    a = np.diag([1.0, 1e-200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not solve_linear(a, [1.0, 1.0])[1]
        x, ok = solve_linear(np.array([np.eye(2), a]), np.ones((2, 2)))
    assert ok.tolist() == [True, False] and np.array_equal(x[0], [1.0, 1.0])


def test_solve_near_singular_above_threshold_solves() -> None:
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    x = solved(a, [1.0, 2.0])
    assert np.allclose(x, [1.0 - 1e12, 1e12], rtol=1e-3)


def test_solve_not_ok_whenever_lu_pivot_is_below_threshold() -> None:
    # the LAPACK solve's inverse-norm bound must reject every matrix the
    # explicit LU's pivot test rejects; sweep sigma_min across the threshold
    rng = np.random.default_rng(20261018)
    flagged = 0
    for trial in range(300):
        n = int(rng.integers(2, 9))
        q1, _ = np.linalg.qr(random_complex(rng, (n, n)))
        q2, _ = np.linalg.qr(random_complex(rng, (n, n)))
        sigma = np.sort(rng.uniform(0.1, 10.0, n))[::-1]
        sigma[-1] = 10.0 ** rng.uniform(-17, -11)
        a = (q1 * sigma) @ q2
        f = lu_decompose(a)
        if f.min_pivot > PIVOT_RTOL * f.scale:
            continue
        flagged += 1
        assert not solve_linear(a, random_complex(rng, n))[1]
    assert flagged >= 50


def test_solve_linear_stack_rows_match_single_matrices() -> None:
    # a stack across the singularity threshold, with and without an exactly
    # singular matrix (which makes LAPACK stop the whole stacked call)
    rng = np.random.default_rng(20261020)
    n = 4
    mats = []
    for _ in range(40):
        q1, _ = np.linalg.qr(random_complex(rng, (n, n)))
        q2, _ = np.linalg.qr(random_complex(rng, (n, n)))
        sigma = np.sort(rng.uniform(0.1, 10.0, n))[::-1]
        sigma[-1] = 10.0 ** rng.uniform(-17, -9)
        mats.append((q1 * sigma) @ q2)
    rhs = random_complex(rng, (40, n))
    for a in (np.array(mats), np.array(mats[:20] + [np.zeros((n, n))] + mats[20:])):
        b = rhs if len(a) == 40 else np.insert(rhs, 20, 1.0, axis=0)
        x, ok = solve_linear(a, b)
        assert x.shape == (len(a), n) and ok.shape == (len(a),)
        for k in range(len(a)):
            want, alone = solve_linear(a[k], b[k])
            assert ok[k] == alone
            if alone:
                assert np.array_equal(x[k], want)  # each matrix solved alone
        assert 5 <= np.count_nonzero(~ok) <= 35
        # a (2, 20) stack of the first 40 is the same solve, row for row
        x2, ok2 = solve_linear(a[:40].reshape(2, 20, n, n), b[:40].reshape(2, 20, n))
        assert np.array_equal(ok2.ravel(), ok[:40])
        assert np.array_equal(x2.reshape(40, n)[ok[:40]], x[:40][ok[:40]])


def test_cofactor_hand_values() -> None:
    assert cofactor(np.eye(2), 0, 0) == pytest.approx(1.0)
    assert cofactor(np.eye(2), 0, 1) == pytest.approx(0.0)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert cofactor(a, 0, 0) == pytest.approx(4.0)
    assert cofactor(a, 0, 1) == pytest.approx(-3.0)
    assert cofactor(a, 1, 0) == pytest.approx(-2.0)
    assert cofactor(a, 1, 1) == pytest.approx(1.0)
    # 1x1 matrix: the (empty) minor has determinant 1
    assert cofactor(np.array([[5.0]]), 0, 0) == pytest.approx(1.0)


def test_cofactor_laplace_identity_rows_and_columns() -> None:
    rng = np.random.default_rng(99)
    a = random_complex(rng, (4, 4))
    d = laplace_det([list(row) for row in a])
    for r in range(4):
        expansion = sum(a[r, c] * cofactor(a, r, c) for c in range(4))
        assert abs(expansion - d) <= 1e-12 * abs(d)
        # alien-row expansion vanishes
        alien = sum(a[(r + 1) % 4, c] * cofactor(a, r, c) for c in range(4))
        assert abs(alien) <= 1e-12 * abs(d)


def test_cofactors_at_matches_scalar_cofactor() -> None:
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 6):
        a = random_complex(rng, (n, n))
        rows = [i % n for i in range(2 * n)]
        cols = [(3 * i + 1) % n for i in range(2 * n)]
        batched = cofactors_at(a, rows, cols)
        for k, (r, c) in enumerate(zip(rows, cols)):
            assert abs(batched[k] - cofactor(a, r, c)) <= 1e-11 * max(
                1.0, abs(batched[k])
            )
        # a (k, n, n) stack gives one row of cofactors per matrix
        stack = random_complex(rng, (3, n, n))
        stacked = cofactors_at(stack, rows, cols)
        assert stacked.shape == (3, len(rows))
        for i in range(3):
            assert np.array_equal(stacked[i], cofactors_at(stack[i], rows, cols))
            for k, (r, c) in enumerate(zip(rows, cols)):
                assert abs(stacked[i, k] - cofactor(stack[i], r, c)) <= 1e-11 * max(
                    1.0, abs(stacked[i, k])
                )


def test_lu_factors_is_frozen_dataclass() -> None:
    f = lu_decompose(np.eye(2))
    assert isinstance(f, LUFactors)
    with pytest.raises(AttributeError):
        f.det = 0  # type: ignore[misc]


def test_cofactors_at_selectors_follow_positions() -> None:
    # selectors are reused per (n, rows, cols): calls that share n but not
    # the pairing, or share the positions but not n, must not mix them up
    rng = np.random.default_rng(12)
    positions = [
        ([0, 1], [2, 3]),
        ([2, 3], [0, 1]),
        ([0, 1], [3, 2]),
        ([1, 0], [2, 3]),
        ([0, 1, 2], [2, 3, 0]),
        (np.array([3, 3]), np.array([0, 1])),
    ]
    for _ in range(2):
        for n in (4, 5):
            single = random_complex(rng, (n, n))
            stack = random_complex(rng, (3, n, n))
            for rows, cols in positions:
                for mats, got in (
                    ([single], cofactors_at(single, rows, cols)[None]),
                    (list(stack), cofactors_at(stack, rows, cols)),
                ):
                    assert got.shape == (len(mats), len(rows))
                    for i, a in enumerate(mats):
                        want = [cofactor(a, r, c) for r, c in zip(rows, cols)]
                        assert np.allclose(got[i], want, rtol=1e-11, atol=0)
