"""Tests for the intersection-condition engine and the recursive solve.

Oracles: a pure-Python Laplace determinant, a naive per-entry map builder,
the adjugate and central finite differences for every gradient, a
closed-form linear solve for the very first edge, and poset path counting
for all bookkeeping.  No oracle goes through the solver's coefficient
layout, engine._Layout.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from pierihom import engine, tracker
from pierihom.engine import (
    GAMMAS,
    SAME_ROOT_TOL,
    EdgeHomotopy,
    EdgeTask,
    LossRecord,
    PieriTreeSource,
    ProblemInput,
    SolutionMap,
    _coeff_distance,
    embed_start,
    free_coefficients,
    free_slots,
    full_coefficients,
    solution_from_free,
    solutions_to_json,
    solve_pieri,
    special_plane,
    star_slots,
    verify,
)
from pierihom.patterns import (
    LocalizationPattern,
    column_heights,
    count_paths,
    degrees_of_freedom,
    increments,
    num_conditions,
    pieri_root_count,
    target_pattern,
    trivial_pattern,
)
from pierihom.scheduler import run_dynamic
from pierihom.tracker import GammaArc, PathResult, TrackerOptions, track_path


def laplace_det(a: np.ndarray) -> complex:
    """Cofactor-expansion determinant, the slow but unimpeachable oracle."""
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    rest = a[1:]
    for j in range(n):
        minor = np.delete(rest, j, axis=1)
        total += (-1) ** j * complex(a[0, j]) * laplace_det(minor)
    return total


def naive_map_matrix(
    pattern: LocalizationPattern, coeffs, s: complex, t: complex
) -> np.ndarray:
    """Per-entry construction of X(s,t) from the tall star layout."""
    mp = pattern.m + pattern.p
    x = np.zeros((mp, pattern.p), dtype=np.complex128)
    idx = 0
    for j, bottom in enumerate(pattern.bottom):
        kmax = (bottom - 1) // mp
        for long_row in range(j + 1, bottom + 1):
            k = (long_row - 1) // mp
            rho = (long_row - 1) % mp
            x[rho, j] += coeffs[idx] * s**k * t ** (kmax - k)
            idx += 1
    assert idx == len(coeffs)
    return x


def oracle_det(pattern: LocalizationPattern, coeffs, plane, s, t) -> complex:
    """det([X(s,t) | plane]) on the per-entry map."""
    a = np.concatenate([naive_map_matrix(pattern, coeffs, s, t), plane], axis=1)
    return complex(np.linalg.det(a))


def oracle_gradient(pattern: LocalizationPattern, coeffs, plane, s, t) -> np.ndarray:
    """Derivative of oracle_det in each free coefficient, by the adjugate.

    A free coefficient enters one entry (r, j) of A times its monomial, so
    its derivative is that monomial times the cofactor det(A) inv(A)[j, r].
    """
    a = np.concatenate([naive_map_matrix(pattern, coeffs, s, t), plane], axis=1)
    cof = np.linalg.det(a) * np.linalg.inv(a).T
    mp = pattern.m + pattern.p
    grad = []
    for j, row in free_slots(pattern):
        k, kmax = (row - 1) // mp, (pattern.bottom[j] - 1) // mp
        grad.append(cof[(row - 1) % mp, j] * s**k * t ** (kmax - k))
    return np.array(grad)


def layout_stack(pattern: LocalizationPattern, coeffs, s, t, planes):
    """The solver's stack [X(s_i, t_i) | planes_i] and its star weights."""
    lay = engine._layout(pattern)
    mono = lay.monomials(s, t)
    return lay.assemble(np.asarray(coeffs, dtype=np.complex128), mono, planes), mono


def layout_map(pattern: LocalizationPattern, coeffs, s, t) -> np.ndarray:
    """X(s, t) as the solver assembles it: a stack with no plane columns."""
    mp = pattern.m + pattern.p
    return layout_stack(pattern, coeffs, s, t, np.empty((mp, 0)))[0][0]


def random_full_coeffs(pattern: LocalizationPattern, rng) -> np.ndarray:
    vals = rng.standard_normal(len(star_slots(pattern))) + 1j * rng.standard_normal(
        len(star_slots(pattern))
    )
    for i, (col, row) in enumerate(star_slots(pattern)):
        if row == col + 1:
            vals[i] = 1.0
    return vals


@functools.lru_cache(maxsize=None)
def solved(m: int, p: int, q: int, seed: int, workers: int = 1):
    problem = ProblemInput.generate(m, p, q, seed)
    return problem, solve_pieri(problem, workers=workers)


def run_rounds(source: PieriTreeSource, workers: int = 1) -> None:
    """Drive a source through its rounds, one batch each, as solve_pieri does."""
    jobs = source.initial_jobs()
    while jobs:
        jobs = source.on_result(run_dynamic(jobs, workers))


# ---------------------------------------------------------------- layout


def test_star_and_free_slots_frozen() -> None:
    pat = LocalizationPattern(2, 2, 1, (4, 7))
    assert star_slots(pat) == [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    ]
    assert free_slots(pat) == [
        (0, 2), (0, 3), (0, 4),
        (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    ]
    assert len(free_slots(pat)) == degrees_of_freedom(pat)
    triv = trivial_pattern(2, 2, 1)
    assert star_slots(triv) == [(0, 1), (1, 2)]
    assert free_slots(triv) == []


def test_full_free_coefficient_round_trip() -> None:
    rng = np.random.default_rng(5)
    for bottom in ((4, 7), (3, 5), (2, 4)):
        pat = LocalizationPattern(2, 2, 1, bottom)
        free = rng.standard_normal(degrees_of_freedom(pat)) + 1j * rng.standard_normal(
            degrees_of_freedom(pat)
        )
        full = full_coefficients(pat, free)
        assert len(full) == pat.p + degrees_of_freedom(pat)
        for i, (col, row) in enumerate(star_slots(pat)):
            if row == col + 1:
                assert full[i] == 1.0
        assert np.array_equal(free_coefficients(pat, full), free)


# ------------------------------------------------------- map evaluation


def test_instantiate_map_constant_for_static_problems() -> None:
    rng = np.random.default_rng(0)
    pat = target_pattern(2, 2, 0)
    coeffs = random_full_coeffs(pat, rng)
    base = layout_map(pat, coeffs, 0.3 + 0.1j, 1.0)
    assert np.allclose(layout_map(pat, coeffs, 2.0 - 1.0j, 0.25), base)
    assert np.allclose(layout_map(pat, coeffs, 0.0, 0.0), base)


def test_instantiate_map_frozen_example() -> None:
    # pattern [4,7] for (2,2,1): column 2 folds rows 5..7 onto rows 1..3
    pat = LocalizationPattern(2, 2, 1, (4, 7))
    coeffs = np.array([1, 2, 3, 4, 1, 5, 6, 7, 8, 9], dtype=np.complex128)
    at_01 = layout_map(pat, coeffs, 0.0, 1.0)  # s = 0 keeps only the degree-0 block
    assert np.array_equal(
        at_01,
        np.array([[1, 0], [2, 1], [3, 5], [4, 6]], dtype=np.complex128),
    )
    at_11 = layout_map(pat, coeffs, 1.0, 1.0)  # both blocks summed
    assert np.array_equal(
        at_11,
        np.array([[1, 7], [2, 9], [3, 14], [4, 6]], dtype=np.complex128),
    )
    # general point against the naive per-entry oracle
    rng = np.random.default_rng(3)
    for _ in range(5):
        s = rng.standard_normal() + 1j * rng.standard_normal()
        t = rng.uniform()
        assert np.allclose(layout_map(pat, coeffs, s, t), naive_map_matrix(pat, coeffs, s, t))


def test_instantiate_map_low_block_column_is_constant() -> None:
    # [3,4] for (2,2,1): column 2 has an 8-row template but its stars all
    # sit in the first degree block, so the column must not vanish at the
    # point at infinity (s,t) = (1,0)
    pat = LocalizationPattern(2, 2, 1, (3, 4))
    coeffs = np.array([1, 2, 3, 1, 4, 5], dtype=np.complex128)
    base = layout_map(pat, coeffs, 0.0, 1.0)
    assert np.array_equal(layout_map(pat, coeffs, 1.0, 0.0), base)
    assert np.array_equal(layout_map(pat, coeffs, 0.7, 0.2), base)
    assert np.any(base[:, 1] != 0)


# -------------------------------------------------------- special plane


def test_special_plane_frozen() -> None:
    eye = np.eye(4)
    sx = special_plane(LocalizationPattern(2, 2, 1, (4, 7)))
    assert np.array_equal(sx, eye[:, [0, 1]])  # residues {4,3}
    sx = special_plane(LocalizationPattern(2, 2, 0, (3, 4)))
    assert np.array_equal(sx, eye[:, [0, 1]])
    sx = special_plane(LocalizationPattern(2, 2, 0, (2, 4)))
    assert np.array_equal(sx, eye[:, [0, 2]])  # residues {2,4}
    sx = special_plane(LocalizationPattern(2, 3, 1, (4, 5, 8)))
    assert np.array_equal(sx, np.eye(5)[:, [0, 1]])  # residues {4,5,3}


def test_special_plane_bottom_pivot_contract() -> None:
    # det([X(1,0) | S_X]) vanishes exactly when a bottom-pivot coeff does,
    # and its modulus is the product of the bottom-pivot moduli
    cases = [
        (2, 2, 1, (4, 7)), (2, 2, 1, (3, 5)), (2, 2, 1, (2, 4)),
        (2, 2, 0, (2, 4)), (2, 3, 1, (4, 5, 8)), (3, 2, 1, (4, 8)),
    ]
    rng = np.random.default_rng(11)
    for m, p, q, bottom in cases:
        pat = LocalizationPattern(m, p, q, bottom)
        coeffs = random_full_coeffs(pat, rng)
        a = np.concatenate([layout_map(pat, coeffs, 1.0, 0.0), special_plane(pat)], axis=1)
        slots = star_slots(pat)
        bottoms = [coeffs[slots.index((j, b))] for j, b in enumerate(bottom)]
        expect = np.prod(np.abs(bottoms))
        assert abs(abs(laplace_det(a)) - expect) <= 1e-12 * max(expect, 1.0)
        # zero one bottom pivot: the determinant must vanish identically
        kill = coeffs.copy()
        kill[slots.index((0, bottom[0]))] = 0.0
        a0 = np.concatenate([layout_map(pat, kill, 1.0, 0.0), special_plane(pat)], axis=1)
        assert abs(laplace_det(a0)) <= 1e-14


# -------------------------------------------- residuals and gradients


def test_condition_residual_identity_cases() -> None:
    # the trivial map's columns are e1, e2: planes spanned by e3, e4 meet
    # it only at 0 (|det| = 1), planes containing e1 meet it (det = 0)
    eye = np.eye(4, dtype=np.complex128)
    planes = [eye[:, [2, 3]], eye[:, [0, 3]], eye[:, [3, 2]], eye[:, [1, 2]]]
    problem = ProblemInput(2, 2, 0, 0, planes, [0.5, -0.5, 0.5j, -0.5j])
    sol = solution_from_free(problem, trivial_pattern(2, 2, 0), np.zeros(0))
    assert np.array_equal(sol.coefficients, [1.0, 1.0])
    assert np.array_equal(sol.residuals, [1.0, 0.0, 1.0, 0.0])


def test_condition_residual_matches_concatenate_then_det() -> None:
    cases = [(2, 2, 1, (4, 7)), (2, 2, 1, (3, 4)), (2, 3, 0, (3, 4, 5))]
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        m, p, q, bottom = cases[seed % len(cases)]
        pat = LocalizationPattern(m, p, q, bottom)
        coeffs = random_full_coeffs(pat, rng)
        planes = rng.standard_normal((3, m + p, m)) + 1j * rng.standard_normal((3, m + p, m))
        s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        t = rng.uniform(size=3)
        got = np.linalg.det(layout_stack(pat, coeffs, s, t, planes)[0])
        for i in range(3):
            a = np.concatenate([naive_map_matrix(pat, coeffs, s[i], t[i]), planes[i]], axis=1)
            want = laplace_det(a)
            assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want))


def test_condition_gradient_matches_finite_differences() -> None:
    cases = [(2, 2, 1, (4, 7)), (2, 2, 1, (3, 5)), (2, 3, 1, (4, 5, 8))]
    h = 1e-6
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        m, p, q, bottom = cases[seed % len(cases)]
        pat = LocalizationPattern(m, p, q, bottom)
        coeffs = random_full_coeffs(pat, rng)
        plane = rng.standard_normal((m + p, m)) + 1j * rng.standard_normal((m + p, m))
        s = rng.standard_normal() + 1j * rng.standard_normal()
        t = rng.uniform(0.1, 1.0)
        grad = engine._layout(pat).gradient(*layout_stack(pat, coeffs, s, t, plane))[0]
        slots = star_slots(pat)
        free = free_slots(pat)
        assert grad.shape == (len(free),)
        for fi, slot in enumerate(free):
            i = slots.index(slot)
            up, dn = coeffs.copy(), coeffs.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                oracle_det(pat, up, plane, s, t) - oracle_det(pat, dn, plane, s, t)
            ) / (2 * h)
            assert abs(grad[fi] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_condition_gradient_low_degree_terms_die_at_infinity() -> None:
    # at t = 0 every coefficient below its column's top degree block has
    # gradient factor 0^(positive) = 0
    pat = LocalizationPattern(2, 2, 1, (4, 7))
    rng = np.random.default_rng(9)
    coeffs = random_full_coeffs(pat, rng)
    plane = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    grad = engine._layout(pat).gradient(*layout_stack(pat, coeffs, 1.0, 0.0, plane))[0]
    mp = 4
    for fi, (col, long_row) in enumerate(free_slots(pat)):
        k = (long_row - 1) // mp
        kmax = (pat.bottom[col] - 1) // mp
        if k < kmax:
            assert grad[fi] == 0.0


# ------------------------------------------------------- problem input


def test_problem_input_generation_invariants() -> None:
    for m, p, q, seed in ((2, 2, 1, 0), (2, 3, 0, 4), (3, 2, 1, 7)):
        prob = ProblemInput.generate(m, p, q, seed)
        n = num_conditions(m, p, q)
        assert prob.n == n
        assert prob.planes.shape == (n, m + p, m)
        assert prob.points.shape == (n,)
        assert np.allclose(np.abs(prob.points), 1.0, atol=1e-12)
        assert np.min(np.abs(prob.points - 1.0)) >= 1e-3
        for i, j in itertools.combinations(range(n), 2):
            assert abs(prob.points[i] - prob.points[j]) >= 1e-3
        again = ProblemInput.generate(m, p, q, seed)
        assert np.array_equal(prob.planes, again.planes)
        assert np.array_equal(prob.points, again.points)
        other = ProblemInput.generate(m, p, q, seed + 1)
        assert not np.array_equal(prob.planes, other.planes)


def test_problem_input_rank_check_uses_the_whole_plane() -> None:
    # every coordinate 2-plane of C^4 has full column rank, whichever rows
    # happen to be zero; two parallel columns do not
    prob = ProblemInput.generate(2, 2, 0, 1)
    for cols in itertools.combinations(range(4), 2):
        planes = prob.planes.copy()
        planes[0] = np.eye(4)[:, list(cols)]
        ProblemInput(2, 2, 0, 1, planes, prob.points)
    planes = prob.planes.copy()
    planes[2][:, 1] = (2.0 - 1.0j) * planes[2][:, 0]
    with pytest.raises(ValueError, match="plane 2 is rank deficient"):
        ProblemInput(2, 2, 0, 1, planes, prob.points)


# -------------------------------------------------------- edge homotopy


def make_edge_homotopy(problem, dest: LocalizationPattern, k: int) -> EdgeHomotopy:
    return EdgeHomotopy(
        dest,
        problem.points[: k - 1],
        problem.planes[: k - 1],
        problem.points[k - 1],
        problem.planes[k - 1],
        special_plane(dest),
    )


def test_edge_homotopy_endpoint_equations() -> None:
    problem = ProblemInput.generate(2, 2, 1, 21)
    dest = LocalizationPattern(2, 2, 1, (3, 4))
    k = degrees_of_freedom(dest)
    hom = make_edge_homotopy(problem, dest, k)
    assert hom.nvars == k
    rng = np.random.default_rng(2)
    x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    full = full_coefficients(dest, x)
    vals = hom.eval(x, 1.0)
    # moving equation at t=1 is condition k; the pinned rows are 1..k-1
    assert np.isclose(vals[0], oracle_det(dest, full, problem.planes[k - 1], problem.points[k - 1], 1.0))
    for i in range(1, k):
        assert np.isclose(vals[i], oracle_det(dest, full, problem.planes[i - 1], problem.points[i - 1], 1.0))


def test_edge_homotopy_midpoint_matches_oracle() -> None:
    problem = ProblemInput.generate(2, 2, 1, 22)
    dest = LocalizationPattern(2, 2, 1, (4, 5))
    k = degrees_of_freedom(dest)
    hom = make_edge_homotopy(problem, dest, k)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    t = 0.37
    s_move = (1 - t) + problem.points[k - 1] * t
    plane = (1 - t) * special_plane(dest) + t * problem.planes[k - 1]
    x_move = naive_map_matrix(dest, full_coefficients(dest, x), s_move, t)
    want = laplace_det(np.concatenate([x_move, plane], axis=1))
    got = hom.eval(x, t)[0]
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_edge_homotopy_jacobian_matches_finite_differences() -> None:
    h = 1e-6
    for seed, bottom in ((31, (3, 4)), (32, (4, 6)), (33, (4, 7))):
        problem = ProblemInput.generate(2, 2, 1, seed)
        dest = LocalizationPattern(2, 2, 1, bottom)
        k = degrees_of_freedom(dest)
        hom = make_edge_homotopy(problem, dest, k)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        for t in (0.0, 0.45, 1.0):
            jac = hom.jacobian_x(x, t)
            for f in range(k):
                e = np.zeros(k, dtype=np.complex128)
                e[f] = h
                fd = (hom.eval(x + e, t) - hom.eval(x - e, t)) / (2 * h)
                assert np.all(np.abs(jac[:, f] - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))


def test_edge_homotopy_dt_matches_finite_differences() -> None:
    h = 1e-7
    problem = ProblemInput.generate(2, 2, 1, 41)
    dest = LocalizationPattern(2, 2, 1, (4, 6))
    k = degrees_of_freedom(dest)
    hom = make_edge_homotopy(problem, dest, k)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    for t in (0.2, 0.5, 0.9):
        fd = (hom.eval(x, t + h) - hom.eval(x, t - h)) / (2 * h)
        got = hom.dt(x, t)
        assert np.all(np.abs(got - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))
        assert np.all(got[1:] == 0)  # pinned equations carry no t


def tree_patterns(m: int, p: int, q: int) -> list[LocalizationPattern]:
    """Every pattern below the target, the trivial one excluded, by depth."""
    level, out = [trivial_pattern(m, p, q)], []
    while level:
        level = sorted({c for pat in level for c in increments(pat)}, key=str)
        out += level
    return out


@pytest.mark.parametrize("m,p,q,seed", [(2, 2, 1, 7), (2, 3, 0, 3), (3, 3, 0, 3)])
def test_fused_edge_kernels_match_condition_oracles(m, p, q, seed) -> None:
    problem = ProblemInput.generate(m, p, q, seed)
    rng = np.random.default_rng(seed)
    for dest in tree_patterns(m, p, q):
        k = degrees_of_freedom(dest)
        hom = make_edge_homotopy(problem, dest, k)
        x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        t = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
        h, jac = hom.eval_jacobian(x, t)
        jac_dt, h_t = hom.jacobian_dt(x, t)
        full = full_coefficients(dest, x)
        s_t = (1 - t) + problem.points[k - 1] * t
        plane_t = (1 - t) * special_plane(dest) + t * problem.planes[k - 1]
        oracle = [(plane_t, s_t, t)] + [
            (problem.planes[i], problem.points[i], 1.0) for i in range(k - 1)
        ]
        for row, (plane, s_i, t_i) in enumerate(oracle):
            want = oracle_det(dest, full, plane, s_i, t_i)
            assert abs(h[row] - want) <= 1e-12 * max(1.0, abs(want))
            grad = oracle_gradient(dest, full, plane, s_i, t_i)
            assert np.allclose(jac[row], grad, rtol=1e-12, atol=1e-12)
        step = 1e-6
        fd = (hom.eval(x, t + step) - hom.eval(x, t - step)) / (2 * step)
        assert np.all(np.abs(h_t - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))
        assert np.all(h_t[1:] == 0)
        # both calls share one Jacobian, and the single views agree with them
        assert np.array_equal(jac, jac_dt)
        assert np.array_equal(hom.eval(x, t), h)
        assert np.array_equal(hom.jacobian_x(x, t), jac)
        assert np.array_equal(hom.dt(x, t), h_t)
        # the arc's pair is the base pair at phi(tau), H_t scaled by dphi/dtau
        gamma = GAMMAS[0]
        arc = GammaArc(hom, gamma)
        tau = rng.uniform(0.1, 0.9)
        phi = gamma * tau / (1 + (gamma - 1) * tau)
        dphi = gamma / (1 + (gamma - 1) * tau) ** 2
        a_h, a_jac = arc.eval_jacobian(x, tau)
        base_h, base_jac = hom.eval_jacobian(x, phi)
        assert np.allclose(a_h, base_h, rtol=1e-12, atol=1e-14)
        assert np.allclose(a_jac, base_jac, rtol=1e-12, atol=1e-14)
        a_jac_dt, a_h_t = arc.jacobian_dt(x, tau)
        assert np.array_equal(a_jac_dt, a_jac)
        assert np.allclose(a_h_t, hom.jacobian_dt(x, phi)[1] * dphi, rtol=1e-12, atol=1e-14)
        fd = (arc.eval(x, tau + step) - arc.eval(x, tau - step)) / (2 * step)
        assert np.all(np.abs(a_h_t - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))


def test_one_condition_stack_per_linear_solve(monkeypatch) -> None:
    # walk the first child chain of (2,2,1) s7 down to depth 5, then count
    # how often the tracker's kernels build the k-matrix stack for one edge
    problem = ProblemInput.generate(2, 2, 1, 7)
    source, free = trivial_pattern(2, 2, 1), np.zeros(0, dtype=np.complex128)
    while degrees_of_freedom(source) < 4:
        dest = increments(source)[0]
        outcome = EdgeTask(problem, source.bottom, dest.bottom, free,
                           TrackerOptions()).run()
        assert outcome.status == "converged"
        source, free = dest, outcome.free
    dest = increments(source)[0]
    k = degrees_of_freedom(dest)
    hom = make_edge_homotopy(problem, dest, k)
    stacks, solves = [], []
    assemble, solve_linear = engine._Layout.assemble, tracker.solve_linear

    def counting_assemble(lay, coeffs, mono, planes):
        stacks.append(len(mono) == k)
        return assemble(lay, coeffs, mono, planes)

    def counting_solve(a, b):
        solves.append(1)
        return solve_linear(a, b)

    monkeypatch.setattr(engine._Layout, "assemble", counting_assemble)
    monkeypatch.setattr(tracker, "solve_linear", counting_solve)
    res = track_path(GammaArc(hom, GAMMAS[0]), embed_start(source, free, dest))
    assert res.status == "converged"
    assert len(solves) >= res.newton_iters_total + res.steps_used
    # one stack per linear solve, plus the start and end residual checks
    assert sum(stacks) == len(solves) + 2


def test_first_edge_matches_linear_closed_form() -> None:
    # the first edge of (2,2,0) is one equation, linear in one coefficient
    problem = ProblemInput.generate(2, 2, 0, 17)
    triv = trivial_pattern(2, 2, 0)
    dest = LocalizationPattern(2, 2, 0, (1, 3))
    hom = make_edge_homotopy(problem, dest, 1)
    zero = np.zeros(1, dtype=np.complex128)
    one = np.ones(1, dtype=np.complex128)
    b = hom.eval(zero, 1.0)[0]
    a = hom.eval(one, 1.0)[0] - b
    root = -b / a
    task = EdgeTask(problem, triv.bottom, dest.bottom,
                    np.zeros(0, dtype=np.complex128), TrackerOptions())
    outcome = task.run()
    assert outcome.status == "converged"
    assert abs(outcome.free[0] - root) <= 1e-8
    assert outcome.start_min_pivot > 1e-10 * outcome.start_scale


def test_edge_task_tracks_once_on_its_contour(monkeypatch) -> None:
    # a failed track is final: the worker tracks its edge exactly once, on
    # GAMMAS[contour] with the options it was given
    problem = ProblemInput.generate(2, 2, 0, 17)
    opts = TrackerOptions()
    tracked = []

    def failing_track(hom, x0, path_opts):
        tracked.append((hom.gamma, path_opts))
        return PathResult("failed", x0, 0.0, 1.0, 3, 0)

    monkeypatch.setattr(engine, "track_path", failing_track)
    for contour, gamma in enumerate(GAMMAS):
        tracked.clear()
        task = EdgeTask(problem, trivial_pattern(2, 2, 0).bottom, (1, 3),
                        np.zeros(0, dtype=np.complex128), opts, contour)
        outcome = task.run()
        assert outcome.status == "failed" and outcome.free is None
        assert outcome.arc_used == contour and outcome.steps_used == 3
        assert tracked == [(gamma, opts)]


def test_edge_task_flags_start_violation() -> None:
    problem = ProblemInput.generate(2, 2, 1, 19)
    source = LocalizationPattern(2, 2, 1, (1, 3))
    dest = LocalizationPattern(2, 2, 1, (1, 4))
    garbage = np.array([999.0 + 0.0j])
    task = EdgeTask(problem, source.bottom, dest.bottom, garbage, TrackerOptions())
    with pytest.raises(ValueError, match="start residual"):
        task.run()


# ------------------------------------------------------------ solving


def test_solve_rejects_static_schedule() -> None:
    # edge jobs fix the schedule, so solve_pieri takes no schedule at all
    assert "schedule" not in inspect.signature(solve_pieri).parameters
    problem = ProblemInput.generate(2, 2, 0, 1)
    with pytest.raises(TypeError):
        solve_pieri(problem, schedule="static")


def test_solve_static_output_feedback_counts() -> None:
    for seed in (1, 2):
        problem, result = solved(2, 2, 0, seed)
        assert len(result.solutions) == 2
        assert result.losses == []
        report = verify(result.solutions, problem)
        assert report.max_residual <= 1e-8
        assert report.min_distance > 1e-4
        assert report.duplicates == []


def test_solve_three_input_counts() -> None:
    problem, result = solved(2, 3, 0, 5)
    assert len(result.solutions) == 5
    assert verify(result.solutions, problem).max_residual <= 1e-8


def test_solve_dynamic_problem_with_start_contract() -> None:
    # one state (q=1): 8 paths, and every edge must start on a regular,
    # exactly-satisfied solution of its own homotopy at t=0
    problem, result = solved(2, 2, 1, 7)
    assert len(result.solutions) == 8
    assert result.losses == []
    for rec in result.edge_records:
        assert rec.status == "converged"
        assert rec.start_min_pivot > 1e-10 * rec.start_scale
    report = verify(result.solutions, problem)
    assert report.max_residual <= 1e-8
    assert report.min_distance > 1e-4


def test_solution_map_invariants() -> None:
    problem, result = solved(2, 2, 1, 7)
    tgt = target_pattern(2, 2, 1)
    for sol in result.solutions:
        assert sol.pattern == tgt
        assert len(sol.coefficients) == tgt.p + degrees_of_freedom(tgt)
        slots = star_slots(tgt)
        for i, (col, row) in enumerate(slots):
            if row == col + 1:
                assert sol.coefficients[i] == 1.0
        assert sol.residuals.shape == (problem.n,)
        assert sol.residuals.max() <= 1e-6


def expected_level_counts(m: int, p: int, q: int) -> dict[int, int]:
    triv = trivial_pattern(m, p, q)
    tgt = target_pattern(m, p, q)
    counts: dict[int, int] = {}
    for bottom in itertools.product(*(range(1, h + 1) for h in column_heights(m, p, q))):
        try:
            pat = LocalizationPattern(m, p, q, bottom)
        except ValueError:
            continue
        depth = degrees_of_freedom(pat)
        if depth == 0 or count_paths(pat, tgt) == 0:
            continue
        ways = count_paths(triv, pat)
        if ways:
            counts[depth] = counts.get(depth, 0) + ways
    return counts


def test_level_counts_match_poset_derivation() -> None:
    _, result = solved(2, 2, 1, 7)
    expect = expected_level_counts(2, 2, 1)
    assert result.level_counts == expect
    assert result.level_counts[num_conditions(2, 2, 1)] == pieri_root_count(2, 2, 1)
    assert sum(result.level_counts.values()) == len(result.edge_records)


def test_solutions_identical_across_worker_counts() -> None:
    texts = []
    for workers in (1, 2, 4):
        problem, result = solved(2, 2, 1, 11, workers)
        texts.append(solutions_to_json(result, problem))
    assert texts[0] == texts[1] == texts[2]
    # (2,2,1) seed 2 re-tracks two patterns on the next contour; the
    # retried rounds must not depend on the worker count either
    texts = []
    for workers in (1, 2):
        problem, result = solved(2, 2, 1, 2, workers)
        assert any(rec.contour > 0 for rec in result.edge_records)
        texts.append(solutions_to_json(result, problem))
    assert texts[0] == texts[1]


def test_induced_failures_are_accounted_not_dropped() -> None:
    # one step cannot reach t = 1, so every first-level path fails on every
    # contour; the lost subtrees must add up to the full root count
    problem = ProblemInput.generate(2, 2, 1, 3)
    opts = TrackerOptions(max_steps=1)
    result = solve_pieri(problem, options=opts)
    assert result.solutions == []
    assert sum(l.paths_lost for l in result.losses) == pieri_root_count(2, 2, 1)
    for loss in result.losses:
        assert loss.status == "failed"
        assert loss.paths_lost == count_paths(
            LocalizationPattern(2, 2, 1, loss.pattern), target_pattern(2, 2, 1)
        )
    assert {rec.contour for rec in result.edge_records} == set(range(len(GAMMAS)))


def test_node_store_is_released() -> None:
    problem = ProblemInput.generate(2, 2, 0, 2)
    source = PieriTreeSource(problem, TrackerOptions())
    run_rounds(source, workers=2)
    assert source.store_size == 0
    assert len(source.solutions) == 2


def test_unresolved_collision_becomes_loss(monkeypatch) -> None:
    # force endpoints arriving at some pattern onto the root of the first
    # one there.  Forced on contour 0 only, the pattern is re-tracked on
    # contour 1 and keeps both roots.  Forced on every contour, the pool
    # never grows past that one root: the later edge in edge-id order
    # becomes a "collision" loss while the earlier one keeps the root and
    # its subtree
    problem = ProblemInput.generate(2, 2, 0, 1)
    real_run = EdgeTask.run

    def solve_with_collisions(every_contour: bool):
        source = PieriTreeSource(problem, TrackerOptions())
        first, forced, starts = {}, [], []

        def colliding_run(task):
            starts.append((task.source_bottom, task.source_free))
            outcome = real_run(task)
            if outcome.status != "converged":
                return outcome
            dest = task.dest_bottom
            if dest not in first:
                first[dest] = outcome.free
            elif not forced or (every_contour and forced == [dest]):
                forced[:] = [dest]
                outcome = replace(outcome, free=first[dest].copy())
            return outcome

        monkeypatch.setattr(EdgeTask, "run", colliding_run)
        run_rounds(source)
        assert len(forced) == 1
        lost = sum(loss.paths_lost for loss in source.losses)
        assert len(source.solutions) + lost == pieri_root_count(2, 2, 0)
        return source, forced[0], first[forced[0]], starts

    source, pattern, _, _ = solve_with_collisions(every_contour=False)
    assert source.losses == []
    assert len(source.solutions) == 2
    collided = [rec for rec in source.edge_records if rec.status == "collision"]
    assert len(collided) == 1 and collided[0].contour == 0
    assert collided[0].pattern == pattern
    retried = [rec for rec in source.edge_records if rec.contour > 0]
    assert retried and all(rec.pattern == pattern for rec in retried)
    assert all(rec.contour == 1 and rec.status == "converged" for rec in retried)

    source, pattern, root, starts = solve_with_collisions(every_contour=True)
    collided = [rec for rec in source.edge_records if rec.status == "collision"]
    assert [rec.contour for rec in collided] == list(range(len(GAMMAS)))
    edge_id = collided[0].edge_id
    assert all(rec.edge_id == edge_id and rec.pattern == pattern for rec in collided)
    dest = LocalizationPattern(2, 2, 0, pattern)
    paths = count_paths(dest, target_pattern(2, 2, 0))
    assert source.losses == [LossRecord(edge_id, pattern, "collision", paths)]
    # the earlier edge keeps the claimed root and goes on from it
    kept = [
        rec for rec in source.edge_records
        if rec.pattern == pattern and rec.status == "converged"
    ]
    assert {rec.edge_id for rec in kept} == {kept[0].edge_id}
    assert kept[0].edge_id < edge_id
    if degrees_of_freedom(dest) == problem.n:
        kept_roots = [free_coefficients(dest, s.coefficients) for s in source.solutions]
    else:
        kept_roots = [free for bottom, free in starts if bottom == pattern]
    assert kept_roots and any(np.array_equal(free, root) for free in kept_roots)


def test_every_track_runs_on_a_worker(monkeypatch) -> None:
    # the solve of (2,2,1) seed 12 must return 8 distinct laws, and the
    # master must never track a path itself
    problem = ProblemInput.generate(2, 2, 1, 12)
    inside = threading.local()
    outside = []
    real_run, real_track = EdgeTask.run, engine.track_path

    def marked_run(task):
        inside.active = True
        try:
            return real_run(task)
        finally:
            inside.active = False

    def checked_track(hom, x0, opts):
        if not getattr(inside, "active", False):
            outside.append(threading.current_thread().name)
        return real_track(hom, x0, opts)

    monkeypatch.setattr(EdgeTask, "run", marked_run)
    monkeypatch.setattr(engine, "track_path", checked_track)
    result = solve_pieri(problem)
    assert outside == []
    assert result.losses == []
    sols = result.solutions
    assert len(sols) == pieri_root_count(2, 2, 1) == 8
    for a, b in itertools.combinations(sols, 2):
        assert _coeff_distance(a.coefficients, b.coefficients) > SAME_ROOT_TOL


def test_retrack_steps_and_rungs_land_on_their_edges(monkeypatch) -> None:
    # the first track of a (2,2,1) seed 12 walk fails, so its pattern is
    # re-tracked on contour 1: every record carries exactly its worker's
    # steps and contour, and together the records account for every step
    # tracked in the walk, the failed track's included
    problem = ProblemInput.generate(2, 2, 1, 12)
    source = PieriTreeSource(problem, TrackerOptions())
    tracked = []
    outcomes = {}
    real_track, real_on_result = engine.track_path, PieriTreeSource.on_result

    def counting_track(hom, x0, opts):
        if tracked:
            res = real_track(hom, x0, opts)
        else:
            res = PathResult("failed", x0, 0.3, 1.0, 7, 0)
        tracked.append(res.steps_used)
        return res

    def recording_on_result(self, results):
        for r in results:
            outcomes[r.job_id, r.payload.arc_used] = r.payload
        return real_on_result(self, results)

    monkeypatch.setattr(engine, "track_path", counting_track)
    monkeypatch.setattr(PieriTreeSource, "on_result", recording_on_result)
    run_rounds(source)
    assert source.losses == [] and len(source.solutions) == 8
    assert any(
        rec.contour == 1 and rec.status == "converged" for rec in source.edge_records
    )
    assert len(source.edge_records) == len(outcomes) == len(tracked)
    for rec in source.edge_records:
        # a job id is its edge id on every contour
        assert rec.steps_used == outcomes[rec.edge_id, rec.contour].steps_used
    assert sum(rec.steps_used for rec in source.edge_records) == sum(tracked)


def test_lossy_pattern_retracks_on_next_contour(monkeypatch) -> None:
    # one of the four edges into a depth-5 pattern of (2,2,1) seed 5 is
    # forced to fail on contour 0: every edge into that pattern, and no
    # other edge, is tracked again on GAMMAS[1], in one retry round
    problem = ProblemInput.generate(2, 2, 1, 5)
    real_run, real_dynamic = EdgeTask.run, engine.run_dynamic
    rounds, failed, tracked = [], [], []

    def counting_dynamic(jobs, workers, event_log=None):
        rounds.append([job.payload for job in jobs])
        return real_dynamic(jobs, workers, event_log)

    def failing_run(task):
        tracked.append((task.dest_bottom, task.contour))
        outcome = real_run(task)
        if len(task.source_free) + 1 == 5 and not failed:
            failed.append(task.dest_bottom)
            return replace(outcome, status="failed", free=None)
        return outcome

    monkeypatch.setattr(engine, "run_dynamic", counting_dynamic)
    monkeypatch.setattr(EdgeTask, "run", failing_run)
    result = solve_pieri(problem)
    pattern = failed[0]
    levels = list(result.level_counts.values())
    assert [len(tasks) for tasks in rounds] == levels[:5] + [4] + levels[5:]
    retry = [(task.dest_bottom, task.contour) for task in rounds[5]]
    assert retry == [(pattern, 1)] * 4
    edges_in = [bottom for bottom, contour in tracked if contour == 0]
    retried = [bottom for bottom, contour in tracked if contour > 0]
    assert edges_in.count(pattern) == 4
    assert retried == [pattern] * 4
    assert [rec.contour for rec in result.edge_records if rec.pattern == pattern] == (
        [0] * 4 + [1] * 4
    )
    assert len(result.solutions) == pieri_root_count(2, 2, 1) == 8
    assert result.losses == []
    report = verify(result.solutions, problem)
    assert report.max_residual <= 1e-8
    assert report.min_distance > 1e-4


def test_solve_runs_one_batch_per_level(monkeypatch) -> None:
    # (2,2,1) seed 7 retries nothing: each of its 8 levels is one
    # run_dynamic batch holding exactly that level's edge jobs
    real_dynamic = engine.run_dynamic
    rounds = []

    def counting_dynamic(jobs, workers, event_log=None):
        rounds.append([job.payload for job in jobs])
        return real_dynamic(jobs, workers, event_log)

    monkeypatch.setattr(engine, "run_dynamic", counting_dynamic)
    _, result = solved(2, 2, 1, 7, workers=2)
    assert len(rounds) == num_conditions(2, 2, 1) == 8
    assert [len(tasks) for tasks in rounds] == list(result.level_counts.values())
    for depth, tasks in enumerate(rounds, start=1):
        assert {len(task.source_free) + 1 for task in tasks} == {depth}
        assert {task.contour for task in tasks} == {0}


def test_worker_error_stops_the_solve_after_its_round(monkeypatch) -> None:
    # the first depth-2 edge job of (2,2,1) seed 7 raises: the solve aborts
    # once that round is in, before any deeper edge is tracked
    problem = ProblemInput.generate(2, 2, 1, 7)
    real_run = EdgeTask.run
    depths = []

    def failing_run(task):
        depths.append(len(task.source_free) + 1)
        if depths.count(2) == 1 and depths[-1] == 2:
            raise RuntimeError("injected")
        return real_run(task)

    monkeypatch.setattr(EdgeTask, "run", failing_run)
    aborted = r"^solve aborted: edge \S+: RuntimeError: injected$"
    with pytest.raises(RuntimeError, match=aborted):
        solve_pieri(problem)
    assert 2 in depths and max(depths) == 2


def test_bad_start_stops_the_solve_after_its_round(monkeypatch) -> None:
    # the first depth-2 edge job of (2,2,1) seed 7 starts from a source
    # node that is no solution: track_path's start check raises in the
    # worker, and the solve aborts once that round is in
    problem = ProblemInput.generate(2, 2, 1, 7)
    real_run = EdgeTask.run
    depths = []

    def corrupting_run(task):
        depths.append(len(task.source_free) + 1)
        if depths.count(2) == 1 and depths[-1] == 2:
            task = replace(task, source_free=np.array([999.0 + 0.0j]))
        return real_run(task)

    monkeypatch.setattr(EdgeTask, "run", corrupting_run)
    aborted = r"^solve aborted: edge \S+: ValueError: start residual"
    with pytest.raises(RuntimeError, match=aborted):
        solve_pieri(problem)
    assert 2 in depths and max(depths) == 2


def test_pattern_pool_fills_across_contours(monkeypatch) -> None:
    # one leaf edge of (2,2,1) seed 5 is forced to fail on contour 0, and
    # another edge, whose law differs from the first one's, on contour 1.
    # Neither contour alone reaches all 8 laws; the pool of both does
    problem = ProblemInput.generate(2, 2, 1, 5)
    real_run = EdgeTask.run
    dropped = {}  # contour -> (forced edge's start, the law it would reach)

    def dropping_run(task):
        outcome = real_run(task)
        start = task.source_free.tobytes()
        if (
            len(task.source_free) + 1 == problem.n
            and outcome.status == "converged"
            and task.contour not in dropped
            and all(
                start != other and _coeff_distance(outcome.free, law) > SAME_ROOT_TOL
                for other, law in dropped.values()
            )
        ):
            dropped[task.contour] = (start, outcome.free)
            return replace(outcome, status="failed", free=None)
        return outcome

    monkeypatch.setattr(EdgeTask, "run", dropping_run)
    result = solve_pieri(problem)
    assert sorted(dropped) == [0, 1]
    leaf = [rec for rec in result.edge_records if rec.depth == problem.n]
    assert [rec.contour for rec in leaf] == [0] * 8 + [1] * 8
    assert [rec.status for rec in leaf].count("failed") == 2
    assert len(result.solutions) == pieri_root_count(2, 2, 1) == 8
    assert result.losses == []
    report = verify(result.solutions, problem)
    assert report.max_residual <= 1e-8
    assert report.min_distance > 1e-4
    # each forced edge's law came from the other contour
    for _, law in dropped.values():
        assert any(
            _coeff_distance(free_coefficients(sol.pattern, sol.coefficients), law)
            <= SAME_ROOT_TOL
            for sol in result.solutions
        )


def test_pattern_lost_on_every_contour_is_one_loss(monkeypatch) -> None:
    # the one edge into pattern (1,4) of (2,2,1) seed 5 fails on every
    # contour: its whole subtree is one loss, and the rest of the tree
    # still solves
    problem = ProblemInput.generate(2, 2, 1, 5)
    real_run = EdgeTask.run
    target = target_pattern(2, 2, 1)
    dest = (1, 4)
    assert count_paths(LocalizationPattern(2, 2, 1, dest), target) > 0

    def failing_run(task):
        outcome = real_run(task)
        if task.dest_bottom == dest:
            return replace(outcome, status="failed", free=None)
        return outcome

    monkeypatch.setattr(EdgeTask, "run", failing_run)
    result = solve_pieri(problem)
    paths = count_paths(LocalizationPattern(2, 2, 1, dest), target)
    assert [(l.pattern, l.status, l.paths_lost) for l in result.losses] == [
        (dest, "failed", paths)
    ]
    assert [rec.contour for rec in result.edge_records if rec.pattern == dest] == (
        list(range(len(GAMMAS)))
    )
    assert len(result.solutions) + result.lost_paths == pieri_root_count(2, 2, 1)
    assert len(result.solutions) == 8 - paths
    report = verify(result.solutions, problem)
    assert report.max_residual <= 1e-8
    assert report.duplicates == []


def test_loss_falls_on_an_edge_that_lost(monkeypatch) -> None:
    # on every contour, the edge into pattern (3,6) of (2,2,1) seed 5 that
    # reaches the first root found there fails, so the pattern ends one
    # root short.  On the last contour edge 1.0.1.0.1.1 fails and every
    # other edge converges: the loss is that edge's, with its own status
    problem = ProblemInput.generate(2, 2, 1, 5)
    real_run = EdgeTask.run
    dest = (3, 6)
    first = []

    def failing_run(task):
        outcome = real_run(task)
        if task.dest_bottom != dest or outcome.status != "converged":
            return outcome
        first[:] = first or [outcome.free]
        if _coeff_distance(outcome.free, first[0]) <= SAME_ROOT_TOL:
            return replace(outcome, status="failed", free=None)
        return outcome

    monkeypatch.setattr(EdgeTask, "run", failing_run)
    result = solve_pieri(problem)
    paths = count_paths(LocalizationPattern(2, 2, 1, dest), target_pattern(2, 2, 1))
    assert result.losses == [LossRecord("1.0.1.0.1.1", dest, "failed", paths)]
    last = {
        rec.edge_id: rec.status for rec in result.edge_records
        if rec.pattern == dest and rec.contour == len(GAMMAS) - 1
    }
    assert last.pop("1.0.1.0.1.1") == "failed"
    assert last and set(last.values()) == {"converged"}
    assert len(result.solutions) + result.lost_paths == pieri_root_count(2, 2, 1)


def test_top_rung_2_2_2_finds_all_laws() -> None:
    # (2,2,2) seed 1, the north-star ladder's top rung, once lost a law to
    # an endpoint collision under every condition order it tried
    problem = ProblemInput.generate(2, 2, 2, 1)
    result = solve_pieri(problem)
    assert result.losses == []
    assert len(result.solutions) == pieri_root_count(2, 2, 2) == 32
    report = verify(result.solutions, problem)
    assert report.duplicates == []
    assert report.max_residual <= 1e-8
    assert report.min_distance > 1e-4


def test_collide_seeds_solve_in_one_walk_on_one_contour(monkeypatch) -> None:
    # (2,2,1) seeds 5, 15 and 12 lose paths to endpoint collisions when the
    # edges into one pattern take different contours; on the one shared
    # contour each solves without a collision or a retry
    gammas = set()
    real_track = engine.track_path

    def recording_track(hom, x0, opts):
        gammas.add(getattr(hom, "gamma", None))
        return real_track(hom, x0, opts)

    monkeypatch.setattr(engine, "track_path", recording_track)
    for seed in (5, 15, 12):
        result = solve_pieri(ProblemInput.generate(2, 2, 1, seed))
        assert result.losses == []
        assert all(rec.status != "collision" for rec in result.edge_records)
    assert gammas == {GAMMAS[0]}


# ---------------------------------------------------- verify and JSON


def test_verify_flags_perturbed_solution() -> None:
    problem, result = solved(2, 2, 0, 1)
    sol = result.solutions[0]
    bumped = sol.coefficients.copy()
    bumped[-1] += 1e-2
    fake = SolutionMap(sol.pattern, bumped, sol.residuals)
    report = verify([fake], problem)
    assert report.max_residual > 1e-4


def test_verify_flags_duplicates() -> None:
    problem, result = solved(2, 2, 0, 1)
    sol = result.solutions[0]
    copy = SolutionMap(sol.pattern, sol.coefficients.copy(), sol.residuals.copy())
    report = verify([sol, copy], problem)
    assert report.duplicates == [(0, 1)]
    assert report.min_distance <= 1e-12


def test_verify_rejects_wrong_coefficient_count() -> None:
    problem, result = solved(2, 2, 0, 1)
    sol = result.solutions[0]
    for coeffs in (sol.coefficients[:-1], np.ones(3, dtype=np.complex128)):
        short = SolutionMap(sol.pattern, coeffs, sol.residuals)
        with pytest.raises(ValueError, match="stars"):
            verify([short], problem)


def test_solution_from_free_residuals_are_raw_determinants() -> None:
    problem, result = solved(2, 2, 0, 1)
    sol = result.solutions[0]
    free = free_coefficients(sol.pattern, sol.coefficients)
    rebuilt = solution_from_free(problem, sol.pattern, free)
    for i in range(problem.n):
        want = abs(oracle_det(sol.pattern, sol.coefficients, problem.planes[i], problem.points[i], 1.0))
        assert np.isclose(rebuilt.residuals[i], want)


def test_solutions_json_shape() -> None:
    problem, result = solved(2, 2, 0, 1)
    doc = json.loads(solutions_to_json(result, problem))
    assert doc["m"] == 2 and doc["p"] == 2 and doc["q"] == 0
    assert doc["seed"] == 1
    assert doc["root_count"] == 2
    assert doc["count"] == 2
    assert doc["lost_paths"] == 0
    assert doc["losses"] == []
    assert len(doc["solutions"]) == 2
    first = doc["solutions"][0]
    assert first["pattern"] == [3, 4]
    assert len(first["coefficients"]) == 6
    assert all(len(pair) == 2 for pair in first["coefficients"])
    assert len(first["residuals"]) == 4
    # canonical order: solutions sorted by rounded coefficient key
    keys = [
        tuple(round(v, 10) for pair in s["coefficients"] for v in pair)
        for s in doc["solutions"]
    ]
    assert keys == sorted(keys)
