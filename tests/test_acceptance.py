"""End-to-end acceptance checks, one criterion per test.

Each test prints exactly one "criterion N: PASS/FAIL" line so a log scan
shows the full scorecard.  Tolerances and time budgets are stated inline;
solves are cached so later criteria can reuse earlier runs.
"""
from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

import numpy as np

from pierihom import engine
from pierihom.engine import (
    LocalizationPattern,
    ProblemInput,
    free_slots,
    solutions_to_json,
    solve_pieri,
    star_slots,
    verify,
)
from pierihom.linalg import det
from pierihom.patterns import (
    dmp_count,
    pieri_root_count,
    pieri_tree,
    target_pattern,
    tree_leaves,
)
from pierihom.polysys import Homotopy, PolySystem, Term, total_degree_start
from pierihom.scheduler import JobMessage, run_dynamic, run_static
from pierihom.tracker import track_all


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@functools.lru_cache(maxsize=None)
def solved(m: int, p: int, q: int, seed: int, workers: int = 1):
    problem = ProblemInput.generate(m, p, q, seed)
    begin = time.perf_counter()
    result = solve_pieri(problem, workers=workers)
    elapsed = time.perf_counter() - begin
    return problem, result, elapsed


def test_criterion_1_root_count_table() -> None:
    # Exact integer table; the full set must evaluate in under a second.
    table = {
        (2, 2): [2, 8, 32, 128],
        (2, 3): [5, 55, 610, 6765],
        (3, 3): [42, 2730, 174762],
        (3, 4): [462, 135660],
        (4, 4): [24024],
    }
    begin = time.perf_counter()
    mismatches = [
        (m, p, q, pieri_root_count(m, p, q), want)
        for (m, p), counts in sorted(table.items())
        for q, want in enumerate(counts)
        if pieri_root_count(m, p, q) != want
    ]
    elapsed = time.perf_counter() - begin
    ok = not mismatches and elapsed < 1.0
    report(1, ok, f"14 table entries exact, {elapsed:.3f}s; mismatches={mismatches}")


def test_criterion_2_closed_form_agreement() -> None:
    bad = [
        (m, p, dmp_count(m, p), pieri_root_count(m, p, 0))
        for m in range(1, 6)
        for p in range(1, 6)
        if dmp_count(m, p) != pieri_root_count(m, p, 0)
    ]
    report(2, not bad, f"dmp_count == pieri_root_count(q=0) on 1..5 x 1..5; bad={bad}")


def test_criterion_3_tree_shape() -> None:
    target = target_pattern(2, 2, 1)
    leaves = tree_leaves(pieri_tree(2, 2, 1))
    ok = (
        target.bottom == (4, 7)
        and len(leaves) == 8
        and all(leaf.pattern.bottom == (4, 7) and leaf.depth == 8 for leaf in leaves)
    )
    report(3, ok, f"target {list(target.bottom)}, {len(leaves)} leaves at depth 8")


def test_criterion_4_end_to_end_solves() -> None:
    # Three seeds per size; per-seed wall budgets; residuals are scale-free.
    plan = [
        (2, 2, 0, (1, 2, 3), 5.0),
        (2, 2, 1, (5, 7, 11), 30.0),
        (2, 3, 0, (3, 5, 9), 30.0),
        (3, 3, 0, (1, 2, 3), 600.0),
    ]
    failures = []
    runs = 0
    for m, p, q, seeds, budget in plan:
        expect = pieri_root_count(m, p, q)
        for seed in seeds:
            runs += 1
            problem, result, elapsed = solved(m, p, q, seed)
            check = verify(result.solutions, problem)
            label = f"({m},{p},{q}) seed {seed}"
            if len(result.solutions) != expect or result.lost_paths:
                failures.append(f"{label}: {len(result.solutions)}/{expect} found, "
                                f"{result.lost_paths} lost")
            if elapsed >= budget:
                failures.append(f"{label}: {elapsed:.1f}s over {budget:.0f}s budget")
            if check.max_residual > 1e-8:
                failures.append(f"{label}: residual {check.max_residual:.2e}")
            if check.min_distance is not None and check.min_distance <= 1e-4:
                failures.append(f"{label}: separation {check.min_distance:.2e}")
    report(4, not failures, f"{runs} solves, counts exact, residuals <= 1e-8, "
           f"separation > 1e-4; failures={failures}")


def test_criterion_5a_schedule_invariance() -> None:
    files = []
    for workers in (1, 2, 4):
        problem, result, _ = solved(2, 2, 1, 7, workers)
        files.append(solutions_to_json(result, problem))
    solve_invariant = files[0] == files[1] == files[2]

    # Independent path jobs run under both schedules with identical output.
    rng = np.random.default_rng(99)
    system = dense_quadric_system(rng)
    start, starts = total_degree_start(system, rng)
    hom = Homotopy(target=system, start=start,
                   gamma=complex(np.exp(2j * np.pi * rng.uniform())))
    endpoint_sets = []
    for schedule, workers in itertools.product(("static", "dynamic"), (1, 2, 4)):
        results = track_all(hom, starts, schedule=schedule, workers=workers)
        endpoint_sets.append(tuple(tuple(r.endpoint.tolist()) for r in results))
    track_invariant = len(set(endpoint_sets)) == 1

    ok = solve_invariant and track_invariant
    report(5, ok, "5a: solve files identical for workers 1/2/4, track runs "
           f"identical across both schedules x 1/2/4 workers={track_invariant}")


@dataclass(frozen=True)
class SleepJob:
    """Synthetic job with a known duration."""

    duration: float

    def run(self) -> float:
        time.sleep(self.duration)
        return self.duration


def schedule_walls(durations: list[float], workers: int) -> dict:
    """Job-span wall time and per-worker busy time under both schedules."""
    jobs = [JobMessage(i, SleepJob(d)) for i, d in enumerate(durations)]
    runs = {"static": run_static(jobs, workers),
            "dynamic": run_dynamic(jobs, workers)}
    out = {}
    for name, results in runs.items():
        busy = [0.0] * workers
        for r in results:
            busy[r.worker_id] += r.duration
        wall = max(r.finished for r in results) - min(r.started for r in results)
        out[name] = {"wall": wall, "busy": busy}
    return out


def test_criterion_5b_bench_properties() -> None:
    # 16 jobs on 4 workers; heavytail's job 1 is 10x the rest, so round-robin
    # stacks it with three ordinary jobs on one worker
    heavy = schedule_walls([0.02 * (10.0 if i == 1 else 1.0) for i in range(16)], 4)
    uniform = schedule_walls([0.05] * 16, 4)

    def spread(rep: dict) -> float:
        return max(rep["busy"]) / min(rep["busy"])

    heavy_wall_ok = heavy["dynamic"]["wall"] <= heavy["static"]["wall"]
    heavy_spread_ok = spread(heavy["dynamic"]) < spread(heavy["static"])
    walls = sorted([uniform["static"]["wall"], uniform["dynamic"]["wall"]])
    uniform_ok = walls[1] / walls[0] <= 1.1
    ok = heavy_wall_ok and heavy_spread_ok and uniform_ok
    report(5, ok, "5b: heavytail dynamic wall "
           f"{heavy['dynamic']['wall']:.3f}s <= static {heavy['static']['wall']:.3f}s, "
           f"spread {spread(heavy['dynamic']):.2f} < {spread(heavy['static']):.2f}, "
           f"uniform walls within 10% (ratio {walls[1] / walls[0]:.3f})")


def laplace_det(a: np.ndarray) -> complex:
    if a.shape[0] == 1:
        return complex(a[0, 0])
    total = 0j
    for j in range(a.shape[1]):
        minor = np.delete(a[1:], j, axis=1)
        total += (-1) ** j * complex(a[0, j]) * laplace_det(minor)
    return total


def naive_condition_det(pattern: LocalizationPattern, coeffs, plane, s, t) -> complex:
    """det([X(s,t) | plane]), X built entry by entry from the star slots."""
    mp = pattern.m + pattern.p
    x = np.zeros((mp, pattern.p), dtype=np.complex128)
    for c, (j, row) in zip(coeffs, star_slots(pattern)):
        k, kmax = (row - 1) // mp, (pattern.bottom[j] - 1) // mp
        x[(row - 1) % mp, j] += c * s**k * t ** (kmax - k)
    return complex(np.linalg.det(np.concatenate([x, plane], axis=1)))


def test_criterion_6_numerical_kernels() -> None:
    failures = []
    # Determinant against first-row cofactor expansion, sizes 1..6.
    for trial in range(20):
        rng = np.random.default_rng(600 + trial)
        n = 1 + trial % 6
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = laplace_det(a)
        err = abs(det(a) - want) / max(1.0, abs(want))
        if err > 1e-12:
            failures.append(f"det {n}x{n} trial {trial}: rel err {err:.2e}")

    # Polynomial-system Jacobian against central finite differences.
    h = 1e-6
    for trial in range(20):
        rng = np.random.default_rng(700 + trial)
        system = dense_quadric_system(rng)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        jac = system.jacobian(x)
        fd = np.stack(
            [(system.evaluate(x + dx) - system.evaluate(x - dx)) / (2 * h)
             for dx in (np.array([h, 0j]), np.array([0j, h]))],
            axis=1,
        )
        err = float(np.linalg.norm(jac - fd) / max(1.0, np.linalg.norm(fd)))
        if err > 1e-6:
            failures.append(f"polysys jacobian trial {trial}: rel err {err:.2e}")

    # Intersection-condition gradient against central finite differences.
    cases = [(2, 2, 1, (4, 7)), (2, 2, 1, (3, 5)), (2, 3, 1, (4, 5, 8))]
    for trial in range(20):
        rng = np.random.default_rng(800 + trial)
        m, p, q, bottom = cases[trial % len(cases)]
        pattern = LocalizationPattern(m, p, q, bottom)
        slots = star_slots(pattern)
        coeffs = rng.standard_normal(len(slots)) + 1j * rng.standard_normal(len(slots))
        for i, (col, row) in enumerate(slots):
            if row == col + 1:
                coeffs[i] = 1.0
        plane = rng.standard_normal((m + p, m)) + 1j * rng.standard_normal((m + p, m))
        s = complex(rng.standard_normal(), rng.standard_normal())
        t = float(rng.uniform(0.1, 1.0))
        lay = engine._layout(pattern)
        mono = lay.monomials(s, t)
        grad = lay.gradient(lay.assemble(coeffs, mono, plane), mono)[0]
        for fi, slot in enumerate(free_slots(pattern)):
            i = slots.index(slot)
            up, dn = coeffs.copy(), coeffs.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                naive_condition_det(pattern, up, plane, s, t)
                - naive_condition_det(pattern, dn, plane, s, t)
            ) / (2 * h)
            err = abs(grad[fi] - fd) / max(1.0, abs(fd))
            if err > 1e-6:
                failures.append(f"gradient trial {trial} slot {slot}: {err:.2e}")
    report(6, not failures, "det vs Laplace 1e-12, both Jacobians vs central "
           f"differences 1e-6, 20 seeded instances each; failures={failures}")


def dense_quadric_system(rng: np.random.Generator) -> PolySystem:
    """Two dense quadrics in two variables with complex Gaussian coefficients."""
    monomials = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    polys = []
    for _ in range(2):
        polys.append([
            Term(complex(rng.standard_normal(), rng.standard_normal()), e)
            for e in monomials
        ])
    return PolySystem(2, polys)


def test_criterion_7_generic_tracker() -> None:
    failures = []

    # Closed-form check: x^2 = 4, y^2 = 9.
    system = PolySystem(2, [
        [Term(1 + 0j, (2, 0)), Term(-4 + 0j, (0, 0))],
        [Term(1 + 0j, (0, 2)), Term(-9 + 0j, (0, 0))],
    ])
    rng = np.random.default_rng(70)
    start, starts = total_degree_start(system, rng)
    hom = Homotopy(target=system, start=start,
                   gamma=complex(np.exp(2j * np.pi * rng.uniform())))
    results = track_all(hom, starts)
    converged = [r for r in results if r.status == "converged"]
    if len(converged) != 4:
        failures.append(f"closed-form: {len(converged)} converged of 4")
    hits = set()
    for r in converged:
        x, y = r.endpoint
        match = None
        for sx, sy in itertools.product((2, -2), (3, -3)):
            if abs(x - sx) <= 1e-8 and abs(y - sy) <= 1e-8:
                match = (sx, sy)
        if match is None:
            failures.append(f"closed-form endpoint off target: {r.endpoint}")
        else:
            hits.add(match)
    if len(hits) != 4:
        failures.append(f"closed-form roots hit: {sorted(hits)}")

    # Seeded dense quadric pair: Bezout count is 4, all paths must land.
    rng = np.random.default_rng(2026)
    system = dense_quadric_system(rng)
    start, starts = total_degree_start(system, rng)
    hom = Homotopy(target=system, start=start,
                   gamma=complex(np.exp(2j * np.pi * rng.uniform())))
    results = track_all(hom, starts)
    converged = [r for r in results if r.status == "converged"]
    if len(converged) != 4:
        failures.append(f"random quadric: {len(converged)} converged of 4")
    big = [r.residual for r in converged if r.residual > 1e-8]
    if big:
        failures.append(f"random quadric residuals over 1e-8: {big}")
    report(7, not failures, "4 converged endpoints at (+-2, +-3) to 1e-8 and 4 "
           f"converged quadric roots with residuals <= 1e-8; failures={failures}")


def test_criterion_8_start_solution_contract() -> None:
    _, result, _ = solved(2, 2, 1, 7)
    records = result.edge_records
    jobs = sum(result.level_counts.values())
    failures = []
    if not records or len(records) != jobs:
        failures.append(f"{len(records)} edge records for {jobs} jobs")
    # a start residual over residual_tol would have aborted the solve:
    # track_path checks it on every edge
    for rec in records:
        if rec.start_min_pivot <= 1e-10 * rec.start_scale:
            failures.append(f"edge {rec.edge_id}: start pivot "
                            f"{rec.start_min_pivot:.2e} vs scale {rec.start_scale:.2e}")
    report(8, not failures, f"all {len(records)} edges: start Jacobian min "
           f"pivot > 1e-10 x scale; failures={failures}")
