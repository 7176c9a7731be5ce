"""Tests for the predictor-corrector path tracker.

The main oracle is a homotopy with a closed-form path: with gamma = 1,
h(x,t) = (1-t)(x^2-1) + t(x^2-4) = x^2 - (1+3t), so the path starting at
x=1 is x(t) = sqrt(1+3t) and must end at exactly 2.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np
import pytest

from pierihom import tracker
from pierihom.engine import GAMMAS
from pierihom.polysys import Homotopy, PolySystem, Term, total_degree_start
from pierihom.tracker import (
    GammaArc,
    PathResult,
    TrackerOptions,
    track_all,
    track_path,
    track_paths,
)


def x_squared_minus(c: float) -> PolySystem:
    return PolySystem(1, [[Term(1.0, (2,)), Term(-c, (0,))]])


def closed_form_homotopy() -> Homotopy:
    return Homotopy(target=x_squared_minus(4.0), start=x_squared_minus(1.0), gamma=1.0)


def column(t) -> np.ndarray:
    """t as a trailing axis of length 1, for one point or a stack of them."""
    return np.asarray(t)[..., None]


# The 1-variable evaluators below take one point (1,) with one t, or a
# stack (k, 1) with one t per point (k,), so both tracking loops run them.


@dataclass
class BlowupEvaluator:
    """h(x, t) = (1-t)^4 * x - 1: the unique path is x(t) = (1-t)^-4.

    x crosses 1e8 near t = 0.99, long before the step size can underflow,
    so tracking must end with status 'diverged'.
    """

    nvars: int = 1

    def eval(self, x, t):
        return ((1.0 - column(t)) ** 4 * x - 1.0).astype(complex)

    def jacobian_x(self, x, t):
        return ((1.0 - column(t)) ** 4)[..., None].astype(complex)

    def dt(self, x, t):
        return (-4.0 * (1.0 - column(t)) ** 3 * x).astype(complex)

    def eval_jacobian(self, x, t):
        return self.eval(x, t), self.jacobian_x(x, t)

    def jacobian_dt(self, x, t):
        return self.jacobian_x(x, t), self.dt(x, t)


@dataclass
class WallEvaluator:
    """Trivially solvable for t < 0.5, unsolvable (constant 1) afterwards.

    Forces corrector failures past t = 0.5 so the step size underflows and
    the tracker reports 'failed' without reaching t = 1.
    """

    nvars: int = 1

    def eval(self, x, t):
        return np.where(column(t) < 0.5, x - 1.0, 1.0).astype(complex)

    def jacobian_x(self, x, t):
        return np.where(column(t) < 0.5, 1.0, 0.0)[..., None].astype(complex)

    def dt(self, x, t):
        return np.zeros_like(x, dtype=complex)

    def eval_jacobian(self, x, t):
        return self.eval(x, t), self.jacobian_x(x, t)

    def jacobian_dt(self, x, t):
        return self.jacobian_x(x, t), self.dt(x, t)


@dataclass
class SqrtEvaluator:
    """h(x, t) = x^2 - (1 + 3t) for complex t: x(t) = sqrt(1 + 3t) from x = 1.

    The only branch point is t = -1/3, off every arc GammaArc accepts.
    """

    nvars: int = 1

    def eval(self, x, t):
        return (x ** 2 - (1.0 + 3.0 * column(t))).astype(complex)

    def jacobian_x(self, x, t):
        return (2.0 * x)[..., None].astype(complex)

    def dt(self, x, t):
        return np.full_like(x, -3.0, dtype=complex)

    def eval_jacobian(self, x, t):
        return self.eval(x, t), self.jacobian_x(x, t)

    def jacobian_dt(self, x, t):
        return self.jacobian_x(x, t), self.dt(x, t)


@dataclass
class OverflowEvaluator:
    """Newton's update from x = 1e308 is +1e308, so x + dx overflows to inf."""

    nvars: int = 1

    def eval_jacobian(self, x, t):
        return np.array([-1e308], dtype=complex), np.array([[1.0]], dtype=complex)


def test_options_defaults_frozen() -> None:
    assert tracker.H_INIT == pytest.approx(0.05)
    assert tracker.H_MIN == pytest.approx(1e-8)
    assert tracker.H_MAX == pytest.approx(0.1)
    assert tracker.CORRECTOR_TOL == pytest.approx(1e-10)
    assert tracker.MAX_CORRECTOR_ITERS == 6
    assert tracker.DIVERGENCE_NORM == pytest.approx(1e8)
    assert [f.name for f in fields(TrackerOptions)] == ["max_steps", "residual_tol"]
    opts = TrackerOptions()
    assert opts.max_steps == 10000
    assert opts.residual_tol == pytest.approx(1e-8)


def test_options_validation() -> None:
    with pytest.raises(ValueError):
        TrackerOptions(max_steps=0)
    # nan fails every endpoint check and inf passes every start check
    for tol in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrackerOptions(residual_tol=tol)


def test_closed_form_path_both_branches() -> None:
    h = closed_form_homotopy()
    for x0, want in ((1.0, 2.0), (-1.0, -2.0)):
        res = track_path(h, [x0])
        assert res.status == "converged"
        assert res.t_reached == 1.0
        assert abs(res.endpoint[0] - want) <= 1e-8
        assert res.residual <= 1e-8
        assert res.steps_used >= 10  # H_MAX = 0.1 forces at least 10 steps
        assert res.newton_iters_total >= res.steps_used


def test_stationary_homotopy_keeps_start_point() -> None:
    f = x_squared_minus(1.0)
    h = Homotopy(target=f, start=f, gamma=1.0)
    res = track_path(h, [1.0])
    assert res.status == "converged"
    assert abs(res.endpoint[0] - 1.0) <= 1e-10


def test_start_residual_precondition() -> None:
    h = closed_form_homotopy()
    # not a start solution; a non-finite start has a NaN or inf residual
    for start in (1.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="start residual"), np.errstate(invalid="ignore"):
            track_path(h, [start])


def test_divergent_path_reports_diverged() -> None:
    res = track_path(BlowupEvaluator(), [1.0])
    assert res.status == "diverged"
    assert np.linalg.norm(res.endpoint) >= 1e8
    assert res.t_reached < 1.0


def test_unsolvable_region_underflows_to_failed() -> None:
    res = track_path(WallEvaluator(), [1.0])
    assert res.status == "failed"
    assert 0.4 <= res.t_reached < 0.6


def test_max_steps_exhaustion_fails() -> None:
    h = closed_form_homotopy()
    res = track_path(h, [1.0], TrackerOptions(max_steps=3))
    assert res.status == "failed"
    assert res.t_reached < 1.0
    assert res.steps_used == 3


def test_track_path_is_deterministic() -> None:
    h = closed_form_homotopy()
    a = track_path(h, [1.0])
    b = track_path(h, [1.0])
    assert np.array_equal(a.endpoint, b.endpoint)  # bitwise
    assert a.steps_used == b.steps_used
    assert a.newton_iters_total == b.newton_iters_total


def test_newton_keeps_last_finite_iterate_on_overflow() -> None:
    with np.errstate(over="ignore"):
        x, iters, ok = tracker._newton(OverflowEvaluator(), np.array([1e308 + 0j]), 0.5)
    assert not ok and iters == 1
    assert np.all(np.isfinite(x)) and x[0] == 1e308


def test_polish_is_one_newton_call_at_t_1(monkeypatch) -> None:
    calls: list[float] = []
    iters: list[int] = []
    newton = tracker._newton

    def spy(h, x, t):
        out = newton(h, x, t)
        calls.append(t)
        iters.append(out[1])
        return out

    monkeypatch.setattr(tracker, "_newton", spy)
    res = track_path(closed_form_homotopy(), [1.0])
    assert res.status == "converged"
    # one corrector call per step, the last step on t = 1, then the polish
    assert len(calls) == res.steps_used + 1
    assert calls[-2:] == [1.0, 1.0]
    assert sum(iters) == res.newton_iters_total
    # a path that stops short of t = 1 gets no polish
    calls.clear()
    res = track_path(closed_form_homotopy(), [1.0], TrackerOptions(max_steps=3))
    assert res.status == "failed" and len(calls) == 3


def test_track_all_empty() -> None:
    assert track_all(closed_form_homotopy(), []) == []


def quadric_system() -> PolySystem:
    # {x^2 - 4, y^2 - 9}
    return PolySystem(
        2,
        [
            [Term(1.0, (2, 0)), Term(-4.0, (0, 0))],
            [Term(1.0, (0, 2)), Term(-9.0, (0, 0))],
        ],
    )


def test_track_all_total_degree_quadric_endpoints() -> None:
    rng = np.random.default_rng(2026)
    f = quadric_system()
    g, starts = total_degree_start(f, rng)
    h = Homotopy(target=f, start=g, gamma=np.exp(2j * np.pi * rng.uniform()))
    results = track_all(h, starts, schedule="static", workers=2)
    assert len(results) == 4
    assert all(r.status == "converged" for r in results)
    expected = [(2, 3), (2, -3), (-2, 3), (-2, -3)]
    for ex, ey in expected:
        hits = [
            r
            for r in results
            if abs(r.endpoint[0] - ex) <= 1e-8 and abs(r.endpoint[1] - ey) <= 1e-8
        ]
        assert len(hits) == 1, f"endpoint ({ex},{ey}) not found exactly once"


def test_track_all_random_dense_quadric_converges() -> None:
    rng = np.random.default_rng(515)
    monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    polys = []
    for _ in range(2):
        polys.append(
            [
                Term(complex(rng.standard_normal(), rng.standard_normal()), e)
                for e in monomials
            ]
        )
    f = PolySystem(2, polys)
    g, starts = total_degree_start(f, rng)
    h = Homotopy(target=f, start=g, gamma=np.exp(2j * np.pi * rng.uniform()))
    results = track_all(h, starts)
    assert len(results) == 4
    assert all(r.status == "converged" for r in results)
    for r in results:
        assert float(np.linalg.norm(f.evaluate(r.endpoint))) <= 1e-8
    # endpoints pairwise distinct
    for i in range(4):
        for j in range(i + 1, 4):
            d = np.linalg.norm(results[i].endpoint - results[j].endpoint)
            assert d > 1e-6


def dense_cubic_homotopy(seed: int) -> tuple[Homotopy, list[np.ndarray]]:
    """Every monomial of degree <= 3 in 3 variables, 20 per polynomial."""
    rng = np.random.default_rng(seed)
    monomials = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]
    assert len(monomials) == 20
    f = PolySystem(3, [
        [Term(complex(rng.standard_normal(), rng.standard_normal()), e)
         for e in monomials]
        for _ in range(3)
    ])
    g, starts = total_degree_start(f, rng)
    h = Homotopy(target=f, start=g, gamma=np.exp(2j * np.pi * rng.uniform()))
    return h, starts


def test_track_all_dense_cubic_finds_27_distinct_roots() -> None:
    h, starts = dense_cubic_homotopy(2)
    f = h.target
    results = track_all(h, starts)
    assert len(results) == 27
    assert all(r.status == "converged" for r in results)
    for r in results:
        assert float(np.linalg.norm(f.evaluate(r.endpoint))) <= 1e-8
    for i in range(27):
        for j in range(i + 1, 27):
            d = np.linalg.norm(results[i].endpoint - results[j].endpoint)
            assert d > 1e-4


def assert_same_result(a: PathResult, b: PathResult) -> None:
    """Bitwise equality of two path results."""
    assert a.status == b.status
    assert np.array_equal(a.endpoint, b.endpoint)
    assert a.t_reached == b.t_reached and a.residual == b.residual
    assert a.steps_used == b.steps_used
    assert a.newton_iters_total == b.newton_iters_total


def test_track_paths_bitwise_invariant_across_batch_splits() -> None:
    # seed 1 has one path that fails; it must not disturb the other 26
    for seed in (1, 2):
        h, starts = dense_cubic_homotopy(seed)
        whole = track_paths(h, starts)
        assert len(whole) == 27
        statuses = [r.status for r in whole]
        assert statuses.count("converged") == (26 if seed == 1 else 27)
        for k, start in enumerate(starts):
            assert_same_result(whole[k], track_paths(h, [start])[0])
        for w in range(4):
            part = track_paths(h, starts[w::4])
            for a, b in zip(whole[w::4], part):
                assert_same_result(a, b)
        # track_all's batches are these splits, under either schedule
        for schedule in ("static", "dynamic"):
            for workers in (1, 2, 4):
                got = track_all(h, starts, schedule=schedule, workers=workers)
                for a, b in zip(whole, got, strict=True):
                    assert_same_result(a, b)


def test_track_paths_singular_root_and_underflow_leave_others_alone() -> None:
    # x^2 (x - 2): two of the three paths head for the double root 0,
    # where the corrector slows down until the step falls below H_MIN
    f = PolySystem(1, [[Term(1.0, (3,)), Term(-2.0, (2,))]])
    rng = np.random.default_rng(0)
    g, starts = total_degree_start(f, rng)
    h = Homotopy(target=f, start=g, gamma=np.exp(2j * np.pi * rng.uniform()))
    batch = track_paths(h, starts)
    assert sorted(r.status for r in batch) == ["converged", "failed", "failed"]
    for r in batch:
        if r.status == "converged":
            assert abs(r.endpoint[0] - 2.0) <= 1e-8
        else:  # stopped just short of t = 1, near the double root
            assert 1.0 - 1e-6 < r.t_reached < 1.0
            assert abs(r.endpoint[0]) < 1e-2
    for r, start in zip(batch, starts):
        assert_same_result(r, track_paths(h, [start])[0])


def test_track_paths_statuses_match_track_path() -> None:
    # converged, failed (seed 1), diverged, and failed at H_MIN on a wall
    cases = [dense_cubic_homotopy(1), (closed_form_homotopy(), [[1.0], [-1.0]]),
             (BlowupEvaluator(), [[1.0]]), (WallEvaluator(), [[1.0], [1.0]])]
    seen = set()
    for h, starts in cases:
        for r, start in zip(track_paths(h, starts), starts):
            alone = track_path(h, start)
            assert r.status == alone.status
            seen.add(r.status)
    assert seen == {"converged", "diverged", "failed"}


def test_track_paths_max_steps_and_start_check() -> None:
    h = closed_form_homotopy()
    res = track_paths(h, [[1.0], [-1.0]], TrackerOptions(max_steps=3))
    assert [r.status for r in res] == ["failed", "failed"]
    assert [r.steps_used for r in res] == [3, 3]
    assert track_paths(h, []) == []
    res = track_paths(h, [[1.0]])[0]
    assert isinstance(res, PathResult) and res.endpoint.dtype == np.complex128
    assert isinstance(res.residual, float) and res.t_reached == 1.0
    # one bad start stops the whole call, naming the path
    with pytest.raises(ValueError, match="start residual .* of path 1"):
        track_paths(h, [[1.0], [1.5]])


def test_track_all_order_and_worker_invariance() -> None:
    rng = np.random.default_rng(2026)
    f = quadric_system()
    g, starts = total_degree_start(f, rng)
    h = Homotopy(target=f, start=g, gamma=np.exp(2j * np.pi * rng.uniform()))
    base = track_all(h, starts, schedule="static", workers=1)
    for schedule in ("static", "dynamic"):
        for workers in (1, 2, 4):
            got = track_all(h, starts, schedule=schedule, workers=workers)
            assert len(got) == len(base)
            for a, b in zip(base, got):
                assert np.array_equal(a.endpoint, b.endpoint)  # bitwise identical
                assert a.status == b.status


def test_track_all_rejects_unknown_schedule() -> None:
    # argument errors surface even when there is nothing to track
    for starts in ([[1.0]], []):
        with pytest.raises(ValueError):
            track_all(closed_form_homotopy(), starts, schedule="greedy")


def test_path_result_shape() -> None:
    res = track_path(closed_form_homotopy(), [1.0])
    assert isinstance(res, PathResult)
    assert res.endpoint.dtype == np.complex128
    assert isinstance(res.residual, float)


def test_gamma_arc_rejects_real_nonpositive_gamma() -> None:
    # 1 + (gamma - 1) tau vanishes at tau = 1 / (1 - gamma), inside (0, 1]
    for gamma in (-1.0, -0.5, 0.0, complex(-2.0, 0.0)):
        with pytest.raises(ValueError):
            GammaArc(SqrtEvaluator(), gamma)
    # every contour the solver tracks on stays clear of the pole
    for gamma in GAMMAS:
        arc = GammaArc(SqrtEvaluator(), gamma)
        taus = np.linspace(0.0, 1.0, 1001)
        assert np.all(np.abs(1.0 + (arc.gamma - 1.0) * taus) > 0.1)
        assert arc._t(0.0) == 0 and abs(arc._t(1.0) - 1.0) <= 1e-15
        res = track_path(arc, [1.0])
        assert res.status == "converged"
        assert abs(res.endpoint[0] - 2.0) <= 1e-8
