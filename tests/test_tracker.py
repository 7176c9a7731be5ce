"""Tests for the predictor-corrector path tracker.

The main oracle is a homotopy with a closed-form path: with gamma = 1,
h(x,t) = (1-t)(x^2-1) + t(x^2-4) = x^2 - (1+3t), so the path starting at
x=1 is x(t) = sqrt(1+3t) and must end at exactly 2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from pierihom.engine import GAMMAS
from pierihom.polysys import Homotopy, PolySystem, Term, total_degree_start
from pierihom.tracker import GammaArc, PathResult, TrackerOptions, track_all, track_path


def x_squared_minus(c: float) -> PolySystem:
    return PolySystem(1, [[Term(1.0, (2,)), Term(-c, (0,))]])


def closed_form_homotopy() -> Homotopy:
    return Homotopy(target=x_squared_minus(4.0), start=x_squared_minus(1.0), gamma=1.0)


@dataclass
class BlowupEvaluator:
    """h(x, t) = (1-t)^4 * x - 1: the unique path is x(t) = (1-t)^-4.

    x crosses 1e8 near t = 0.99, long before the step size can underflow,
    so tracking must end with status 'diverged'.
    """

    nvars: int = 1

    def eval(self, x, t):
        return np.array([(1.0 - t) ** 4 * x[0] - 1.0], dtype=complex)

    def jacobian_x(self, x, t):
        return np.array([[(1.0 - t) ** 4]], dtype=complex)

    def dt(self, x, t):
        return np.array([-4.0 * (1.0 - t) ** 3 * x[0]], dtype=complex)

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
        if t < 0.5:
            return np.array([x[0] - 1.0], dtype=complex)
        return np.array([1.0], dtype=complex)

    def jacobian_x(self, x, t):
        if t < 0.5:
            return np.array([[1.0]], dtype=complex)
        return np.array([[0.0]], dtype=complex)

    def dt(self, x, t):
        return np.array([0.0], dtype=complex)

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
        return np.array([x[0] ** 2 - (1.0 + 3.0 * t)], dtype=complex)

    def jacobian_x(self, x, t):
        return np.array([[2.0 * x[0]]], dtype=complex)

    def dt(self, x, t):
        return np.array([-3.0], dtype=complex)

    def eval_jacobian(self, x, t):
        return self.eval(x, t), self.jacobian_x(x, t)

    def jacobian_dt(self, x, t):
        return self.jacobian_x(x, t), self.dt(x, t)


def test_options_defaults_frozen() -> None:
    opts = TrackerOptions()
    assert opts.max_steps == 10000
    assert opts.h_init == pytest.approx(0.05)
    assert opts.h_min == pytest.approx(1e-8)
    assert opts.h_max == pytest.approx(0.1)
    assert opts.corrector_tol == pytest.approx(1e-10)
    assert opts.residual_tol == pytest.approx(1e-8)
    assert opts.divergence_norm == pytest.approx(1e8)


def test_options_validation() -> None:
    with pytest.raises(ValueError):
        TrackerOptions(h_init=0.5, h_max=0.1)  # init above max
    with pytest.raises(ValueError):
        TrackerOptions(h_min=0.0)
    with pytest.raises(ValueError):
        TrackerOptions(corrector_tol=-1.0)
    with pytest.raises(ValueError):
        TrackerOptions(max_steps=0)


def test_closed_form_path_both_branches() -> None:
    h = closed_form_homotopy()
    for x0, want in ((1.0, 2.0), (-1.0, -2.0)):
        res = track_path(h, [x0])
        assert res.status == "converged"
        assert res.t_reached == 1.0
        assert abs(res.endpoint[0] - want) <= 1e-8
        assert res.residual <= 1e-8
        assert res.steps_used >= 10  # h_max = 0.1 forces at least 10 steps
        assert res.newton_iters_total >= res.steps_used


def test_stationary_homotopy_keeps_start_point() -> None:
    f = x_squared_minus(1.0)
    h = Homotopy(target=f, start=f, gamma=1.0)
    res = track_path(h, [1.0])
    assert res.status == "converged"
    assert abs(res.endpoint[0] - 1.0) <= 1e-10


def test_start_residual_precondition() -> None:
    h = closed_form_homotopy()
    with pytest.raises(ValueError):
        track_path(h, [1.5])  # not a start solution


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
