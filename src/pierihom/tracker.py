"""Adaptive predictor-corrector continuation for t in [0, 1].

Works against any homotopy-like evaluator: an object exposing ``nvars``,
``eval(x, t) -> H`` for the start and end residuals, and two fused calls
that each evaluate the system once at (x, t): ``eval_jacobian(x, t) ->
(H, H_x)`` for the corrector and ``jacobian_dt(x, t) -> (H_x, H_t)`` for
the predictor.  The predictor is an Euler tangent step (solve
H_x v = -H_t), the corrector is plain Newton at fixed t, at most
MAX_CORRECTOR_ITERS iterations, accepted when the update norm drops below
CORRECTOR_TOL.  Step control starts at H_INIT, halves the attempted step
on corrector failure and grows it by 1.5 after three consecutive
successes, up to H_MAX; a path fails once the step falls below H_MIN and
diverges once its norm reaches DIVERGENCE_NORM.  The final step lands
exactly on t = 1, where one more ``_newton`` call polishes the endpoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Protocol, Sequence

import numpy as np

from .linalg import SingularMatrixError, solve_linear
from .scheduler import JobMessage, run_dynamic, run_static

H_INIT = 0.05
H_MIN = 1e-8
H_MAX = 0.1
CORRECTOR_TOL = 1e-10
MAX_CORRECTOR_ITERS = 6
DIVERGENCE_NORM = 1e8


class HomotopyLike(Protocol):
    nvars: int

    def eval(self, x, t: float) -> np.ndarray: ...

    def eval_jacobian(self, x, t: float) -> tuple[np.ndarray, np.ndarray]: ...

    def jacobian_dt(self, x, t: float) -> tuple[np.ndarray, np.ndarray]: ...


@dataclass(frozen=True)
class TrackerOptions:
    max_steps: int = 10000
    residual_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")
        # nan would fail every endpoint and inf would accept any start
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0):
            raise ValueError(
                f"residual_tol must be positive and finite, got {self.residual_tol}"
            )


@dataclass
class PathResult:
    status: str  # "converged" | "diverged" | "failed"
    endpoint: np.ndarray
    t_reached: float
    residual: float
    steps_used: int
    newton_iters_total: int


def _newton(h: HomotopyLike, x: np.ndarray, t: float) -> tuple[np.ndarray, int, bool]:
    """Correct x at fixed t; success means the update norm met CORRECTOR_TOL."""
    for it in range(1, MAX_CORRECTOR_ITERS + 1):
        try:
            res, jac = h.eval_jacobian(x, t)
            dx = solve_linear(jac, -res)
        except SingularMatrixError:
            return x, it, False
        x_new = x + dx
        if not np.all(np.isfinite(x_new)):
            return x, it, False  # keep the last finite iterate
        x = x_new
        if float(np.linalg.norm(dx)) <= CORRECTOR_TOL:
            return x, it, True
    return x, MAX_CORRECTOR_ITERS, False


def track_path(
    h: HomotopyLike, start: Sequence[complex], opts: TrackerOptions | None = None
) -> PathResult:
    """Track one path from a start solution at t=0 to t=1.

    The start must already satisfy h(x, 0) to residual_tol, otherwise a
    ValueError is raised.  Pure function of its arguments: repeated calls
    produce bitwise-identical results.
    """
    opts = opts or TrackerOptions()
    x = np.asarray(start, dtype=np.complex128).copy()
    start_residual = float(np.linalg.norm(h.eval(x, 0.0)))
    if not start_residual <= opts.residual_tol:  # NaN fails this too
        raise ValueError(
            f"start residual {start_residual:.3e} exceeds {opts.residual_tol:.0e}"
        )
    t = 0.0
    step = H_INIT
    consecutive = 0
    steps_used = 0
    newton_total = 0
    status: str | None = None
    while t < 1.0:
        if steps_used >= opts.max_steps:
            status = "failed"
            break
        dt = min(step, 1.0 - t)
        t_new = 1.0 if dt >= 1.0 - t else t + dt
        try:
            jac, h_t = h.jacobian_dt(x, t)
            tangent = solve_linear(jac, -h_t)
            x_pred = x + tangent * dt
            if not np.all(np.isfinite(x_pred)):
                x_pred = x
        except SingularMatrixError:
            x_pred = x  # zero-order fallback; the corrector decides
        x_corr, iters, ok = _newton(h, x_pred, t_new)
        steps_used += 1
        newton_total += iters
        if ok:
            x = x_corr
            t = t_new
            consecutive += 1
            if consecutive >= 3:
                step = min(step * 1.5, H_MAX)
                consecutive = 0
            if float(np.linalg.norm(x)) >= DIVERGENCE_NORM:
                status = "diverged"
                break
        else:
            consecutive = 0
            step = dt / 2.0  # halve the attempted step, not the nominal one
            if step < H_MIN:
                status = "failed"
                break
    if status is None:  # landed exactly on t = 1: polish there
        x, iters, _ = _newton(h, x, 1.0)
        newton_total += iters
    residual = float(np.linalg.norm(h.eval(x, t)))
    if status is None:
        status = "converged" if residual <= opts.residual_tol else "failed"
    return PathResult(status, x, t, residual, steps_used, newton_total)


class GammaArc:
    """Reparametrize a homotopy along a complex arc from t=0 to t=1.

    t = gamma tau / (1 + (gamma - 1) tau) sends [0, 1] to a circular arc
    through the complex t-plane with the same endpoints.  The denominator
    vanishes at tau = 1 / (1 - gamma), which lies in (0, 1] exactly when
    gamma is real and <= 0; those gammas are rejected.  A homotopy
    analytic in t is singular at finitely many t, so a generic arc misses
    them all (the gamma trick of Morgan & Sommese, Appl. Math. Comput.
    1987), and distinct paths of one homotopy on one such arc stay apart
    until t = 1.
    """

    def __init__(self, base: HomotopyLike, gamma: complex):
        self.gamma = complex(gamma)
        if self.gamma.imag == 0 and self.gamma.real <= 0:
            raise ValueError(f"gamma {gamma} is real and <= 0: the arc meets a pole")
        self.base = base
        self.nvars = base.nvars

    def _t(self, tau: float) -> complex:
        return self.gamma * tau / (1.0 + (self.gamma - 1.0) * tau)

    def eval(self, x, tau: float) -> np.ndarray:
        return self.base.eval(x, self._t(tau))

    def eval_jacobian(self, x, tau: float) -> tuple[np.ndarray, np.ndarray]:
        return self.base.eval_jacobian(x, self._t(tau))

    def jacobian_dt(self, x, tau: float) -> tuple[np.ndarray, np.ndarray]:
        jac, h_t = self.base.jacobian_dt(x, self._t(tau))
        return jac, h_t * (self.gamma / (1.0 + (self.gamma - 1.0) * tau) ** 2)


@dataclass(frozen=True)
class TrackTask:
    """Self-contained payload: one start point against one homotopy."""

    homotopy: Any
    start: np.ndarray
    options: TrackerOptions

    def run(self) -> PathResult:
        return track_path(self.homotopy, self.start, self.options)


def track_all(
    h: HomotopyLike,
    starts: Sequence[Sequence[complex]],
    schedule: str = "static",
    workers: int = 1,
    opts: TrackerOptions | None = None,
) -> list[PathResult]:
    """Track every start point, returning results in start order.

    Paths are independent, so both schedules are allowed; the per-path
    results are bitwise identical regardless of schedule or worker count.
    """
    opts = opts or TrackerOptions()
    jobs = [
        JobMessage(i, TrackTask(h, np.asarray(s, dtype=np.complex128), opts))
        for i, s in enumerate(starts)
    ]
    if schedule == "static":
        results = run_static(jobs, workers)
    elif schedule == "dynamic":
        results = run_dynamic(jobs, workers)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    results = sorted(results, key=lambda r: r.job_id)
    out: list[PathResult] = []
    for r in results:
        if r.status != "ok":
            raise RuntimeError(f"worker failed on path {r.job_id}: {r.payload}")
        out.append(r.payload)
    return out
