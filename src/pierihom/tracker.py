"""Adaptive predictor-corrector continuation for t in [0, 1].

Works against any homotopy-like evaluator: an object exposing ``nvars``,
``eval(x, t)``, ``jacobian_x(x, t)`` and ``dt(x, t)``.  The predictor is an
Euler tangent step (solve J_x v = -h_t), the corrector is plain Newton at
fixed t, accepted when the update norm drops below corrector_tol.  Step
control halves the attempted step on corrector failure and grows it by 1.5
after three consecutive successes, clamped to [h_min, h_max]; the final
step lands exactly on t = 1 and is followed by a short Newton polish.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, Sequence

import numpy as np

from .linalg import SingularMatrixError, solve_linear
from .scheduler import JobMessage, ListSource, run_dynamic, run_static


class HomotopyLike(Protocol):
    nvars: int

    def eval(self, x, t: float) -> np.ndarray: ...

    def jacobian_x(self, x, t: float) -> np.ndarray: ...

    def dt(self, x, t: float) -> np.ndarray: ...


@dataclass(frozen=True)
class TrackerOptions:
    max_steps: int = 10000
    h_init: float = 0.05
    h_min: float = 1e-8
    h_max: float = 0.1
    corrector_tol: float = 1e-10
    max_corrector_iters: int = 6
    residual_tol: float = 1e-8
    divergence_norm: float = 1e8

    def __post_init__(self) -> None:
        if not 0.0 < self.h_min <= self.h_init <= self.h_max <= 1.0:
            raise ValueError(
                f"need 0 < h_min <= h_init <= h_max <= 1, got "
                f"{self.h_min}, {self.h_init}, {self.h_max}"
            )
        if self.corrector_tol <= 0 or self.residual_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1 or self.max_corrector_iters < 1:
            raise ValueError("iteration limits must be positive")
        if self.divergence_norm <= 0:
            raise ValueError("divergence_norm must be positive")


@dataclass
class PathResult:
    status: str  # "converged" | "diverged" | "failed"
    endpoint: np.ndarray
    t_reached: float
    residual: float
    steps_used: int
    newton_iters_total: int


def _newton(h: HomotopyLike, x: np.ndarray, t: float,
            opts: TrackerOptions) -> tuple[np.ndarray, int, bool]:
    """Correct x at fixed t; success means the update norm met corrector_tol."""
    for it in range(1, opts.max_corrector_iters + 1):
        try:
            dx = solve_linear(h.jacobian_x(x, t), -h.eval(x, t))
        except SingularMatrixError:
            return x, it, False
        x = x + dx
        if not np.all(np.isfinite(x)):
            return x, it, False
        if float(np.linalg.norm(dx)) <= opts.corrector_tol:
            return x, it, True
    return x, opts.max_corrector_iters, False


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
    if start_residual > opts.residual_tol:
        raise ValueError(
            f"start residual {start_residual:.3e} exceeds {opts.residual_tol:.0e}"
        )
    t = 0.0
    step = opts.h_init
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
            tangent = solve_linear(h.jacobian_x(x, t), -h.dt(x, t))
            x_pred = x + tangent * dt
            if not np.all(np.isfinite(x_pred)):
                x_pred = x
        except SingularMatrixError:
            x_pred = x  # zero-order fallback; the corrector decides
        x_corr, iters, ok = _newton(h, x_pred, t_new, opts)
        steps_used += 1
        newton_total += iters
        if ok:
            x = x_corr
            t = t_new
            consecutive += 1
            if consecutive >= 3:
                step = min(step * 1.5, opts.h_max)
                consecutive = 0
            if float(np.linalg.norm(x)) >= opts.divergence_norm:
                status = "diverged"
                break
        else:
            consecutive = 0
            step = dt / 2.0  # halve the attempted step, not the nominal one
            if step < opts.h_min:
                status = "failed"
                break
    if status is None:
        # landed exactly on t=1; polish with a few extra Newton iterations
        for _ in range(5):
            try:
                dx = solve_linear(h.jacobian_x(x, 1.0), -h.eval(x, 1.0))
            except SingularMatrixError:
                break
            if not np.all(np.isfinite(x + dx)):
                break
            x = x + dx
            newton_total += 1
            if float(np.linalg.norm(dx)) <= opts.corrector_tol:
                break
        residual = float(np.linalg.norm(h.eval(x, 1.0)))
        status = "converged" if residual <= opts.residual_tol else "failed"
        return PathResult(status, x, 1.0, residual, steps_used, newton_total)
    residual = float(np.linalg.norm(h.eval(x, t)))
    return PathResult(status, x, t, residual, steps_used, newton_total)


class GammaArc:
    """Reparametrize a homotopy along a complex arc from t=0 to t=1.

    t = gamma tau / (1 + (gamma - 1) tau) sends [0, 1] to a circular arc
    through the complex t-plane with the same endpoints; for |gamma| = 1,
    gamma != 1, the denominator never vanishes on [0, 1].  A homotopy
    analytic in t is singular at finitely many t, so a generic arc misses
    them all (the gamma trick of Morgan & Sommese, Appl. Math. Comput.
    1987), and distinct paths of one homotopy on one such arc stay apart
    until t = 1.
    """

    def __init__(self, base: HomotopyLike, gamma: complex):
        if gamma == 0:
            raise ValueError("gamma must be nonzero")
        self.base = base
        self.nvars = base.nvars
        self.gamma = complex(gamma)

    def _t(self, tau: float) -> complex:
        return self.gamma * tau / (1.0 + (self.gamma - 1.0) * tau)

    def eval(self, x, tau: float) -> np.ndarray:
        return self.base.eval(x, self._t(tau))

    def jacobian_x(self, x, tau: float) -> np.ndarray:
        return self.base.jacobian_x(x, self._t(tau))

    def dt(self, x, tau: float) -> np.ndarray:
        dphi = self.gamma / (1.0 + (self.gamma - 1.0) * tau) ** 2
        return self.base.dt(x, self._t(tau)) * dphi


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
        JobMessage(i, "independent-path",
                   TrackTask(h, np.asarray(s, dtype=np.complex128), opts))
        for i, s in enumerate(starts)
    ]
    if schedule == "static":
        results = run_static(jobs, workers)
    elif schedule == "dynamic":
        results = run_dynamic(ListSource(jobs), workers)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    results = sorted(results, key=lambda r: r.job_id)
    out: list[PathResult] = []
    for r in results:
        if r.status != "ok":
            raise RuntimeError(f"worker failed on path {r.job_id}: {r.payload}")
        out.append(r.payload)
    return out
