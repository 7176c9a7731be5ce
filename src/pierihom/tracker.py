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
exactly on t = 1, where one more corrector call polishes the endpoint.

Two loops apply these rules, chosen by the input:

- ``track_path`` tracks one path, the case of the Pieri engine, where
  every edge is its own homotopy;
- ``track_paths`` tracks many paths of one homotopy in lockstep: each
  round is one stacked predictor evaluation and solve for every running
  path, then stacked Newton iterations over the paths still correcting,
  and each path keeps its own t, step and counters.  Its homotopy takes a
  stack of points (k, nvars) with one t per point (k,).  ``track_all``
  hands each worker one such stack.

Both loops solve with ``linalg.solve_linear``, which returns a mask of
the matrices that fail its singularity bound instead of raising; a
singular tangent falls back to a zero-order prediction and a singular
Newton step fails the correction.  Every stacked operation is
elementwise in the path axis, solves each matrix on its own or reduces
along the last axis, so a path's result is bitwise the same in any
batch, and so across schedules and worker counts.  A batch of one is
slower than ``track_path``, which is why both loops stay.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Protocol, Sequence

import numpy as np

from .linalg import solve_linear
from .scheduler import JobMessage, run_dynamic, run_static

H_INIT = 0.05
H_MIN = 1e-8
H_MAX = 0.1
CORRECTOR_TOL = 1e-10
MAX_CORRECTOR_ITERS = 6
DIVERGENCE_NORM = 1e8


class HomotopyLike(Protocol):
    """What the tracker evaluates; ``track_paths`` passes stacks (k, nvars), (k,)."""

    nvars: int

    def eval(self, x, t: float) -> np.ndarray: ...

    def eval_jacobian(self, x, t: float) -> tuple[np.ndarray, np.ndarray]: ...

    def jacobian_dt(self, x, t: float) -> tuple[np.ndarray, np.ndarray]: ...


@dataclass(frozen=True)
class TrackerOptions:
    max_steps: int = 10000
    residual_tol: float = 1e-8

    def __post_init__(self) -> None:
        # nan would never stop a path, and a bool or a float is no step count
        steps = self.max_steps
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
            raise ValueError(f"max_steps must be a positive integer, got {steps!r}")
        # nan would fail every endpoint and inf would accept any start
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0):
            raise ValueError(
                f"residual_tol must be positive and finite, got {self.residual_tol}"
            )


@dataclass(slots=True)
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
        res, jac = h.eval_jacobian(x, t)
        dx, solved = solve_linear(jac, -res)
        if not solved:
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
        jac, h_t = h.jacobian_dt(x, t)
        tangent, solved = solve_linear(jac, -h_t)
        x_pred = x + tangent * dt if solved else x
        if not np.all(np.isfinite(x_pred)):
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


def _newton_stack(
    h: HomotopyLike, x: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_newton`` on each row of x at its own t: (x, iters, ok) per row."""
    x = x.copy()
    iters = np.full(len(x), MAX_CORRECTOR_ITERS)
    ok = np.zeros(len(x), dtype=bool)
    rows = np.arange(len(x))
    for it in range(1, MAX_CORRECTOR_ITERS + 1):
        res, jac = h.eval_jacobian(x[rows], t[rows])
        dx, solved = solve_linear(jac, -res)
        dx[~solved] = 0.0  # undefined there; zero keeps the arithmetic below quiet
        x_new = x[rows] + dx
        step_ok = solved & np.all(np.isfinite(x_new), axis=-1)
        x[rows[step_ok]] = x_new[step_ok]  # a failed row keeps its last finite iterate
        done = step_ok & (np.linalg.norm(dx, axis=-1) <= CORRECTOR_TOL)
        ok[rows[done]] = True
        iters[rows[~step_ok | done]] = it
        rows = rows[step_ok & ~done]
        if not rows.size:
            break
    return x, iters, ok


def _start_stack(
    h: HomotopyLike, starts: Sequence[Sequence[complex]], opts: TrackerOptions
) -> np.ndarray:
    """The starts as a (k, nvars) stack; a ValueError names the first bad one."""
    x = np.array(starts, dtype=np.complex128).reshape(len(starts), h.nvars)
    if not len(x):
        return x
    start_residual = np.linalg.norm(h.eval(x, np.zeros(len(x))), axis=-1)
    bad = np.flatnonzero(~(start_residual <= opts.residual_tol))  # NaN is bad too
    if bad.size:
        raise ValueError(f"start residual {start_residual[bad[0]]:.3e} of path "
                         f"{bad[0]} exceeds {opts.residual_tol:.0e}")
    return x


def _lockstep(
    h: HomotopyLike, x: np.ndarray, opts: TrackerOptions
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The loop of ``track_paths`` over a checked stack of starts.

    Returns one row per path: (status, endpoint, t_reached, residual,
    steps_used, newton_iters_total).
    """
    x = x.copy()
    count = len(x)
    t = np.zeros(count)
    step = np.full(count, H_INIT)
    consecutive = np.zeros(count, dtype=int)
    steps_used = np.zeros(count, dtype=int)
    newton_total = np.zeros(count, dtype=int)
    status: list[str | None] = [None] * count
    running = np.ones(count, dtype=bool)  # status None and t < 1

    def stop(paths: np.ndarray, why: str) -> None:
        running[paths] = False
        for k in paths:
            status[k] = why

    while True:
        stop(np.flatnonzero(running & (steps_used >= opts.max_steps)), "failed")
        idx = np.flatnonzero(running)
        if not idx.size:
            break
        t_idx, x_idx = t[idx], x[idx]
        dt = np.minimum(step[idx], 1.0 - t_idx)
        t_new = np.where(dt >= 1.0 - t_idx, 1.0, t_idx + dt)
        jac, h_t = h.jacobian_dt(x_idx, t_idx)
        tangent, solved = solve_linear(jac, -h_t)
        tangent[~solved] = 0.0  # undefined there, and replaced just below
        x_pred = x_idx + tangent * dt[:, None]
        # zero-order fallback on a singular or overflowing tangent
        fallback = ~solved | ~np.all(np.isfinite(x_pred), axis=-1)
        x_pred[fallback] = x_idx[fallback]
        x_corr, iters, ok = _newton_stack(h, x_pred, t_new)
        steps_used[idx] += 1
        newton_total[idx] += iters

        acc = idx[ok]
        x[acc], t[acc] = x_corr[ok], t_new[ok]
        consecutive[acc] += 1
        grow = acc[consecutive[acc] >= 3]
        step[grow] = np.minimum(step[grow] * 1.5, H_MAX)
        consecutive[grow] = 0
        stop(acc[np.linalg.norm(x[acc], axis=-1) >= DIVERGENCE_NORM], "diverged")
        running[acc[t[acc] >= 1.0]] = False

        rej = idx[~ok]
        consecutive[rej] = 0
        step[rej] = dt[~ok] / 2.0  # halve the attempted step, not the nominal one
        stop(rej[step[rej] < H_MIN], "failed")

    landed = np.flatnonzero([s is None for s in status])
    if landed.size:  # landed exactly on t = 1: polish there
        x[landed], iters, _ = _newton_stack(h, x[landed], t[landed])
        newton_total[landed] += iters
    residual = np.linalg.norm(h.eval(x, t), axis=-1)
    for k in landed:
        status[k] = "converged" if residual[k] <= opts.residual_tol else "failed"
    return status, x, t, residual, steps_used, newton_total


def _path_results(
    status: list[str], x: np.ndarray, t: np.ndarray, residual: np.ndarray,
    steps_used: np.ndarray, newton_total: np.ndarray,
) -> list[PathResult]:
    """One PathResult per row of ``_lockstep``'s arrays.

    A caller may keep many results, so each holds little beyond its own
    objects: the endpoints are rows of a copy made here, on the caller's
    thread, rather than of the array the loop grew in a worker's heap, and
    every path that reached t = 1 shares one float.
    """
    t_reached = [1.0 if v == 1.0 else v for v in t.tolist()]
    return [PathResult(*row) for row in zip(
        status, x.copy(), t_reached, residual.tolist(), steps_used.tolist(),
        newton_total.tolist(),
    )]


def track_paths(
    h: HomotopyLike, starts: Sequence[Sequence[complex]],
    opts: TrackerOptions | None = None,
) -> list[PathResult]:
    """Track many paths of one homotopy in lockstep, results in start order.

    Each path follows ``track_path``'s rules and constants, with its own
    start check, t = 1 polish and ``residual_tol`` gate; a start that
    misses ``residual_tol`` raises a ValueError for the whole call.  A
    path's result does not depend on which other paths share the call.
    """
    opts = opts or TrackerOptions()
    x = _start_stack(h, starts, opts)
    return _path_results(*_lockstep(h, x, opts)) if len(x) else []


@dataclass(frozen=True)
class _PathStack:
    """Scheduler payload: a stack of starts against one homotopy.

    The worker sends back ``_lockstep``'s arrays, and ``track_all`` builds
    the results.
    """

    homotopy: Any
    starts: np.ndarray
    options: TrackerOptions

    def run(self) -> tuple:
        return _lockstep(self.homotopy, self.starts, self.options)


def track_all(
    h: HomotopyLike,
    starts: Sequence[Sequence[complex]],
    schedule: str = "static",
    workers: int = 1,
    opts: TrackerOptions | None = None,
) -> list[PathResult]:
    """Track every start point, returning results in start order.

    The starts are checked here, before any dispatch: a start that misses
    ``residual_tol`` raises a ValueError naming its index in ``starts``,
    whatever the schedule and worker count.  Worker w then gets one
    ``track_paths`` batch, the paths i with
    i mod workers == w, dispatched by ``run_static`` or ``run_dynamic`` as
    ``schedule`` says.  A path's result does not depend on its batch, so
    the per-path results are bitwise identical regardless of schedule or
    worker count.
    """
    opts = opts or TrackerOptions()
    if schedule not in ("static", "dynamic"):
        raise ValueError(f"unknown schedule {schedule!r}")
    stack = _start_stack(h, starts, opts)
    lanes = [np.arange(w, len(stack), workers) for w in range(workers)]
    jobs = [JobMessage(w, _PathStack(h, stack[lane], opts))
            for w, lane in enumerate(lanes) if lane.size]
    run = run_static if schedule == "static" else run_dynamic
    out: list[PathResult] = [None] * len(stack)  # type: ignore[list-item]
    for r in run(jobs, workers):
        if r.status != "ok":
            raise RuntimeError(f"worker failed on batch {r.job_id}: {r.payload}")
        for i, res in zip(lanes[r.job_id], _path_results(*r.payload)):
            out[i] = res
    return out
