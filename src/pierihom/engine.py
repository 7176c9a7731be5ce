"""Intersection conditions, edge homotopies, and the recursive Pieri solve.

A feedback-law problem asks for every degree-q map X(s) into the p-planes
of C^(m+p) that meets n = mp + q(m+p) general m-planes L_i at prescribed
interpolation points: det([X(s_i) | L_i]) = 0 for i = 1..n.  The solver
walks the tree of localization patterns from the trivial pattern to the
target.  Each edge frees one bottom-pivot coefficient and imposes one new
condition by moving a special plane S_X onto the general plane L_k; the
conditions already satisfied ride along pinned at full strength.  One
homotopy path is tracked per tree edge, and the leaves are the solutions.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace

import numpy as np

from .linalg import cofactors_at, lu_decompose
from .patterns import (
    LocalizationPattern,
    count_paths,
    degrees_of_freedom,
    increments,
    num_conditions,
    pieri_root_count,
    target_pattern,
    trivial_pattern,
)
from .scheduler import JobMessage, ResultMessage, run_dynamic
from .tracker import GammaArc, TrackerOptions, track_path

RANK_TOL = 1e-8
MIN_SEPARATION = 1e-3
# two coefficient vectors closer than this (normalized distance) are one
# root: endpoints of one pattern, final laws and verify() duplicates alike
SAME_ROOT_TOL = 1e-4
# every edge is tracked on a fixed arc through the complex t-plane, the
# gamma trick of Morgan & Sommese (1987): the homotopy into a pattern
# depends only on the pattern and its conditions, so on one arc that misses
# its finitely many singular fibers, distinct starts reach distinct roots;
# the real segment can pass through such a fiber, and arcs that differ per
# edge can wind around a branch point onto a sibling's root.  All edges
# into a pattern share one contour; a pattern whose roots fall short of its
# edges re-tracks every edge on the next one
GAMMAS = (np.exp(0.6j), np.exp(0.3j), np.exp(-0.6j), np.exp(1.2j))


# ----------------------------------------------------- coefficient layout


def star_slots(pattern: LocalizationPattern) -> list[tuple[int, int]]:
    """All star positions as (column, tall row), column-major."""
    return [
        (j, row)
        for j in range(pattern.p)
        for row in range(j + 1, pattern.bottom[j] + 1)
    ]


def free_slots(pattern: LocalizationPattern) -> list[tuple[int, int]]:
    """Star positions that are unknowns: everything but the top pivots."""
    return [(j, row) for j, row in star_slots(pattern) if row != j + 1]


def full_coefficients(pattern: LocalizationPattern, free) -> np.ndarray:
    """Insert the fixed top-pivot ones into a free-coefficient vector."""
    free = np.asarray(free, dtype=np.complex128)
    if free.shape != (degrees_of_freedom(pattern),):
        raise ValueError(
            f"expected {degrees_of_freedom(pattern)} free coefficients, "
            f"got shape {free.shape}"
        )
    return _layout(pattern).full(free)


def free_coefficients(pattern: LocalizationPattern, full) -> np.ndarray:
    """Drop the fixed top-pivot entries from a full star vector."""
    full = np.asarray(full, dtype=np.complex128)
    lay = _layout(pattern)
    if full.shape != (lay.nstars,):
        raise ValueError(f"expected {lay.nstars} coefficients, got {full.shape}")
    return full[lay.free_idx].copy()


class _Layout:
    """Precomputed arrays for one pattern's star template.

    Tall row r of column j contributes coeff * s^k * t^(K_j - k) to the
    physical entry (r-1 mod m+p, j), where k is r's degree block and K_j
    is the block of the column's bottom pivot.  Every [X(s,t) | L] matrix
    of the solver is built by ``assemble`` from ``monomials``.
    """

    def __init__(self, pattern: LocalizationPattern):
        mp = pattern.m + pattern.p
        self.mp, self.p = mp, pattern.p
        slots = star_slots(pattern)
        self.nstars = len(slots)
        cols = np.array([j for j, _ in slots])
        rows = np.array([r for _, r in slots])
        phys_rows = (rows - 1) % mp
        self.st_degs = (rows - 1) // mp
        kcol = (np.asarray(pattern.bottom) - 1) // mp
        self.st_tpow = kcol[cols] - self.st_degs
        # 0/1 map from star weights to the row-major entries of X
        self.place = np.zeros((self.nstars, mp * self.p), dtype=np.complex128)
        self.place[np.arange(self.nstars), phys_rows * self.p + cols] = 1.0
        top = rows == cols + 1
        self.top_idx = np.nonzero(top)[0]
        self.free_idx = np.nonzero(~top)[0]
        # several free slots can share one matrix entry (folded blocks);
        # cofactors are computed once per distinct entry
        key = phys_rows[self.free_idx] * self.p + cols[self.free_idx]
        uniq, inverse = np.unique(key, return_inverse=True)
        self.uq_rows = uniq // self.p
        self.uq_cols = uniq % self.p
        self.fr_uq = inverse

    def full(self, free: np.ndarray) -> np.ndarray:
        """Star vector with the top pivots at 1 and ``free`` elsewhere."""
        full = np.empty(self.nstars, dtype=np.complex128)
        full[self.top_idx] = 1.0
        full[self.free_idx] = free
        return full

    def monomials(self, s, t) -> np.ndarray:
        """(k, nstars) star weights s_i^deg * t_i^tpow for k points s."""
        s = np.asarray(s, dtype=np.complex128).reshape(-1, 1)
        return s**self.st_degs * np.asarray(t)[..., None] ** self.st_tpow

    def assemble(self, coeffs: np.ndarray, mono: np.ndarray, planes) -> np.ndarray:
        """(k, m+p, p+c) stack of [X | plane], X = (coeffs * mono) @ place.

        ``planes`` broadcasts to (k, m+p, c): c = m gives the square
        condition matrices, c = 0 the bare map values.
        """
        planes = np.asarray(planes)
        k = len(mono)
        a = np.empty((k, self.mp, self.p + planes.shape[-1]), dtype=np.complex128)
        a[:, :, : self.p] = ((coeffs * mono) @ self.place).reshape(k, self.mp, self.p)
        a[:, :, self.p :] = planes
        return a

    def gradient(self, a: np.ndarray, mono: np.ndarray) -> np.ndarray:
        """Derivative of det(a) in each free coefficient, for a stack of a.

        ``a`` is (..., m+p, m+p) and ``mono`` its (..., nstars) weights;
        the result is (..., nfree), one gradient row per matrix.  Each
        free coefficient feeds exactly one matrix entry with its monomial
        as prefactor, so the derivative is that prefactor times the
        entry's cofactor; cofactors are used because the matrix is
        singular exactly where the determinant vanishes.
        """
        cof = cofactors_at(a, self.uq_rows, self.uq_cols)
        return mono[..., self.free_idx] * cof[..., self.fr_uq]


@functools.lru_cache(maxsize=None)
def _layout(pattern: LocalizationPattern) -> _Layout:
    return _Layout(pattern)


def special_plane(pattern: LocalizationPattern) -> np.ndarray:
    """The m-plane met exactly when a bottom-pivot coefficient vanishes.

    Columns are the standard basis vectors whose indices avoid the bottom
    pivots' physical rows; those rows are pairwise distinct, so exactly m
    basis vectors remain.
    """
    mp = pattern.m + pattern.p
    residues = {(b - 1) % mp for b in pattern.bottom}
    keep = [k for k in range(mp) if k not in residues]
    return np.eye(mp)[:, keep]


# --------------------------------------------------------- problem input


def _full_rank(plane: np.ndarray) -> bool:
    """Whether an (m+p) x m plane has full column rank, up to RANK_TOL."""
    sv = np.linalg.svd(plane, compute_uv=False)
    return bool(sv[-1] > RANK_TOL * sv[0])


@dataclass(eq=False)
class ProblemInput:
    """One feedback-law instance: sizes, planes, interpolation points."""

    m: int
    p: int
    q: int
    seed: int
    planes: np.ndarray  # (n, m+p, m) complex
    points: np.ndarray  # (n,) complex, never 1

    def __post_init__(self) -> None:
        n = num_conditions(self.m, self.p, self.q)
        mp = self.m + self.p
        self.planes = np.asarray(self.planes, dtype=np.complex128)
        self.points = np.asarray(self.points, dtype=np.complex128)
        if self.planes.shape != (n, mp, self.m):
            raise ValueError(
                f"need {n} planes of shape {mp}x{self.m}, got {self.planes.shape}"
            )
        if self.points.shape != (n,):
            raise ValueError(f"need {n} points, got {self.points.shape}")
        for name, values in (("planes", self.planes), ("points", self.points)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if np.min(np.abs(self.points - 1.0)) < 1e-9:
            raise ValueError("interpolation points must stay away from 1")
        for i in range(n):
            for j in range(i + 1, n):
                if abs(self.points[i] - self.points[j]) < 1e-9:
                    raise ValueError(f"points {i} and {j} coincide")
        for i in range(n):
            if not _full_rank(self.planes[i]):
                raise ValueError(f"plane {i} is rank deficient")

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def generate(cls, m: int, p: int, q: int, seed: int) -> "ProblemInput":
        """Seeded general-position instance.

        Draw order is fixed (planes, then points, then redrawn planes) so
        instances are reproducible across platforms.
        """
        n = num_conditions(m, p, q)
        mp = m + p
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((n, mp, m)) + 1j * rng.standard_normal((n, mp, m))
        points = np.empty(n, dtype=np.complex128)
        count = 0
        while count < n:
            s = np.exp(2j * np.pi * rng.uniform())
            if abs(s - 1.0) < MIN_SEPARATION:
                continue
            if count and np.min(np.abs(points[:count] - s)) < MIN_SEPARATION:
                continue
            points[count] = s
            count += 1
        for i in range(n):
            while not _full_rank(planes[i]):
                planes[i] = rng.standard_normal((mp, m)) + 1j * rng.standard_normal(
                    (mp, m)
                )
        return cls(m, p, q, seed, planes, points)


# -------------------------------------------------------- edge homotopy


class EdgeHomotopy:
    """Square homotopy for one tree edge in the deeper pattern's unknowns.

    Equation 1 moves: det([X(s(t), t) | (1-t) S_X + t L_k]) with the point
    s(t) = (1-t) + t s_k travelling from 1 to s_k while t simultaneously
    de-homogenizes the map.  Equations 2..k pin the conditions the source
    already satisfies, evaluated at full strength (t = 1); they carry no
    continuation parameter.
    """

    def __init__(
        self,
        pattern: LocalizationPattern,
        pinned_points,
        pinned_planes,
        moving_point: complex,
        moving_plane,
        special,
    ):
        self.pattern = pattern
        self.nvars = degrees_of_freedom(pattern)
        mp = pattern.m + pattern.p
        self._s_pin = np.asarray(pinned_points, dtype=np.complex128)
        self._l_pin = np.asarray(pinned_planes, dtype=np.complex128).reshape(
            -1, mp, pattern.m
        )
        if len(self._s_pin) != self.nvars - 1:
            raise ValueError(
                f"pattern depth {self.nvars} needs {self.nvars - 1} pinned "
                f"conditions, got {len(self._s_pin)}"
            )
        self._s_new = complex(moving_point)
        self._special = np.asarray(special, dtype=np.complex128)
        self._plane_delta = np.asarray(moving_plane, dtype=np.complex128) - self._special
        self._lay = _layout(pattern)
        # the pinned conditions sit at t = 1: their weights never change
        self._mono_pin = self._lay.monomials(self._s_pin, 1.0)
        grid = np.arange(mp)
        self._grid_rows = np.repeat(grid, mp)
        self._grid_cols = np.tile(grid, mp)

    def _stack(self, x, t: complex) -> tuple[np.ndarray, complex, np.ndarray, np.ndarray]:
        """Star vector, s(t), all k condition matrices (moving first), weights.

        The one place the stack is assembled; each call below does it once.
        """
        full = self._lay.full(x)
        s_mov = (1.0 - t) + self._s_new * t
        mono = np.concatenate([self._lay.monomials(s_mov, t), self._mono_pin])
        planes = np.concatenate([(self._special + t * self._plane_delta)[None], self._l_pin])
        return full, s_mov, self._lay.assemble(full, mono, planes), mono

    def eval(self, x, t: complex) -> np.ndarray:
        return np.linalg.det(self._stack(x, t)[2])

    def jacobian_x(self, x, t: complex) -> np.ndarray:
        return self._lay.gradient(*self._stack(x, t)[2:])

    def dt(self, x, t: complex) -> np.ndarray:
        return self.jacobian_dt(x, t)[1]

    def eval_jacobian(self, x, t: complex) -> tuple[np.ndarray, np.ndarray]:
        """(H, H_x) from one stack: the corrector's Newton step."""
        _, _, a, mono = self._stack(x, t)
        return np.linalg.det(a), self._lay.gradient(a, mono)

    def jacobian_dt(self, x, t: complex) -> tuple[np.ndarray, np.ndarray]:
        """(H_x, H_t) from one stack: the predictor's tangent.

        Only equation 1 moves; its t-derivative is the cofactor grid of the
        moving matrix against that matrix's entrywise derivative.
        """
        lay = self._lay
        full, s_mov, a, mono = self._stack(x, t)
        degs, tpow = lay.st_degs, lay.st_tpow
        sdot = self._s_new - 1.0
        # d/dt of s(t)^deg t^tpow, with 0 * base^(-1) branches masked off
        term_s = np.where(degs > 0, degs * s_mov ** np.maximum(degs - 1, 0), 0.0)
        term_t = np.where(tpow > 0, tpow * complex(t) ** np.maximum(tpow - 1, 0), 0.0)
        dmono = term_s * sdot * t**tpow + term_t * s_mov**degs
        adot = lay.assemble(full, dmono[None], self._plane_delta)[0]
        h_t = np.zeros(self.nvars, dtype=np.complex128)
        h_t[0] = cofactors_at(a[0], self._grid_rows, self._grid_cols) @ adot.ravel()
        return lay.gradient(a, mono), h_t


def embed_start(
    source: LocalizationPattern,
    source_free: np.ndarray,
    dest: LocalizationPattern,
) -> np.ndarray:
    """Lift a solved source node into the deeper pattern's unknowns.

    The one coefficient the source does not have, the freshly opened
    bottom pivot, starts at zero; that is exactly what makes the moving
    equation vanish at t = 0 against the special plane.
    """
    source_free = np.asarray(source_free, dtype=np.complex128)
    known = dict(zip(free_slots(source), source_free))
    if len(known) != degrees_of_freedom(source):
        raise ValueError("source coefficient count does not match its pattern")
    out = np.zeros(degrees_of_freedom(dest), dtype=np.complex128)
    missing = 0
    for i, slot in enumerate(free_slots(dest)):
        if slot in known:
            out[i] = known[slot]
        else:
            missing += 1
    if missing != 1:
        raise ValueError(f"expected exactly one new coefficient, found {missing}")
    return out


@dataclass
class EdgeOutcome:
    """What one tracked edge reports back to the master."""

    status: str  # "converged" | "diverged" | "failed"
    free: np.ndarray | None
    steps_used: int
    start_min_pivot: float
    start_scale: float
    # the index into GAMMAS of the contour tracked, under the name
    # perfbench's span hooks read
    arc_used: int = 0


@dataclass(frozen=True, eq=False)
class EdgeTask:
    """Self-contained worker payload: track one edge of the tree.

    The edge imposes condition k = depth of the deeper pattern and is
    tracked once, on the arc of GAMMAS[contour].  The master gives every
    edge into a pattern the same contour, so distinct starts stay on
    distinct paths.  This is the only place an edge is tracked.  A start
    that misses residual_tol raises track_path's ValueError, which the
    worker reports as an error result.
    """

    problem: ProblemInput
    source_bottom: tuple[int, ...]
    dest_bottom: tuple[int, ...]
    source_free: np.ndarray
    options: TrackerOptions
    contour: int = 0

    def run(self) -> EdgeOutcome:
        prob = self.problem
        source = LocalizationPattern(prob.m, prob.p, prob.q, self.source_bottom)
        dest = LocalizationPattern(prob.m, prob.p, prob.q, self.dest_bottom)
        k = degrees_of_freedom(dest)
        # condition k is imposed on the deeper pattern, starting from the
        # source node lifted into its unknowns
        hom = EdgeHomotopy(
            dest, prob.points[: k - 1], prob.planes[: k - 1],
            prob.points[k - 1], prob.planes[k - 1], special_plane(dest),
        )
        x0 = embed_start(source, self.source_free, dest)
        f = lu_decompose(hom.jacobian_x(x0, 0.0))
        res = track_path(GammaArc(hom, GAMMAS[self.contour]), x0, self.options)
        free = res.endpoint if res.status == "converged" else None
        return EdgeOutcome(
            res.status, free, res.steps_used, f.min_pivot, f.scale, self.contour
        )


# ------------------------------------------------------------- solutions


@dataclass(eq=False)
class SolutionMap:
    """One feedback law: the full star coefficients of the target pattern.

    Top pivots are exactly 1 by normalization; residuals are the raw
    determinant moduli of the n intersection conditions.
    """

    pattern: LocalizationPattern
    coefficients: np.ndarray
    residuals: np.ndarray


def solution_from_free(
    problem: ProblemInput, pattern: LocalizationPattern, free: np.ndarray
) -> SolutionMap:
    full = full_coefficients(pattern, free)
    mats = _final_conditions(problem, pattern, full)
    return SolutionMap(pattern, full, np.abs(np.linalg.det(mats)))


def _final_conditions(
    problem: ProblemInput, pattern: LocalizationPattern, full
) -> np.ndarray:
    """The n condition matrices [X(s_i, 1) | L_i] of a full star vector."""
    full = np.asarray(full, dtype=np.complex128)
    lay = _layout(pattern)
    if full.shape != (lay.nstars,):
        raise ValueError(f"pattern {pattern} has {lay.nstars} stars, got {full.shape}")
    return lay.assemble(full, lay.monomials(problem.points, 1.0), problem.planes)


@dataclass
class LossRecord:
    """A pruned subtree: one failed edge and every leaf below it."""

    edge_id: str
    pattern: tuple[int, ...]
    status: str
    paths_lost: int


@dataclass
class EdgeRecord:
    """Per-edge diagnostics kept for reporting and contract checks.

    An edge re-tracked on a later contour gets one record per contour;
    ``steps_used`` counts the tracker steps of that one track.
    """

    edge_id: str
    depth: int
    pattern: tuple[int, ...]
    status: str
    steps_used: int
    start_min_pivot: float
    start_scale: float
    contour: int = 0  # index into GAMMAS


@dataclass
class SolveResult:
    solutions: list[SolutionMap]
    losses: list[LossRecord]
    level_counts: dict[int, int]
    edge_records: list[EdgeRecord]

    @property
    def lost_paths(self) -> int:
        return sum(loss.paths_lost for loss in self.losses)


class PieriTreeSource:
    """The master's bookkeeping for the pattern tree, one round at a time.

    A round is one level of the tree, or one retry contour of that level's
    short patterns.  Its edge jobs are independent; ``on_result`` books
    all of their results and returns the next round's jobs.  An edge's
    task, and with it its source node, is kept only until the edge is
    settled, and failed edges become loss records covering their subtree.
    Paths into one pattern must land on distinct roots of one condition
    system, so the pattern is the unit of recovery.  Its converged
    endpoints are pooled, distinct up to SAME_ROOT_TOL; within one
    contour, an endpoint on a root an earlier edge in edge-id order
    already holds is a "collision".  While the pool holds fewer roots than
    the pattern has edges, every edge into it is tracked again on the next
    contour of GAMMAS.  Each contour pairs starts with roots anew, so the
    pool fills as in monodromy solving (Duff et al., IMA J. Numer. Anal.
    2019).  Then the pooled roots go to the edges, those that converged on
    the last contour first, and an edge left without one is a loss.  The
    master only books; every path is tracked by a worker.  Results are
    processed in edge-id order, which keeps everything deterministic for
    any worker count.
    """

    def __init__(self, problem: ProblemInput, options: TrackerOptions):
        self._problem = problem
        self._options = options
        self._trivial = trivial_pattern(problem.m, problem.p, problem.q)
        self._target = target_pattern(problem.m, problem.p, problem.q)
        self._tasks: dict[str, EdgeTask] = {}  # the level's unsettled edges
        self._pools: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._survivors: list[tuple[str, tuple[int, ...], np.ndarray]] = []
        self.solutions: list[SolutionMap] = []
        self.losses: list[LossRecord] = []
        self.level_counts: dict[int, int] = {}
        self.edge_records: list[EdgeRecord] = []

    @property
    def store_size(self) -> int:
        return len(self._tasks)

    def _pattern(self, bottom: tuple[int, ...]) -> LocalizationPattern:
        prob = self._problem
        return LocalizationPattern(prob.m, prob.p, prob.q, bottom)

    def _edge_jobs(
        self, path: str, pattern: LocalizationPattern, free: np.ndarray
    ) -> list[JobMessage]:
        depth = degrees_of_freedom(pattern)
        jobs = []
        for inc in increments(pattern):
            col = next(
                j for j in range(pattern.p) if inc.bottom[j] != pattern.bottom[j]
            )
            edge_id = f"{path}.{col}" if path else str(col)
            task = EdgeTask(
                self._problem, pattern.bottom, inc.bottom, free, self._options
            )
            self._tasks[edge_id] = task
            jobs.append(JobMessage(edge_id, task))
        self.level_counts[depth + 1] = self.level_counts.get(depth + 1, 0) + len(jobs)
        return jobs

    def initial_jobs(self) -> list[JobMessage]:
        return self._edge_jobs("", self._trivial, np.zeros(0, dtype=np.complex128))

    def on_result(self, results: list[ResultMessage]) -> list[JobMessage]:
        """Book one round's results and return the next round's jobs.

        A worker error, a broken start contract among them, aborts the
        solve right after the round that holds it.
        """
        results = sorted(results, key=lambda r: r.job_id)
        errors = [f"edge {r.job_id}: {r.payload}" for r in results if r.status != "ok"]
        if errors:
            raise RuntimeError("solve aborted: " + "; ".join(errors))
        groups: dict[tuple[int, ...], list[ResultMessage]] = {}
        for r in results:
            groups.setdefault(self._tasks[r.job_id].dest_bottom, []).append(r)
        jobs = [job for bottom, group in groups.items()
                for job in self._settle(bottom, group)]
        return jobs or self._next_level()

    def _settle(
        self, bottom: tuple[int, ...], group: list[ResultMessage]
    ) -> list[JobMessage]:
        """Book one pattern's edges on this round's contour.

        Returns the edges' jobs on the next contour if the pattern's pool
        is still short of its edges; else hands out the pooled roots.
        """
        dest = self._pattern(bottom)
        depth = degrees_of_freedom(dest)
        contour = self._tasks[group[0].job_id].contour
        pool = self._pools.setdefault(bottom, [])
        held: list[np.ndarray] = []  # roots held on this contour
        records = []
        for result in group:
            outcome: EdgeOutcome = result.payload
            record = EdgeRecord(
                result.job_id, depth, bottom, outcome.status,
                outcome.steps_used, outcome.start_min_pivot, outcome.start_scale,
                outcome.arc_used,
            )
            if outcome.status == "converged":
                if _is_new_root(outcome.free, held):
                    held.append(outcome.free)
                    if _is_new_root(outcome.free, pool):
                        pool.append(outcome.free)
                else:
                    record.status = "collision"
            self.edge_records.append(record)
            records.append(record)
        if len(pool) < len(group) and contour + 1 < len(GAMMAS):
            retries = []
            for record in records:
                task = replace(self._tasks[record.edge_id], contour=contour + 1)
                self._tasks[record.edge_id] = task
                retries.append(JobMessage(record.edge_id, task))
            return retries
        del self._pools[bottom]
        # the roots held on this contour are pooled, so every edge that
        # converged here gets a root, and losses fall on the edges that
        # failed, diverged or collided
        ranked = sorted(
            range(len(records)), key=lambda i: records[i].status != "converged"
        )
        kept = set(ranked[: len(pool)])
        roots = iter(pool)
        for i, record in enumerate(records):
            del self._tasks[record.edge_id]
            if i in kept:
                self._survivors.append((record.edge_id, bottom, next(roots)))
            else:
                paths = count_paths(dest, self._target)
                self.losses.append(
                    LossRecord(record.edge_id, bottom, record.status, paths)
                )
        return []

    def _next_level(self) -> list[JobMessage]:
        survivors = sorted(self._survivors, key=lambda s: s[0])
        self._survivors = []
        jobs: list[JobMessage] = []
        for edge_id, bottom, free in survivors:
            dest = self._pattern(bottom)
            if degrees_of_freedom(dest) == self._problem.n:
                self.solutions.append(solution_from_free(self._problem, dest, free))
            else:
                jobs.extend(self._edge_jobs(edge_id, dest, free))
        return jobs


def _canonical_key(sol: SolutionMap) -> tuple:
    rounded = tuple(
        round(float(v), 10) for c in sol.coefficients for v in (c.real, c.imag)
    )
    exact = tuple(float(v) for c in sol.coefficients for v in (c.real, c.imag))
    return rounded + exact


def _coeff_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(
        np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1.0)
    )


def _is_new_root(free: np.ndarray, roots: list[np.ndarray]) -> bool:
    return all(_coeff_distance(free, root) > SAME_ROOT_TOL for root in roots)


def solve_pieri(
    problem: ProblemInput,
    workers: int = 1,
    options: TrackerOptions | None = None,
) -> SolveResult:
    """Track every tree path from the trivial pattern to the target.

    Solutions come back canonically sorted, so equal seeds give identical
    results for any worker count.  The tree is solved one round at a time:
    a round is one level's edge jobs, or one retry contour of that level's
    short patterns (see PieriTreeSource).  Its jobs are independent and run
    as one ``run_dynamic`` batch, and its endpoints start the next round.
    What the contours cannot recover comes back as loss records.
    """
    source = PieriTreeSource(problem, options or TrackerOptions())
    jobs = source.initial_jobs()
    while jobs:
        jobs = source.on_result(run_dynamic(jobs, workers))
    assert source.store_size == 0, "node store must drain with the job tree"
    accounted = len(source.solutions) + sum(l.paths_lost for l in source.losses)
    root = pieri_root_count(problem.m, problem.p, problem.q)
    assert accounted == root, f"accounted {accounted} of {root} paths"
    return SolveResult(
        sorted(source.solutions, key=_canonical_key),
        sorted(source.losses, key=lambda loss: loss.edge_id),
        dict(sorted(source.level_counts.items())),
        source.edge_records,
    )


# ------------------------------------------------------------ verification


@dataclass
class VerifyReport:
    """Scale-free residuals and separation data for a solution set."""

    residuals: np.ndarray  # (num solutions, n), row-norm normalized
    max_residual: float
    min_distance: float | None
    duplicates: list[tuple[int, int]]


def verify(solutions, problem: ProblemInput) -> VerifyReport:
    """Check every condition of every solution, scale-invariantly.

    Residuals are |det| divided by the product of row norms (so a badly
    scaled matrix cannot hide a miss), and solutions are compared pairwise
    by normalized coefficient distance: pairs within SAME_ROOT_TOL are
    duplicates.  A solution whose coefficient count is not its pattern's
    star count raises ValueError.
    """
    count = len(solutions)
    residuals = np.zeros((count, problem.n))
    for si, sol in enumerate(solutions):
        a = _final_conditions(problem, sol.pattern, sol.coefficients)
        raw = np.abs(np.linalg.det(a))
        scale = np.prod(np.linalg.norm(a, axis=2), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            residuals[si] = np.where(scale > 0, raw / scale, np.inf)
    min_distance: float | None = None
    duplicates: list[tuple[int, int]] = []
    for i in range(count):
        for j in range(i + 1, count):
            d = _coeff_distance(solutions[i].coefficients, solutions[j].coefficients)
            if min_distance is None or d < min_distance:
                min_distance = d
            if d <= SAME_ROOT_TOL:
                duplicates.append((i, j))
    max_residual = float(residuals.max()) if count else 0.0
    return VerifyReport(residuals, max_residual, min_distance, duplicates)


def solutions_to_json(result: SolveResult, problem: ProblemInput) -> str:
    """Canonical solution file: no timing, identical for equal seeds."""
    doc = {
        "m": problem.m,
        "p": problem.p,
        "q": problem.q,
        "seed": problem.seed,
        "n": problem.n,
        "root_count": pieri_root_count(problem.m, problem.p, problem.q),
        "count": len(result.solutions),
        "lost_paths": result.lost_paths,
        "losses": [
            {
                "edge": loss.edge_id,
                "pattern": list(loss.pattern),
                "status": loss.status,
                "paths_lost": loss.paths_lost,
            }
            for loss in result.losses
        ],
        "solutions": [
            {
                "pattern": list(sol.pattern.bottom),
                "coefficients": [
                    [float(c.real), float(c.imag)] for c in sol.coefficients
                ],
                "residuals": [float(r) for r in sol.residuals],
            }
            for sol in result.solutions
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
