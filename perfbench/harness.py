"""Workloads, timed passes and correctness checks of the solve benchmark.

The harness drives ``pierihom`` only through its public API, from outside
the package: ``ProblemInput.generate``, ``solve_pieri``, ``verify`` and
``solutions_to_json`` for Pieri solves, and ``total_degree_start`` with
``track_all`` for generic tracking.  The load is a closed loop in one
process: instances are solved one after another.

A pass solves every instance of a workload's set once, in an order drawn
from the seed.  ``wall_s`` is the summed wall time of the timed solve calls
of one pass; a run makes as many whole passes as fit its time budget and
reports the median pass.  Verification runs after the timed passes and is
never part of ``wall_s``.
"""
from __future__ import annotations

import itertools
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A scale-free residual above this fails a law (or a tracked endpoint).
RESIDUAL_TOL = 1e-8
#: Two laws closer than this in normalized coefficient distance are one law.
SEPARATION_TOL = 1e-4
#: Fresh-process set-up samples per run; the median is reported.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    """A named instance set: Pieri (m, p, q, seed) tuples or cubic seeds.

    Why each workload was chosen is recorded in BENCHMARK.json and NOTES.md.
    """

    name: str
    kind: str  # "pieri" | "track"
    workers: int
    primary: tuple
    held_out: tuple

    def instances(self, held_out: bool) -> tuple:
        return self.held_out if held_out else self.primary


LADDER = ((2, 2, 1, 7), (2, 2, 1, 1), (2, 2, 1, 3),
          (2, 3, 0, 3), (2, 3, 0, 5), (2, 3, 0, 9))
LADDER_HELD_OUT = ((2, 2, 1, 2), (2, 2, 1, 6), (2, 2, 1, 8),
                   (2, 3, 0, 1), (2, 3, 0, 2), (2, 3, 0, 4))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder-w1", "pieri", 1, LADDER, LADDER_HELD_OUT),
        Workload("ladder-w2", "pieri", 2, LADDER, LADDER_HELD_OUT),
        Workload("collide-w1", "pieri", 1,
                 ((2, 2, 1, 5), (2, 2, 1, 15), (2, 2, 1, 12)),
                 ((2, 2, 1, 29), (2, 2, 1, 40), (2, 2, 1, 23))),
        Workload("track-dense", "track", 1, (1, 2, 3), (4, 5, 6)),
    )
}


# ------------------------------------------------------------------ inputs


def import_pierihom():
    """Import pierihom from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pierihom" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pierihom sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pierihom

    if Path(pierihom.__file__).resolve().parent != SRC / "pierihom":
        raise SystemExit(f"perfbench: imported pierihom from {pierihom.__file__}")
    return pierihom


def dense_cubic(seed: int):
    """Dense random cubic system in 3 variables with its start and homotopy.

    Every monomial of total degree <= 3 gets a complex Gaussian coefficient;
    start-system constants and gamma follow from the same generator.
    """
    from pierihom.polysys import Homotopy, PolySystem, Term, total_degree_start

    rng = np.random.default_rng(seed)
    monomials = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]
    target = PolySystem(3, [
        [Term(complex(rng.standard_normal(), rng.standard_normal()), e)
         for e in monomials]
        for _ in range(3)
    ])
    start, starts = total_degree_start(target, rng)
    gamma = complex(np.exp(2j * np.pi * rng.uniform()))
    return Homotopy(target=target, start=start, gamma=gamma), starts


def make_inputs(workload: Workload, held_out: bool) -> list[tuple[str, Any]]:
    """(label, input) per instance: a ProblemInput or (homotopy, starts)."""
    from pierihom import ProblemInput

    out = []
    for inst in workload.instances(held_out):
        if workload.kind == "pieri":
            m, p, q, seed = inst
            out.append((f"({m},{p},{q})s{seed}", ProblemInput.generate(m, p, q, seed)))
        else:
            out.append((f"cubic3s{inst}", dense_cubic(inst)))
    return out


_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {here!r})
import harness
harness.import_pierihom()
harness.make_inputs(harness.{workload!r}, {held_out!r})
print(time.perf_counter() - t0)
"""


def measure_setup(workload: Workload, held_out: bool) -> list[float]:
    """Set-up seconds in fresh processes: import, inputs and start roots.

    Interpreter start-up is left out; the clock starts before the first
    import, so numpy's import cost, which pierihom pays, is included.
    """
    code = _SETUP_PROBE.format(here=str(HERE), workload=workload, held_out=held_out)
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ------------------------------------------------------------- timed passes


@dataclass
class Attempt:
    """One timed solve (or track_all) call and what it returned."""

    label: str
    wall: float
    output: Any = None  # SolveResult | list[PathResult]
    error: str | None = None


@dataclass
class PassLog:
    attempts: list[Attempt] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(a.wall for a in self.attempts)


def solve_once(pierihom, workload: Workload, label: str, inp, workers: int,
               on_start=None) -> Attempt:
    """Time one public-API call; a raised error is recorded, not raised."""
    if on_start is not None:
        on_start(label)
    begin = time.perf_counter()
    try:
        if workload.kind == "pieri":
            out = pierihom.solve_pieri(inp, workers=workers)
        else:
            hom, starts = inp
            out = pierihom.track_all(hom, starts, schedule="static", workers=workers)
    except Exception as exc:  # a failed attempt is counted, never fatal
        return Attempt(label, time.perf_counter() - begin,
                       error=f"{type(exc).__name__}: {exc}")
    return Attempt(label, time.perf_counter() - begin, out)


def run_passes(pierihom, workload: Workload, inputs, seed: int,
               seconds: float | None, on_start=None) -> list[PassLog]:
    """Whole passes until the budget is used; ``seconds=None`` makes one.

    A further pass starts only while less than half a pass would overrun
    the budget, so the pass count is round(seconds / pass wall), at least 1.
    """
    rng = random.Random(seed)
    passes: list[PassLog] = []
    begin = time.perf_counter()
    while True:
        order = list(range(len(inputs)))
        rng.shuffle(order)
        log = PassLog()
        for i in order:
            label, inp = inputs[i]
            log.attempts.append(
                solve_once(pierihom, workload, label, inp, workload.workers, on_start)
            )
        passes.append(log)
        if seconds is None:
            return passes
        elapsed = time.perf_counter() - begin
        if elapsed + log.wall / 2 >= seconds:
            return passes


# ------------------------------------------------------------ verification


@dataclass
class Check:
    """Verdict on one attempt.

    ``good`` counts distinct verified laws (or converged, verified
    endpoints) and ``units`` the attempts it stands for: one per solve,
    one per path for ``track_all``.  ``admitted`` counts the failed units
    the program reported itself (lost paths, unconverged paths, a raised
    error); a failure beyond those was reported as success, which makes
    the run incorrect.
    """

    good: int
    units: int
    failed_units: int
    admitted: int
    reasons: list[str]


def _coeff_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1.0))


def _distinct(points: list[np.ndarray]) -> int:
    kept: list[np.ndarray] = []
    for x in points:
        if all(_coeff_distance(x, k) > SEPARATION_TOL for k in kept):
            kept.append(x)
    return len(kept)


def check_pieri(pierihom, problem, attempt: Attempt) -> Check:
    """Gate one solve: distinct verified laws must reach the root count."""
    root = pierihom.pieri_root_count(problem.m, problem.p, problem.q)
    if attempt.error is not None:
        return Check(0, 1, 1, 1, [f"raised {attempt.error}"])
    result = attempt.output
    report = pierihom.verify(result.solutions, problem)
    reasons = []
    if result.lost_paths:
        reasons.append(f"{result.lost_paths} lost paths")
    if report.min_distance is not None and report.min_distance < SEPARATION_TOL:
        reasons.append(f"pair at distance {report.min_distance:.1e}")
    if report.max_residual > RESIDUAL_TOL:
        reasons.append(f"residual {report.max_residual:.1e}")
    verified = [
        s.coefficients for s, row in zip(result.solutions, report.residuals)
        if float(np.max(row, initial=0.0)) <= RESIDUAL_TOL
    ]
    good = _distinct(verified)
    if good < root:
        reasons.append(f"{good} distinct verified laws of {root}")
    return Check(good, 1, 1 if reasons else 0, 1 if result.lost_paths else 0,
                 reasons)


def check_track(hom, starts, attempt: Attempt) -> Check:
    """Gate one track_all call: every path must converge to a distinct root.

    The residual is the plain norm of the target system at the endpoint,
    the quantity the tracker's own ``residual_tol`` bounds.
    """
    if attempt.error is not None:
        return Check(0, len(starts), len(starts), len(starts),
                     [f"raised {attempt.error}"])
    results = attempt.output
    reasons = []
    converged = [r.endpoint for r in results if r.status == "converged"]
    unconverged = len(results) - len(converged)
    if unconverged:
        reasons.append(f"{unconverged} paths did not converge")
    verified = [x for x in converged
                if float(np.linalg.norm(hom.target.evaluate(x))) <= RESIDUAL_TOL]
    if len(verified) < len(converged):
        reasons.append(f"{len(converged) - len(verified)} converged endpoints "
                       f"with residual above {RESIDUAL_TOL:.0e}")
    good = _distinct(verified)
    if good < len(verified):
        reasons.append(f"{len(verified) - good} verified endpoints repeat a root")
    return Check(good, len(results), len(results) - good, unconverged, reasons)


def fingerprint(pierihom, workload: Workload, inp, attempt: Attempt) -> str:
    """Timing-free, byte-exact rendering of one attempt's output."""
    if attempt.error is not None:
        return "error: " + attempt.error
    if workload.kind == "pieri":
        return pierihom.solutions_to_json(attempt.output, inp)
    return repr([(r.status, r.endpoint.tobytes(), r.steps_used) for r in attempt.output])


@dataclass
class Verdict:
    attempted: int
    failed: int
    good: int
    correct: bool
    notes: list[str]
    verify_s: float


def check_run(pierihom, workload: Workload, inputs, passes: list[PassLog]) -> Verdict:
    """Check every attempt, and that repeated solves give identical bytes.

    On ``ladder-w2`` each instance is also solved once at workers=1, and
    the two solution files must be byte-identical.
    """
    by_label = dict(inputs)
    attempted = failed = good = 0
    correct = True
    notes: list[str] = []
    verify_s = 0.0
    reference: dict[str, str] = {}
    for log in passes:
        for att in log.attempts:
            inp = by_label[att.label]
            begin = time.perf_counter()
            if workload.kind == "pieri":
                chk = check_pieri(pierihom, inp, att)
            else:
                chk = check_track(*inp, att)
            verify_s += time.perf_counter() - begin
            attempted += chk.units
            failed += chk.failed_units
            good += chk.good
            found = [f"{att.label}: {r}" for r in chk.reasons]
            if chk.failed_units > chk.admitted:
                correct = False
                found.append(f"{att.label}: failure reported as success")
            fp = fingerprint(pierihom, workload, inp, att)
            if reference.setdefault(att.label, fp) != fp:
                correct = False
                found.append(f"{att.label}: output differs between passes")
            notes += [n for n in found if n not in notes]
    if workload.kind == "pieri" and workload.workers != 1:
        for label, inp in inputs:
            att = solve_once(pierihom, workload, label, inp, 1)
            if fingerprint(pierihom, workload, inp, att) != reference[label]:
                correct = False
                notes.append(f"{label}: workers=1 and workers={workload.workers} "
                             "solution files differ")
    return Verdict(attempted, failed, good, correct, notes, verify_s)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3
