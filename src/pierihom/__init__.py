"""Numerical Schubert calculus for linear systems control.

Computes all dynamic output feedback laws of an (m-input, p-output,
q-state) linear system by Pieri homotopy continuation, with an in-process
master/worker scheduler for the path-tracking jobs.
"""
from __future__ import annotations

from .engine import (
    ProblemInput,
    SolutionMap,
    SolveResult,
    VerifyReport,
    solve_pieri,
    solutions_to_json,
    verify,
)
from .patterns import (
    LocalizationPattern,
    dmp_count,
    pieri_root_count,
    target_pattern,
    trivial_pattern,
)
from .polysys import PolySystem, total_degree_start
from .scheduler import run_dynamic, run_static
from .tracker import TrackerOptions, track_all, track_path

__version__ = "0.1.0"

__all__ = [
    "LocalizationPattern",
    "PolySystem",
    "ProblemInput",
    "SolutionMap",
    "SolveResult",
    "TrackerOptions",
    "VerifyReport",
    "dmp_count",
    "pieri_root_count",
    "run_dynamic",
    "run_static",
    "solutions_to_json",
    "solve_pieri",
    "target_pattern",
    "total_degree_start",
    "track_all",
    "track_path",
    "trivial_pattern",
    "verify",
]
