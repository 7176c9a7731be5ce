"""Command-line front end for the Pieri homotopy solver.

Subcommands:
  count  print the number of feedback laws for problem sizes (m, p, q)
  solve  generate a seeded random instance, solve it, write solution JSON
  track  track all total-degree start paths of a polynomial system file

Exit codes: 0 success, 1 solve finished with lost paths, 2 usage or
input error.  Every subcommand is deterministic given its seed and flags;
parallelism lives entirely in the scheduler module.  Only ``track`` takes
``--schedule``: its paths are independent.  ``solve`` runs one round per
tree level, since an edge starts from its parent's endpoint; a round's
jobs are independent and always run under dynamic dispatch.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .engine import ProblemInput, solutions_to_json, solve_pieri, verify
from .patterns import dmp_count, num_conditions, pieri_root_count, target_pattern
from .polysys import Homotopy, system_from_json, total_degree_start
from .tracker import TrackerOptions, track_all


def _tracker_options(args: argparse.Namespace) -> TrackerOptions:
    overrides = {}
    if args.tol is not None:
        overrides["residual_tol"] = args.tol
    if args.max_steps is not None:
        overrides["max_steps"] = args.max_steps
    return TrackerOptions(**overrides)


def cmd_count(args: argparse.Namespace) -> int:
    target = target_pattern(args.m, args.p, args.q)
    print(f"m={args.m} p={args.p} q={args.q}")
    print(f"root count: {pieri_root_count(args.m, args.p, args.q)}")
    if args.q == 0:
        print(f"dmp count: {dmp_count(args.m, args.p)}")
    print(f"conditions: {num_conditions(args.m, args.p, args.q)}")
    print(f"target pattern: {target}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    options = _tracker_options(args)
    problem = ProblemInput.generate(args.m, args.p, args.q, args.seed)
    print(f"m={args.m} p={args.p} q={args.q} seed={args.seed} workers={args.workers}")
    print(f"root count: {pieri_root_count(args.m, args.p, args.q)}")
    begin = time.perf_counter()
    try:
        result = solve_pieri(problem, workers=args.workers, options=options)
    except RuntimeError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - begin
    report = verify(result.solutions, problem)
    print(f"solutions: {len(result.solutions)}")
    print(f"max residual: {report.max_residual:.3e}")
    if report.min_distance is not None:
        print(f"min separation: {report.min_distance:.3e}")
    levels = " ".join(f"{d}:{c}" for d, c in sorted(result.level_counts.items()))
    print(f"jobs per level: {levels}")
    retries = sum(rec.contour > 0 for rec in result.edge_records)
    print(f"contour retries: {retries}")
    print(f"wall time: {elapsed:.2f}s")
    out = args.output or f"solutions_m{args.m}_p{args.p}_q{args.q}_seed{args.seed}.json"
    Path(out).write_text(solutions_to_json(result, problem))
    print(f"wrote: {out}")
    if result.lost_paths:
        print(f"lost {result.lost_paths} of "
              f"{pieri_root_count(args.m, args.p, args.q)} paths:", file=sys.stderr)
        for loss in result.losses:
            print(f"  edge {loss.edge_id} pattern {list(loss.pattern)} "
                  f"status {loss.status} lost {loss.paths_lost}", file=sys.stderr)
        return 1
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    obj = json.loads(Path(args.input).read_text())
    system = system_from_json(obj)
    if not system.polys:
        raise ValueError("system has no polynomials")
    if len(system.polys) != system.nvars:
        raise ValueError(
            f"tracking needs a square system, got {len(system.polys)} "
            f"polynomials in {system.nvars} variables"
        )
    rng = np.random.default_rng(args.seed)
    start, starts = total_degree_start(system, rng)
    gamma = complex(np.exp(2j * np.pi * rng.uniform()))
    hom = Homotopy(target=system, start=start, gamma=gamma)
    opts = _tracker_options(args)
    print(f"system: {len(system.polys)} polynomials in {system.nvars} variables, "
          f"{len(starts)} start paths")
    begin = time.perf_counter()
    results = track_all(hom, starts, schedule=args.schedule,
                        workers=args.workers, opts=opts)
    elapsed = time.perf_counter() - begin
    tally = {"converged": 0, "diverged": 0, "failed": 0}
    for res in results:
        tally[res.status] += 1
    print(f"converged: {tally['converged']}  diverged: {tally['diverged']}  "
          f"failed: {tally['failed']}")
    hits = [r.residual for r in results if r.status == "converged"]
    if hits:
        print(f"max residual: {max(hits):.3e}")
    print(f"wall time: {elapsed:.2f}s")
    out = args.output or str(Path(args.input).with_suffix("")) + "_endpoints.json"
    doc = {
        "nvars": system.nvars,
        "paths": len(results),
        "endpoints": [
            {
                "status": r.status,
                "point": [[float(z.real), float(z.imag)] for z in r.endpoint],
                "residual": float(r.residual),
                "t_reached": float(r.t_reached),
                "steps": r.steps_used,
            }
            for r in results
        ],
    }
    Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote: {out}")
    return 0


def _add_sizes(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-m", type=int, required=True, help="number of inputs")
    parser.add_argument("-p", type=int, required=True, help="number of outputs")
    parser.add_argument("-q", type=int, default=0,
                        help="number of internal states (default 0)")


def _add_tracking(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads (default 1)")
    parser.add_argument("--output", default=None, help="output JSON path")
    parser.add_argument("--tol", type=float, default=None,
                        help="endpoint residual tolerance")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="predictor-corrector step budget per path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pierihom",
        description="Dynamic output feedback laws by Pieri homotopy continuation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count_p = sub.add_parser(
        "count", help="print the root count for problem sizes (m, p, q)")
    _add_sizes(count_p)
    count_p.set_defaults(func=cmd_count)

    solve_p = sub.add_parser(
        "solve", help="solve a seeded random instance and write solutions")
    _add_sizes(solve_p)
    _add_tracking(solve_p)
    solve_p.set_defaults(func=cmd_solve)

    track_p = sub.add_parser(
        "track", help="track all total-degree starts of a system JSON file")
    track_p.add_argument("--input", required=True, help="system JSON path")
    _add_tracking(track_p)
    track_p.add_argument("--schedule", choices=("static", "dynamic"),
                         default="static", help="dispatch policy (default static)")
    track_p.set_defaults(func=cmd_track)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
