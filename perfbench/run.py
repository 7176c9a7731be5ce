"""Solve benchmark for pierihom: time to all verified feedback laws.

Run from the repository root:

    python3 perfbench/run.py --workload ladder-w1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all                # every workload
    python3 perfbench/run.py --workload collide-w1 --trace 1 --held-out

``--trace 0`` times whole passes over the workload's instance set with no
instrumentation and reports the end-to-end metrics.  ``--trace 1`` makes
one untraced and one traced pass, prints the per-layer table and the
tracing overhead, and writes the spans to ``.perfbench_out/``
(one gzipped JSONL file per workload, replaced by its next traced run).  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The seed only orders the solves within each pass, so every seed measures
the same work; ``--held-out`` swaps in the workload's held-out instance
set, which has the same property, for checking a claim on unseen inputs.
The exit code is non-zero, with no JSON line, when the package cannot be
imported or a correctness check cannot be evaluated.
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import spans  # noqa: E402

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("wall_s", "s"),
    ("solutions_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
UNITS = dict(END_TO_END) | {name: unit for name, unit, _ in spans.PER_LAYER}
TRACE_DIR = harness.ROOT / ".perfbench_out"


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _gate_lines(verdict: harness.Verdict) -> list[str]:
    share = verdict.failed / verdict.attempted
    lines = [
        f"  {'failed_share':<34}{share:>14.6f} ratio   "
        f"{verdict.failed} of {verdict.attempted} attempts",
        f"  correct: {verdict.correct}",
    ]
    lines += [f"  check: {note}" for note in verdict.notes]
    return lines


def measure(workload: harness.Workload, seed: int, seconds: float,
            held_out: bool) -> tuple[list[str], dict, harness.Verdict]:
    """Untraced run: set-up samples, timed passes, then the checks."""
    setup = harness.measure_setup(workload, held_out)
    pierihom = harness.import_pierihom()
    inputs = harness.make_inputs(workload, held_out)
    passes = harness.run_passes(pierihom, workload, inputs, seed, seconds)
    verdict = harness.check_run(pierihom, workload, inputs, passes)
    pass_walls = [p.wall for p in passes]
    solve_walls = [a.wall for p in passes for a in p.attempts]
    q1, wall, q3 = harness.quartiles(pass_walls)
    s1, smed, s3 = harness.quartiles(solve_walls)
    u1, setup_s, u3 = harness.quartiles(setup)
    metrics = {
        "wall_s": wall,
        "solutions_per_s": verdict.good / len(passes) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    good = "converged endpoints" if workload.kind == "track" else "distinct verified laws"
    notes = {
        "wall_s": f"median of {len(passes)} passes (q1 {q1:.3f}, q3 {q3:.3f}); "
                  f"per solve median {smed:.3f}, q1 {s1:.3f}, q3 {s3:.3f}, "
                  f"n={len(solve_walls)}",
        "solutions_per_s": f"{verdict.good // len(passes)} {good} per pass over wall_s",
        "setup_s": f"median of {len(setup)} fresh processes "
                   f"(q1 {u1:.3f}, q3 {u3:.3f})",
        "peak_rss_mb": "this process and its set-up children",
    }
    lines = [f"  {n:<34}{metrics[n]:>14.6f} {u:<7} {notes[n]}" for n, u in END_TO_END]
    return lines + _gate_lines(verdict), metrics, verdict


def trace(workload: harness.Workload, seed: int, held_out: bool
          ) -> tuple[list[str], dict, harness.Verdict]:
    """One untraced and one traced pass; per-layer metrics from the spans."""
    pierihom = harness.import_pierihom()
    inputs = harness.make_inputs(workload, held_out)
    plain = harness.run_passes(pierihom, workload, inputs, seed, None)
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        traced = harness.run_passes(
            pierihom, workload, inputs, seed, None,
            on_start=lambda label: setattr(rec, "instance", label),
        )
    finally:
        uninstall()
    verdict = harness.check_run(pierihom, workload, inputs, plain + traced)
    metrics = spans.per_layer(rec, traced[0].wall, plain[0].wall,
                              verdict.verify_s / 2)
    out = TRACE_DIR / f"trace-{workload.name}.jsonl.gz"
    rec.write_jsonl(out)
    lines = [f"  {name:<34}{metrics[name]:>14.6f} {unit}"
             for name, unit, _ in spans.PER_LAYER]
    lines.append(f"  spans: {len(rec.spans)} written to "
                 f"{out.relative_to(harness.ROOT)}")
    return lines + _gate_lines(verdict), metrics, verdict


def render(lines: list[str], metrics: dict, verdict: harness.Verdict) -> str:
    """The table, then the one-line JSON result."""
    result = json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    })
    return "\n".join([*lines, result])


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process so memory figures stay apart."""
    worst = 0
    for name in harness.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--held-out"] if args.held_out else [])
        worst = max(worst, subprocess.run(cmd, cwd=harness.ROOT).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget of the timed passes (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out instance set")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = harness.WORKLOADS[args.workload]
    harness.import_pierihom()  # exits non-zero when the sources are missing
    sets = "held-out" if args.held_out else "primary"
    print(f"workload {workload.name} ({sets} set "
          f"{list(workload.instances(args.held_out))}, workers={workload.workers}, "
          f"seed {args.seed}, trace {args.trace})")
    try:
        if args.trace:
            lines, metrics, verdict = trace(workload, args.seed, args.held_out)
        else:
            lines, metrics, verdict = measure(workload, args.seed, args.seconds,
                                              args.held_out)
    except Exception:  # a check that cannot be evaluated ends the run
        traceback.print_exc()
        print("perfbench: a correctness check could not be evaluated",
              file=sys.stderr)
        return 1
    if verdict.attempted < 1:
        print("perfbench: nothing was attempted", file=sys.stderr)
        return 1
    print(render(lines, metrics, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
