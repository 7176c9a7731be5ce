"""Fast self-test of the benchmark harness on (2,2,0) instances.

    python3 perfbench/selftest.py

Checks, in a few seconds, that every metric of BENCHMARK.json is printed
with its unit in both modes, that a doctored solve with one law duplicated
counts as failed (and as reported wrongly), and that per-layer counts
repeat exactly across two traced runs and between workers=1 and workers=2.
Exits non-zero if any check fails.
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402

SMALL = harness.Workload(
    "selftest-220", "pieri", 1,
    ((2, 2, 0, 1), (2, 2, 0, 2), (2, 2, 0, 3)),
    ((2, 2, 0, 4), (2, 2, 0, 5), (2, 2, 0, 6)),
)
SMALL_W2 = harness.Workload(
    "selftest-220-w2", "pieri", 2, SMALL.primary, SMALL.held_out,
)


def _printed(out: str, declared: list[dict]) -> list[str]:
    """Problems with how the declared metrics appear in one run's output."""
    *table, last = out.splitlines()
    result = json.loads(last)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"metric names {sorted(result['metrics'])}")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        if not any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in table):
            problems.append(f"{m['name']} not printed with unit {m['unit']}")
    return problems


def _counts(metrics: dict) -> dict:
    return {n: v for n, v in metrics.items() if run.UNITS[n] == "count"}


def main() -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    out = run.render(*run.measure(SMALL, seed=0, seconds=0.0, held_out=False))
    failures += _printed(out, spec["end_to_end"])
    first = run.trace(SMALL, seed=0, held_out=False)
    failures += _printed(run.render(*first), spec["per_layer"])

    again = run.trace(SMALL, seed=5, held_out=False)
    two = run.trace(SMALL_W2, seed=0, held_out=False)
    for label, other in (("second traced run", again), ("workers=2", two)):
        a, b = _counts(first[1]), _counts(other[1])
        diff = {n: (a[n], b[n]) for n in a if a[n] != b[n]}
        if diff:
            failures.append(f"per-layer counts differ on {label}: {diff}")

    pierihom = harness.import_pierihom()
    inputs = harness.make_inputs(SMALL, held_out=False)
    passes = harness.run_passes(pierihom, SMALL, inputs, 0, None)
    honest = harness.check_run(pierihom, SMALL, inputs, passes)
    if honest.failed or not honest.correct:
        failures.append(f"undoctored run flagged: {honest.notes}")
    doctored = copy.deepcopy(passes)
    result = doctored[0].attempts[0].output
    result.solutions[1] = copy.deepcopy(result.solutions[0])
    verdict = harness.check_run(pierihom, SMALL, inputs, doctored)
    if verdict.failed != 1 or verdict.correct:
        failures.append(f"duplicated law not caught: failed={verdict.failed}, "
                        f"correct={verdict.correct}, notes={verdict.notes}")

    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
