"""In-process tests for the command-line front end."""
from __future__ import annotations

import json

import numpy as np

from pierihom.cli import main
from pierihom.polysys import PolySystem, Term, system_to_json


def write_system(path, polys, nvars):
    doc = system_to_json(PolySystem(nvars, polys))
    path.write_text(json.dumps(doc))


def test_count_prints_root_count(capsys):
    assert main(["count", "-m", "3", "-p", "3", "-q", "1"]) == 0
    out = capsys.readouterr().out
    assert "root count: 2730" in out
    assert "conditions: 15" in out
    assert "target pattern: [5 6 10]" in out
    assert "dmp count" not in out  # only printed for q = 0


def test_count_q0_prints_dmp(capsys):
    assert main(["count", "-m", "4", "-p", "4", "-q", "0"]) == 0
    out = capsys.readouterr().out
    assert "root count: 24024" in out
    assert "dmp count: 24024" in out
    assert "conditions: 16" in out


def test_count_trivial_sizes(capsys):
    assert main(["count", "-m", "1", "-p", "1", "-q", "0"]) == 0
    out = capsys.readouterr().out
    assert "root count: 1" in out
    assert "target pattern: [2]" in out


def test_count_invalid_sizes_exit_2(capsys):
    assert main(["count", "-m", "0", "-p", "2", "-q", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_missing_subcommand_exit_2():
    assert main([]) == 2


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_solve_writes_solution_file(tmp_path, capsys):
    out = tmp_path / "sols.json"
    code = main(["solve", "-m", "2", "-p", "2", "-q", "0",
                 "--seed", "1", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 2
    assert doc["root_count"] == 2
    assert doc["lost_paths"] == 0
    assert len(doc["solutions"]) == 2
    printed = capsys.readouterr().out
    assert "solutions: 2" in printed
    assert "max residual:" in printed
    assert "jobs per level:" in printed
    assert "contour retries: 0\nwall time:" in printed


def test_solve_static_schedule_rejected(tmp_path, capsys):
    # edge jobs fix the schedule, so solve takes no --schedule at all
    code = main(["solve", "-m", "2", "-p", "2", "--seed", "1",
                 "--schedule", "static",
                 "--output", str(tmp_path / "s.json")])
    assert code == 2
    assert "unrecognized arguments: --schedule static" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_non_positive_worker_count_exit_2(tmp_path, capsys):
    sys_path = tmp_path / "sys.json"
    write_system(sys_path, [[Term(1 + 0j, (2,)), Term(-1 + 0j, (0,))]], nvars=1)
    for argv in (["solve", "-m", "2", "-p", "2", "--seed", "1"],
                 ["track", "--input", str(sys_path)]):
        out = tmp_path / "out.json"
        assert main(argv + ["--workers", "0", "--output", str(out)]) == 2
        assert "worker count must be positive" in capsys.readouterr().err
        assert not out.exists()


def test_help_lists_count_solve_track(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "{count,solve,track}" in out
    assert main(["bench"]) == 2


def test_solve_worker_count_gives_identical_files(tmp_path, capsys):
    files = []
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}.json"
        code = main(["solve", "-m", "2", "-p", "2", "-q", "1",
                     "--seed", "7", "--workers", str(workers),
                     "--output", str(out)])
        assert code == 0
        files.append(out.read_bytes())
    assert files[0] == files[1] == files[2]
    doc = json.loads(files[0])
    assert doc["count"] == 8


def test_solve_tight_step_budget_reports_losses(tmp_path, capsys):
    out = tmp_path / "lossy.json"
    code = main(["solve", "-m", "2", "-p", "2", "-q", "0", "--seed", "1",
                 "--max-steps", "1", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "lost" in captured.err
    doc = json.loads(out.read_text())
    assert doc["lost_paths"] >= 1
    assert doc["count"] + doc["lost_paths"] == doc["root_count"]


def test_track_closed_form_roots(tmp_path, capsys):
    sys_path = tmp_path / "sys.json"
    write_system(sys_path, [
        [Term(1 + 0j, (2, 0)), Term(-4 + 0j, (0, 0))],  # x^2 - 4
        [Term(1 + 0j, (0, 2)), Term(-9 + 0j, (0, 0))],  # y^2 - 9
    ], nvars=2)
    out = tmp_path / "ends.json"
    code = main(["track", "--input", str(sys_path), "--seed", "3",
                 "--output", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "converged: 4" in printed
    assert "diverged: 0" in printed
    assert "failed: 0" in printed
    doc = json.loads(out.read_text())
    assert doc["paths"] == 4
    points = {
        (round(e["point"][0][0]), round(e["point"][1][0]))
        for e in doc["endpoints"]
    }
    assert points == {(2, 3), (2, -3), (-2, 3), (-2, -3)}
    for e in doc["endpoints"]:
        x, y = (complex(*e["point"][0]), complex(*e["point"][1]))
        assert abs(x * x - 4) < 1e-8 and abs(y * y - 9) < 1e-8


def test_track_single_variable(tmp_path, capsys):
    sys_path = tmp_path / "sys.json"
    write_system(sys_path, [[Term(1 + 0j, (2,)), Term(-1 + 0j, (0,))]], nvars=1)
    code = main(["track", "--input", str(sys_path), "--seed", "1",
                 "--output", str(tmp_path / "e.json")])
    assert code == 0
    doc = json.loads((tmp_path / "e.json").read_text())
    roots = sorted(round(e["point"][0][0]) for e in doc["endpoints"])
    assert roots == [-1, 1]


def test_track_schedules_agree(tmp_path):
    sys_path = tmp_path / "sys.json"
    write_system(sys_path, [
        [Term(1 + 0j, (2, 0)), Term(-4 + 0j, (0, 0))],
        [Term(1 + 0j, (0, 2)), Term(-9 + 0j, (0, 0))],
    ], nvars=2)
    blobs = []
    for schedule in ("static", "dynamic"):
        out = tmp_path / f"{schedule}.json"
        assert main(["track", "--input", str(sys_path), "--seed", "5",
                     "--schedule", schedule, "--workers", "2",
                     "--output", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_track_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["track", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"nvars": 2, "polys": [[{"re": 1.0}]]}))
    assert main(["track", "--input", str(wrong)]) == 2

    missing = tmp_path / "nope.json"
    assert main(["track", "--input", str(missing)]) == 2


def test_track_non_integer_exponent_exit_2(tmp_path, capsys):
    # x^2.5 - 4 = 0 must not be tracked as x^2 - 4 = 0
    doc = {"nvars": 2, "polys": [
        [{"re": 1.0, "im": 0.0, "exp": [2.5, 0]}, {"re": -4.0, "im": 0.0, "exp": [0, 0]}],
        [{"re": 1.0, "im": 0.0, "exp": [0, 2]}, {"re": -9.0, "im": 0.0, "exp": [0, 0]}],
    ]}
    for name, bad in (("exponent", doc), ("nvars", dict(doc, nvars=2.9))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / f"{name}_ends.json"
        assert main(["track", "--input", str(path), "--output", str(out)]) == 2
        assert f"{name} must be an integer" in capsys.readouterr().err
        assert not out.exists()


def test_track_non_finite_coefficient_exit_2(tmp_path, capsys):
    # json reads the NaN and Infinity tokens, and 1e400 overflows to inf
    template = (
        '{"nvars": 2, "polys": [[{"re": 1.0, "im": 0.0, "exp": [2, 0]},'
        ' {"re": %s, "im": %s, "exp": [0, 0]}],'
        ' [{"re": 1.0, "im": 0.0, "exp": [0, 2]},'
        ' {"re": -9.0, "im": 0.0, "exp": [0, 0]}]]}'
    )
    for i, pair in enumerate((("NaN", "0.0"), ("-4.0", "1e400"), ("-Infinity", "0.0"))):
        path = tmp_path / f"bad{i}.json"
        path.write_text(template % pair)
        out = tmp_path / f"bad{i}_ends.json"
        assert main(["track", "--input", str(path), "--output", str(out)]) == 2
        assert "coefficient must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_track_non_number_coefficient_exit_2(tmp_path, capsys):
    # true and "2.5" are not JSON numbers: no tracking, no endpoints file
    doc = {"nvars": 1, "polys": [[{"re": True, "im": "2.5", "exp": [1]},
                                  {"re": -4.0, "im": 0.0, "exp": [0]}]]}
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "bool_ends.json"
    assert main(["track", "--input", str(path), "--output", str(out)]) == 2
    assert "must be a number" in capsys.readouterr().err
    assert not out.exists()


def test_track_empty_system_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"nvars": 2, "polys": []}))
    assert main(["track", "--input", str(empty)]) == 2
    assert "no polynomials" in capsys.readouterr().err


def test_track_constant_polynomial_exit_2(tmp_path, capsys):
    # x^2 - 4 = 0, 3 = 0 has no root: a usage error, not lost paths
    const = tmp_path / "const.json"
    write_system(const, [[Term(1 + 0j, (2, 0)), Term(-4 + 0j, (0, 0))],
                         [Term(3 + 0j, (0, 0))]], nvars=2)
    out = tmp_path / "ends.json"
    assert main(["track", "--input", str(const), "--output", str(out)]) == 2
    assert "polynomial 1 is a nonzero constant" in capsys.readouterr().err
    assert not out.exists()


def test_track_tol_below_start_residual_exit_2(tmp_path, capsys):
    # the total-degree starts meet their equations to ~1e-16, not 1e-30
    sys_path = tmp_path / "sys.json"
    write_system(sys_path, [
        [Term(1 + 0j, (2, 0)), Term(-4 + 0j, (0, 0))],
        [Term(1 + 0j, (0, 2)), Term(-9 + 0j, (0, 0))],
    ], nvars=2)
    out = tmp_path / "ends.json"
    errors = set()
    for workers in ("1", "2", "4"):
        assert main(["track", "--input", str(sys_path), "--seed", "3", "--tol", "1e-30",
                     "--workers", workers, "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "start residual" in err[0]
        errors.add(err[0])
        assert not out.exists()
    assert len(errors) == 1  # the same start is named at every worker count


def test_track_non_square_exit_2(tmp_path, capsys):
    rect = tmp_path / "rect.json"
    write_system(rect, [[Term(1 + 0j, (1, 0))]], nvars=2)
    assert main(["track", "--input", str(rect)]) == 2
    assert "square" in capsys.readouterr().err


def test_solve_bad_tol_exit_2(tmp_path, capsys):
    code = main(["solve", "-m", "2", "-p", "2", "--seed", "1",
                 "--tol", "-1.0", "--output", str(tmp_path / "x.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_solve_non_finite_tol_exit_2(tmp_path, capsys):
    # nan compares false against 0, so a sign check alone lets it through
    for tol in ("nan", "inf"):
        out = tmp_path / f"{tol}.json"
        code = main(["solve", "-m", "2", "-p", "2", "-q", "0", "--seed", "1",
                     "--tol", tol, "--output", str(out)])
        assert code == 2
        assert "residual_tol" in capsys.readouterr().err
        assert not out.exists()
