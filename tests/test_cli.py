"""Command-line surface: exit codes, file formats, reproducibility."""

import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import eqflow
import eqflow.cli
from eqflow import IterationRecord
from eqflow.cli import HISTORY_COLUMNS, SUITE_COLUMNS, main

SCI9 = re.compile(r"^-?\d\.\d{8}e[+-]\d{2,3}$")


def test_solve_converged_exit_zero(tmp_path, capsys):
    out = tmp_path / "r.json"
    hist = tmp_path / "h.csv"
    code = main(["solve", "--problem", "ex1", "--n", "120",
                 "--json", str(out), "--history", str(hist)])
    assert code == 0
    assert "converged" in capsys.readouterr().out

    payload = json.loads(out.read_text())
    assert payload["problem"] == "ex1"
    assert payload["status"] == "converged"
    assert payload["n"] == 120 and payload["m"] == 60
    assert abs(payload["f_star"] - 60 * 160.0 / 11.0) < 1e-3
    assert payload["kkt_inf"] <= 1e-6
    assert payload["config"]["eps"] == 1e-6

    lines = hist.read_text().splitlines()
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert len(lines) == 1 + payload["total_iters"]
    first = lines[1].split(",")
    assert first[0] == "0"
    for field in (1, 2, 3, 4, 7):  # f, pg_inf, pg_2, dt, model_decrease
        assert SCI9.match(first[field]), first[field]
    assert first[6] in ("0", "1")


@pytest.mark.parametrize("pid, n, expected", [
    ("ex1", 120, f"{60 * 160.0 / 11.0:.8e} (closed form (separable blocks))"),
    ("ex8", 4800, "-1.21244584e+04 (reference value at benchmark size)"),
    ("ex8", 120, None)], ids=["ex1-120", "ex8-4800", "ex8-120"])
def test_solve_prints_known_f_star(pid, n, expected, capsys):
    main(["solve", "--problem", pid, "--n", str(n)])
    known = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("known f_star")]
    assert known == ([] if expected is None else [f"known f_star   {expected}"])


def test_solve_history_row_per_iteration(tmp_path):
    out = tmp_path / "r.json"
    hist = tmp_path / "h.csv"
    assert main(["solve", "--problem", "ex10", "--n", "48",
                 "--json", str(out), "--history", str(hist)]) == 0
    payload = json.loads(out.read_text())
    lines = hist.read_text().splitlines()
    assert lines[0] == ",".join(IterationRecord._fields)
    assert len(lines) == 1 + payload["total_iters"]


def test_solve_bad_dimension_exit_one(capsys):
    assert main(["solve", "--problem", "ex1", "--n", "7"]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_usage_error_exit_one(capsys):
    assert main(["solve", "--problem", "nope", "--n", "4"]) == 1
    assert main(["frobnicate"]) == 1


def test_solve_non_converged_exit_two(tmp_path):
    assert main(["solve", "--problem", "ex1", "--n", "120",
                 "--max-iter", "1"]) == 2


def test_solve_flags_set_config(tmp_path):
    out = tmp_path / "r.json"
    assert main(["solve", "--problem", "ex3", "--n", "12", "--tol", "1e-3",
                 "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"] == {"eps": 1e-3, "max_iter": 10000}
    assert main(["solve", "--problem", "ex3", "--n", "12",
                 "--config", str(out)]) == 1


def test_solve_has_no_dt0_flag(capsys):
    # the initial time step is a constant of the solver, not a setting
    assert main(["solve", "--problem", "ex1", "--n", "12", "--dt0", "1"]) == 1
    assert "unrecognized arguments: --dt0" in capsys.readouterr().err


def test_solve_bad_config_exits_one(capsys):
    assert main(["solve", "--problem", "ex3", "--n", "12", "--tol", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "error: eps must be positive" in err


def test_suite_subset(tmp_path):
    out = tmp_path / "suite.csv"
    code = main(["suite", "--scale", "desk", "--only", "ex3,ex10,ex1",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SUITE_COLUMNS)
    assert len(lines) == 4
    # rows come back in canonical problem order regardless of --only order
    assert [ln.split(",")[0] for ln in lines[1:]] == ["ex1", "ex3", "ex10"]
    row = dict(zip(SUITE_COLUMNS, lines[1].split(",")))
    assert row["status"] == "converged"
    assert row["n"] == "120" and row["m"] == "60"
    assert SCI9.match(row["f_star"])


def test_suite_stdout_when_no_out(capsys):
    code = main(["suite", "--n", "12", "--only", "ex1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(",".join(SUITE_COLUMNS))


def test_suite_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["suite", "--n", "24", "--only", "ex1,ex6,ex8", "--out", str(a)]) == 0
    assert main(["suite", "--n", "24", "--only", "ex1,ex6,ex8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_suite_frees_each_system_once_solved(monkeypatch):
    # each system keeps its projector, so a suite that kept every problem
    # would hold every projector until it ends
    solved = []
    real_solve_row = eqflow.cli._solve_row

    def solve_row(problem, cfg):
        assert all(ref() is None for ref in solved)
        solved.append(weakref.ref(problem.cs))
        return real_solve_row(problem, cfg)

    monkeypatch.setattr(eqflow.cli, "_solve_row", solve_row)
    assert main(["suite", "--n", "24", "--only", "ex1,ex3,ex8"]) == 0
    assert len(solved) == 3


def test_suite_bad_n_exit_one(capsys, tmp_path):
    assert main(["suite", "--n", "10", "--only", "ex3"]) == 1
    # ex1 fits n = 10 and is solved first; ex2 does not, so no report is written
    out = tmp_path / "suite.csv"
    assert main(["suite", "--n", "10"]) == 1
    assert main(["suite", "--n", "10", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "ex2 needs n" in captured.err
    assert not out.exists()


def test_suite_unknown_only_exit_one(capsys):
    assert main(["suite", "--only", "ex1,exZ"]) == 1
    assert main(["suite", "--only", ","]) == 1  # names no problem at all
    assert capsys.readouterr().out == ""


def test_suite_scale_and_n_conflict():
    assert main(["suite", "--scale", "desk", "--n", "12"]) == 1


def test_check_grad_pass(capsys):
    assert main(["check-grad", "--problem", "ex1", "--n", "12"]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("points", ["0", "-3"])
def test_check_grad_over_no_point_exits_one(capsys, points):
    # a check over no point checks nothing and must not report "ok"
    assert main(["check-grad", "--problem", "ex1", "--n", "12",
                 "--points", points]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "error: num_points must be positive" in err


def test_check_grad_ex8_seeded(capsys):
    assert main(["check-grad", "--problem", "ex8", "--n", "12",
                 "--seed", "7"]) == 0


def test_check_grad_unknown_problem(capsys):
    assert main(["check-grad", "--problem", "exZ", "--n", "12"]) == 1
    assert "invalid choice: 'exZ'" in capsys.readouterr().err


def test_import_and_runs_load_no_scipy():
    # scipy.sparse alone costs about 0.2 s and 20 MB on every start-up
    code = ("import sys, eqflow, eqflow.cli\n"
            "eqflow.cli.main(['suite', '--scale', 'desk'])\n"
            "eqflow.gradient_check(eqflow.build('ex8', 120))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = Path(eqflow.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
