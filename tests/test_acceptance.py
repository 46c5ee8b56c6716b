"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``[criterion NN] ...: PASS|FAIL`` line (visible
with ``pytest -s`` or in captured output) and then asserts. The full-size
benchmark solves are shared through a module fixture so the whole gate stays within
a few minutes.
"""

import contextlib
import dataclasses
import io
import math
import time

import numpy as np
import pytest

from eqflow import (ConstraintSystem, PAPER_DIMS, PROBLEM_IDS, Status, build,
                    make_feasible, project_gradient, solve)
from eqflow.cli import main
from eqflow.direction import CurvaturePair, curvature_gate, direction
from oracles import dense_feasible, dense_h, dense_projection, ex8_block_minimum

DESK_N = 120

TABLE_F = {"ex1": 3.64e4, "ex2": 5.78e3, "ex3": 2.86e3, "ex4": 493.79,
           "ex5": 432.15, "ex6": 2.06e3, "ex7": 5.94e4, "ex9": 2.21e5,
           "ex10": 2.00}
TABLE_STEPS = {"ex1": 11, "ex2": 15, "ex3": 12, "ex4": 11, "ex5": 13,
               "ex6": 15, "ex7": 13, "ex8": 133, "ex9": 8, "ex10": 20}
INFEASIBLE_STARTS = ("ex2", "ex3", "ex4", "ex6", "ex7", "ex8")


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def _matches_3sig(value, reference):
    scale = 10.0 ** math.floor(math.log10(abs(reference)))
    return abs(value - reference) <= 0.5e-2 * scale + 1e-12


@pytest.fixture(scope="module")
def bench_results():
    """Default-config solves of all ten problems at benchmark sizes."""
    out = {}
    for pid in PROBLEM_IDS:
        problem = build(pid, PAPER_DIMS[pid])
        t0 = time.perf_counter()
        result = solve(problem)
        out[pid] = (problem, result, time.perf_counter() - t0)
    return out


def test_criterion_1_projector_properties():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, n))
        A = rng.standard_normal((m, n))
        g = rng.standard_normal(n)
        cs = ConstraintSystem(A=A, b=rng.standard_normal(m))
        pg = project_gradient(cs, g)
        gn = np.linalg.norm(g)
        oracle = dense_projection(A) @ g
        ok &= np.linalg.norm(project_gradient(cs, pg) - pg) <= 1e-10 * gn
        ok &= np.linalg.norm(A @ pg) <= 1e-10 * gn
        ok &= np.linalg.norm(pg) <= gn * (1.0 + 1e-12)
        ok &= np.linalg.norm(pg - oracle) <= 1e-9 * max(1.0, gn)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(1, "projector property suite (200 seeded systems)", ok,
            f"{elapsed:.2f} s")
    assert ok


def test_criterion_2_spectral_suite():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 51))
        pair = CurvaturePair.from_step(rng.standard_normal(n),
                                       rng.standard_normal(n))
        if not curvature_gate(pair):
            continue
        h = dense_h(pair, n)
        ok &= np.allclose(h, h.T, atol=1e-12)
        mu = np.sort(np.linalg.eigvalsh(h))
        ok &= mu[0] > 0.5 - 1e-8
        ok &= np.max(np.sort(np.abs(mu - 1.0))[: n - 2], initial=0.0) <= 1e-8
        ok &= abs(1.0 / mu[0] + 1.0 / mu[-1] - 2.0) <= 1e-8
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(2, "one-pair update spectral suite (200 seeded pairs)", ok,
            f"{elapsed:.2f} s")
    assert ok


def test_criterion_3_direction_oracle():
    rng = np.random.default_rng(1003)
    ok = True
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 51))
        pair = CurvaturePair.from_step(rng.standard_normal(n),
                                       rng.standard_normal(n))
        if not curvature_gate(pair):
            continue
        checked += 1
        pg = rng.standard_normal(n)
        d = direction(pg, pair)
        oracle = -dense_h(pair, n) @ pg
        ok &= np.linalg.norm(d - oracle) <= 1e-12 * max(np.linalg.norm(d), 1e-30)
        pg_sq = float(pg @ pg)
        ok &= float(d @ pg) <= -0.5 * pg_sq + 1e-10 * pg_sq
        if not ok:
            break
    _report(3, "direction matches dense reconstruction (500 instances)", ok)
    assert ok


def test_criterion_4_closed_form_optima(bench_results):
    ok = True
    details = []
    for pid, sizes, block_f, blocks in (
            ("ex1", (2, 120, 5000), 160.0 / 11.0, 2),
            ("ex3", (3, 120, 4800), 402.0 / 225.0, 3)):
        for n in sizes:
            if n == PAPER_DIMS[pid]:
                result = bench_results[pid][1]
            else:
                result = solve(build(pid, n))
            expected = (n // blocks) * block_f
            good = (result.status is Status.CONVERGED
                    and abs(result.f_star - expected) <= 1e-6 * abs(expected))
            ok &= good
            details.append(f"{pid}@{n}:{'ok' if good else 'BAD'}")
    _report(4, "closed-form optima ex1/ex3", ok, " ".join(details))
    assert ok


def test_criterion_5_table_reproduction(bench_results):
    ok = True
    details = []
    total = 0.0
    for pid, reference in TABLE_F.items():
        _, result, elapsed = bench_results[pid]
        total += elapsed
        good = (result.status is Status.CONVERGED
                and _matches_3sig(result.f_star, reference))
        ok &= good
        details.append(f"{pid}:{result.f_star:.4g}{'' if good else '!'}")
    total += bench_results["ex8"][2]
    _report(5, "benchmark objective reproduction (ex1-7,9,10)", ok,
            f"total solve time {total:.1f} s; " + " ".join(details))
    assert ok


def test_criterion_5_ex8_kkt_convergence(bench_results):
    """ex8 must certify a KKT point at benchmark scale, the global one.

    The run must end converged with kkt_inf and feas_inf at most 1e-6, and
    f* must be 1600 times the block minimum of a dense 2-D search, to a
    relative 1e-9: every block in the global basin.
    """
    problem, result, _ = bench_results["ex8"]
    block_min = ex8_block_minimum()
    expected = (PAPER_DIMS["ex8"] // 3) * block_min
    ok = (result.status is Status.CONVERGED
          and result.kkt_inf <= 1e-6 and result.feas_inf <= 1e-6
          and abs(result.f_star - expected) <= 1e-9 * abs(expected))
    # a block in the local basin lies well above the block minimum; the
    # 1e-3 margin is tools/ex8_basin.py's LOCAL_GAP
    excess = problem.block_values(result.x_star) - block_min
    _report(5, "ex8 KKT certification at benchmark scale", ok,
            f"status={result.status.value} kkt={result.kkt_inf:.2e} "
            f"f*={result.f_star:.14g} (oracle {expected:.14g}); "
            f"{int((excess > 1e-3).sum())} block(s) above the block minimum "
            f"by more than 1e-3, worst by {excess.max():.4g}")
    assert ok


def test_criterion_6_step_count_bands(bench_results):
    ok = True
    details = []
    for pid, ref_steps in TABLE_STEPS.items():
        steps = bench_results[pid][1].steps
        good = 3 <= steps <= 3 * ref_steps
        ok &= good
        details.append(f"{pid}:{steps}/[3,{3 * ref_steps}]{'' if good else '!'}")
    _report(6, "accepted-step bands vs reference counts", ok, " ".join(details))
    assert ok


def test_criterion_7_invariants_during_solves():
    ok = True
    bad = []
    for pid in PROBLEM_IDS:
        problem = build(pid, DESK_N)
        A = np.asarray(problem.cs.A.toarray())
        b = problem.cs.b
        feas_tol = 1e-9 * (1.0 + np.max(np.abs(b)))
        evaluated = []
        wrapped = dataclasses.replace(
            problem,
            objective=lambda x, p=problem, acc=evaluated: (
                acc.append(x.copy()), p.objective(x))[1])
        result = solve(wrapped)

        for x in evaluated:
            if np.max(np.abs(A @ x - b)) > feas_tol:
                ok = False
                bad.append(f"{pid}:feas")
                break
        hist = result.history
        if any(c.f > p.f for p, c in zip(hist, hist[1:])):
            ok = False
            bad.append(f"{pid}:monotone")
        for rec in hist:
            bound = rec.dt / (4.0 * (1.0 + rec.dt)) * rec.pg_2 ** 2
            if rec.model_decrease < bound - 1e-12:
                ok = False
                bad.append(f"{pid}:model")
                break
        # stationarity measures agree: ||g + A^T lam||_inf == ||Pg||_inf
        g = problem.gradient(result.x_star)
        pg_dense = float(np.max(np.abs(dense_projection(A) @ g)))
        scale = max(1.0, float(np.max(np.abs(g))))
        if abs(result.kkt_inf - pg_dense) > 1e-9 * scale:
            ok = False
            bad.append(f"{pid}:kkt")
    _report(7, "runtime invariants at desk scale (all ten problems)", ok,
            " ".join(bad) or "feasibility, descent, model bound, kkt identity")
    assert ok


def test_criterion_8_gradient_checks():
    failing = [f"{pid}@{n}" for pid in PROBLEM_IDS
               for n in (DESK_N, PAPER_DIMS[pid])
               if main(["check-grad", "--problem", pid, "--n", str(n)]) != 0]
    ok = not failing
    _report(8, "finite-difference gradient checks (n=120 and paper sizes)", ok,
            " ".join(failing) or "all ten within 1e-5 at both sizes")
    assert ok


def test_criterion_9_infeasible_start_projection():
    ok = True
    details = []
    for pid in INFEASIBLE_STARTS:
        problem = build(pid, DESK_N)
        A = np.asarray(problem.cs.A.toarray())
        b = problem.cs.b
        xf = make_feasible(problem.cs, problem.x0)
        feas = float(np.max(np.abs(A @ xf - b)))
        oracle = dense_feasible(A, b, problem.x0)
        good = (feas <= 1e-10 * (1.0 + np.max(np.abs(b)))
                and np.max(np.abs(xf - oracle)) <= 1e-9)
        ok &= good
        details.append(f"{pid}:{feas:.1e}{'' if good else '!'}")
    _report(9, "infeasible starts project to the dense oracle", ok,
            " ".join(details))
    assert ok


def test_criterion_10_suite_determinism():
    first, second = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(first):
        code_a = main(["suite", "--scale", "desk"])
    with contextlib.redirect_stdout(second):
        code_b = main(["suite", "--scale", "desk"])
    identical = first.getvalue() == second.getvalue()
    rows = first.getvalue().splitlines()
    ok = identical and code_a == code_b and len(rows) == 11
    _report(10, "desk-scale suite CSVs are byte-identical", ok,
            f"exit codes {code_a}/{code_b}, {len(rows) - 1} rows")
    assert ok
