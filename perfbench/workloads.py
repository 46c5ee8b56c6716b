"""The benchmark's workloads and the checks applied to every output.

Each workload is a closed loop: one caller in one process runs the
operations of a pass one after another, then starts the next pass. A
workload provides

* ``setup(eqflow, seed)``: the inputs, made before any timed pass (this
  work is what ``setup_s`` measures, together with ``import eqflow``);
* ``run(inputs)``: one pass, returning the raw outputs;
* ``reference(eqflow, inputs)``: data the checks need, made outside timing;
* ``check(inputs, outputs, ref)``: one ``Outcome`` per operation.

Entry points are looked up on the package at call time, so the traced run
sees the wrappers it installs.
"""

import contextlib
import csv
import dataclasses
import importlib
import io
import math
import sys
from typing import Callable, Optional, Tuple

PROBLEM_IDS = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7", "ex8",
               "ex9", "ex10")
PAPER_SCALE = (("ex3", 4800), ("ex8", 4800))
DESK_ARGV = ("suite", "--scale", "desk")
DESK_N = 120
GRAD_POINTS = 10

# The acceptance gate's bounds.
KKT_TOL = 1e-6
FEAS_REL_TOL = 1e-9       # times (1 + ||b||_inf)
CLOSED_FORM_RTOL = 1e-6
GRAD_TOL = 1e-5

# Closed-form optima: (variables per block, optimal objective per block).
CLOSED_FORM = {"ex1": (2, 160.0 / 11.0), "ex3": (3, 402.0 / 225.0)}
# Reference objective values to three significant figures at the paper's
# sizes; ex8 has none (solver-dependent local minima).
PAPER_REFERENCE = {("ex2", 4800): 5.78e3, ("ex4", 5000): 493.79,
                   ("ex5", 5000): 432.15, ("ex6", 4800): 2.06e3,
                   ("ex7", 5000): 5.94e4, ("ex9", 5000): 2.21e5,
                   ("ex10", 4800): 2.00}


@dataclasses.dataclass(frozen=True)
class Outcome:
    """The verdict on one operation of a pass.

    ``failure`` is why the operation failed the acceptance bounds (None if
    it passed). ``false_claim`` marks output that contradicts itself, such
    as a solve that reports convergence it did not reach; that makes the
    whole run incorrect, not just the operation failed. ``exact`` holds the
    values that must repeat bit for bit in every pass.
    """

    op: str
    failure: Optional[str]
    false_claim: bool
    exact: Tuple
    counts: Tuple[int, int, int, int] = (0, 0, 0, 0)  # iters, accepted, n_f, n_g
    detail: str = ""


def _matches_3sig(value, reference) -> bool:
    scale = 10.0 ** math.floor(math.log10(abs(reference)))
    return abs(value - reference) <= 0.5e-2 * scale + 1e-12


def solve_failure(pid, n, b_inf, status, f_star, kkt_inf, feas_inf):
    """Why a finished solve misses the acceptance bounds, or None."""
    if status != "converged":
        return f"status {status}"
    if not feas_inf <= FEAS_REL_TOL * (1.0 + b_inf):
        return f"feas_inf {feas_inf:.3e}"
    if not kkt_inf <= KKT_TOL:
        return f"kkt_inf {kkt_inf:.3e}"
    if pid in CLOSED_FORM:
        block, f_block = CLOSED_FORM[pid]
        expected = (n // block) * f_block
        if not abs(f_star - expected) <= CLOSED_FORM_RTOL * abs(expected):
            return f"f_star {f_star!r} != closed form {expected!r}"
    elif (pid, n) in PAPER_REFERENCE:
        if not _matches_3sig(f_star, PAPER_REFERENCE[(pid, n)]):
            return f"f_star {f_star!r} != reference {PAPER_REFERENCE[(pid, n)]}"
    return None


def _solve_outcome(pid, n, b_inf, status, f_star, kkt_inf, feas_inf, counts):
    failure = solve_failure(pid, n, b_inf, status, f_star, kkt_inf, feas_inf)
    return Outcome(op=pid, failure=failure,
                   false_claim=failure is not None and status == "converged",
                   exact=(status, f_star, kkt_inf, feas_inf, counts),
                   counts=counts,
                   detail=(f"{status} f* {f_star:.8e} kkt {kkt_inf:.2e} "
                           f"iters {counts[0]} accepted {counts[1]}"))


def _b_inf(problem) -> float:
    return float(max(abs(v) for v in problem.cs.b))


# -- paper-scale: dense QR at the paper's size -------------------------------

def paper_setup(eqflow, seed):
    return [eqflow.build(pid, n) for pid, n in PAPER_SCALE]


def paper_run(problems):
    eqflow = sys.modules["eqflow"]
    return [eqflow.solve(p) for p in problems]


def paper_reference(eqflow, problems):
    return [_b_inf(p) for p in problems]


def paper_check(problems, results, b_infs):
    return [_solve_outcome(p.name, p.n, b_inf, r.status.value, r.f_star,
                           r.kkt_inf, r.feas_inf,
                           (r.total_iters, r.steps, r.n_f, r.n_g))
            for p, r, b_inf in zip(problems, results, b_infs)]


# -- desk-suite: the CLI's default run, in-process ---------------------------

def desk_setup(eqflow, seed):
    importlib.import_module("eqflow.cli")
    return list(DESK_ARGV)


def desk_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["eqflow.cli"].main(list(argv))
    return code, out.getvalue()


def desk_reference(eqflow, argv):
    return {pid: _b_inf(eqflow.build(pid, DESK_N)) for pid in PROBLEM_IDS}


def desk_check(argv, output, b_infs):
    """Check every CSV row. The whole CSV is each row's exact value, so a
    CSV that is not byte-identical to the first pass's fails every row."""
    code, text = output
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        outcomes = [_solve_outcome(
            row["problem"], int(row["n"]), b_infs[row["problem"]],
            row["status"], float(row["f_star"]), float(row["kkt_inf"]),
            float(row["feas_inf"]),
            (int(row["total_iters"]), int(row["accepted_steps"]),
             int(row["n_f"]), int(row["n_g"])))
            for row in rows]
    except (KeyError, ValueError) as exc:
        return [Outcome(op="csv", failure=f"unreadable CSV: {exc!r}",
                        false_claim=True, exact=(text,))]
    ids = tuple(o.op for o in outcomes)
    expected_code = 0 if all(r["status"] == "converged" for r in rows) else 2
    if ids != PROBLEM_IDS or code != expected_code:
        why = f"exit code {code} with rows {ids}"
        return [dataclasses.replace(o, failure=o.failure or why, false_claim=True,
                                    exact=(text,)) for o in outcomes]
    return [dataclasses.replace(o, exact=(text,)) for o in outcomes]


# -- grad-check: the check-grad command over all ten problems ----------------

def grad_setup(eqflow, seed):
    return seed, [eqflow.build(pid, DESK_N) for pid in PROBLEM_IDS]


def grad_run(inputs):
    seed, problems = inputs
    eqflow = sys.modules["eqflow"]
    return [eqflow.gradient_check(p, GRAD_POINTS, seed) for p in problems]


def grad_reference(eqflow, inputs):
    return None


def grad_check(inputs, reports, ref):
    outcomes = []
    for report in reports:
        err = report.max_rel_error
        failure = None if err <= GRAD_TOL else f"gradient error {err:.3e}"
        outcomes.append(Outcome(op=report.name, failure=failure,
                                false_claim=False, exact=(err,),
                                detail=f"max relative error {err:.3e}"))
    return outcomes


@dataclasses.dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    reference: Callable
    check: Callable
    # How gauge.py rescales solve_s: "block" by the readings after each
    # pass of a block, "run" by the mean of the run's set-up probe
    # readings. paper-scale's passes are mostly multi-threaded BLAS,
    # which follows the host's slow phases of minutes but not the
    # gauge's flicker within a second.
    gauge: str


# Why each workload is here: see README.md in this directory.
WORKLOADS = {
    "paper-scale": Workload(paper_setup, paper_run, paper_reference,
                            paper_check, "run"),
    "desk-suite": Workload(desk_setup, desk_run, desk_reference, desk_check,
                           "block"),
    "grad-check": Workload(grad_setup, grad_run, grad_reference, grad_check,
                           "block"),
}
