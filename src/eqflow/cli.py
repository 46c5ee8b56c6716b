"""Benchmark command line: solve single problems, run the suite, check gradients.

Machine-readable outputs (suite CSV, history CSV, JSON results) use fixed
formatting (scientific notation, 9 significant digits) so identical runs
produce identical bytes. Wall-clock timings are printed on the human side
and, in the suite CSV, written as 0 unless --timing is given, keeping the
CSV reproducible run to run.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from .problems import (DESK_DIM, PAPER_DIMS, PROBLEM_IDS, BadDimensionError,
                       build, gradient_check, known_optima)
from .projection import DimensionMismatchError, RankDeficientError
from .solver import SolverConfig, Status, solve

SUITE_COLUMNS = ("problem", "n", "m", "accepted_steps", "total_iters", "n_f",
                 "n_g", "f_star", "kkt_inf", "feas_inf", "wall_ms", "status")
HISTORY_COLUMNS = ("k", "f", "pg_inf", "pg_2", "dt", "rho", "accepted",
                   "model_decrease")

GRAD_TOL = 1e-5


def _fmt(x: float) -> str:
    return f"{x:.8e}"


def _write_history(path, history):
    lines = [",".join(HISTORY_COLUMNS)]
    for r in history:
        lines.append(",".join((str(r.k), _fmt(r.f), _fmt(r.pg_norm_inf),
                               _fmt(r.pg_norm_2), _fmt(r.dt), _fmt(r.rho),
                               str(int(r.accepted)), _fmt(r.model_decrease))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _solve_row(problem, cfg):
    """Solve a built problem, timed; return the result and its report row."""
    t0 = time.perf_counter()
    result = solve(problem, cfg)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return result, {
        "problem": problem.name, "n": problem.n, "m": problem.cs.m,
        "status": result.status.value, "f_star": result.f_star,
        "kkt_inf": result.kkt_inf, "feas_inf": result.feas_inf,
        "accepted_steps": result.steps, "total_iters": result.total_iters,
        "n_f": result.n_f, "n_g": result.n_g, "wall_ms": wall_ms,
    }


def cmd_solve(args) -> int:
    cfg = SolverConfig(eps=args.tol, dt0=args.dt0, max_iter=args.max_iter)
    problem = build(args.problem, args.n)
    result, row = _solve_row(problem, cfg)

    print(f"problem        {problem.name}  (n={problem.n}, m={problem.cs.m})")
    print(f"status         {result.status.value}")
    print(f"f_star         {_fmt(result.f_star)}")
    print(f"kkt_inf        {_fmt(result.kkt_inf)}")
    print(f"feas_inf       {_fmt(result.feas_inf)}")
    print(f"accepted steps {result.steps}  (of {result.total_iters} iterations)")
    print(f"evaluations    f: {result.n_f}  grad: {result.n_g}")
    print(f"wall time      {row['wall_ms']:.1f} ms")
    known = known_optima(problem.name, problem.n)
    if known is not None:
        note = ("closed form (separable blocks)" if known[0] is not None
                else "reference value at benchmark size")
        print(f"known f_star   {_fmt(known[1])} ({note})")

    if args.json:
        payload = dict(row, lambda_inf=float(np.max(np.abs(result.lambda_star))),
                       config=asdict(cfg))
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.history:
        _write_history(args.history, result.history)
    return 0 if result.status is Status.CONVERGED else 2


def _format_suite_row(row, timing) -> str:
    wall = _fmt(row["wall_ms"]) if timing else _fmt(0.0)
    return ",".join((row["problem"], str(row["n"]), str(row["m"]),
                     str(row["accepted_steps"]), str(row["total_iters"]),
                     str(row["n_f"]), str(row["n_g"]), _fmt(row["f_star"]),
                     _fmt(row["kkt_inf"]), _fmt(row["feas_inf"]),
                     wall, row["status"]))


def cmd_suite(args) -> int:
    cfg = SolverConfig()
    ids = list(PROBLEM_IDS)
    if args.only:
        requested = [p.strip() for p in args.only.split(",") if p.strip()]
        unknown = [p for p in requested if p not in PROBLEM_IDS]
        if unknown:
            raise BadDimensionError(f"unknown problem ids: {unknown}")
        ids = [p for p in PROBLEM_IDS if p in requested]

    if args.n is not None:
        dims = {p: args.n for p in ids}
    elif (args.scale or "desk") == "paper":
        dims = {p: PAPER_DIMS[p] for p in ids}
    else:
        dims = {p: DESK_DIM for p in ids}
    problems = [build(p, dims[p]) for p in ids]  # validates every n up front

    rows = []
    for problem in problems:
        _, row = _solve_row(problem, cfg)
        print(f"{row['problem']:>5s} n={row['n']:<6d} {row['status']:<18s} "
              f"f*={_fmt(row['f_star'])}  steps={row['accepted_steps']} "
              f"({row['wall_ms']:.1f} ms)", file=sys.stderr)
        rows.append(row)

    lines = [",".join(SUITE_COLUMNS)]
    lines.extend(_format_suite_row(row, args.timing) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    all_ok = all(row["status"] == Status.CONVERGED.value for row in rows)
    return 0 if all_ok else 2


def cmd_check_grad(args) -> int:
    problem = build(args.problem, args.n)
    report = gradient_check(problem, num_points=args.points, seed=args.seed)
    ok = report.max_rel_error <= GRAD_TOL
    print(f"{problem.name} n={problem.n}: max relative gradient error "
          f"{_fmt(report.max_rel_error)} over {report.num_points} feasible "
          f"points -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqflow",
        description="Benchmark runner for the equality-constrained "
                    "continuation solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one benchmark problem")
    p_solve.add_argument("--problem", required=True, choices=PROBLEM_IDS)
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--tol", type=float, default=SolverConfig.eps,
                         help="termination tolerance on ||pg||_inf")
    p_solve.add_argument("--dt0", type=float, default=SolverConfig.dt0,
                         help="initial time step")
    p_solve.add_argument("--max-iter", type=int, dest="max_iter",
                         default=SolverConfig.max_iter)
    p_solve.add_argument("--json", help="write a JSON result file")
    p_solve.add_argument("--history", help="write per-iteration history CSV")
    p_solve.set_defaults(func=cmd_solve)

    p_suite = sub.add_parser("suite", help="run the ten-problem suite")
    size = p_suite.add_mutually_exclusive_group()
    # no argparse default here: a supplied value equal to the default would
    # slip past the mutual-exclusion check; cmd_suite falls back to "desk"
    size.add_argument("--scale", choices=("paper", "desk"),
                      help="benchmark sizes (paper) or n=120 everywhere "
                           "(desk, the default)")
    size.add_argument("--n", type=int, help="use this n for every problem")
    p_suite.add_argument("--only", help="comma-separated subset of problem ids")
    p_suite.add_argument("--out", help="write the report CSV here (default stdout)")
    p_suite.add_argument("--timing", action="store_true",
                         help="put measured wall_ms in the CSV (breaks "
                              "byte-reproducibility of the report)")
    p_suite.set_defaults(func=cmd_suite)

    p_grad = sub.add_parser("check-grad", help="finite-difference gradient check")
    p_grad.add_argument("--problem", required=True)
    p_grad.add_argument("--n", type=int, required=True)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--points", type=int, default=10)
    p_grad.set_defaults(func=cmd_check_grad)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; exit code 2 is reserved for
        # "ran but did not converge/pass".
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (BadDimensionError, DimensionMismatchError, RankDeficientError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
