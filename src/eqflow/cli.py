"""Benchmark command line: solve single problems, run the suite, check gradients.

Machine-readable outputs (suite CSV, history CSV, JSON results) use fixed
formatting (scientific notation, 9 significant digits). The CSVs hold no
timings, so identical runs write identical bytes; wall-clock times appear
in the human-readable output and as ``wall_ms`` in the JSON result.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from .problems import (DESK_DIM, GRAD_TOL, PAPER_DIMS, PROBLEM_IDS, build,
                       gradient_check, known_optima)
from .solver import IterationRecord, SolverConfig, Status, solve

SUITE_COLUMNS = ("problem", "n", "m", "accepted_steps", "total_iters", "n_f",
                 "n_g", "f_star", "kkt_inf", "feas_inf", "status")
HISTORY_COLUMNS = IterationRecord._fields


def _fmt(x: float) -> str:
    return f"{x:.8e}"


def _cell(value) -> str:
    """A CSV cell: floats by _fmt, booleans as 0/1, anything else by str."""
    if isinstance(value, bool):
        return str(int(value))
    return _fmt(value) if isinstance(value, float) else str(value)


def _csv(columns, rows) -> str:
    """A header of columns, then one line per row of cells in that order."""
    return "".join(",".join(map(_cell, line)) + "\n" for line in [columns, *rows])


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
    cfg = SolverConfig(eps=args.tol, max_iter=args.max_iter)
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
        with open(args.history, "w") as fh:
            fh.write(_csv(HISTORY_COLUMNS, result.history))
    return 0 if result.status is Status.CONVERGED else 2


def cmd_suite(args) -> int:
    cfg = SolverConfig()
    ids = [p for p in PROBLEM_IDS if p in args.only]
    if args.n is not None:
        dims = {p: args.n for p in ids}
    elif args.scale == "paper":
        dims = {p: PAPER_DIMS[p] for p in ids}
    else:
        dims = {p: DESK_DIM for p in ids}

    rows = []
    for p in ids:
        _, row = _solve_row(build(p, dims[p]), cfg)
        print(f"{row['problem']:>5s} n={row['n']:<6d} {row['status']:<18s} "
              f"f*={_fmt(row['f_star'])}  steps={row['accepted_steps']} "
              f"({row['wall_ms']:.1f} ms)", file=sys.stderr)
        rows.append(row)

    sys.stdout.write(_csv(SUITE_COLUMNS, ([row[c] for c in SUITE_COLUMNS]
                                          for row in rows)))
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
    one_problem = argparse.ArgumentParser(add_help=False)
    one_problem.add_argument("--problem", required=True, choices=PROBLEM_IDS)
    one_problem.add_argument("--n", type=int, required=True)

    p_solve = sub.add_parser("solve", parents=[one_problem],
                             help="solve one benchmark problem")
    p_solve.add_argument("--tol", type=float, default=SolverConfig.eps,
                         help="termination tolerance on ||pg||_inf")
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
    p_suite.add_argument("--only", nargs="+", choices=PROBLEM_IDS,
                         default=PROBLEM_IDS, metavar="ID",
                         help="run only these of ex1 .. ex10 (rows keep that order)")
    p_suite.set_defaults(func=cmd_suite)

    p_grad = sub.add_parser("check-grad", parents=[one_problem],
                            help="finite-difference gradient check")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--points", type=int, default=10)
    p_grad.set_defaults(func=cmd_check_grad)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; exit code 2 is reserved for
        # "ran but did not converge/pass".
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
