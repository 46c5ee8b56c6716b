"""SHA-256 digests of the results eqflow gives on its benchmark problems.

A change that claims "same results" should leave this script's output
unchanged. It solves the ten problems at n = 120 and at their paper
sizes (20 solves) and runs ``gradient_check`` (ten points, seeds 0 and 7)
on the same 20 problems. Each item's digest covers every output bit: a
solve's status, counts, f*, kkt, feas, x*, lambda* and every
``IterationRecord``; a check's name, n, point count, worst error and
per-coordinate errors. The script prints one line per item and a last
line with the digest of all items in order.

The digest depends on the BLAS kernel: OpenBLAS picks one per machine
(``OPENBLAS_CORETYPE`` overrides it for one process), and different
kernels round the QR factors and inner products differently. So compare
the output of two commits on one machine, under one kernel; a digest is
not a constant to pin in a test.

Usage: python3 tools/result_digest.py
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from eqflow import (DESK_DIM, PAPER_DIMS, PROBLEM_IDS, build,  # noqa: E402
                    gradient_check, solve)

SEEDS = (0, 7)
POINTS = 10


def _exact(value) -> bytes:
    """Every bit of a scalar, an array or a tuple of them."""
    if isinstance(value, np.ndarray):
        return repr((value.dtype.str, value.shape)).encode() + value.tobytes()
    if isinstance(value, tuple):
        return b"(" + b",".join(_exact(v) for v in value) + b")"
    if isinstance(value, float):
        return value.hex().encode()
    return repr(value).encode()


def solve_digest(result) -> str:
    """Hex SHA-256 of every field of a SolveResult, history included."""
    fields = (result.status.value, result.steps, result.total_iters,
              result.n_f, result.n_g, result.f_star, result.kkt_inf,
              result.feas_inf, result.x_star, result.lambda_star,
              tuple(tuple(record) for record in result.history))
    return hashlib.sha256(_exact(fields)).hexdigest()


def check_digest(report) -> str:
    """Hex SHA-256 of every field of a GradientCheckReport."""
    fields = (report.name, report.n, report.num_points, report.max_rel_error,
              report.coord_errors)
    return hashlib.sha256(_exact(fields)).hexdigest()


def items():
    """(label, digest) of each solve, then of each gradient check."""
    problems = ([build(pid, DESK_DIM) for pid in PROBLEM_IDS]
                + [build(pid, PAPER_DIMS[pid]) for pid in PROBLEM_IDS])
    for p in problems:
        yield f"solve {p.name} n={p.n}", solve_digest(solve(p))
    for seed in SEEDS:
        for p in problems:
            yield (f"check {p.name} n={p.n} seed={seed}",
                   check_digest(gradient_check(p, POINTS, seed)))


def main() -> int:
    total = hashlib.sha256()
    for label, digest in items():
        print(f"{digest}  {label}")
        total.update(f"{digest}  {label}\n".encode())
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
