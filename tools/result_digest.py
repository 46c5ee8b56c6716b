"""SHA-256 digests of the results eqflow gives on its benchmark problems.

A change that claims "same results" should leave this script's output
unchanged. It solves the ten problems at n = 120 and at their paper
sizes (20 solves) and runs ``gradient_check`` (ten points, seeds 0 and 7)
on the same 20 problems, and on ex1 and ex8 at n = 120 without
``block_values``, where the check differences the whole objective. It
then solves the 20 problems again on the same ``Problem`` objects; each
of these lines must equal the first solve's. Every projection reads the
one projector a system computed when it was made. Every benchmark
problem's block groups index their variables by a slice, so it also runs
``project_gradient``, ``make_feasible`` and ``multipliers`` on systems
whose groups take the index-array path: ex8's constraints with the
columns permuted by a seeded permutation, and interleaved 1x2 and 1x3
components, each at n = 120 and 4800 with seeds 0 and 7. It also
digests the projector of the 20 benchmark systems and of these 8.
Each item's digest covers every output bit: a solve's status, counts,
f*, kkt, feas, x*, lambda* and every ``IterationRecord``; a check's name,
n, point count, worst error and per-coordinate errors; a projection's
three result vectors; a projector's rows, columns, q, r and b_r of every
block group. The script prints one line per item and a last line with
the digest of all items in order.

The digest depends on the BLAS kernel: OpenBLAS picks one per machine
(``OPENBLAS_CORETYPE`` overrides it for one process), and different
kernels round the QR factors and inner products differently. So compare
the output of two commits on one machine, under one kernel; a digest is
not a constant to pin in a test.

Usage: python3 tools/result_digest.py
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from eqflow import (DESK_DIM, PAPER_DIMS, PROBLEM_IDS,  # noqa: E402
                    ConstraintSystem, CSRMatrix, build, gradient_check,
                    make_feasible, multipliers, project_gradient, solve)

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


def digest(fields) -> str:
    """Hex SHA-256 of every bit of a scalar, an array or a tuple of them."""
    return hashlib.sha256(_exact(fields)).hexdigest()


def solve_digest(result) -> str:
    """Hex SHA-256 of every field of a SolveResult, history included."""
    return digest((result.status.value, result.steps, result.total_iters,
                   result.n_f, result.n_g, result.f_star, result.kkt_inf,
                   result.feas_inf, result.x_star, result.lambda_star,
                   tuple(tuple(record) for record in result.history)))


def check_digest(report) -> str:
    """Hex SHA-256 of every field of a GradientCheckReport."""
    return digest((report.name, report.n, report.num_points,
                   report.max_rel_error, report.coord_errors))


def projection_digest(cs, seed) -> str:
    """Hex SHA-256 of project_gradient and multipliers at one seeded random
    vector and of make_feasible at another, all on the projector cs keeps."""
    rng = np.random.default_rng(seed)
    g, x0 = rng.standard_normal(cs.n), rng.standard_normal(cs.n)
    return digest((project_gradient(cs, g), make_feasible(cs, x0),
                   multipliers(cs, g)))


def factor_digest(projector) -> str:
    """Hex SHA-256 of every block group of a Projector: its rows, the
    columns its ``at`` gives, q, r and b_r."""
    return digest(tuple((grp.rows, np.r_[grp.at], grp.q, grp.r, grp.b_r)
                        for grp in projector.groups))


def permuted_ex8(n, seed) -> ConstraintSystem:
    """ex8's constraints at n with column j moved to a seeded perm[j]."""
    cs = build("ex8", n).cs
    perm = np.random.default_rng(seed).permutation(n)
    A = CSRMatrix(cs.A.indptr, perm[cs.A.indices], cs.A.data, cs.A.shape)
    return ConstraintSystem(A=A, b=cs.b)


def interleaved(n, seed) -> ConstraintSystem:
    """Block j of n/5: a 1x2 component on columns 5j, 5j+2 and a 1x3 one on
    5j+1, 5j+3, 5j+4, with seeded normal coefficients and right sides."""
    blocks = n // 5
    rng = np.random.default_rng(seed)
    indptr = np.concatenate(([0], np.cumsum(np.tile([2, 3], blocks))))
    cols = (5 * np.arange(blocks)[:, None] + [0, 2, 1, 3, 4]).ravel()
    A = CSRMatrix(indptr, cols, rng.standard_normal(5 * blocks), (2 * blocks, n))
    return ConstraintSystem(A=A, b=rng.standard_normal(2 * blocks))


def items():
    """(label, digest) of each solve, then of each gradient check, then of
    each solve again on the same problem, then of each problem's projector,
    then of the projector and the projections of each system with
    index-array groups."""
    problems = ([build(pid, DESK_DIM) for pid in PROBLEM_IDS]
                + [build(pid, PAPER_DIMS[pid]) for pid in PROBLEM_IDS])
    for p in problems:
        yield f"solve {p.name} n={p.n}", solve_digest(solve(p))
    objective_only = [dataclasses.replace(build(pid, DESK_DIM), block_values=None)
                      for pid in ("ex1", "ex8")]
    for seed in SEEDS:
        for p in problems:
            yield (f"check {p.name} n={p.n} seed={seed}",
                   check_digest(gradient_check(p, POINTS, seed)))
        for p in objective_only:
            yield (f"check {p.name} n={p.n} seed={seed} objective",
                   check_digest(gradient_check(p, POINTS, seed)))
    for p in problems:
        yield f"solve again {p.name} n={p.n}", solve_digest(solve(p))
    for p in problems:
        yield f"factor {p.name} n={p.n}", factor_digest(p.cs.projector)
    for make in (permuted_ex8, interleaved):
        for n in (DESK_DIM, 4800):
            for seed in SEEDS:
                cs = make(n, seed)
                label = f"{make.__name__} n={n} seed={seed}"
                yield f"factor {label}", factor_digest(cs.projector)
                yield f"project {label}", projection_digest(cs, seed)


def main() -> int:
    total = hashlib.sha256()
    for label, digest in items():
        print(f"{digest}  {label}")
        total.update(f"{digest}  {label}\n".encode())
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
