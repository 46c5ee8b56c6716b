"""Which basin ex8 ends in, over perturbed starts and over OpenBLAS kernels.

Each ex8 block has a global and a local minimum, and at n = 4800 the block
that ends where is decided by rounding (README, "Limits"). This script
measures how often each happens:

* For n in 1200, 2400 and 4800 it solves ex8 from the unperturbed start and
  from K - 1 starts whose entries are scaled by 1 + delta * eps_mach, with
  delta drawn from {-1, 0, 1} by a seeded generator. It prints how many runs
  end with every block in the global basin, and the minimum, median and
  maximum iteration counts.
* It solves ex8 at n = 4800 from the unperturbed start once per
  OPENBLAS_CORETYPE in KERNELS, each in its own subprocess, one after the
  other: OpenBLAS reads the variable when numpy loads. A kernel whose run
  fails is reported, not fatal. OpenBLAS falls back to its own choice for a
  kernel it cannot use, so two equal lines do not prove two kernels ran.

A block counts as local when its block value exceeds the global block
minimum, ``known_optima("ex8", 4800)[1]`` over the number of blocks, by more
than 1e-3. This is a measurement, not a pass/fail gate. A tier-1 test runs
``--single`` to check that the tool runs and prints its JSON line; it does
not check the basin, which depends on the kernel.

Usage: python3 tools/ex8_basin.py [--starts K] [--seed S]
"""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from eqflow import build, known_optima, solve  # noqa: E402

SIZES = (1200, 2400, 4800)
KERNELS = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Prescott", "Nehalem")
REF_N = 4800
LOCAL_GAP = 1e-3


def block_minimum() -> float:
    """The global minimum of one ex8 block, from the n = 4800 reference."""
    problem = build("ex8", REF_N)
    return known_optima("ex8", REF_N)[1] / len(problem.block_values(problem.x0))


def outcome(problem, block_min: float) -> dict:
    result = solve(problem)
    local = problem.block_values(result.x_star) > block_min + LOCAL_GAP
    return {"status": result.status.value, "iters": result.total_iters,
            "local_blocks": int(local.sum()), "f_star": result.f_star}


def perturbed_starts(n: int, k: int, seed: int):
    problem = build("ex8", n)
    rng = np.random.default_rng(seed)
    yield problem
    for _ in range(k - 1):
        delta = rng.integers(-1, 2, size=n)
        yield dataclasses.replace(problem, x0=problem.x0 * (1.0 + delta * np.finfo(float).eps))


def kernel_line(kernel: str) -> str:
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel}
    proc = subprocess.run([sys.executable, __file__, "--single"], env=env,
                          capture_output=True, text=True, timeout=600)
    try:
        run = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        err = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return f"{kernel}: failed (exit {proc.returncode}): {err}"
    basin = "global" if run["local_blocks"] == 0 else f"local ({run['local_blocks']} blocks)"
    return (f"{kernel}: {basin}, {run['status']}, {run['iters']} iterations, "
            f"f* = {run['f_star']!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starts", type=int, default=10, help="K starts per size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--single", action="store_true",
                        help="solve ex8 at n = 4800 once and print one JSON line")
    args = parser.parse_args(argv)
    block_min = block_minimum()
    if args.single:
        print(json.dumps(outcome(build("ex8", REF_N), block_min)))
        return 0
    if args.starts < 1:
        parser.error(f"--starts must be positive, got {args.starts}")
    for n in SIZES:
        runs = [outcome(p, block_min) for p in perturbed_starts(n, args.starts, args.seed)]
        iters = [r["iters"] for r in runs]
        n_global = sum(r["local_blocks"] == 0 for r in runs)
        print(f"n = {n}: {n_global}/{len(runs)} global, iterations "
              f"min {min(iters)}, median {np.median(iters):g}, max {max(iters)}",
              flush=True)
    for kernel in KERNELS:
        print(kernel_line(kernel), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
