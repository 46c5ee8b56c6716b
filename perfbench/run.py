"""Outside-in benchmark of eqflow: time to solution, memory and failures.

Run one workload (the last line of stdout is the JSON result):

    python3 perfbench/run.py --workload paper-scale --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The end-to-end times are rescaled to a fixed
host speed with ``gauge.py``; their wall-clock values are printed too. ``--workload all`` runs every workload, untraced
and traced, each in its own process. Every run also writes its result,
with the environment it ran in, to ``perfbench/results/``.

The package is imported from ``src/`` next to this directory and from
nowhere else; without it the run fails with exit code 1. README.md in this
directory documents the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gauge
from spans import SOLVE_COUNTS, SPANS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_INIT = ROOT / "src" / "eqflow" / "__init__.py"
RESULTS_DIR = BENCH_DIR / "results"

SETUP_PROBES = 7          # fresh interpreters timed for setup_s
GAUGE_AROUND_PROBE = 4    # gauge readings just before and just after a probe
BLOCK_S = 2.0             # least work, in seconds, behind one timing sample
MIN_BLOCKS = 2
PROBE_TIMEOUT_S = 120
# Percentiles reported beside a median, when at least ten samples lie beyond.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def import_eqflow():
    if not PACKAGE_INIT.is_file():
        raise SystemExit(f"error: eqflow sources not found at {PACKAGE_INIT}")
    sys.path.insert(0, str(PACKAGE_INIT.parent.parent))
    import eqflow
    if Path(eqflow.__file__).resolve() != PACKAGE_INIT:
        raise SystemExit(f"error: imported eqflow from {eqflow.__file__}, "
                         f"expected {PACKAGE_INIT}")
    return eqflow


def setup_probe(args) -> int:
    """Set the workload up in this fresh interpreter; print when it is ready."""
    WORKLOADS[args.workload].setup(import_eqflow(), args.seed)
    print(repr(time.monotonic()))
    return 0


def measure_setup(workload, seed) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    # CLOCK_MONOTONIC is shared by all processes of the machine.
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def environment(seed) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "nproc": len(os.sched_getaffinity(0))}


def timing_text(samples, unit="s") -> str:
    """Median with its sample count, plus the highest percentile that has
    at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"{statistics.median(ordered):.6g} {unit}  (median of {n}"
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            rank = max(1, -(-n * p // 100))   # nearest-rank percentile
            text += f"; p{p:g} {ordered[int(rank) - 1]:.6g} {unit}"
            break
    return text + ")"


def wrap_inputs(tracer, inputs):
    """Traced copies of every problem (anything with objective and gradient)."""
    if isinstance(inputs, (list, tuple)):
        return type(inputs)(wrap_inputs(tracer, x) for x in inputs)
    if hasattr(inputs, "objective") and hasattr(inputs, "gradient"):
        return tracer.wrap_problem(inputs)
    return inputs


class Tally:
    """Failure counts over all passes and the exact-repeat check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons = {}
        self.first = None     # first pass's outcomes

    def fail(self, op, reason, incorrect=False):
        self.failed += 1
        self.correct &= not incorrect
        key = f"{op}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1

    def add_pass(self, outcomes):
        if self.first is None:
            self.first = outcomes
        same = [o.exact for o in outcomes] == [o.exact for o in self.first]
        for o in outcomes:
            self.attempted += 1
            self.correct &= not o.false_claim
            if not same:
                self.fail(o.op, "output differs from the first pass", True)
            elif o.failure is not None:
                self.fail(o.op, o.failure)

    def pass_counts(self):
        """Summed (iters, accepted, n_f, n_g) of the first pass."""
        return [sum(c) for c in zip(*(o.counts for o in self.first))]


def run_passes(workload, inputs, ref, seconds, tracer, between=None,
               gauge_read=None):
    """Run blocks of passes until the next block would end after ``seconds``.

    The first pass is a warm-up: checked and counted, not timed. Its time
    sets the block length, the passes that take at least ``BLOCK_S``. A
    sample is the mean pass time of one block, so each sample averages
    over the machine's short slow and fast spells. Untraced runs time
    every block; traced runs alternate an untraced and a traced block, so
    both medians come from the same stretch of time. ``between(fraction)``
    runs after each block with the share of ``seconds`` used so far; its
    own time does not count against ``seconds``. ``gauge_read()``, if
    given, runs after each untraced timed pass; ``gauges`` holds its mean
    reading per block, beside the block's sample in ``plain``.
    """
    tally = Tally()
    plain, traced, snapshots, passes, gauges = [], [], [], [], []
    traced_inputs = wrap_inputs(tracer, inputs) if tracer else None
    start = time.perf_counter()
    outside = 0.0             # seconds spent in between(), not in passes
    block, k = 1, -1          # block -1 is the warm-up pass
    while True:
        use_trace = tracer is not None and k >= 0 and k % 2 == 1
        data = traced_inputs if use_trace else inputs
        t_block = time.perf_counter()
        total = gauge_total = 0.0
        use_gauge = gauge_read is not None and k >= 0 and not use_trace
        if use_trace:
            tracer.install()
        try:
            for _ in range(block):
                if use_trace:
                    tracer.reset()
                t0 = time.perf_counter()
                output = workload.run(data)
                elapsed = time.perf_counter() - t0
                total += elapsed
                if k >= 0 and not use_trace:
                    passes.append(elapsed)
                if use_trace:
                    snapshots.append(tracer.snapshot())
                tally.add_pass(workload.check(data, output, ref))
                if use_gauge:
                    gauge_total += gauge_read()
        except Exception:
            traceback.print_exc()
            ops = len(tally.first) if tally.first else 1
            tally.attempted += ops
            for _ in range(ops):
                tally.fail("pass", "raised an exception", incorrect=True)
            break
        finally:
            if use_trace:
                tracer.uninstall()
        if k < 0:
            block = max(1, math.ceil(BLOCK_S / total))
        else:
            (traced if use_trace else plain).append(total / block)
            if use_gauge:
                gauges.append(gauge_total / block)
        k += 1
        spent = time.perf_counter() - t_block
        if between is not None:
            t_between = time.perf_counter()
            between((t_between - start - outside) / seconds)
            outside += time.perf_counter() - t_between
        if (k >= MIN_BLOCKS
                and time.perf_counter() - start - outside + spent > seconds):
            break
    return tally, block, plain, passes, traced, snapshots, gauges


def layer_metrics(snapshots, plain, traced, tally):
    """Per-pass layer metrics from the traced passes."""
    metrics = {}
    first = snapshots[0]
    for snap in snapshots[1:]:
        if ({k: c for k, (c, _) in snap["spans"].items()}
                != {k: c for k, (c, _) in first["spans"].items()}):
            tally.correct = False
            print("error: span call counts differ between traced passes",
                  file=sys.stderr)
    for name in (n for n in SPANS if n in first["spans"]):
        metrics[f"{name}.calls"] = (first["spans"][name][0], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(s["spans"][name][1] for s in snapshots), "s")
    if "projection.factor" in first["spans"]:
        metrics["projection.factor.flops"] = (first["flops"], "flop")
        metrics["projection.projector_mb"] = (first["projector_bytes"] / 2**20, "MB")
    if "direction.direction" in first["spans"]:
        calls = first["spans"]["direction.direction"][0]
        metrics["direction.qn_frac"] = (
            first["gate_passes"] / calls if calls else 0.0, "ratio")
    if "solver.solve" in first["spans"]:
        # With no solve in the pass every count is 0; with solves, a count
        # whose SolveResult field is gone is absent.
        counts = first["solve_counts"]
        if not first["spans"]["solver.solve"][0]:
            counts = {key: 0 for key, _ in SOLVE_COUNTS}
        for key, _ in SOLVE_COUNTS:
            if key in counts:
                metrics[f"solver.{key}"] = (counts[key], "count")
        if "iters" in counts and "accepted" in counts:
            metrics["solver.accept_frac"] = (
                counts["accepted"] / counts["iters"] if counts["iters"] else 0.0,
                "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def report_layers(metrics, traced, per_sample):
    pass_s = statistics.median(traced)
    print(f"traced pass   {timing_text(traced)} {per_sample}")
    print("self s/pass is the median over the traced passes; "
          "share is of the traced pass")
    print(f"{'span':<30s} {'calls/pass':>11s} {'self s/pass':>12s} {'share':>7s}")
    spans = sorted({name.rsplit(".", 1)[0] for name in metrics
                    if name.endswith(".self_s")},
                   key=lambda s: -metrics[f"{s}.self_s"][0])
    for span in spans:
        self_s = metrics[f"{span}.self_s"][0]
        print(f"{span:<30s} {metrics[f'{span}.calls'][0]:>11d} "
              f"{self_s:>12.6f} {100.0 * self_s / pass_s:>6.1f}%")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_s")):
            label = " (computed)" if name in ("projection.factor.flops",
                                              "projection.projector_mb") else ""
            print(f"{name:<30s} {value:.6g} {unit}{label}")


def run_one(args) -> int:
    eqflow = import_eqflow()
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(eqflow, args.seed)
    ref = workload.reference(eqflow, inputs)
    env = environment(args.seed)
    tracer = Tracer() if args.trace else None

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    setup, setup_wall, setup_gauge = [], [], []

    def probe_setup(fraction):
        """Keep the setup probes spread evenly over the run. A probe is
        about as short as a desk-suite block, so every workload rescales
        it by the gauge readings taken around it."""
        while len(setup) < 1 + (SETUP_PROBES - 1) * min(1.0, fraction):
            around = [gauge.read() for _ in range(GAUGE_AROUND_PROBE)]
            setup_wall.append(measure_setup(args.workload, args.seed))
            around += [gauge.read() for _ in range(GAUGE_AROUND_PROBE)]
            setup_gauge.append(statistics.mean(around))
            setup.append(setup_wall[-1] * gauge.REFERENCE_S / setup_gauge[-1])

    if not args.trace:
        gauge.read()            # warm-up, not kept
        probe_setup(0.0)
    tally, block, plain, passes, traced, snapshots, readings = run_passes(
        workload, inputs, ref, args.seconds, tracer,
        None if args.trace else probe_setup,
        gauge.read if workload.gauge == "block" and not args.trace else None)
    if not args.trace:
        probe_setup(1.0)
    per_sample = f"samples of {block} pass{'es' if block > 1 else ''} each"

    k_passes = tally.attempted // max(1, len(tally.first or ()))
    first_pass = (f"{sum(o.failure is not None for o in tally.first)}/"
                  f"{len(tally.first)} in the first pass; " if tally.first else "")
    print(f"failed_frac   {tally.failed / tally.attempted:.6g}  ({first_pass}"
          f"{tally.failed} failed of {tally.attempted} operations, "
          f"{k_passes} passes)")
    for reason, count in sorted(tally.reasons.items()):
        print(f"  failed: {reason}  (x{count})")
    if tally.first:
        for o in tally.first:
            print(f"  {o.op:<5s} {'FAIL' if o.failure else 'ok':<4s} {o.detail}")
    if tally.first and any(tally.pass_counts()):
        iters, accepted, n_f, n_g = tally.pass_counts()
        print(f"solver counts per pass: iters {iters}  accepted {accepted}  "
              f"n_f {n_f}  n_g {n_g}")

    if not plain or (args.trace and not snapshots):
        metrics = {}    # a pass raised before any could be timed
    elif args.trace:
        metrics = layer_metrics(snapshots, plain, traced, tally)
        solver_counts = [metrics.get(f"solver.{key}", (None,))[0]
                         for key, _ in SOLVE_COUNTS]
        if solver_counts != tally.pass_counts():
            tally.correct = False
            print(f"error: traced solver counts {solver_counts} differ from "
                  f"untraced {tally.pass_counts()}", file=sys.stderr)
        print(f"untraced pass {timing_text(plain)} {per_sample}")
        report_layers(metrics, traced, per_sample)
        if snapshots[-1].get("factor_calls"):
            n, m, seconds = max(snapshots[-1]["factor_calls"], key=lambda c: c[2])
            print(f"slowest factor call: n={n} m={m} {seconds:.4g} s "
                  f"(last traced pass)")
        overhead = metrics["trace.overhead_s"][0]
        print(f"tracing overhead {overhead:.6g} s per pass "
              f"({100.0 * overhead / statistics.median(plain):.1f}% of untraced)")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if workload.gauge == "block":
            solve = gauge.at_reference(plain, readings)
        else:
            solve = gauge.at_reference(
                plain, [statistics.mean(setup_gauge)] * len(plain))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "solve_s": (statistics.median(solve), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "passed_frac": ((tally.attempted - tally.failed) / tally.attempted,
                            "ratio"),
        }
        print(f"setup_s       {timing_text(setup)} at the gauge reference "
              f"speed, fresh interpreters")
        print(f"  wall          {timing_text(setup_wall)}")
        print(f"solve_s       {timing_text(solve)} at the gauge reference "
              f"speed ({workload.gauge}), {per_sample}")
        print(f"  wall blocks   {timing_text(plain)}")
        print(f"  gauge         {timing_text(readings or setup_gauge)} "
              f"{'mean per block' if readings else 'mean per probe'}; "
              f"reference {gauge.REFERENCE_S:g} s")
        print(f"  wall passes   {timing_text(passes)}")
        print(f"peak_rss_mb   {rss_mb:.6g} MB")
        print(f"passed_frac   {metrics['passed_frac'][0]:.6g}")

    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    RESULTS_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seconds=args.seconds,
                  trace=args.trace, environment=env,
                  failures=tally.reasons,
                  block_passes=block,
                  samples={"setup_s": setup, "setup_wall_s": setup_wall,
                           "block_pass_s": plain,
                           "pass_s": passes, "traced_block_pass_s": traced,
                           "gauge_s": readings, "setup_gauge_s": setup_gauge})
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if tally.correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results, code = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            results[f"{name}/trace{trace}"] = json.loads(lines[-1]) if lines else None
            code = max(code, proc.returncode)
            print()
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
