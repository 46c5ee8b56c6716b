"""Per-layer spans for the traced benchmark run, installed from outside eqflow.

The tracer replaces each public entry point of the five layers with a
timing wrapper for the length of a traced block of passes and restores
the originals afterwards. Nothing inside the package is edited:

* A module that imported an entry point by name (``solver`` binds
  ``factor`` at import time, ``cli`` binds ``solve`` and ``build``) holds
  its own reference, so every ``eqflow.*`` module, the package included,
  is scanned and each binding of the original function is replaced.
  ``eqflow.direction`` is the function, not the submodule, because the
  package re-export shadows it; modules are therefore looked up in
  ``sys.modules``.
* ``CurvaturePair.from_step`` is a classmethod and is wrapped on the class.
* Problem callbacks are closures, so problems get traced copies made with
  ``dataclasses.replace``: those returned by ``build`` during a traced
  pass, and those a workload built before its passes (``wrap_problem``).

An entry point that no longer exists is skipped; its metrics are then
absent from the report instead of failing the run.

Each span's self time is its duration minus the durations of the spans it
called. Bookkeeping done after a call (counting flops, wrapping a built
problem) is charged to no span, so it shows only as tracing overhead.
"""

import dataclasses
import importlib
import sys
import time

# (layer, name) of every module-level entry point that gets a span.
ENTRY_POINTS = (
    ("projection", "factor"),
    ("projection", "project_gradient"),
    ("projection", "make_feasible"),
    ("projection", "multipliers"),
    ("projection", "residuals"),
    ("direction", "direction"),
    ("solver", "solve"),
    ("problems", "build"),
    ("problems", "gradient_check"),
    ("cli", "main"),
)

# Every span, in report order.
SPANS = (
    "projection.factor", "projection.project_gradient",
    "projection.make_feasible", "projection.multipliers",
    "projection.residuals", "direction.direction", "direction.pair",
    "solver.solve", "problems.build", "problems.objective",
    "problems.gradient", "problems.gradient_check", "cli.main",
)

# SolveResult field behind each solver count.
SOLVE_COUNTS = (("iters", "total_iters"), ("accepted", "steps"),
                ("n_f", "n_f"), ("n_g", "n_g"))


def ndarray_bytes(obj) -> int:
    """Summed ``nbytes`` of the array-valued fields of a (data)class instance."""
    if dataclasses.is_dataclass(obj):
        values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        values = list(vars(obj).values())
    return sum(v.nbytes for v in values
               if hasattr(v, "nbytes") and hasattr(v, "ndim"))


def _eqflow_modules():
    """Every loaded eqflow module, after loading each layer that exists."""
    for layer in dict.fromkeys(layer for layer, _ in ENTRY_POINTS):
        try:
            importlib.import_module(f"eqflow.{layer}")
        except ModuleNotFoundError:
            pass
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "eqflow" or name.startswith("eqflow."))]


class Tracer:
    """Span statistics of one traced pass, plus counts taken at the spans."""

    def __init__(self):
        self._stack = []     # open spans as [name, child_ns]
        self._stats = {}     # span name -> [calls, self_ns]
        self._patches = []   # (owner, attribute, original)
        self.present = set()
        self.reset()

    def reset(self) -> None:
        for stats in self._stats.values():
            stats[0] = stats[1] = 0
        self.gate_passes = 0
        self.flops = 0.0
        self.factor_calls = []   # (n, m, seconds) of each factor call
        self.projector_bytes = 0
        self.solve_counts = {}

    def snapshot(self) -> dict:
        """This pass's statistics; spans of missing entry points are left out."""
        return {
            "spans": {name: (calls, self_ns / 1e9)
                      for name, (calls, self_ns) in self._stats.items()
                      if name in self.present},
            "gate_passes": self.gate_passes,
            "flops": self.flops,
            "factor_calls": list(self.factor_calls),
            "projector_bytes": self.projector_bytes,
            "solve_counts": dict(self.solve_counts),
        }

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        """Wrap fn in a span.

        ``after(args, kwargs, result, seconds)`` sees each call and its
        duration, and may replace the result.
        """
        stats = self._stats.setdefault(name, [0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stats[0] += 1
                stats[1] += t1 - t0 - frame[1]
            if after is not None:
                result = after(args, kwargs, result, (t1 - t0) / 1e9)
            if stack:
                stack[-1][1] += clock() - t0
            return result

        return traced

    def wrap_problem(self, problem):
        """A copy of problem whose objective and gradient record spans."""
        self.present.update(("problems.objective", "problems.gradient"))
        return dataclasses.replace(
            problem,
            objective=self._span("problems.objective", problem.objective),
            gradient=self._span("problems.gradient", problem.gradient))

    def _after_factor(self, args, kwargs, result, seconds):
        cs = args[0] if args else kwargs["cs"]
        m, n = cs.A.shape
        self.factor_calls.append((n, m, seconds))
        self.flops += (6.0 * n * m * m - 2.0 * m ** 3) / 3.0
        self.projector_bytes = max(self.projector_bytes, ndarray_bytes(result))
        return result

    def _after_solve(self, args, kwargs, result, seconds):
        for key, field in SOLVE_COUNTS:
            value = getattr(result, field, None)
            if value is not None:
                self.solve_counts[key] = self.solve_counts.get(key, 0) + value
        return result

    def _after_build(self, args, kwargs, result, seconds):
        return self.wrap_problem(result)

    def _gate(self, fn):
        def counted(*args, **kwargs):
            passed = fn(*args, **kwargs)
            if passed and self._stack and self._stack[-1][0] == "direction.direction":
                self.gate_passes += 1
            return passed
        return counted

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Swap traced wrappers in for every entry point that exists."""
        after = {"projection.factor": self._after_factor,
                 "solver.solve": self._after_solve,
                 "problems.build": self._after_build}
        modules = _eqflow_modules()
        for layer, attr in ENTRY_POINTS:
            original = getattr(sys.modules.get(f"eqflow.{layer}"), attr, None)
            if not callable(original):
                continue
            name = f"{layer}.{attr}"
            self.present.add(name)
            self._replace_everywhere(
                modules, original, self._span(name, original, after.get(name)))

        direction = sys.modules.get("eqflow.direction")
        gate = getattr(direction, "curvature_gate", None)
        if callable(gate):
            self._replace_everywhere(modules, gate, self._gate(gate))
        pair_cls = getattr(direction, "CurvaturePair", None)
        from_step = vars(pair_cls).get("from_step") if pair_cls else None
        if isinstance(from_step, classmethod):
            self.present.add("direction.pair")
            self._patches.append((pair_cls, "from_step", from_step))
            setattr(pair_cls, "from_step",
                    classmethod(self._span("direction.pair", from_step.__func__)))

    def uninstall(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
