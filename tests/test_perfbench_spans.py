"""The benchmark's traced run finds every entry point it wraps.

``perfbench/spans.py`` skips an entry point it cannot find, so a renamed
function would drop its metrics from the traced result line without
failing the run. This test fails instead.
"""

import importlib.util
from pathlib import Path

import eqflow
import eqflow.cli


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_every_span_and_solve_count(capsys):
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # through the package, whose bindings the tracer replaces
        traced = [eqflow.solve(eqflow.build("ex8", 12))]
        eqflow.gradient_check(eqflow.build("ex1", 12), 2, 0)
        assert eqflow.cli.main(["suite", "--n", "12", "--only", "ex1"]) == 0
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    traced.append(eqflow.solve(eqflow.build("ex1", 12)))  # the suite's solve

    assert [name for name in spans.SPANS
            if snap["spans"].get(name, (0,))[0] == 0] == []
    assert snap["solve_counts"] == {
        key: sum(getattr(result, field) for result in traced)
        for key, field in spans.SOLVE_COUNTS}
