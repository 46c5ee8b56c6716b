"""The benchmark's traced run finds every entry point it wraps.

``perfbench/spans.py`` skips an entry point it cannot find, so a renamed
function would drop its metrics from the traced result line without
failing the run. These tests fail instead, and check that the traced
metrics are the ones ``BENCHMARK.json`` declares, in strict JSON.
"""

import importlib.util
import json
from pathlib import Path

import eqflow
import eqflow.cli

ROOT = Path(__file__).resolve().parents[1]


def _load(name, module_name):
    spec = importlib.util.spec_from_file_location(
        module_name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_snapshot(spans):
    """One traced pass over a solve, a gradient check and a CLI suite.

    Returns the tracer's snapshot and the results of the solves it saw.
    """
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
    traced.append(eqflow.solve(eqflow.build("ex1", 12)))  # the suite's solve
    return snap, traced


def test_traced_run_reports_every_span_and_solve_count(capsys):
    spans = _load("spans", "perfbench_spans")
    snap, traced = _traced_snapshot(spans)
    capsys.readouterr()

    assert [name for name in spans.SPANS
            if snap["spans"].get(name, (0,))[0] == 0] == []
    assert snap["solve_counts"] == {
        key: sum(getattr(result, field) for result in traced)
        for key, field in spans.SOLVE_COUNTS}


def test_traced_metrics_are_the_declared_ones_in_strict_json(monkeypatch, capsys):
    # run.py imports its sibling modules by their plain names
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = _load("run", "perfbench_run")
    snap, _ = _traced_snapshot(_load("spans", "perfbench_spans"))
    capsys.readouterr()

    tally = run.Tally()
    metrics = run.layer_metrics([snap, snap], [1.0], [1.0], tally)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert tally.correct
    json.dumps({name: value for name, (value, _) in metrics.items()},
               allow_nan=False)
