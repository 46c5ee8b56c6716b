"""``tools/result_digest.py`` sees every output bit of a solve.

The digests themselves depend on the BLAS kernel, so no value is pinned
here: a digest must repeat, and must change when one bit of x*, lambda*,
one history record or one projector factor changes.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from eqflow import build, gradient_check, solve

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "result_digest", ROOT / "tools" / "result_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _one_ulp_up(v, i=0):
    v = v.copy()
    v[i] = np.nextafter(v[i], np.inf)
    return v


def test_solve_digest_repeats_and_sees_every_field():
    digest = _load().solve_digest
    result = solve(build("ex1", 120))
    first = digest(result)
    assert digest(solve(build("ex1", 120))) == first
    history = list(result.history)
    history[-1] = history[-1]._replace(rho=float(np.nextafter(history[-1].rho, np.inf)))
    for changed in (dataclasses.replace(result, x_star=_one_ulp_up(result.x_star)),
                    dataclasses.replace(result, lambda_star=_one_ulp_up(result.lambda_star, -1)),
                    dataclasses.replace(result, history=history)):
        assert digest(changed) != first


def test_check_digest_repeats_and_sees_the_errors():
    digest = _load().check_digest
    problem = build("ex1", 120)
    report = gradient_check(problem, 2, 0)
    first = digest(report)
    assert digest(gradient_check(problem, 2, 0)) == first
    changed = dataclasses.replace(report, coord_errors=_one_ulp_up(report.coord_errors, 5))
    assert digest(changed) != first


def test_projection_items_take_the_index_path():
    # the benchmark problems' groups all index by a slice, so the tool's
    # projection items must reach the index-array path
    tool = _load()
    for make in (tool.permuted_ex8, tool.interleaved):
        cs = make(120, 0)
        assert all(isinstance(grp.at, np.ndarray) for grp in cs.projector.groups)
        assert tool.projection_digest(cs, 0) == tool.projection_digest(make(120, 0), 0)
        assert tool.projection_digest(cs, 0) != tool.projection_digest(cs, 7)


def test_factor_digest_sees_one_bit_of_q():
    tool = _load()
    for make in (lambda: build("ex3", 120).cs, lambda: tool.interleaved(120, 0)):
        projector = make().projector
        first = tool.factor_digest(projector)
        assert tool.factor_digest(make().projector) == first
        grp = projector.groups[-1]
        q = _one_ulp_up(grp.q.ravel(), 5).reshape(grp.q.shape)
        groups = projector.groups[:-1] + (dataclasses.replace(grp, q=q),)
        assert tool.factor_digest(dataclasses.replace(projector, groups=groups)) != first
