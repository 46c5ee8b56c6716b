"""Does this machine's np.einsum sum q^T v in the order eqflow states?

``eqflow.projection._coefficients`` sums each block's products in a
written-out order (see its docstring), chosen because it is the order
``np.einsum("kcr,...kc->...kr", q, v)`` used on the machine where the
package's results were recorded. Until it was written out, the package
called that einsum, so on a machine whose numpy sums another way, the
recorded digests (``tools/result_digest.py``) came out different there;
the stated order now gives every machine the same sums.

For every (c, r) shape of the benchmark problems' block groups, and for
c = 1..12 with r = 1..3, this script compares the einsum on q's natural
C-contiguous (k, c, r) layout with ``_coefficients`` on the same values,
stored as ``factor`` stores them, for one vector and for a stack of
three, at k = 1, 40 and 1600. The entries are seeded normals scaled over
16 decades, so that any other order shows in some last bit. The shapes
whose order ``_coefficients`` does not state (r = 1 with c >= 8, r = 3)
are marked ``einsum``: there it calls the einsum itself. It prints numpy's
version and the SIMD lines of ``numpy.show_runtime()``, then one line per
shape, and a last line that counts the shapes whose bytes differ. It
always exits 0: it explains a digest, it does not judge one.

Usage: python3 tools/einsum_order.py
"""

import contextlib
import io
import sys
import warnings
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from eqflow import DESK_DIM, PROBLEM_IDS, build  # noqa: E402
from eqflow.projection import _coefficients, _stated  # noqa: E402

SIZES = (1, 40, 1600)
STACK = 3


def simd_lines():
    """The lines of ``numpy.show_runtime()`` that name the SIMD extensions."""
    text = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(text):
        warnings.simplefilter("ignore")  # the note that threadpoolctl is missing
        np.show_runtime()
    lines = text.getvalue().splitlines()
    start = next((i for i, line in enumerate(lines) if "simd_extensions" in line), None)
    if start is None:
        return ["(numpy.show_runtime() names no SIMD extensions)"]
    end = next(i for i in range(start, len(lines)) if "not_found" in lines[i] or i == len(lines) - 1)
    return [line.strip() for line in lines[start:end + 1]]


def benchmark_shapes():
    """The (c, r) of every block group of the benchmark problems."""
    shapes = set()
    for pid in PROBLEM_IDS:
        for grp in build(pid, DESK_DIM).cs.projector.groups:
            k, c, r = grp.q.shape
            shapes.add((c, r))
    return shapes


def same_bytes(c, r, lead, rng):
    """Whether the einsum and _coefficients agree in every byte at each k."""
    for k in SIZES:
        q = rng.standard_normal((k, c, r)) * 10.0 ** rng.uniform(-8, 8, (k, c, r))
        v = rng.standard_normal(lead + (k * c,)) * 10.0 ** rng.uniform(-8, 8, lead + (k * c,))
        stored = np.ascontiguousarray(q.transpose(2, 0, 1)).transpose(1, 2, 0)
        want = np.einsum("kcr,...kc->...kr", q, v.reshape(lead + (k, c)))
        got = _coefficients(stored, slice(0, k * c), v)
        if np.ascontiguousarray(got).tobytes() != want.tobytes():
            return False
    return True


def main():
    print(f"numpy {np.__version__}")
    for line in simd_lines():
        print(f"  {line}")
    bench = benchmark_shapes()
    grid = {(c, r) for r in (1, 2, 3) for c in range(r, 13)} | bench
    rng = np.random.default_rng(0)
    differ = 0
    for c, r in sorted(grid, key=lambda cr: (cr[1], cr[0])):
        tag = "benchmark" if (c, r) in bench else ""
        if not _stated(c, r):
            print(f"c={c:2d} r={r}  einsum   {tag}".rstrip())
            continue
        verdict = []
        for name, lead in (("1-D", ()), ("stacked", (STACK,))):
            same = same_bytes(c, r, lead, rng)
            differ += not same
            verdict.append(f"{name} {'same' if same else 'DIFFERS'}")
        print(f"c={c:2d} r={r}  {'  '.join(verdict)}  {tag}".rstrip())
    print(f"{differ} of the 1-D and stacked cases differ from the stated order")
    return 0


if __name__ == "__main__":
    sys.exit(main())
