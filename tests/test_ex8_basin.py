"""``tools/ex8_basin.py --single`` runs against the current API.

The tool is a measurement, not a gate, and the basin ex8 ends in depends
on the BLAS kernel, so only the shape of its one-line result is checked.
"""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ex8_basin.py"


def test_single_run_prints_one_json_line():
    proc = subprocess.run([sys.executable, str(TOOL), "--single"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    run = json.loads(lines[0])
    assert run["status"] == "converged"
    assert {"iters", "local_blocks", "f_star"} <= set(run)
