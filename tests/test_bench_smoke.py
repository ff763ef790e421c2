"""Smoke test of the benchmark's traced job runner.

bench/tracer.py wraps the package from outside by binding names such as
`exactlin._rref`, `Matrix`, `AlgebraExtEngine.block`, `standard_resolution`,
`hom_space`, `Rep` and `PathTable`; a renamed or removed name shows up here
as a crash or as a counter that stays at zero.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_job_counts_every_layer():
    # asreg eliminates and builds blocks (local cohomology builds none); no
    # command calls standard_resolution, so homology.resolutions stays at
    # zero, but the tracer still binds that name and a rename crashes the job
    proc = subprocess.run(
        [sys.executable, "bench/job.py", "1", "asreg",
         "--quiver", "examples_quivers/three_cycle.quiver", "--trunc", "6", "--json"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exit"] == 0
    counts = result["trace"]["counts"]
    for name in ("exactlin.eliminations", "homology.blocks"):
        assert counts.get(name, 0) > 0, name
