"""Replay every benchmark job against bench/golden.json in this process.

    PYTHONPATH=src python3 tests/replay_golden.py

The jobs are `bench/workloads.job_pool()`, all 153 that some seed of some
workload can produce.  Each runs through `cli.main` in a temporary directory
holding the generated quiver files; its report without `timings` must match
the golden report byte for byte, with the same exit code.  Prints one line
per mismatch and exits 1 if there is any.  Nothing under bench/ is written.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from quiverhom import cli

ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def run_job(argv) -> tuple:
    """Exit code and timing-stripped report of one CLI invocation."""
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv
            code = exc.code
    report = json.loads(out.getvalue())
    report.pop("timings", None)
    return code, json.dumps(report, sort_keys=True)


def main() -> int:
    workloads = load_workloads()
    golden = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
    jobs = sorted(workloads.job_pool(), key=lambda j: j.key)
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / workloads.WORK_DIR
        work.mkdir(parents=True)
        for name in sorted({j.quiver for j in jobs}):
            (work / f"{name}.quiver").write_text(workloads.quiver_text(name), encoding="utf-8")
        os.chdir(tmp)
        for job in jobs:
            expected = golden.get(job.key)
            code, report = run_job(job.argv)
            if expected is None:
                problem = "no golden report"
            elif code != expected["exit"]:
                problem = f"exit {code}, golden {expected['exit']}"
            elif report != expected["report"]:
                problem = "report differs from golden"
            else:
                continue
            failures += 1
            print(f"MISMATCH {job.key}: {problem}", flush=True)
    if len(jobs) != len(golden):
        failures += 1
        print(f"MISMATCH the job pool has {len(jobs)} jobs, bench/golden.json {len(golden)}")
    print(f"{len(jobs)} jobs replayed, {failures} mismatch(es)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
