"""Check the tracer's exact work counters against the ROADMAP baseline.

    python3 bench/crosscheck.py            # from the root of a source checkout

Each baseline command runs traced twice, in fresh processes.  Its counts
must repeat exactly and equal the numbers ROADMAP.md records.  The baseline
counted distinct matrices by shape and entries for the first two commands,
but by entries alone for `verify`, which merges the empty 0 x c matrices it
eliminates in five widths (1068 by shape and entries).
"""

from __future__ import annotations

import os
import sys

import run
from workloads import LOOP, THREE, Job

BASELINE = (
    (Job("localcoh", THREE, ("--trunc", "20")),
     {"exactlin.eliminations": 6972, "exactlin.distinct_matrices": 223}),
    (Job("nakayama", THREE),
     {"exactlin.eliminations": 10980, "exactlin.distinct_matrices": 110}),
    (Job("verify", LOOP, ("--seed", "7", "--cases", "64")),
     {"exactlin.eliminations": 4010, "exactlin.distinct_entries": 1064, "exactlin.distinct_matrices": 1068,
      "exactlin.max_rows": 49, "exactlin.max_cols": 49}),
)


def check(root: str) -> list:
    """Problems found, empty when every count repeats and matches."""
    run.check_sources(root)
    run.write_quivers(root, [job for job, _ in BASELINE])
    problems = []
    for job, expected in BASELINE:
        counts = []
        for _ in range(2):
            result = run.run_job(root, job, trace=True, timeout=600)
            if "crash" in result:
                problems.append(f"{job.key}: crashed: {result['crash']}")
                break
            counts.append(result["trace"]["counts"])
        if len(counts) < 2:
            continue
        if counts[0] != counts[1]:
            problems.append(f"{job.key}: counts differ between two traced runs")
        for name, want in expected.items():
            got = counts[0].get(name)
            if got != want:
                problems.append(f"{job.key}: {name} = {got}, baseline {want}")
    return problems


def main() -> int:
    problems = check(os.getcwd())
    for line in problems:
        print(line)
    print("crosscheck", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
