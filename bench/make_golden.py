"""Write bench/golden.json: the timing-stripped report and exit code of every
job any seed can produce.

    python3 bench/make_golden.py           # from the root of a source checkout

Run it only on a commit whose reports are trusted; a change that keeps the
behaviour leaves the file unchanged.  Each job runs twice, in two fresh
processes, and the two reports must agree.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    root = os.getcwd()
    run.check_sources(root)
    jobs = sorted(workloads.job_pool(), key=lambda j: j.key)
    run.write_quivers(root, jobs)
    golden = {}
    for k, job in enumerate(jobs, 1):
        seen = []
        for _ in range(2):
            result = run.run_job(root, job, trace=False, timeout=600)
            if "crash" in result:
                print(f"{job.key}: crashed: {result['crash']}", file=sys.stderr)
                return 1
            seen.append({"exit": result["exit"], "report": run.strip_timings(result["report"])})
        if seen[0] != seen[1]:
            print(f"{job.key}: two runs disagree", file=sys.stderr)
            return 1
        golden[job.key] = seen[0]
        print(f"[{k}/{len(jobs)}] exit {seen[0]['exit']} {result['command_s']:.3f} s {job.key}", flush=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
