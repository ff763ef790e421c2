"""quiverhom benchmark driver.

    python3 bench/run.py --workload colimit --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  A closed loop with one client: the
jobs of the workload run one at a time, each in a fresh Python process that
imports the package from `src/` and calls `quiverhom.cli.main(argv)` once.
Every report, with `timings` removed, must equal the committed golden
report byte for byte, with the same exit code.

With `--trace 0` the jobs run once each and then again, in turn, while the
`--seconds` last, and the
end-to-end metrics are printed: `total_s` (the sum over jobs of each job's
median command time), `setup_s` (median interpreter start plus
`import quiverhom`), `peak_rss_mb` (largest job RSS) and `failed_frac`.
With `--trace 1` one untraced and one traced pass run, and the per-layer
metrics are printed.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
RUN_BUDGET_S = 170  # every run must end within 180 s
TRACE_METRICS = (
    # name, unit
    ("exactlin.calls", "count"),
    ("exactlin.self_s", "s"),
    ("exactlin.matrices_built", "count"),
    ("exactlin.elim_calls", "count"),
    ("exactlin.distinct_share", "ratio"),
    ("exactlin.repeat_s", "s"),
    ("exactlin.eliminations", "count"),
    ("exactlin.distinct_matrices", "count"),
    ("exactlin.cells", "count"),
    ("exactlin.max_cells", "count"),
    ("quiver.calls", "count"),
    ("quiver.self_s", "s"),
    ("quiver.paths_enumerated", "count"),
    ("pathcoalg.calls", "count"),
    ("pathcoalg.self_s", "s"),
    ("repmod.calls", "count"),
    ("repmod.self_s", "s"),
    ("repmod.reps_built", "count"),
    ("repmod.hom_space_s", "s"),
    ("homology.calls", "count"),
    ("homology.self_s", "s"),
    ("homology.blocks", "count"),
    ("homology.resolutions", "count"),
    ("homology.lc_growth_per_degree", "x/degree"),
    ("regularity.calls", "count"),
    ("regularity.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("trace.overhead_s", "s"),
)


class SetupError(RuntimeError):
    """The benchmark cannot run here (no package sources, no golden set)."""


def strip_timings(report_text: str) -> str:
    """The report as the CLI prints it (`json.dumps(..., sort_keys=True)`) without `timings`."""
    report = json.loads(report_text)
    report.pop("timings", None)
    return json.dumps(report, sort_keys=True)


def check_sources(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "quiverhom", "cli.py")):
        raise SetupError(f"no quiverhom sources under {os.path.join(root, 'src')}; run from a source checkout")


def write_quivers(root: str, jobs) -> None:
    work = os.path.join(root, workloads.WORK_DIR)
    os.makedirs(work, exist_ok=True)
    for name in sorted({j.quiver for j in jobs}):
        with open(os.path.join(work, f"{name}.quiver"), "w", encoding="utf-8") as fh:
            fh.write(workloads.quiver_text(name))


def run_job(root: str, job, trace: bool, timeout: float) -> dict:
    """Run one job in a fresh interpreter; return its measurements and outputs."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, os.path.join(BENCH_DIR, "job.py"), "1" if trace else "0", *job.argv]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": f"killed after {timeout:.0f} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"crash": tail[0]}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"crash": f"unreadable job output: {lines[-1][:200]}"}
    result["setup_s"] = result.pop("ready") - started
    return result


def mismatch(job, result: dict, golden: dict) -> str | None:
    """Why `result` fails the golden gate, or None when it passes."""
    if "crash" in result:
        return f"crashed: {result['crash']}"
    expected = golden.get(job.key)
    if expected is None:
        return "no golden report for this job"
    if result["exit"] != expected["exit"]:
        return f"exit {result['exit']}, golden {expected['exit']}"
    try:
        got = strip_timings(result["report"])
    except ValueError:
        return "report is not JSON"
    return None if got == expected["report"] else "report differs from golden"


class Run:
    """The executions of one benchmark run and the checks on them."""

    def __init__(self, root: str, jobs, golden: dict, deadline: float):
        self.root, self.jobs, self.golden, self.deadline = root, jobs, golden, deadline
        self.attempted = 0
        self.failures = []

    def execute(self, job, trace: bool) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise SetupError("out of time before the job list finished")
        result = run_job(self.root, job, trace, remaining)
        self.attempted += 1
        why = mismatch(job, result, self.golden)
        if why:
            self.failures.append(f"{job.key}: {why}")
        return result

    def one_pass(self, trace: bool) -> list:
        return [self.execute(job, trace) for job in self.jobs]


def command_sum(results) -> float:
    return sum(r.get("command_s", 0.0) for r in results)


def lc_growth(jobs, results) -> float:
    """(t(N_hi)/t(N_lo))^(1/(N_hi-N_lo)) over the sweep jobs; 0 without a sweep."""
    times = {j.trunc: r["command_s"] for j, r in zip(jobs, results) if j.sweep and "command_s" in r}
    if len(times) < 2:
        return 0.0
    lo, hi = min(times), max(times)
    return (times[hi] / times[lo]) ** (1.0 / (hi - lo))


def end_to_end(run: Run, seconds: float, samples_path: str) -> dict:
    """One pass over the jobs, then more passes, job by job, while `seconds` last."""
    started = time.monotonic()
    samples = [[r] for r in run.one_pass(trace=False)]
    k = 0
    while True:
        last = samples[k][-1].get("command_s", 0.0) + samples[k][-1].get("setup_s", 0.0)
        now = time.monotonic()
        if now - started + last > seconds or now + last > run.deadline:
            break
        samples[k].append(run.execute(run.jobs[k], trace=False))
        k = (k + 1) % len(run.jobs)
    executions = [r for rs in samples for r in rs]
    with open(samples_path, "w", encoding="utf-8") as fh:
        json.dump({j.key: [{f: r.get(f) for f in ("command_s", "setup_s", "maxrss_kb")} for r in rs]
                   for j, rs in zip(run.jobs, samples)}, fh, indent=1)
    total = sum(statistics.median(r.get("command_s", 0.0) for r in rs) for rs in samples)
    setups = [r["setup_s"] for r in executions if "setup_s" in r]
    setup = statistics.median(setups) if setups else 0.0
    rss = [r["maxrss_kb"] / 1024 for r in executions if "maxrss_kb" in r]
    print(f"{len(executions)} executions of {len(run.jobs)} jobs")
    return {
        "total_s": (total, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (max(rss) if rss else 0.0, "MB"),
    }


def per_layer(run: Run, trace_path: str) -> dict:
    plain = run.one_pass(trace=False)
    traced = run.one_pass(trace=True)
    values = {}
    for r in traced:
        summary = r.get("trace")
        if not summary:
            continue
        flat = {f"{layer}.{k}": v for layer, data in summary["layers"].items() for k, v in data.items()}
        flat.update(summary["counts"])
        flat.update(summary["seconds"])
        for name, v in flat.items():
            values[name] = max(values.get(name, 0), v) if ".max_" in name else values.get(name, 0) + v
    elim_calls = values.get("exactlin.elim_calls", 0)
    values["exactlin.distinct_share"] = values.get("exactlin.distinct_calls", 0) / elim_calls if elim_calls else 0.0
    values["homology.lc_growth_per_degree"] = lc_growth(run.jobs, plain)
    values["cli.report_bytes"] = sum(len(r.get("report", "").encode()) for r in traced)
    values["trace.overhead_s"] = command_sum(traced) - command_sum(plain)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump([{"job": j.key, "command_s": r.get("command_s"), "trace": r.get("trace")}
                   for j, r in zip(run.jobs, traced)], fh, indent=1)
    return {name: (values.get(name, 0), unit) for name, unit in TRACE_METRICS}


def load_golden() -> dict:
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SetupError(f"cannot read the golden set: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    try:
        check_sources(root)
        # jobs import from bytecode, as from an installed package
        if not compileall.compile_dir(os.path.join(root, "src", "quiverhom"), quiet=1):
            raise SetupError("src/quiverhom does not compile")
        golden = load_golden()
        jobs = workloads.jobs_for(args.workload, args.seed)
        write_quivers(root, jobs)
        run = Run(root, jobs, golden, started + RUN_BUDGET_S)
        out = os.path.join(root, workloads.WORK_DIR, f"{args.workload}-{args.seed}-trace{args.trace}.json")
        metrics = per_layer(run, out) if args.trace else end_to_end(run, args.seconds, out)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = len(run.failures)
    for line in run.failures:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / run.attempted:.6g} ({failed} of {run.attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
