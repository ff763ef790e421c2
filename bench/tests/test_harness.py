"""Job lists, report stripping and the golden gate."""

import json

import run
import workloads


def test_job_list_is_a_function_of_workload_and_seed():
    for workload in workloads.WORKLOADS:
        for seed in range(5):
            assert workloads.jobs_for(workload, seed) == workloads.jobs_for(workload, seed)
    lists = {tuple(j.key for j in workloads.jobs_for("colimit", seed)) for seed in range(10)}
    assert len(lists) > 1


def test_seeds_change_order_and_numbering_but_not_the_job_kinds():
    for workload in workloads.WORKLOADS:
        kinds = {tuple(sorted((j.command, j.args) for j in workloads.jobs_for(workload, seed)))
                 for seed in range(20)}
        assert len(kinds) == 1


def test_every_seed_stays_inside_the_golden_set():
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    pool = {j.key for j in workloads.job_pool()}
    assert pool == set(golden)
    for workload in workloads.WORKLOADS:
        for seed in range(200):
            assert {j.key for j in workloads.jobs_for(workload, seed)} <= pool


def test_cycle_files_follow_the_vertex_order():
    assert workloads.quiver_text("cycle-1-3-2") == (
        "vertices: 3\narrow a 1 3\narrow b 2 1\narrow c 3 2\n")
    assert workloads.quiver_text(workloads.LOOP) == "vertices: 1\narrow a 1 1\n"


def _cli_output(report: dict) -> str:
    return json.dumps(report, sort_keys=True) + "\n"


def test_strip_timings_removes_only_the_top_level_block():
    report = {"schema": 1, "command": "gate", "tables": {"timings": [1]}, "timings": {"total_ms": 17}}
    stripped = run.strip_timings(_cli_output(report))
    del report["timings"]
    assert stripped == json.dumps(report, sort_keys=True)
    assert '"tables": {"timings": [1]}' in stripped


def test_golden_gate_ignores_timings_and_catches_every_other_difference():
    job = workloads.Job("gate", workloads.LOOP)
    golden = {job.key: {"exit": 0, "report": json.dumps({"command": "gate", "ok": True}, sort_keys=True)}}

    def result(code=0, ok=True, ms=3):
        return {"exit": code, "report": _cli_output({"command": "gate", "ok": ok, "timings": {"total_ms": ms}})}

    assert run.mismatch(job, result(ms=3), golden) is None
    assert run.mismatch(job, result(ms=999), golden) is None
    assert "exit" in run.mismatch(job, result(code=4), golden)
    assert "differs" in run.mismatch(job, result(ok=False), golden)
    assert "crashed" in run.mismatch(job, {"crash": "GradingError"}, golden)
    assert "no golden" in run.mismatch(workloads.Job("gate", workloads.TWO), result(), golden)


def test_sweep_growth_per_degree():
    jobs = [workloads.Job("localcoh", workloads.THREE, ("--trunc", str(n)), sweep=True) for n in (12, 16)]
    jobs.append(workloads.Job("cy", workloads.TWO, ("--trunc", "12")))
    results = [{"command_s": 1.0}, {"command_s": 16.0}, {"command_s": 50.0}]
    assert abs(run.lc_growth(jobs, results) - 2.0) < 1e-12
    assert run.lc_growth(jobs[2:], results[2:]) == 0.0
