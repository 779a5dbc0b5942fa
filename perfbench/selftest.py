"""Self-test of the benchmark's checking: a corrupted known answer must be
counted as a failed, wrong job.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

For each workload it runs the first JOBS jobs of seed 1 with one job's
expected value corrupted, and asserts that exactly that job is reported
WRONG (which marks a run incorrect) and that fail_ratio (1 - ok_ratio)
equals 1 / JOBS. It also feeds the Smith normal form checker a real output
with its last invariant factor doubled, which only the U M V = D test can
catch. Exits 0 when every assertion holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
from checks import OK, WRONG, classify

JOBS = 8
CORRUPT_AT = 2


def corrupt(expect):
    """A copy of `expect` with the value its checker compares changed, or
    None when the checker compares no value (an exhausted budget)."""
    expect = dict(expect)
    for key in ("order", "aut_order", "cp_order", "index", "torsion_order",
                "free_rank", "p", "total"):
        if key in expect:
            expect[key] += 1
            return expect
    if "levels" in expect:
        expect["levels"] = [(level[0] + 1,) + tuple(level[1:])
                            for level in expect["levels"]]
    elif "matrix" in expect:
        expect["matrix"] = [[x + 1 for x in row] for row in expect["matrix"]]
    else:
        return None
    return expect


def check_workload(workload):
    job_list = next(run.jobs.rounds(workload, 1))[:JOBS]
    corrupted = None
    for i, job in enumerate(job_list):
        expect = corrupt(job.expect)
        if i >= CORRUPT_AT and expect is not None:
            job_list[i] = dataclasses.replace(job, expect=expect)
            corrupted = job.kind
            break

    worker = run.Worker()
    result = run.Pass()
    try:
        run.run_jobs(worker, job_list, result)
        maxrss = json.loads(worker.request("report"))["maxrss_kb"]
    finally:
        worker.close()
    metrics = run.end_to_end(result, [0.0], maxrss)
    fail_ratio = 1 - metrics["ok_ratio"][0]
    assert result.status[WRONG] == 1, (workload, result.failures)
    assert result.status[OK] == JOBS - 1, (workload, result.failures)
    assert result.failures[0].startswith(corrupted), result.failures
    assert abs(fail_ratio - 1 / JOBS) < 1e-12, fail_ratio
    print(f"{workload}: corrupted {corrupted} job counted; "
          f"fail_ratio = {fail_ratio:.4f}")


def check_snf_certificate():
    job = next(job for job in next(run.jobs.rounds("snf", 1))
               if job.kind in ("snf-small", "snf-30"))
    worker = run.Worker()
    try:
        header, out, err = worker.run_job(job)
    finally:
        worker.close()
    assert classify(job, header["code"], out, err, None)[0] == OK
    payload = json.loads(out)
    d = json.loads(payload["D"])
    # doubling the last invariant factor keeps D a divisibility chain
    d[-1][-1] *= 2
    payload["D"] = json.dumps(d)
    payload["diagonal"][-1] *= 2
    status, detail = classify(job, 0, json.dumps(payload), "", None)
    assert status == WRONG and "U M V" in detail, (status, detail)
    print("snf: altered D rejected by the U M V = D test")


def main():
    if not (run.ROOT / "src" / "cpgroups" / "__init__.py").is_file():
        sys.exit("run from a checkout with src/cpgroups")
    for workload in run.jobs.WORKLOADS:
        check_workload(workload)
    check_snf_certificate()
    print("selftest passed")


if __name__ == "__main__":
    main()
