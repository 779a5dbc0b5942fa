"""The cpgroups benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists): certify, perm-chain,
fp-enum, snf. Each is a closed loop with one client: the next `cpgroups`
command is sent only after the previous one returned, the way a researcher
waits at a terminal. Commands run in-process through `cpgroups.cli.run` in a
fresh interpreter (worker.py) with a fixed PYTHONHASHSEED; the timer covers
argument parsing, the computation and rendering. Every output is checked
against an independent known answer (checks.py) after the timer stops.

A run measures whole rounds of jobs (jobs.py) until at least --seconds of
job time at reference speed (see below) and at least MIN_JOBS jobs are
done, so that the number of rounds does not follow the machine's speed. Jobs are generated here
and sent to the worker one at a time.

Times are reported at a fixed reference speed. The speed of a shared
machine drifts by up to half from one minute to the next, and the process
CPU time drifts with it, so wall and CPU time alike differ between two runs
of the same code. Each job's wall time is therefore multiplied by
REFERENCE_S / r, where r is the time of a fixed pure-Python loop
(worker.reference_s) measured just before and after the job. A slower
program still reads slower; a slower machine largely does not. The raw
wall-clock figures are printed next to the reported ones and kept in the
result file. End-to-end metrics:

  setup_s      median, over SETUP_PROBES interpreter starts, of the time
               from the start of job generation through interpreter start
               and `import cpgroups` to the point where the first job could
               be sent
  jobs_per_s   jobs completed per second of timed job time
  job_p50_s    median job latency
  job_p90_s    90th-percentile job latency (at least ten jobs lie above)
  peak_rss_mb  ru_maxrss of the worker process
  ok_ratio     jobs that returned the right answer / jobs attempted; its
               complement, fail_ratio, is printed in the table

With --trace 1 the same jobs run a second time with spans recorded
(spans.py); the last line then carries the per-layer metrics and the
tracing slowdown, and the spans go to .bench_out/. The last line of
standard output is always one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

# Interpreter starts sampled for setup_s, half before and half after the
# timed jobs, so that the median spans the run rather than one moment.
SETUP_PROBES = 12
# worker.reference_s() on a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.
REFERENCE_S = 0.0035
MIN_JOBS = 100
# Stop starting rounds after this much wall time (half of it when the jobs
# will run a second time traced), and kill the worker at the hard limit, so
# that a run always ends within three minutes.
SOFT_LIMIT_S = 120
HARD_LIMIT_S = 165
OUT_DIR = ROOT / ".bench_out"


class Worker:
    """A worker.py process and the line protocol to it."""

    def __init__(self, probe=False):
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        argv = [sys.executable, str(HERE / "worker.py"), str(ROOT)]
        self.proc = subprocess.Popen(argv + (["--probe"] if probe else []),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, cwd=ROOT)
        if self.proc.stdout.readline() != b"ready\n":
            self.close()
            raise RuntimeError("worker failed to start")

    def send(self, command):
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def run_job(self, job):
        """(header, stdout text, stderr text), or None if the worker died."""
        self.send("run " + json.dumps(list(job.argv)))
        line = self.proc.stdout.readline()
        if not line:
            return None
        header = json.loads(line)
        out = self.proc.stdout.read(header["out"]).decode()
        err = self.proc.stdout.read(header["err"]).decode()
        return header, out, err

    def request(self, command):
        self.send(command)
        return self.proc.stdout.readline()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def probe_setup(workload, seed):
    """One set-up sample: (raw seconds, seconds at reference speed)."""
    start = perf_counter()
    next(jobs.rounds(workload, seed))
    probe = Worker(probe=True)
    raw = perf_counter() - start
    try:
        reference = float(probe.proc.stdout.readline())
    finally:
        probe.close()
    return raw, raw * REFERENCE_S / reference


class Pass:
    """Latencies and check results of one pass over the job sequence."""

    def __init__(self):
        self.jobs = []
        self.latency = []  # at reference speed
        self.wall = []  # as measured
        self.status = Counter()
        self.failures = []

    def add(self, job, wall, reference, status, detail):
        self.jobs.append(job)
        self.wall.append(wall)
        self.latency.append(wall * REFERENCE_S / reference)
        self.status[status] += 1
        if status != checks.OK:
            self.failures.append(f"{job.kind} [{status}] {detail}"[:300].strip())

    @property
    def kinds(self):
        return [job.kind for job in self.jobs]

    @property
    def failed(self):
        return len(self.latency) - self.status[checks.OK]

    def jobs_per_s(self):
        return len(self.latency) / sum(self.latency)


def run_jobs(worker, job_list, result):
    """Run `job_list` in order, checking each output after its timer stopped.
    Returns False if the worker died."""
    for job in job_list:
        reply = worker.run_job(job)
        if reply is None:
            result.add(job, 0.0, REFERENCE_S, checks.ERROR, "worker process ended")
            return False
        header, out, err = reply
        status, detail = checks.classify(job, header["code"], out, err,
                                         header["exc"])
        result.add(job, header["latency"], header["reference"], status, detail)
    return True


def run_pass(worker, workload, seed, seconds, deadline):
    """Run whole rounds until `seconds` of job time at reference speed and
    MIN_JOBS jobs, or until the `deadline` on the perf_counter clock."""
    result = Pass()
    for round_jobs in jobs.rounds(workload, seed):
        if not run_jobs(worker, round_jobs, result):
            return result
        enough = sum(result.latency) >= seconds and len(result.latency) >= MIN_JOBS
        if enough or perf_counter() > deadline:
            return result
    raise AssertionError("unreachable: rounds never end")


def end_to_end(result, setup, maxrss_kb, lat=None):
    """The end-to-end metrics, from latencies at reference speed unless
    `lat` (with `setup` to match) gives others."""
    lat = result.latency if lat is None else lat
    n = len(lat)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (n / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
        "ok_ratio": ((n - result.failed) / n, "ratio"),
    }


def context(workload, seed, seconds, result, setup):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                text=True, capture_output=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cpgroups").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    lat = result.latency
    p90 = statistics.quantiles(lat, n=10)[8]
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "loop": "closed, one client",
        "python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
        "git_commit": commit, "source_sha256": digest.hexdigest()[:16],
        "samples": {"jobs": len(lat), "beyond_p90": sum(1 for x in lat if x > p90),
                    "setup": len(setup), "per_kind": dict(Counter(result.kinds))},
        "kind_median_s": {kind: statistics.median(lat)
                          for kind, lat in by_kind(result).items()},
        "timed_s": sum(lat),
        "timed_wall_s": sum(result.wall),
        "reference_s": REFERENCE_S,
    }


def by_kind(result):
    out = defaultdict(list)
    for kind, lat in zip(result.kinds, result.latency):
        out[kind].append(lat)
    return out


def kind_table(result):
    lines = [f"  {'kind':18s} {'n':>4s} {'median_s':>10s} {'max_s':>10s}"]
    for kind, lat in by_kind(result).items():
        lines.append(f"  {kind:18s} {len(lat):4d} {statistics.median(lat):10.4f} "
                     f"{max(lat):10.4f}")
    return "\n".join(lines)


def run(workload, seed, seconds, trace):
    """Run one benchmark; returns (printable report, final JSON object)."""
    wall_start = perf_counter()
    probes = [probe_setup(workload, seed) for _ in range(SETUP_PROBES // 2)]
    worker = Worker()
    watchdog = threading.Timer(HARD_LIMIT_S - (perf_counter() - wall_start),
                               worker.proc.kill)
    watchdog.start()
    try:
        deadline = wall_start + SOFT_LIMIT_S / (2 if trace else 1)
        plain = run_pass(worker, workload, seed, seconds, deadline)
        maxrss = json.loads(worker.request("report"))["maxrss_kb"]
        traced = layers = None
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            worker.request("trace")
            traced = Pass()
            run_jobs(worker, plain.jobs, traced)
            span_file = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
            layers = json.loads(worker.request(f"report {span_file}"))["layers"]
    finally:
        watchdog.cancel()
        worker.close()
    probes += [probe_setup(workload, seed)
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setup = [scaled for _, scaled in probes]

    e2e = end_to_end(plain, setup, maxrss)
    e2e_wall = end_to_end(plain, [raw for raw, _ in probes], maxrss, plain.wall)
    ctx = context(workload, seed, seconds, plain, setup)
    report = [f"cpgroups benchmark: workload={workload} seed={seed} "
              f"seconds={seconds} trace={trace}",
              "context " + json.dumps(ctx),
              "end-to-end metrics (untraced pass), at reference speed and "
              "as measured on the wall clock:"]
    for name, (value, unit) in e2e.items():
        report.append(f"  {name:14s} {value:14.6f} {e2e_wall[name][0]:14.6f} {unit}")
    report.append(f"  {'fail_ratio':14s} {plain.failed / len(plain.latency):14.6f} "
                  f"ratio  ({plain.failed} of {len(plain.latency)}: "
                  f"{dict(plain.status)})")
    report.append("per kind:\n" + kind_table(plain))
    passes = [plain] + ([traced] if traced else [])
    failures = [f for p in passes for f in p.failures]
    for line in failures[:10]:
        report.append("  failed: " + line)

    if trace:
        slowdown = plain.jobs_per_s() / traced.jobs_per_s()
        metrics = {name: (layers.get(name, 0), unit) for name, unit in spans.METRICS}
        metrics["trace.slowdown"] = (slowdown, "ratio")
        report.append(f"per-layer metrics (traced pass, spans in {span_file}):")
        for name, (value, unit) in metrics.items():
            report.append(f"  {name:40s} {value:16.6f} {unit}")
        top = sorted(((v, k[:-7]) for k, v in layers.items() if k.endswith(".self_s")),
                     reverse=True)[:5]
        report.append("top self time: " + ", ".join(f"{k} {v:.3f}s" for v, k in top))
    else:
        metrics = e2e

    attempted = sum(len(p.latency) for p in passes)
    final = {"correct": all(p.status[checks.WRONG] == 0 for p in passes),
             "attempted": attempted,
             "failed": sum(p.failed for p in passes),
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"context": ctx, **final, "end_to_end": {k: v for k, (v, _) in e2e.items()},
              "end_to_end_wall": {k: v for k, (v, _) in e2e_wall.items()},
              "failures": failures}
    (OUT_DIR / f"result-{workload}-{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return "\n".join(report), final


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cpgroups" / "__init__.py").is_file():
        sys.exit(f"no cpgroups sources under {ROOT / 'src'}; run from a checkout")
    report, final = run(args.workload, args.seed, args.seconds, args.trace)
    print(report)
    print(json.dumps(final))


if __name__ == "__main__":
    main()
