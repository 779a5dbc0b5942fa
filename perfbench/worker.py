"""One workload's process: imports cpgroups from the checkout and runs the
jobs it is sent.

Usage: python3 worker.py ROOT [--probe]

The parent (run.py) starts it with a fixed PYTHONHASHSEED and talks to it
over stdin/stdout, one command per line:

  run ARGV  run one job, ARGV being its JSON-encoded argument list; reply a
            JSON header line with the latency, the reference time, the exit
            code and the output sizes, then the captured stdout and stderr
            bytes
  trace     install the span tracer for the jobs that follow
  report    reply {"maxrss_kb": ..., "layers": ...} and, when tracing, write
            the spans to the path given after the command

The worker prints "ready" once cpgroups is imported. With --probe it then
times the reference loop five times, replies with the median and exits,
which is how the parent samples set-up time. Each job starts cold, as in a fresh cpgroups
process: the named-group constructor caches are cleared and garbage is
collected before the timer starts.

The reference loop (reference_s) is a fixed piece of pure-Python work. It
is timed just before and just after each job, outside the job's timer, and
every 0.1 s during it (Speedometer), with the time of those samples taken
out of the latency. run.py uses the mean to express latencies at a fixed
reference speed: the machine's speed changes from minute to minute, and the
loop slows with it. Spans recorded in a traced pass include the samples.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter


_SHUFFLE = tuple((7 * i + 3) % 24 for i in range(24))


def _reference_work():
    """Integer arithmetic and dictionary stores, then tuple building and
    sorting: a few milliseconds of the interpreter work the jobs do, without
    cpgroups, so that a faster program does not speed the reference up."""
    total, table = 0, {}
    for i in range(12000):
        total += i * i % 7
        table[i % 997] = total
    perm, seen = _SHUFFLE, {}
    for k in range(300):
        perm = tuple([_SHUFFLE[x] for x in perm])
        seen[perm] = k
        sorted((x, k) for x in perm)
    return total + len(seen)


def reference_s():
    """Time of the fixed reference loop, in seconds."""
    start = perf_counter()
    _reference_work()
    return perf_counter() - start


class Speedometer:
    """Times the reference loop every INTERVAL_S seconds while a job runs,
    from a timer signal, so that a long job's reference time covers its
    middle as well as its ends. `spent` is the time the samples took; the
    caller takes it out of the job's latency."""

    INTERVAL_S = 0.1

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(reference_s())
        self.spent += perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv):
    root = Path(argv[0])
    src = root / "src"
    sys.path.insert(0, str(src))
    import cpgroups
    from cpgroups import cli, perm

    if Path(cpgroups.__file__).resolve().parent != (src / "cpgroups").resolve():
        raise SystemExit(f"imported cpgroups from {cpgroups.__file__}, not {src}")

    channel_in, channel_out = sys.stdin.buffer, sys.stdout.buffer
    channel_out.write(b"ready\n")
    channel_out.flush()
    if "--probe" in argv:
        reference = sorted(reference_s() for _ in range(5))[2]
        channel_out.write(f"{reference!r}\n".encode())
        channel_out.flush()
        return

    import spans

    constructors = (perm.symmetric_group, perm.alternating_group,
                    perm.cyclic_group, perm.dihedral_group,
                    perm.klein_four_group, perm.trivial_group)
    tracer = None
    index = 0
    for line in channel_in:
        command, _, rest = line.decode().strip().partition(" ")
        if command == "run":
            job_argv = json.loads(rest)
            for constructor in constructors:
                constructor.cache_clear()
            gc.collect()
            if tracer is not None:
                tracer.job = index
            out, err = io.StringIO(), io.StringIO()
            code, exc = None, None
            before = reference_s()
            meter = Speedometer()
            start = perf_counter()
            try:
                with meter, contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.run(job_argv)
            except SystemExit as stop:
                code = stop.code
            except Exception:  # an uncaught exception is a failed job
                exc = traceback.format_exc(limit=3)
            latency = perf_counter() - start - meter.spent
            samples = [before, reference_s()] + meter.samples
            reference = sum(samples) / len(samples)
            index += 1
            out_b, err_b = out.getvalue().encode(), err.getvalue().encode()
            if tracer is not None:
                tracer.counts["cli.output_bytes"] += len(out_b)
            header = {"latency": latency, "reference": reference, "code": code,
                      "exc": exc, "out": len(out_b), "err": len(err_b)}
            channel_out.write(json.dumps(header).encode() + b"\n" + out_b + err_b)
        elif command == "trace":
            tracer = spans.Tracer()
            tracer.install()
            index = 0
            channel_out.write(b"ok\n")
        elif command == "report":
            layers = None
            if tracer is not None:
                layers = dict(tracer.summary())
                tracer.write(rest)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            channel_out.write(json.dumps({"maxrss_kb": usage.ru_maxrss,
                                          "layers": layers}).encode() + b"\n")
        else:
            raise SystemExit(f"unknown command {command!r}")
        channel_out.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
