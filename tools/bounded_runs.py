"""Replay the paper's CLI results, each in a child process under a time limit and,
where a case gives one, an address-space limit: `python tools/bounded_runs.py`. No case
may print a traceback, and a `--format json` case must print exactly
`json.dumps(data, indent=2)` of its own data. Exits 1 if any case failed."""

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple
    timeout_s: float
    limit_kib: int | None = None  # RLIMIT_AS in KiB, as `ulimit -v` takes it
    optimize: bool = False  # run under `python -O`
    exit: int = 0
    lines: tuple = ()  # full stdout lines, each required
    stderr: str = ""  # required stderr substring
    check: Callable | None = None  # predicate on the parsed JSON stdout

    def limit_address_space(self):  # runs in the child, before the exec
        resource.setrlimit(resource.RLIMIT_AS, (self.limit_kib * 1024,) * 2)


def coxeter(n):
    """The Coxeter presentation of S_n on generators s0 .. s{n-2}."""
    gens = [f"s{i}" for i in range(n - 1)]
    braids = [" ".join([f"{a} {b}"] * (3 if j == i + 1 else 2))
              for i, a in enumerate(gens) for j, b in enumerate(gens) if i < j]
    return f"< {', '.join(gens)} | {', '.join([g + '^2' for g in gens] + braids)} >"


def cycles(*orbits):
    """A generator list in cycle notation, one cycle per generator."""
    return ", ".join("(" + " ".join(map(str, orbit)) + ")" for orbit in orbits)


def elementary_abelian(p, k):
    """Z_p^k as k disjoint p-cycles on 1 .. pk."""
    return cycles(*(range(p * i + 1, p * i + p + 1) for i in range(k)))


# seeded inputs: two 64-cycles, both odd, that generate S_64, and a dense 60x60 matrix
_rng1, _rng3 = random.Random(1), random.Random(3)
CYCLES_64 = cycles(_rng1.sample(range(1, 65), 64), _rng1.sample(range(1, 65), 64))
SNF_MATRIX = [[_rng3.randint(-9, 9) for _ in range(60)] for _ in range(60)]


def snf_certified(data):
    """U M V = D, U and V unimodular, D a divisibility chain; the checker raises if not."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    from checks import CHECKERS
    CHECKERS["snf"]({"matrix": SNF_MATRIX}, json.dumps(data), "")
    return True


GB = 1000000  # KiB
CASES = (
    Case("trefoil-budget", ("coset-enum", "--presentation", "< a, b | a^3 = b^2 >"), 300,
         160000, exit=3, stderr="exhausted with 1000000 live cosets"),
    Case("trefoil-low-memory", ("coset-enum", "--presentation", "< a, b | a^3 = b^2 >"), 300,
         100000, exit=4, stderr="internal error: out of memory; a smaller --max-cosets or a "
         "larger memory limit may let the command finish\n"),
    Case("relator-too-long", ("coset-enum", "--presentation", "< a | a^99999999999999 >"), 10,
         exit=2),
    Case("coset-enum-z2001", ("coset-enum", "--presentation", "< a | a^2001 >"), 10,
         lines=("index=2001",)),
    Case("coset-enum-s7-parabolic", ("coset-enum", "--presentation", coxeter(7), "--subgroup",
                                     "s0, s1", "--format", "json"), 60, optimize=True,
         check=lambda d: d["index"] == len(d["table"]) == 840),
    Case("rs-s6", ("rs", "--presentation", coxeter(6)), 60),
    Case("rs-s6-over-s0", ("rs", "--subgroup", "s0", "--presentation", coxeter(6)), 30,
         lines=("index=360", "schreier_generators=1441",
                'subgroup_abelianization.display="Z_2"')),
    Case("rs-s8", ("rs", "--presentation", coxeter(8)), 30, lines=("index=40320",)),
    Case("snf-60x60", ("snf", "--matrix", str(SNF_MATRIX), "--format", "json"), 30,
         check=snf_certified),
    Case("order-s30", ("order", "--group", cycles(range(1, 3), range(1, 31))), 10,
         lines=("order=265252859812191058636308480000000",)),
    Case("order-64-cycles", ("order", "--group", CYCLES_64), 10, GB,
         lines=(f"order={math.factorial(64)}",)),
    *(Case(f"verdict-z2^{k}", ("verdict", "--group", elementary_abelian(2, k), "--p", "2"), 10,
           GB, exit=1, lines=('status="INCONCLUSIVE"',)) for k in (7, 4)),
    *(Case(f"aut-z{p}^{k}", ("aut", "--group", elementary_abelian(p, k)), timeout_s, GB,
           lines=(f"aut_order={order}",)) for p, k, timeout_s, order in (
        (5, 3, 20, 1488000), (7, 3, 20, 33784128), (2, 9, 10, 699612310033197642547200),
        (3, 6, 10, 84129611558952960))),
    Case("aut-s6", ("aut", "--group", "S6"), 10, lines=("aut_order=1440",)),
    Case("aut-s3xz2", ("aut", "--group", "(1 2 3), (1 2), (4 5)"), 10,
         lines=("aut_order=12", "inner_order=6")),
    Case("aut-a6", ("aut", "--group", "A6"), 10, optimize=True,
         lines=("aut_order=1440", "inner_order=360")),
    *(Case(f"s6-p{p}", ("s6", "--p", str(p)), 10,
           lines=("cp_of_aut_order=360", "outer_order_10_exists=true")) for p in (2, 6)),
    Case("verdict-d4", ("verdict", "--group", "D4", "--p", "2"), 10, exit=1,
         lines=('reason="AUT_CRITERION"',)),
    Case("verdict-s5", ("verdict", "--group", "S5", "--p", "2"), 10, optimize=True, exit=1,
         lines=('reason="COMPLETE_CRITERION"',)),
    Case("series-s8", ("series", "--group", "S8", "--p", "2", "--depth", "6"), 10),
    Case("series-s5-big-p",
         ("series", "--group", "S5", "--p", "2305843009213693951", "--depth", "1"), 10),
    Case("e2-table-20000", ("e2-table", "3", "2", "5", "--s-max", "20000", "--t-max", "20000"),
         10, lines=("verified_degrees.20000=20000",)),
    Case("verify-all", ("verify", "all", "--format", "json"), 60, optimize=True,
         check=lambda d: d["passed"] == d["total"] > 0),
)


def launch(case):
    """Run the case's command in a child. Returns the exit code (None on a
    timeout), stdout, stderr and the wall seconds."""
    cmd = [sys.executable, *(["-O"] if case.optimize else []), "-m", "cpgroups.cli", *case.argv]
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                              timeout=case.timeout_s,
                              preexec_fn=case.limit_address_space if case.limit_kib else None)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = None, exc.stdout or b"", exc.stderr or b""
    return (code, out.decode(errors="replace"), err.decode(errors="replace"),
            time.perf_counter() - start)


def judge(case, code, out, err):
    """The reasons a run fails its case; empty when it passes."""
    if code is None:
        return [f"timed out after {case.timeout_s} s"]
    reasons = [f"exit {code}, expected {case.exit}"] if code != case.exit else []
    if "Traceback" in out or "Traceback" in err:
        reasons.append("traceback")
    have = set(out.splitlines())
    reasons += [f"no stdout line {line!r}" for line in case.lines if line not in have]
    if case.stderr not in err:
        reasons.append(f"stderr lacks {case.stderr!r}")
    if "json" in case.argv:
        try:
            data = json.loads(out)
            if out != json.dumps(data, indent=2) + "\n":
                reasons.append("stdout is not json.dumps(indent=2) of itself")
            if case.check and not case.check(data):
                reasons.append("JSON predicate is false")
        except Exception as exc:
            reasons.append(f"JSON check raised {type(exc).__name__}: {exc}")
    return reasons


def main():
    failed = 0
    for case in CASES:
        code, out, err, seconds = launch(case)
        reasons = judge(case, code, out, err)
        failed += bool(reasons)
        tail = reasons + err.splitlines()[-10:] if reasons else []
        print(f"{'FAIL' if reasons else 'ok  '} {seconds:7.2f}s exit {code} {case.name}",
              *(f"    {line}" for line in tail), sep="\n", flush=True)
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
