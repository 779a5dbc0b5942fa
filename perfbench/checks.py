"""Known-answer checks for benchmark jobs, run outside the timed window.

Each checker compares one job's output with the expectation that jobs.py
derived without cpgroups. Results are classified the way the benchmark
counts them:

* OK: the expected exit code and a verified answer;
* WRONG: the program gave an answer (exit 0 or 1) that disagrees;
* REFUSED: the program declined with another exit code (bad input,
  exhausted budget) where an answer was expected;
* ERROR: an uncaught exception.

Everything but OK counts as a failed job. Only WRONG makes a run incorrect.
"""

from __future__ import annotations

import json
import random

OK, WRONG, REFUSED, ERROR = "ok", "wrong", "refused", "error"

# Primes for the modular determinant test of unimodularity.
_PRIMES = (2 ** 61 - 1, 1_000_000_007)


class Mismatch(Exception):
    pass


def _same(what, got, want):
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def classify(job, code, out, err, exc):
    """(status, detail) for one finished job."""
    want = job.expect["code"]
    if exc is not None:
        return ERROR, exc
    if code != want:
        status = WRONG if code in (0, 1) else REFUSED
        return status, f"exit {code}, expected {want}: {err.strip()[:200]}"
    try:
        CHECKERS[job.expect["check"]](job.expect, out, err)
    except Mismatch as exc_:
        return WRONG, str(exc_)
    except (ValueError, KeyError, TypeError, IndexError) as exc_:
        return WRONG, f"unreadable output: {type(exc_).__name__}: {exc_}"
    return OK, ""


# ---------------------------------------------------------------- groups


def _aut(expect, out, err):
    payload = json.loads(out)
    _same("complete", payload["complete"], True)
    _same("aut_order", payload["aut_order"], expect["aut_order"])
    _same("inner_order", payload["inner_order"], expect["inner_order"])
    _same("all_inner", payload["all_inner"],
          expect["aut_order"] == expect["inner_order"])


def _verdict(expect, out, err):
    payload = json.loads(out)
    _same("status", payload["status"], expect["status"])
    _same("reason", payload["reason"], expect["reason"])
    cert = payload["certificate"]
    _same("cp_order", cert["cp_order"], expect["cp_order"])
    if "aut_order" in expect:
        _same("aut_order", cert["aut_order"], expect["aut_order"])


def _trefoil(expect, out, err):
    payload = json.loads(out)
    _same("p", payload["p"], expect["p"])
    _same("verdict", payload["verdict"], "OBSTRUCTED")
    steps = payload["steps"]
    _same("steps", [s["passed"] for s in steps], [True] * 4)
    _same("image order", steps[0]["data"]["image_order"], 6)
    _same("kernel index", steps[1]["data"]["index"], 6)
    # index 6 in a rank-2 free group: 6 * (2 - 1) + 1 Schreier generators
    _same("schreier count", steps[2]["data"]["schreier_generator_count"], 7)


def _s6(expect, out, err):
    payload = json.loads(out)
    want = {"p": expect["p"], "aut_order": 1440, "inner_order": 720,
            "cp_of_aut_order": 360, "cp_equals_alternating_image": True,
            "inner_contained_in_cp": False, "outer_order_10_exists": True,
            "aut_over_inner_index": 2, "aut_over_cp_index": 4,
            "counting_contradiction": True, "verdict": "NOT_CP_GROUP"}
    for key, value in want.items():
        _same(key, payload[key], value)


def _verify(expect, out, err):
    payload = json.loads(out)
    _same("total", payload["total"], expect["total"])
    failed = [item["id"] for item in payload["items"] if not item["passed"]]
    _same("failed items", failed, [])
    _same("passed", payload["passed"], expect["total"])


def _order(expect, out, err):
    _same("order", json.loads(out)["order"], expect["order"])


def _cp_subgroup(expect, out, err):
    payload = json.loads(out)
    _same("order", payload["order"], expect["order"])
    _same("subgroup_order", payload["subgroup_order"], expect["subgroup_order"])
    _same("index", payload["index"], expect["order"] // expect["subgroup_order"])


def _series(expect, out, err):
    """Expected levels are (index, quotient torsion) pairs, with the subgroup
    order appended for permutation groups."""
    payload, want = json.loads(out), expect["levels"]
    _same("truncated_at", payload["truncated_at"], None)
    levels = payload["levels"]
    _same("depth", len(levels), len(want))
    for k, (level, expected) in enumerate(zip(levels, want)):
        _same(f"level {k} index", level["index"], expected[0])
        _same(f"level {k} quotient", (level["quotient"]["free_rank"],
                                      level["quotient"]["torsion"]),
              (0, list(expected[1])))
        if len(expected) > 2:
            _same(f"level {k} order", level["order"], expected[2])


# ---------------------------------------------------------------- fp


def parse_word(text, names):
    """Letters of a word written as space-separated `name` or `name^e`."""
    letters = []
    for token in text.split():
        name, _, exp = token.partition("^")
        e = int(exp) if exp else 1
        g = names.index(name)
        letters.extend([2 * g + (0 if e > 0 else 1)] * abs(e))
    return letters


def _coset_table(expect, out, err):
    """Certify a coset table: every column a bijection with its inverse
    column, every relator closed at every coset, the subgroup generators
    fixing coset 0, cosets numbered in first-appearance order, and the index
    equal to the closed-form value."""
    payload = json.loads(out)
    table = payload["table"]
    names = expect["gens"]
    n, width = len(table), 2 * len(names)
    _same("index", payload["index"], expect["index"])
    _same("rows", n, expect["index"])
    seen = 0
    for a, row in enumerate(table):
        _same(f"row {a} width", len(row), width)
        for c, t in enumerate(row):
            if not 0 <= t < n or table[t][c ^ 1] != a:
                raise Mismatch(f"column {c} is not a bijection at coset {a}")
            if t > seen:
                _same("first appearance", t, seen + 1)
                seen = t
    for rel in expect["relators"]:
        letters = parse_word(rel, names)
        for a in range(n):
            b = a
            for c in letters:
                b = table[b][c]
            if b != a:
                raise Mismatch(f"relator {rel!r} does not close at coset {a}")
    for word in expect["subgroup"]:
        b = 0
        for c in parse_word(word, names):
            b = table[b][c]
        _same(f"subgroup word {word!r} at coset 0", b, 0)


def _rs(expect, out, err):
    payload = json.loads(out)
    _same("index", payload["index"], expect["index"])
    _same("schreier_generators", payload["schreier_generators"], expect["schreier"])
    ab = payload["subgroup_abelianization"]
    _same("subgroup abelianization", (ab["free_rank"], ab["torsion"]),
          (0, expect["torsion"]))


def _budget(expect, out, err):
    if not err.startswith("budget exhausted"):
        raise Mismatch(f"exit 3 without a budget message: {err[:200]!r}")


def _cp_kernel(expect, out, err):
    payload = json.loads(out)
    _same("index", payload["index"], expect["index"])
    ab = payload["kernel_abelianization"]
    _same("kernel free rank", ab["free_rank"], 1)
    order = 1
    for d in ab["torsion"]:
        order *= d
    _same("kernel torsion order", order, expect["torsion_order"])


# ---------------------------------------------------------------- integers


def _matrix(text, rows, cols, what):
    m = json.loads(text)
    if len(m) != rows or any(len(r) != cols for r in m):
        raise Mismatch(f"{what} is not {rows} x {cols}")
    return m


def _mat_vec(m, x):
    return [sum(a * b for a, b in zip(row, x)) for row in m]


def det_mod(m, p):
    """Determinant modulo a prime by Gaussian elimination."""
    a = [[v % p for v in row] for row in m]
    n = len(a)
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        inv = pow(a[k][k], -1, p)
        det = det * a[k][k] % p
        row_k = a[k]
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                row_i = a[i]
                for j in range(k, n):
                    row_i[j] = (row_i[j] - f * row_k[j]) % p
    return det % p


def _unimodular(m, what):
    signs = set()
    for p in _PRIMES:
        d = det_mod(m, p)
        if d not in (1, p - 1):
            raise Mismatch(f"{what} is not unimodular (det mod {p} = {d})")
        signs.add(d == 1)
    if len(signs) != 1:
        raise Mismatch(f"{what}: determinant is not +1 or -1")


def _snf(expect, out, err):
    """Certify U M V = D with U, V unimodular and D a nonnegative diagonal
    divisibility chain, which pins D down as the Smith normal form. The
    product is tested on random vectors (a nonzero difference survives a
    random 61-bit vector with probability below 2^-60)."""
    payload = json.loads(out)
    m = expect["matrix"]
    r, c = len(m), len(m[0])
    _same("matrix", json.loads(payload["matrix"]), m)
    u = _matrix(payload["U"], r, r, "U")
    d = _matrix(payload["D"], r, c, "D")
    v = _matrix(payload["V"], c, c, "V")
    diag = [d[i][i] for i in range(min(r, c))]
    _same("diagonal", payload["diagonal"], diag)
    for i in range(r):
        for j in range(c):
            if i != j and d[i][j]:
                raise Mismatch(f"D has an off-diagonal entry at ({i}, {j})")
    if any(x < 0 for x in diag):
        raise Mismatch(f"diagonal {diag} has a negative entry")
    for x, y in zip(diag, diag[1:]):
        if y % x if x else y:
            raise Mismatch(f"diagonal {diag} is not a divisibility chain")
    rng = random.Random(r * 1000 + c)
    for _ in range(2):
        x = [rng.getrandbits(61) for _ in range(c)]
        if _mat_vec(u, _mat_vec(m, _mat_vec(v, x))) != _mat_vec(d, x):
            raise Mismatch("U M V != D")
    _unimodular(u, "U")
    _unimodular(v, "V")


def _abelianize(expect, out, err):
    ab = json.loads(out)["abelianization"]
    _same("abelianization", (ab["free_rank"], ab["torsion"]),
          (expect["free_rank"], expect["torsion"]))


CHECKERS = {
    "aut": _aut, "verdict": _verdict, "trefoil": _trefoil, "s6": _s6,
    "verify": _verify, "order": _order, "cp_subgroup": _cp_subgroup,
    "series": _series, "coset_table": _coset_table, "rs": _rs,
    "budget": _budget, "cp_kernel": _cp_kernel,
    "snf": _snf, "abelianize": _abelianize,
}
