"""Seeded job lists for the cpgroups benchmark, with their known answers.

Nothing here imports cpgroups: every expected value is derived from closed
forms or from the construction of the input, so the checker in checks.py
compares the program against references that do not share its code.

A workload is a sequence of rounds. Every round of a workload holds the same
job kinds in the same counts, and run.py stops only at a round boundary,
so each run measures the same mix whatever the seed. The seed picks the
parameters inside a kind: relabellings, primes, subgroups, matrix entries.
The counts per round are chosen so that the median and the 90th percentile
of job latency each fall well inside the block of a single kind.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd

WORKLOADS = ("certify", "perm-chain", "fp-enum", "snf")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its kind, argv, and what a correct run returns.

    `expect` always holds `check` (the checker's name in checks.py) and
    `code` (the exit status a correct program gives).
    """

    kind: str
    argv: tuple
    expect: dict


# ---------------------------------------------------------------- groups


@dataclass(frozen=True)
class Group:
    """Generators as 0-based image lists plus closed-form invariants.

    `ab` lists the cyclic factors of the abelianization (orders >= 2), which
    gives the index of the commutator-and-p-th-power subgroup as the product
    of gcd(m, p). `aut` is the automorphism group order where it is known
    in closed form, else None.
    """

    degree: int
    gens: tuple
    order: int
    ab: tuple
    center: int
    aut: int | None


def _cycle(n, points):
    img = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        img[a] = b
    return tuple(img)


def _phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def symmetric(n):
    aut = 1440 if n == 6 else factorial(n)
    return Group(n, (_cycle(n, [0, 1]), _cycle(n, list(range(n)))),
                 factorial(n), (2,), 1, aut)


def alternating(n):
    big = list(range(n)) if n % 2 else list(range(1, n))
    aut = 1440 if n == 6 else factorial(n)
    return Group(n, (_cycle(n, [0, 1, 2]), _cycle(n, big)),
                 factorial(n) // 2, () if n >= 5 else (3,), 1, aut)


def dihedral(n):
    ref = tuple((n - i) % n for i in range(n))
    even = n % 2 == 0
    return Group(n, (_cycle(n, list(range(n))), ref), 2 * n,
                 (2, 2) if even else (2,), 2 if even else 1, n * _phi(n))


def cyclic(n):
    return Group(n, (_cycle(n, list(range(n))),), n, (n,), n, _phi(n))


def wreath(a, b):
    """S_a wr S_b on a*b points: S_a on the first block, S_b on the blocks."""
    n = a * b
    swap_blocks = list(range(n))
    for i in range(a):
        swap_blocks[i], swap_blocks[a + i] = a + i, i
    shift_blocks = tuple((x + a) % n for x in range(n))
    gens = (_cycle(n, [0, 1]), _cycle(n, list(range(a))), tuple(swap_blocks),
            shift_blocks)
    return Group(n, gens, factorial(a) ** b * factorial(b), (2, 2), 1, None)


def product(g, h):
    """G x H on disjoint points. Aut(G x H) = Aut G x Aut H when the orders
    are coprime; otherwise it is left unknown."""
    n = g.degree + h.degree
    gens = tuple(x + tuple(range(g.degree, n)) for x in g.gens)
    gens += tuple(tuple(range(g.degree)) + tuple(y + g.degree for y in x)
                  for x in h.gens)
    aut = None
    if gcd(g.order, h.order) == 1 and g.aut and h.aut:
        aut = g.aut * h.aut
    return Group(n, gens, g.order * h.order, tuple(sorted(g.ab + h.ab)),
                 g.center * h.center, aut)


def coprime_product(g, n):
    """G x Z_n for a two-generator G of order prime to n, generated by
    (x, c) and (y, c) for G = <x, y> and Z_n = <c>: powers of each split
    off both components because the element orders are coprime. Two
    generators keep the automorphism search within its generator cap."""
    whole = product(g, cyclic(n))
    c = whole.gens[2]
    gens = tuple(tuple(c[v] for v in x) for x in whole.gens[:2])
    return Group(whole.degree, gens, whole.order, whole.ab, whole.center,
                 whole.aut)


def cp_index(group, p):
    out = 1
    for m in group.ab:
        out *= gcd(m, p)
    return out


def cycle_text(images):
    """1-based cycle notation; the identity is "()"."""
    seen = [False] * len(images)
    parts = []
    for i in range(len(images)):
        if seen[i] or images[i] == i:
            continue
        cyc = [i]
        seen[i] = True
        j = images[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = images[j]
        parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) or "()"


def relabelled(group, rng):
    """Generator text of the group conjugated by a random relabelling."""
    n = group.degree
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = []
    for g in group.gens:
        img = [0] * n
        for x in range(n):
            img[sigma[x]] = sigma[g[x]]
        out.append(cycle_text(img))
    return ", ".join(out)


def _json(argv):
    return tuple(argv) + ("--format", "json")


# ---------------------------------------------------------------- certify


def _aut_job(kind, group, text):
    return Job(kind, _json(["aut", "--group", text]),
               {"check": "aut", "code": 0, "aut_order": group.aut,
                "inner_order": group.order // group.center})


def certify_round(rng):
    jobs = []
    # light: trefoil pipelines, self-witness verdicts, small automorphism groups
    for _ in range(6):
        p = rng.choice((2, 4, 6))
        jobs.append(Job("trefoil", _json(["trefoil-obstruction", "--p", str(p)]),
                        {"check": "trefoil", "code": 0, "p": p}))
    for _ in range(8):
        g = rng.choice((alternating(5), alternating(6), symmetric(5),
                        dihedral(rng.randrange(5, 16))))
        p = rng.choice((3, 5, 7)) if g.ab else rng.choice((2, 3, 4, 5, 6))
        jobs.append(Job("verdict-self", _json(
            ["verdict", "--group", relabelled(g, rng), "--p", str(p)]),
            {"check": "verdict", "code": 0, "status": "IS_CP_GROUP",
             "reason": "SELF_WITNESS", "cp_order": g.order}))
    for _ in range(8):
        g = rng.choice((dihedral(rng.randrange(3, 13)), symmetric(4),
                        cyclic(rng.randrange(5, 20)), alternating(4)))
        jobs.append(_aut_job("aut-small", g, relabelled(g, rng)))
    # median block: complete-group verdicts on S_5 (automorphism search)
    for _ in range(20):
        p = rng.choice((2, 4, 6))
        g = symmetric(5)
        jobs.append(Job("verdict-complete", _json(
            ["verdict", "--group", relabelled(g, rng), "--p", str(p)]),
            {"check": "verdict", "code": 1, "status": "NOT_CP_GROUP",
             "reason": "COMPLETE_CRITERION", "cp_order": g.order // 2,
             "aut_order": g.aut}))
    # 90th-percentile block: coprime products of order 150 and 168
    products = (coprime_product(symmetric(4), 7), coprime_product(symmetric(3), 25))
    for i in range(15):
        g = products[i % 2]
        jobs.append(_aut_job("aut-product", g, relabelled(g, rng)))
    # tail: the paper's gate
    a6 = alternating(6)
    jobs.append(_aut_job("aut-a6", a6, relabelled(a6, rng)))
    p = rng.choice((2, 4, 6))
    jobs.append(Job("s6", _json(["s6", "--p", str(p)]),
                    {"check": "s6", "code": 0, "p": p}))
    jobs.append(Job("verify-all", _json(["verify", "all"]),
                    {"check": "verify", "code": 0, "total": 24}))
    return jobs


# ---------------------------------------------------------------- perm-chain


def _order_job(kind, group, rng):
    return Job(kind, _json(["order", "--group", relabelled(group, rng)]),
               {"check": "order", "code": 0, "order": group.order})


def _cp_job(kind, group, rng, p):
    return Job(kind, _json(["cp-subgroup", "--group", relabelled(group, rng),
                            "--p", str(p)]),
               {"check": "cp_subgroup", "code": 0, "order": group.order,
                "subgroup_order": group.order // cp_index(group, p)})


def _series_job(kind, n, depth):
    # S_n -> A_n (index 2, quotient Z_2), then A_n is perfect (index 1)
    levels = [(2, [2], factorial(n) // 2), (1, [], factorial(n) // 2)][:depth]
    return Job(kind, _json(["series", "--group", f"S{n}", "--p", "2",
                            "--depth", str(depth)]),
               {"check": "series", "code": 0, "levels": levels})


def perm_chain_round(rng):
    jobs = []
    for _ in range(22):
        g = rng.choice((wreath(3, 4), wreath(2, 5), dihedral(rng.randrange(8, 25))))
        jobs.append(_order_job("order-small", g, rng))
    # median block: the operator on degree 9 and 10 groups (normal closures)
    families = (alternating(9), symmetric(9), alternating(10), symmetric(10))
    for i in range(40):
        g = families[i % 4]
        jobs.append(_cp_job("cp-subgroup", g, rng, rng.choice((2, 3, 5))))
    # 90th-percentile block: stabilizer chains of degree 20. Wreath products
    # rather than A_17, whose cost varies threefold with the relabelling.
    families = (wreath(4, 5), wreath(5, 4))
    for i in range(15):
        g = families[i % 2]
        jobs.append(_order_job("order-large", g, rng))
    # tail: quotient actions on S_8 and the operator at degree 16
    for depth in (1, 2):
        jobs.append(_series_job("series-s8", 8, depth))
    jobs.append(_cp_job("cp-large", symmetric(16), rng, rng.choice((2, 3))))
    jobs.append(_order_job("order-deg24", wreath(3, 8), rng))
    return jobs


# ---------------------------------------------------------------- fp-enum


def presentation(names, rels):
    return "< " + ", ".join(names) + " | " + ", ".join(rels) + " >"


def coxeter(n, rng):
    """Coxeter presentation of S_n on s0..s_{n-2}, relators in seeded order:
    (text, generator names, relators)."""
    names = [f"s{i}" for i in range(n - 1)]
    rels = [f"{s}^2" for s in names]
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            rels.append(" ".join([names[i], names[j]] * (3 if j == i + 1 else 2)))
    rng.shuffle(rels)
    return presentation(names, rels), names, rels


def parabolic_order(n, subset):
    """|W_J| = product of (k+1)! over the runs of k consecutive generators."""
    out, run = 1, 0
    for i in range(n):
        if i in subset:
            run += 1
        else:
            out *= factorial(run + 1)
            run = 0
    return out


def _parabolic(n, orders, rng):
    subsets = [[j for j in range(n - 1) if mask >> j & 1]
               for mask in range(1 << (n - 1))]
    return rng.choice([s for s in subsets if parabolic_order(n, s) in orders])


def _enum_job(kind, text, subgroup, gens, relators, index):
    return Job(kind, _json(["coset-enum", "--presentation", text,
                            "--subgroup", ", ".join(subgroup)]),
               {"check": "coset_table", "code": 0, "index": index,
                "gens": gens, "relators": relators, "subgroup": subgroup})


def _coxeter_enum(kind, n, orders, rng):
    subset = _parabolic(n, orders, rng)
    text, names, rels = coxeter(n, rng)
    return _enum_job(kind, text, [names[j] for j in subset], names, rels,
                     factorial(n) // parabolic_order(n, subset))


def _power(word, k):
    return " ".join([word] * k)


def triangle(l, m, n):
    """Relators of the (l, m, n) triangle group on a, b."""
    return [f"a^{l}", f"b^{m}", _power("a b", n)]


# PSL(2, 7), order 168: the (2, 3, 7) triangle group with [a, b]^4 = 1.
PSL27 = triangle(2, 3, 7) + [_power("a^-1 b^-1 a b", 4)]

# Infinite groups for budget-exhausted enumerations: the trefoil group and
# two hyperbolic triangle groups (1/l + 1/m + 1/n < 1).
INFINITE = {"trefoil": "< a, b | a^3 = b^2 >",
            "237": presentation("ab", triangle(2, 3, 7)),
            "334": presentation("ab", triangle(3, 3, 4))}


def _budget_job(kind, rng, name, low, high):
    text = INFINITE[name]
    cosets = rng.randrange(low, high + 1)
    return Job(kind, ("coset-enum", "--presentation", text,
                      "--max-cosets", str(cosets)),
               {"check": "budget", "code": 3})


def alexander_torus(m, n):
    """Coefficients (low degree first) of (t^mn - 1)(t - 1)/((t^m - 1)(t^n - 1))."""
    num = [0] * (m * n + 2)
    for a, ca in ((m * n, 1), (0, -1)):
        for b, cb in ((1, 1), (0, -1)):
            num[a + b] += ca * cb
    for d in (m, n):
        # divide by t^d - 1: synthetic division from the top
        q = [0] * (len(num) - d)
        rem = num[:]
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c:
                q[k - d] = c
                rem[k] -= c
                rem[k - d] += c
        if any(rem):
            raise ValueError("not divisible")
        num = q
    while num and num[-1] == 0:
        num.pop()
    return num


def det_int(rows):
    """Exact determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def cover_torsion(m, n, p):
    """|H_1| of the p-fold cyclic branched cover of T(m, n): the absolute
    value of the product of Delta(z) over the p-th roots of unity z != 1,
    computed as det(Delta(C)) for C the companion matrix of 1 + t + ... +
    t^(p-1). Zero means infinite."""
    k = p - 1
    comp = [[0] * k for _ in range(k)]
    for i in range(1, k):
        comp[i][i - 1] = 1
    for i in range(k):
        comp[i][k - 1] = -1
    value = [[0] * k for _ in range(k)]
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    for c in alexander_torus(m, n):
        for i in range(k):
            for j in range(k):
                value[i][j] += c * power[i][j]
        power = [[sum(power[i][t] * comp[t][j] for t in range(k))
                  for j in range(k)] for i in range(k)]
    return abs(det_int(value))


@lru_cache(maxsize=None)
def _knot_cases():
    cases = []
    for m, n, p in itertools.product((3, 5, 7), (2, 3, 4), (2, 3, 5, 7)):
        torsion = cover_torsion(m, n, p) if gcd(m, n) == 1 and m > n else 0
        if torsion and gcd(torsion, p) == 1:
            cases.append((m, n, p, torsion))
    return cases


def _knot_jobs(rng):
    """cp-kernel and depth-2 series on torus knot groups. The kernel of
    G -> Z_p is the fundamental group of the p-fold cyclic cover, whose
    first homology is Z plus a torsion group of order cover_torsion. Only
    cases with that order prime to p are drawn, so the second level of the
    series is again Z_p."""
    m, n, p, torsion = rng.choice(_knot_cases())
    text = f"< a, b | a^{m} = b^{n} >"
    if rng.random() < 0.5:
        return Job("knot-kernel", _json(["cp-kernel", "--presentation", text,
                                         "--p", str(p)]),
                   {"check": "cp_kernel", "code": 0, "index": p,
                    "torsion_order": torsion})
    return Job("knot-series", _json(["series", "--presentation", text, "--p", str(p),
                                     "--depth", "2"]),
               {"check": "series", "code": 0, "levels": [(p, [p])] * 2})


def _rs_job(rng):
    n = rng.choice((5, 6))
    subset = _parabolic(n, (36, 48) if n == 6 else (6, 12), rng)
    text, _, _ = coxeter(n, rng)
    runs = sum(1 for j in subset if j - 1 not in subset)
    index = factorial(n) // parabolic_order(n, subset)
    return Job("rs", _json(["rs", "--presentation", text, "--subgroup",
                            ", ".join(f"s{j}" for j in subset)]),
               {"check": "rs", "code": 0, "index": index,
                "schreier": index * (n - 2) + 1, "torsion": [2] * runs})


def fp_enum_round(rng):
    jobs = []
    for _ in range(9):
        jobs.append(_knot_jobs(rng))
    for _ in range(3):
        jobs.append(_rs_job(rng))
    for _ in range(4):
        # the (2, 3, 5) triangle group is A_5
        rels, order = rng.choice(((triangle(2, 3, 5), 60), (PSL27, 168)))
        jobs.append(_enum_job("finite-enum", presentation("ab", rels), [],
                              ["a", "b"], rels, order))
    for _ in range(7):
        jobs.append(_coxeter_enum("coxeter-small", rng.choice((5, 6)),
                                  (2, 4, 6, 12), rng))
    # median block: budget-exhausted enumerations of infinite groups
    for i in range(21):
        name = ("trefoil", "237", "334")[i % 3]
        jobs.append(_budget_job("budget-1k", rng, name, 1000, 1020))
    # 90th-percentile block: closing enumerations of S_7 over an S_3, index 840
    for _ in range(15):
        jobs.append(_coxeter_enum("coxeter-s7", 7, (6,), rng))
    # tail: the largest closing and budget enumerations
    jobs.append(_coxeter_enum("coxeter-s7-big", 7, (2,), rng))
    jobs.append(_budget_job("budget-4k", rng, "trefoil", 3980, 4000))
    return jobs


# ---------------------------------------------------------------- snf


def random_matrix(rng, rows, cols):
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def _snf_job(kind, rows):
    return Job(kind, _json(["snf", "--matrix", str(rows).replace(" ", "")]),
               {"check": "snf", "code": 0, "matrix": rows})


def scrambled_relations(rng, diagonal, rows):
    """A rows x len(diagonal) relation matrix with cokernel known by
    construction: diag(diagonal) padded with zero rows, then scrambled by
    seeded unimodular row and column operations. Zero rows are dropped."""
    cols = len(diagonal)
    a = [[diagonal[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(2 * rows):
        i, j = rng.sample(range(rows), 2)
        k = rng.choice((-2, -1, 1, 2))
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    for _ in range(cols):
        i, j = rng.sample(range(cols), 2)
        k = rng.choice((-1, 1))
        for row in a:
            row[i] += k * row[j]
    return [row for row in a if any(row)]


def _abelianize_job(rng):
    cols = rng.randrange(16, 25)
    torsion = sorted(rng.choice((2, 3, 4, 6)) for _ in range(3))
    chain = []
    for d in torsion:
        chain.append(d if not chain else d * chain[-1] // gcd(d, chain[-1]))
    free = rng.randrange(0, 3)
    diagonal = [1] * (cols - len(chain) - free) + chain + [0] * free
    rows = scrambled_relations(rng, diagonal, 2 * cols)
    names = [f"x{j}" for j in range(cols)]
    rels = [" ".join(f"{names[j]}^{v}" for j, v in enumerate(row) if v)
            for row in rows]
    text = presentation(names, rels)
    return Job("abelianize", _json(["abelianize", "--presentation", text]),
               {"check": "abelianize", "code": 0, "free_rank": free,
                "torsion": [d for d in chain if d >= 2]})


# The largest matrices are fixed, not seeded, so that the number of failed
# jobs does not depend on the seed. random.Random(3) at 60x60 is the matrix
# from the Smith normal form entry of ROADMAP.md: its U and V outgrow
# Python's int-to-string limit and `cpgroups snf` exits 2. Of the other two,
# the 58x58 one fails the same way and the 56x56 one prints about 4.7 MB.
# All three stay in every round, so the failures show until they are fixed.
_FIXED = {n: random_matrix(random.Random(k), n, n)
          for n, k in ((56, 56), (58, 58), (60, 3))}


def snf_round(rng):
    jobs = []
    for i in range(13):
        n = 10 + i
        jobs.append(_snf_job("snf-small", random_matrix(rng, n, n)))
    for _ in range(13):
        jobs.append(_abelianize_job(rng))
    # median block: 28x28 .. 32x32
    for i in range(36):
        n = 28 + i % 5
        jobs.append(_snf_job("snf-30", random_matrix(rng, n, n)))
    # 90th-percentile block: 40x40 .. 42x42
    for i in range(15):
        n = 40 + i % 3
        jobs.append(_snf_job("snf-40", random_matrix(rng, n, n)))
    # tail: the largest sizes, whose U and V print megabytes
    for n in (50, 52):
        jobs.append(_snf_job("snf-large", random_matrix(rng, n, n)))
    for n, rows in _FIXED.items():
        jobs.append(_snf_job(f"snf-fixed{n}", rows))
    return jobs


ROUNDS = {"certify": certify_round, "perm-chain": perm_chain_round,
          "fp-enum": fp_enum_round, "snf": snf_round}


def rounds(workload, seed):
    """Endless seeded rounds of jobs for one workload. Each round is
    shuffled, so that every kind is sampled across the whole run and a slow
    stretch of the machine does not land on one kind alone."""
    rng = random.Random(f"{workload}/{seed}")
    make = ROUNDS[workload]
    while True:
        round_jobs = make(rng)
        rng.shuffle(round_jobs)
        yield round_jobs
