"""Brute-force oracles shared by the test suite.

Everything here is deliberately naive and independent of the library's own
algorithms: closures by breadth-first multiplication of image tuples,
conjugates by composing image tuples, abelian invariants by counting
element orders, determinants by cofactor expansion.
"""

from cpgroups.perm import Perm


def _conjugator(g):
    """The map x -> g x g^-1 on permutations, one pass over the images of x
    per call: the element-level reference for the conjugacy classes and
    inner maps that the automorphism search derives from its verified maps."""
    gi = g.images
    ginv = [0] * len(gi)
    for i, x in enumerate(gi):
        ginv[x] = i

    def conjugate(x):
        e = x.images
        return Perm._raw(tuple([ginv[e[p]] for p in gi]))
    return conjugate


def mulclose(perms):
    """All elements of the group generated by the given permutations,
    as image tuples."""
    if not perms:
        return {()}
    n = perms[0].degree
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    images = [g.images for g in perms]
    while frontier:
        new = []
        for x in frontier:
            for g in images:
                y = tuple(g[v] for v in x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _tuple_order(x):
    identity = tuple(range(len(x)))
    k, y = 1, x
    while y != identity:
        y = tuple(x[v] for v in y)
        k += 1
    return k


def abelian_invariants(perms):
    """Invariant factors d_1 | d_2 | ... (all > 1) of the abelian group
    generated by the permutations, from a census of element orders.

    For a prime q, the elements killed by q^j number q^(c_1 + ... + c_j),
    where c_k counts the cyclic q-power factors of order at least q^k.
    """
    images = [g.images for g in perms]
    for a in images:
        for b in images:
            if tuple(b[v] for v in a) != tuple(a[v] for v in b):
                raise ValueError("generators do not commute")
    orders = [_tuple_order(x) for x in mulclose(perms)]
    n = len(orders)
    primary = []  # per prime dividing n: its cyclic factor orders, descending
    for q in range(2, n + 1):
        if n % q or any(q % d == 0 for d in range(2, q)):
            continue
        counts = []
        killed_before = 1
        for j in range(1, n + 1):
            killed = sum(1 for o in orders if q ** j % o == 0)
            if killed == killed_before:
                break
            ratio, c = killed // killed_before, 0
            while ratio > 1:
                ratio //= q
                c += 1
            counts.append(c)
            killed_before = killed
        primary.append([q ** sum(1 for c in counts if c > i)
                        for i in range(counts[0] if counts else 0)])
    length = max((len(f) for f in primary), default=0)
    factors = []
    for i in range(length):
        d = 1
        for f in primary:
            if i < len(f):
                d *= f[i]
        factors.append(d)
    return tuple(reversed(factors))


def det_cofactor(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def minors_gcd(rows, k):
    """gcd of all k x k minors of an integer matrix (0 if all vanish)."""
    from itertools import combinations
    from math import gcd
    total = 0
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(len(rows[0])), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            total = gcd(total, det_cofactor(sub))
    return total


def det_bareiss(rows):
    """Determinant by fraction-free Gaussian elimination (Bareiss), exact
    and polynomial, for matrices too large for cofactor expansion."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1
