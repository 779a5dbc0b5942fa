"""Exact integer linear algebra and finitely generated abelian groups.

Everything here is computed over Python's arbitrary-precision integers;
nothing ever wraps. The two workhorses are the Smith normal form (with a
fixed deterministic pivot rule, so the transforming matrices U and V are
reproducible) and the canonical invariant-factor form of a finitely
generated abelian group. On top of those sit the closed-form homology
tables used by the knot layer: cyclic group homology, the two-column
second-page table of the extension spectral sequence, and the five-term
sequence resolved for a multiplication-by-d map.

Conventions fixed once, used everywhere:

* relation matrices have one row per relator and one column per generator;
* the cokernel of a relation matrix means Z^cols / rowspace;
* AbelianStructure is canonical: factors of 1 are dropped and the torsion
  list is an invariant-factor chain d_1 | d_2 | ... with every d_i >= 2,
  so structural equality is isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class IntMatrix:
    """Immutable integer matrix, row-major, arbitrary precision."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values):
        values = [int(v) for v in values]
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries \
            and self.cols == other.cols

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            [[sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
              for j in range(other.cols)]
             for i in range(self.rows)]
        )

    def diagonal_entries(self):
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]"
                               for row in self.entries) + "]"

    def __repr__(self):
        return f"IntMatrix({self})"


def _find_pivot(a, t, rows, cols):
    """Smallest nonzero |entry| in the submatrix i,j >= t; ties by (row, col)."""
    best = None
    best_abs = None
    for i in range(t, rows):
        row = a[i]
        for j in range(t, cols):
            v = row[j]
            if v == 0:
                continue
            av = -v if v < 0 else v
            if best_abs is None or av < best_abs:
                best_abs = av
                best = (i, j)
                if av == 1:
                    return best
    return best


def smith_normal_form(matrix):
    """Diagonalize an integer matrix: returns (U, D, V) with U @ matrix @ V == D.

    U and V are unimodular, D is diagonal with nonnegative entries forming a
    divisibility chain d_1 | d_2 | ... Pivoting is deterministic (smallest
    nonzero absolute value, ties broken row-major), so the full decomposition
    is reproducible, not just D.
    """
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix(matrix)
    r, c = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def move_pivot(t):
        i0, j0 = _find_pivot(a, t, r, c)
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    t = 0
    while t < min(r, c):
        if _find_pivot(a, t, r, c) is None:
            break
        while True:
            move_pivot(t)
            # Clear column t and row t; a nonzero remainder means the pivot
            # was not the gcd yet, so re-pick (strictly smaller) and retry.
            while True:
                dirty = False
                d = a[t][t]
                for i in range(t + 1, r):
                    if a[i][t] == 0:
                        continue
                    q = a[i][t] // d
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if a[i][t] != 0:
                        dirty = True
                d = a[t][t]
                for j in range(t + 1, c):
                    if a[t][j] == 0:
                        continue
                    q = a[t][j] // d
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if a[t][j] != 0:
                        dirty = True
                if not dirty:
                    break
                move_pivot(t)
            # Divisibility: the pivot must divide the whole remaining block.
            viol = None
            d = a[t][t]
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % d != 0:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[viol])]
            u[t] = [x + y for x, y in zip(u[t], u[viol])]
        t += 1

    return IntMatrix(u), IntMatrix(a), IntMatrix(v)


@dataclass(frozen=True)
class AbelianStructure:
    """Finitely generated abelian group in canonical invariant-factor form.

    `free_rank` copies of Z plus cyclic factors Z_{d_1} + ... + Z_{d_k} with
    d_1 | d_2 | ... | d_k and every d_i >= 2. Because the form is canonical,
    equality of AbelianStructure values is isomorphism of the groups.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d != 0:
                raise ValueError(f"broken divisibility chain {self.torsion}")

    @staticmethod
    def from_cyclic_factors(orders):
        """Canonicalize a direct sum of cyclic groups; order 0 means Z."""
        orders = [int(x) for x in orders]
        if any(x < 0 for x in orders):
            raise ValueError("cyclic factor orders must be >= 0")
        return cokernel_structure(IntMatrix.diagonal(orders))

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None if infinite."""
        if self.free_rank > 0:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def exponent(self):
        """Least common exponent, or None if infinite."""
        if self.free_rank > 0:
            return None
        return self.torsion[-1] if self.torsion else 1

    def direct_sum(self, other):
        zeros = [0] * (self.free_rank + other.free_rank)
        return AbelianStructure.from_cyclic_factors(
            zeros + list(self.torsion) + list(other.torsion))

    def as_dict(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion),
                "display": str(self)}

    def __str__(self):
        terms = []
        if self.free_rank == 1:
            terms.append("Z")
        elif self.free_rank > 1:
            terms.append(f"Z^{self.free_rank}")
        terms.extend(f"Z_{d}" for d in self.torsion)
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"AbelianStructure(free_rank={self.free_rank}, torsion={self.torsion})"


TRIVIAL = AbelianStructure()
Z = AbelianStructure(free_rank=1)


def cyclic(n):
    """Z_n as an AbelianStructure (n = 0 gives Z, n = 1 the trivial group)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Z
    return AbelianStructure(torsion=(n,)) if n > 1 else TRIVIAL


def cokernel_structure(matrix):
    """Structure of Z^cols / rowspace(matrix); rows are relators."""
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix(matrix)
    _, d, _ = smith_normal_form(matrix)
    diag = d.diagonal_entries()
    nonzero = [x for x in diag if x != 0]
    torsion = tuple(x for x in nonzero if x >= 2)
    return AbelianStructure(free_rank=matrix.cols - len(nonzero), torsion=torsion)


def tensor_with_zp(structure, p):
    """A/pA in canonical form. p = 1 collapses everything to the trivial group."""
    if p < 1:
        raise ValueError("p must be >= 1")
    factors = [p] * structure.free_rank + [gcd(d, p) for d in structure.torsion]
    return AbelianStructure.from_cyclic_factors(factors)


def cyclic_homology(n, k):
    """Integral homology of the cyclic group of order n in degree k.

    Z in degree 0, Z_n in odd degrees, 0 in positive even degrees.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k == 0:
        return Z
    if k % 2 == 1:
        return cyclic(n)
    return TRIVIAL


def five_term_from_multiplication(d):
    """Resolve 0 -> H2 -> Z --(x d)--> Z -> H1 -> 0.

    Returns (H2, H1): ((0, Z_|d|)) for d != 0 and (Z, Z) for d = 0.
    """
    if d == 0:
        return Z, Z
    return TRIVIAL, cyclic(abs(d))


@dataclass(frozen=True)
class E2Table:
    """Second page of the two-column extension spectral sequence.

    Entry (s, t) is Z at the origin, Z_{mn} on the odd part of the t-axis,
    Z_p on the odd part of the s-axis, and 0 elsewhere; all differentials
    vanish, so anti-diagonal sums reassemble the homology of Z_{mnp}.
    """

    m: int
    n: int
    p: int
    s_max: int
    t_max: int

    def entry(self, s, t):
        if s < 0 or t < 0:
            raise ValueError("indices must be >= 0")
        if s == 0 and t == 0:
            return Z
        if s == 0 and t % 2 == 1:
            return cyclic(self.m * self.n)
        if t == 0 and s % 2 == 1:
            return cyclic(self.p)
        return TRIVIAL

    def anti_diagonal(self, k):
        """Direct sum of the entries with s + t = k inside the table window."""
        total = TRIVIAL
        for s in range(0, min(k, self.s_max) + 1):
            t = k - s
            if t > self.t_max:
                continue
            total = total.direct_sum(self.entry(s, t))
        return total


def lhs_e2_table(m, n, p, s_max=6, t_max=6):
    """Build the E2 table for coprime mn and p, verifying convergence.

    Requires m, n, p >= 2 and gcd(mn, p) = 1 (the case formula is only valid
    there). On construction, every anti-diagonal k <= min(s_max, t_max) is
    checked against cyclic_homology(m*n*p, k).
    """
    if m < 2 or n < 2 or p < 2:
        raise ValueError("m, n, p must all be >= 2")
    if s_max < 0 or t_max < 0:
        raise ValueError("table extents must be >= 0")
    if gcd(m * n, p) != 1:
        raise ValueError(f"gcd(mn, p) = {gcd(m * n, p)} != 1; table formula invalid")
    table = E2Table(m, n, p, s_max, t_max)
    for k in range(min(s_max, t_max) + 1):
        expected = cyclic_homology(m * n * p, k)
        if table.anti_diagonal(k) != expected:
            raise RuntimeError(
                f"convergence check failed in degree {k}: "
                f"{table.anti_diagonal(k)} != {expected}")
    return table
