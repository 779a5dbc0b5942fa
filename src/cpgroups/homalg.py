"""Exact integer linear algebra and finitely generated abelian groups.

Everything here is computed over Python's arbitrary-precision integers;
nothing ever wraps. The two workhorses are the Smith normal form and the
canonical invariant-factor form of a finitely generated abelian group.

The Smith form has one elimination routine, the row Hermite form (a
Euclid pass per column, then every entry above the pivot reduced modulo
it). The matrix is brought to Hermite form, column passes (the routine on
the transpose) and row passes alternate until it is diagonal, and
extended-gcd steps on pairs of diagonal entries make the diagonal a
divisibility chain. Reducing above the pivots keeps the transforming
matrices U and V about as small as D (Kannan & Bachem, 1979); without it
they grow to tens of thousands of bits on a dense 60 x 60 matrix. A matrix
with more rows than columns is worked on as its transpose. Every step is
deterministic, so U and V are reproducible.
`smith_diagonal` runs the same elimination without forming U or V; the
cokernel (and so every abelianization) is read from it.

On top of those sit the closed-form homology tables used by the knot
layer: cyclic group homology, the two-column second-page table of the
extension spectral sequence, and the five-term sequence resolved for a
multiplication-by-d map.

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
        rows = tuple(tuple(row) for row in entries)
        bad = [x for row in rows for x in row if type(x) is not int]  # bool too
        if bad:
            raise ValueError(f"matrix entry {bad[0]!r} is not an integer")
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


def _hermite(a, rows, cols):
    """Bring the first `cols` columns of the rows of `a` to row Hermite form,
    in place, by row operations on whole rows; returns the rank.

    Each column gets a Euclid pass over the rows below the current pivot
    (reduce by the smallest nonzero entry, rounding to the nearest multiple,
    until one nonzero entry is left), and every entry above the new pivot is
    then reduced modulo it. That last step keeps the entries of the form,
    and of any transform carried in the trailing columns, small. A row
    operation touches only the nonzero entries of the pivot row, so the
    leading zeros of the rows and a sparse transform cost nothing.
    """
    t = 0
    for j in range(cols):
        if t == rows:
            break
        while True:
            p, best = None, 0
            for i in range(t, rows):
                x = a[i][j]
                if x:
                    ax = -x if x < 0 else x
                    if p is None or ax < best:
                        p, best = i, ax
                        if ax == 1:
                            break
            if p is None:
                break
            if a[p][j] < 0:
                a[p] = [-x for x in a[p]]
            prow = a[p]
            nz = [k for k, z in enumerate(prow) if z]
            d2 = 2 * prow[j]
            done = True
            for i in range(t, rows):
                row = a[i]
                x = row[j]
                if x and i != p:
                    q = (2 * x + prow[j]) // d2
                    if q:
                        for k in nz:
                            row[k] -= q * prow[k]
                    if row[j]:
                        done = False
            if done:
                break
        if p is None:
            continue
        a[t], a[p] = a[p], a[t]
        d = prow[j]
        for row in a[:t]:
            q = row[j] // d
            if q:
                for k in nz:
                    row[k] -= q * prow[k]
        t += 1
    return t


def _xgcd(x, y):
    """(g, s, t) with g = gcd(x, y) = s*x + t*y, for x, y > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q, x, y = x // y, y, x % y
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return x, s0, t0


def _diagonalize(a, rank, cols, vt):
    """Diagonalize the leading rank x cols block of `a`, in row Hermite
    form with rank nonzero rows, in place.

    Column passes (`_hermite` on the transposed block, with the rows of
    `vt`, the transposed column transform unless None, trailing) and row
    passes (`_hermite` on the rows of `a`, which carry the row transform)
    alternate until the block is diagonal; after the first column pass it
    is rank x rank. Then each d_i, d_j (i < j) with d_i not dividing d_j
    becomes g, d_i d_j / g by an extended-gcd step on rows i, j of both.
    """

    def off_diagonal(width):
        return any(any(row[:i]) or any(row[i + 1:width])
                   for i, row in enumerate(a[:rank]))

    width = cols
    while off_diagonal(width):
        b = [list(col) for col in zip(*(row[:width] for row in a[:rank]))]
        if vt is not None:
            for j, row in enumerate(b):
                row += vt[j]
        _hermite(b, width, rank)
        for i in range(rank):
            a[i][:width] = [row[i] for row in b]
        if vt is not None:
            vt[:width] = [row[rank:] for row in b]
        width = rank
        if not off_diagonal(width):
            break
        _hermite(a, rank, width)

    # [[s, t], [-y/g, x/g]] diag(x, y) [[1, -t y/g], [1, s x/g]] = diag(g, x y/g)
    for i in range(rank):
        for j in range(i + 1, rank):
            x, y = a[i][i], a[j][j]
            if y % x == 0:
                continue
            g, s, t = _xgcd(x, y)
            xg, yg = x // g, y // g
            ri, rj = a[i], a[j]
            a[i] = [s * p + t * q for p, q in zip(ri, rj)]
            a[j] = [xg * q - yg * p for p, q in zip(ri, rj)]
            a[i][i], a[i][j], a[j][i], a[j][j] = g, 0, 0, x * yg
            if vt is not None:
                ci, cj = vt[i], vt[j]
                vt[i] = [p + q for p, q in zip(ci, cj)]
                vt[j] = [s * xg * q - t * yg * p for p, q in zip(ci, cj)]


def _smith(matrix, transforms):
    """The Smith form core: Hermite form first, then diagonalization.

    A matrix with more rows than columns is worked on as its transpose, so
    the row transform carried through the Hermite phase is the smaller
    square. Returns (U, diagonal, V) as lists of rows, or only the diagonal
    when `transforms` is false; then no transform is formed at all.
    """
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix(matrix)
    r, c = matrix.rows, matrix.cols
    entries = matrix.entries
    flip = r > c
    if flip:
        entries, r, c = tuple(zip(*entries)), c, r
    if transforms:
        # [A | U]: every row operation on A is recorded in U for free
        a = [list(row) + [1 if i == k else 0 for k in range(r)]
             for i, row in enumerate(entries)]
        vt = [[1 if i == k else 0 for k in range(c)] for i in range(c)]
    else:
        a = [list(row) for row in entries]
        vt = None
    rank = _hermite(a, r, c)
    _diagonalize(a, rank, c, vt)
    diag = [a[i][i] for i in range(rank)] + [0] * (min(r, c) - rank)
    if not transforms:
        return diag
    u = [row[c:] for row in a]
    if flip:
        return vt, diag, [list(col) for col in zip(*u)]
    return u, diag, [list(col) for col in zip(*vt)]


def smith_normal_form(matrix):
    """Diagonalize an integer matrix: returns (U, D, V) with U @ matrix @ V == D.

    U and V are unimodular, D is diagonal with nonnegative entries forming a
    divisibility chain d_1 | d_2 | ... The matrix is first brought to Hermite
    form, which keeps U and V about as small as D; every step is
    deterministic, so the full decomposition is reproducible, not just D.
    """
    u, diag, v = _smith(matrix, True)
    d = [[0] * len(v) for _ in u]
    for i, x in enumerate(diag):
        d[i][i] = x
    return IntMatrix(u), IntMatrix(d), IntMatrix(v)


def smith_diagonal(matrix):
    """The diagonal of the Smith normal form, without forming U or V."""
    return tuple(_smith(matrix, False))


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
    nonzero = [x for x in smith_diagonal(matrix) if x != 0]
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
