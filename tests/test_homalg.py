import json
import random
from math import gcd

import pytest

from cpgroups import cli
from cpgroups.fp import reidemeister_schreier, todd_coxeter
from cpgroups.homalg import (AbelianStructure, E2Table, IntMatrix, TRIVIAL, Z, _hermite,
                             cokernel_structure, cyclic, cyclic_homology,
                             five_term_from_multiplication, lhs_e2_table,
                             smith_diagonal, smith_normal_form, tensor_with_zp)

from corpus import scrambled_relations
from oracles import det_bareiss, det_cofactor, minors_gcd
from test_fp import coxeter, parabolics


def test_snf_single_row_gcd():
    m = IntMatrix([[3, -2]])
    u, d, v = smith_normal_form(m)
    assert d == IntMatrix([[1, 0]])
    assert (u @ m @ v) == d
    assert abs(det_cofactor([list(r) for r in u.entries])) == 1
    assert abs(det_cofactor([list(r) for r in v.entries])) == 1


def test_snf_zero_matrix():
    m = IntMatrix.zero(2, 2)
    u, d, v = smith_normal_form(m)
    assert d == IntMatrix.zero(2, 2)
    assert u == IntMatrix.identity(2)
    assert v == IntMatrix.identity(2)


def test_snf_coprime_diagonal_merges():
    u, d, v = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert d == IntMatrix.diagonal([1, 6])


def test_snf_deterministic():
    m = IntMatrix([[4, 6, 2], [6, 4, 8]])
    assert smith_normal_form(m) == smith_normal_form(m)


def test_snf_random_matrices_against_minor_gcd_oracle():
    for seed, count in ((20260810, 200), (500, 500)):
        rng = random.Random(seed)
        for _ in range(count):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            m = IntMatrix(rows)
            u, d, v = smith_normal_form(m)
            assert (u @ m @ v) == d
            assert abs(det_cofactor([list(x) for x in u.entries])) == 1
            assert abs(det_cofactor([list(x) for x in v.entries])) == 1
            diag = d.diagonal_entries()
            for i in range(d.rows):
                for j in range(d.cols):
                    if i != j:
                        assert d[i, j] == 0
            for a, b in zip(diag, diag[1:]):
                assert b == 0 if a == 0 else b % a == 0
            prod = 1
            for k, dk in enumerate(diag, start=1):
                prod *= dk
                assert prod == minors_gcd(rows, k)
            assert diag == pivot_snf(m)[1].diagonal_entries()
            assert smith_diagonal(m) == diag


# The Smith form path that the alternating Hermite passes replaced, kept
# verbatim as the reference for D: a Hermite phase, then a diagonalization
# that pivots on the smallest nonzero absolute value in the whole block.


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


def _diagonalize(a, rows, cols, vt):
    """Diagonalize the leading rows x cols block of `a` in place, with a
    fixed pivot rule; the block's rows must hold every nonzero entry.

    Row operations act on whole rows, so a transform carried in trailing
    columns follows them. Column operations act on the block and, unless
    `vt` is None, on the rows of `vt`, the transpose of the column transform.
    """

    def move_pivot(t):
        i0, j0 = _find_pivot(a, t, rows, cols)
        a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            # rows above t are finished and zero in both columns
            for i in range(t, rows):
                row = a[i]
                row[t], row[j0] = row[j0], row[t]
            if vt is not None:
                vt[t], vt[j0] = vt[j0], vt[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

    for t in range(rows):
        while True:
            move_pivot(t)
            # Clear column t and row t; a nonzero remainder means the pivot
            # was not the gcd yet, so re-pick (strictly smaller) and retry.
            while True:
                dirty = False
                d = a[t][t]
                for i in range(t + 1, rows):
                    if a[i][t] == 0:
                        continue
                    q = a[i][t] // d
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        dirty = True
                d = a[t][t]
                # column t of V as (index, entry) pairs, since it is mostly zero
                vcol = vt and [(k, y) for k, y in enumerate(vt[t]) if y]
                for j in range(t + 1, cols):
                    if a[t][j] == 0:
                        continue
                    q = a[t][j] // d
                    if q:
                        for i in range(t, rows):
                            row = a[i]
                            if row[t]:
                                row[j] -= q * row[t]
                        if vt is not None:
                            row = vt[j]
                            for k, y in vcol:
                                row[k] -= q * y
                    if a[t][j] != 0:
                        dirty = True
                if not dirty:
                    break
                move_pivot(t)
            # Divisibility: the pivot must divide the whole remaining block
            # (a unit pivot always does).
            d = a[t][t]
            viol = None
            if d != 1:
                for i in range(t + 1, rows):
                    row = a[i]
                    if any(row[j] % d for j in range(t + 1, cols)):
                        viol = i
                        break
            if viol is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[viol])]


def hermite_pivot_smith(matrix, transforms):
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


def pivot_snf(matrix):
    """The Smith normal form without a Hermite phase, which the Hermite
    phase of `hermite_pivot_smith` replaced, kept as a second reference for
    D. Its U and V grow without bound:
    16,193 bits on the 60 x 60 matrix of `test_snf_transforms_stay_small`."""
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


def snf_corpus():
    """Matrices on which the Smith form is checked against `pivot_snf`."""
    rng = random.Random(1979)
    for r, c in ((6, 6), (8, 8), (12, 12), (4, 9), (5, 12), (9, 4), (12, 5),
                 (20, 7), (7, 20)):
        for _ in range(4):
            yield [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
    # rank-deficient: a product through an inner dimension k < min(r, c)
    for r, c, k in ((6, 6, 3), (8, 5, 2), (5, 8, 4), (7, 7, 1), (10, 10, 6)):
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(r)]
        right = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(k)]
        yield [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
               for row in left]
    for r, c in ((1, 1), (3, 3), (2, 5), (5, 2)):
        yield [[0] * c for _ in range(r)]
    for n in (1, 2, 7, 15):
        yield [[rng.randint(-30, 30) for _ in range(n)]]
        yield [[rng.randint(-30, 30)] for _ in range(n)]
    yield []
    yield [[], [], []]
    for n in (4, 5):
        p = coxeter(n)
        for words in parabolics(p):
            sub = reidemeister_schreier(p, todd_coxeter(p, words))
            if sub.relators:
                yield [w.exponent_vector(sub.ngens) for w in sub.relators]
    # the 600 x 181 relation matrix of S_5 over <s0> flipped to its wide
    # transpose, which is worked on directly: its column passes are long
    p = coxeter(5)
    sub = reidemeister_schreier(p, todd_coxeter(p, [p.word("s0")]))
    yield [list(col) for col in zip(*(w.exponent_vector(sub.ngens)
                                      for w in sub.relators))]
    # already diagonal; the gcd/lcm merges meet d_i < d_j and d_i > d_j
    yield [[4, 0, 0, 0], [0, 6, 0, 0], [0, 0, 9, 0], [0, 0, 0, 10]]
    for _ in range(8):
        cols = rng.randrange(16, 25)
        chain = []
        for d in sorted(rng.choice((2, 3, 4, 6)) for _ in range(3)):
            chain.append(d if not chain else d * chain[-1] // gcd(d, chain[-1]))
        free = rng.randrange(0, 3)
        diagonal = [1] * (cols - len(chain) - free) + chain + [0] * free
        yield scrambled_relations(rng, diagonal, 2 * cols)


def test_snf_matches_pivot_reference():
    count = 0
    for rows in snf_corpus():
        m = IntMatrix(rows)
        u, d, v = smith_normal_form(m)
        assert d == pivot_snf(m)[1], rows
        diag = d.diagonal_entries()
        assert tuple(hermite_pivot_smith(m, True)[1]) == diag, rows
        assert tuple(hermite_pivot_smith(m, False)) == diag, rows
        assert u @ m @ v == d
        assert det_bareiss(u.entries) in (1, -1)
        assert det_bareiss(v.entries) in (1, -1)
        assert smith_diagonal(m) == d.diagonal_entries()
        assert smith_normal_form(m) == (u, d, v)
        if m.rows > m.cols > 0:
            # a tall matrix is worked on as its transpose, which keeps the
            # transform carried through the Hermite phase the smaller one
            ut, dt, vt = smith_normal_form(IntMatrix(list(zip(*rows))))
            assert (u, d, v) == tuple(IntMatrix(list(zip(*w.entries)))
                                      for w in (vt, dt, ut))
        count += 1
    assert count == 36 + 5 + 4 + 8 + 2 + 7 + 15 + 2 + 8


def test_snf_transforms_stay_small(capsys):
    rng = random.Random(3)
    rows = [[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)]
    assert cli.run(["snf", "--matrix", json.dumps(rows), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    m = IntMatrix(rows)
    u, d, v = (IntMatrix(json.loads(out[k])) for k in "UDV")
    assert (u, d, v) == smith_normal_form(m)
    assert max(abs(x).bit_length() for w in (u, v) for row in w.entries
               for x in row) <= 1024
    assert u @ m @ v == d


def test_cokernel_examples():
    assert cokernel_structure(IntMatrix([[3, -2]])) == Z
    assert cokernel_structure(IntMatrix([[5]])) == AbelianStructure(torsion=(5,))
    # two relators on one generator collapse to their gcd
    assert cokernel_structure(IntMatrix([[12], [8]])) == AbelianStructure(torsion=(4,))


def test_cokernel_row_operations_do_not_change_structure():
    rng = random.Random(7)
    for _ in range(50):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        base = cokernel_structure(IntMatrix(rows))

        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert cokernel_structure(IntMatrix(shuffled)) == base

        perm = list(range(c))
        rng.shuffle(perm)
        cols = [[row[j] for j in perm] for row in shuffled]
        assert cokernel_structure(IntMatrix(cols)) == base

        if r >= 2:
            i, j = rng.sample(range(r), 2)
            k = rng.randint(-3, 3)
            added = [row[:] for row in rows]
            added[i] = [x + k * y for x, y in zip(added[i], added[j])]
            assert cokernel_structure(IntMatrix(added)) == base


def test_abelian_structure_canonical_form():
    assert AbelianStructure.from_cyclic_factors([6, 4]) == \
        AbelianStructure(torsion=(2, 12))
    assert AbelianStructure.from_cyclic_factors([2, 3]) == \
        AbelianStructure(torsion=(6,))
    assert AbelianStructure.from_cyclic_factors([1, 1, 5]) == \
        AbelianStructure(torsion=(5,))
    assert AbelianStructure.from_cyclic_factors([0, 4]) == \
        AbelianStructure(free_rank=1, torsion=(4,))
    with pytest.raises(ValueError):
        AbelianStructure(torsion=(4, 6))  # 4 does not divide 6
    with pytest.raises(ValueError):
        AbelianStructure(torsion=(1,))


def test_tensor_with_zp():
    assert tensor_with_zp(AbelianStructure(free_rank=2), 3) == \
        AbelianStructure(torsion=(3, 3))
    # oracle for Z_6 / 4 Z_6: the multiples of 4 mod 6 are {0, 2, 4}
    multiples = sorted({(4 * x) % 6 for x in range(6)})
    assert multiples == [0, 2, 4]
    assert tensor_with_zp(AbelianStructure(torsion=(6,)), 4) == \
        AbelianStructure(torsion=(6 // len(multiples),))
    assert tensor_with_zp(AbelianStructure(free_rank=3, torsion=(2, 4)), 1).is_trivial


def test_tensor_exponent_divides_p():
    rng = random.Random(11)
    for _ in range(100):
        rank = rng.randint(0, 3)
        tors = []
        d = 1
        for _ in range(rng.randint(0, 3)):
            d *= rng.randint(2, 5)
            tors.append(d)
        a = AbelianStructure(free_rank=rank, torsion=tuple(tors))
        p = rng.randint(1, 12)
        t = tensor_with_zp(a, p)
        assert t.free_rank == 0
        assert p % t.exponent() == 0


def test_cyclic_homology():
    assert cyclic_homology(30, 1) == AbelianStructure(torsion=(30,))
    assert cyclic_homology(30, 2) == TRIVIAL
    assert cyclic_homology(7, 0) == Z
    assert cyclic_homology(1, 3) == TRIVIAL
    with pytest.raises(ValueError):
        cyclic_homology(0, 1)


def test_e2_table_entries():
    table = lhs_e2_table(3, 2, 5)
    assert table.entry(0, 0) == Z
    assert table.entry(0, 1) == AbelianStructure(torsion=(6,))
    assert table.entry(1, 0) == AbelianStructure(torsion=(5,))
    assert table.entry(2, 2) == TRIVIAL
    assert table.entry(0, 2) == TRIVIAL
    assert table.entry(3, 0) == AbelianStructure(torsion=(5,))


def test_e2_table_rejects_common_factor():
    with pytest.raises(ValueError):
        lhs_e2_table(3, 2, 6)
    with pytest.raises(ValueError):
        lhs_e2_table(3, 2, 1)


def test_e2_anti_diagonals_reassemble_cyclic_homology():
    for m, n, p in [(3, 2, 5), (5, 2, 3), (5, 3, 2), (3, 2, 7)]:
        table = lhs_e2_table(m, n, p)
        for k in range(7):
            assert table.anti_diagonal(k) == cyclic_homology(m * n * p, k), (m, n, p, k)


def cell_scan(table):
    """`nonzero_entries` and `anti_diagonal` as they were before they read
    only the axes: every cell of the window, kept as their reference."""
    entries = [(s, t, table.entry(s, t)) for s in range(table.s_max + 1)
               for t in range(table.t_max + 1) if not table.entry(s, t).is_trivial]
    diagonals = []
    for k in range(table.s_max + table.t_max + 2):
        total = TRIVIAL
        for s in range(min(k, table.s_max) + 1):
            if k - s <= table.t_max and not table.entry(s, k - s).is_trivial:
                total = total.direct_sum(table.entry(s, k - s))
        diagonals.append(total)
    return entries, diagonals


def test_e2_nonzero_entries_match_cell_scan():
    for m, n, p in [(3, 2, 5), (5, 3, 2), (1, 1, 1), (1, 1, 7), (4, 1, 1)]:
        for s_max in range(9):
            for t_max in range(9):
                table = E2Table(m, n, p, s_max, t_max)
                entries, diagonals = cell_scan(table)
                assert table.nonzero_entries() == entries, (m, n, p, s_max, t_max)
                assert [table.anti_diagonal(k) for k in range(len(diagonals))] == diagonals
                assert table.anti_diagonal(-1) == TRIVIAL


def test_five_term():
    assert five_term_from_multiplication(30) == (TRIVIAL, cyclic(30))
    assert five_term_from_multiplication(1) == (TRIVIAL, TRIVIAL)
    assert five_term_from_multiplication(0) == (Z, Z)
    assert five_term_from_multiplication(-6) == (TRIVIAL, cyclic(6))


def test_structure_display_and_order():
    assert str(TRIVIAL) == "0"
    assert str(Z) == "Z"
    assert str(AbelianStructure(free_rank=2, torsion=(3, 6))) == "Z^2 + Z_3 + Z_6"
    assert AbelianStructure(torsion=(2, 4)).order() == 8
    assert Z.order() is None
    assert AbelianStructure(torsion=(2, 4)).exponent() == 4


def test_intmatrix_text_form():
    assert str(IntMatrix([[3, -2], [0, 1]])) == "[[3, -2], [0, 1]]"
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
