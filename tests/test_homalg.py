import random

import pytest

from cpgroups.homalg import (AbelianStructure, IntMatrix, TRIVIAL, Z,
                             cokernel_structure, cyclic, cyclic_homology,
                             five_term_from_multiplication, lhs_e2_table,
                             smith_normal_form, tensor_with_zp)

from oracles import det_cofactor, minors_gcd


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
