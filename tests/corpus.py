"""Small permutation groups shared by the tests that check a library
routine against a brute-force oracle over many groups."""

import random

from cpgroups.perm import (Perm, PermGroup, alternating_group, cyclic_group,
                           dihedral_group, direct_product, klein_four_group,
                           symmetric_group)


def small_groups():
    """S_n and A_n for n <= 5, D3..D8, Z1..Z12, V4, Z4 x Z8, S3 x Z4 and 20
    seeded random groups of degree <= 6 with one or two generators."""
    rng = random.Random(1602)
    random_groups = []
    for _ in range(20):
        degree = rng.randint(2, 6)
        gens = [Perm(rng.sample(range(degree), degree))
                for _ in range(rng.randint(1, 2))]
        random_groups.append(PermGroup(degree, gens))
    return ([symmetric_group(n) for n in range(1, 6)]
            + [alternating_group(n) for n in range(1, 6)]
            + [dihedral_group(n) for n in range(3, 9)]
            + [cyclic_group(n) for n in range(1, 13)]
            + [klein_four_group(),
               direct_product(cyclic_group(4), cyclic_group(8)),
               direct_product(symmetric_group(3), cyclic_group(4))]
            + random_groups)


def coprime_product(group, n):
    """G x Z_n for a two-generator G of order prime to n, generated by
    (x, c) and (y, c) for G = <x, y> and Z_n = <c>, as the benchmark's
    certify workload builds it."""
    whole = direct_product(group, cyclic_group(n))
    c = whole.generators[-1]
    return PermGroup(whole.degree, [x * c for x in whole.generators[:-1]])


def scrambled_relations(rng, diagonal, rows):
    """A rows x len(diagonal) relation matrix with cokernel known by
    construction: diag(diagonal) padded with zero rows, then scrambled by
    seeded unimodular row and column operations, as the benchmark builds
    its `abelianize` inputs. Zero rows are dropped."""
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
