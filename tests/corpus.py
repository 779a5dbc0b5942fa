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
