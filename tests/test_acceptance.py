"""Acceptance suite: every `cpgroups verify` catalog item, run the way the
CLI runs it, printing a PASS line with its measured runtime and asserting
the item's budget.

The named-group constructors are cached, so their caches are cleared before
each timed item: the measured window then contains the real work, including
the fresh automorphism search of `exA.s6`.
"""

import time

import pytest

import test_cp
import test_homalg
from cpgroups import catalog, perm

NAMED_GROUP_CONSTRUCTORS = (perm.symmetric_group, perm.alternating_group,
                            perm.cyclic_group, perm.dihedral_group,
                            perm.klein_four_group, perm.trivial_group)

PROPERTY_SUITES = (test_cp.test_cp_product_law,
                   test_cp.test_cp_functoriality_under_surjections,
                   test_cp.test_cp_characteristic_under_all_automorphisms,
                   test_cp.test_exact_sequence_cases,
                   test_homalg.test_snf_random_matrices_against_minor_gcd_oracle)


@pytest.mark.parametrize("item", catalog.CATALOG, ids=catalog.item_ids())
def test_catalog_item(item):
    for constructor in NAMED_GROUP_CONSTRUCTORS:
        constructor.cache_clear()
    start = time.perf_counter()
    [result] = catalog.run([item.id])
    elapsed = time.perf_counter() - start
    assert result["passed"], result["detail"]
    print(f"PASS {item.id}: {result['detail']} "
          f"({elapsed:.2f}s < {item.budget_s:.3g}s)")
    assert elapsed < item.budget_s, \
        f"{item.id} exceeded {item.budget_s:.3g}s: {elapsed:.2f}s"


def test_criterion_10_property_suites():
    start = time.perf_counter()
    for suite in PROPERTY_SUITES:
        suite()
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 10: product law, functoriality, characteristic, "
          f"exactness, SNF ({elapsed:.2f}s < 30s)")
    assert elapsed < 30.0, f"criterion 10 exceeded 30s: {elapsed:.2f}s"
