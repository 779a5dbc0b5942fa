import pytest

from cpgroups import cp, perm
from cpgroups.cp import (AUT_CRITERION, COMPLETE_CRITERION, INCONCLUSIVE,
                         IS_CP_GROUP, NO_REASON, NOT_CP_GROUP, SELF_WITNESS,
                         CpVerdict, S6PipelineReport, _complete_aut_search,
                         cp_group_verdict, cp_kernel_coset_table,
                         cp_kernel_presentation, cp_quotient_fp,
                         cp_quotient_perm, cp_subgroup, derived_p_series,
                         verify_exact_sequence, verify_s6_pipeline)
from cpgroups.errors import ConjugationNotInnerError
from cpgroups.fp import FpPresentation, Word, abelianization, parse_presentation
from cpgroups.homalg import AbelianStructure, IntMatrix, cokernel_structure, \
    cyclic, tensor_with_zp
from cpgroups.perm import (DEFAULT_AUT_NODE_BUDGET, Perm, PermGroup,
                           alternating_group,
                           aut_group_search, cyclic_group, derived_subgroup,
                           dihedral_group, direct_product, klein_four_group,
                           quotient_regular_action, symmetric_group,
                           trivial_group)

from corpus import small_groups
from oracles import _conjugator, abelian_invariants
from test_perm import aut_reference_corpus, elementary_abelian

TREFOIL = parse_presentation("< a, b | a^3 = b^2 >")


def test_cp_subgroup_symmetric_examples():
    s5 = symmetric_group(5)
    even = cp_subgroup(s5, 2)
    assert even.equals_subgroup(alternating_group(5))
    assert cp_subgroup(s5, 3).order() == 120


def test_cp_subgroup_small_examples():
    assert cp_subgroup(alternating_group(4), 6).equals_subgroup(klein_four_group())
    sub = cp_subgroup(cyclic_group(12), 8)
    assert sub.order() == 3
    assert cp_quotient_perm(cyclic_group(12), 8) == AbelianStructure(torsion=(4,))


def test_cp_subgroup_p1_is_whole_group():
    for g in [symmetric_group(4), cyclic_group(9), klein_four_group()]:
        assert cp_subgroup(g, 1).order() == g.order()
    assert cp_quotient_fp(TREFOIL, 1).is_trivial


def _presentation_from_multiplication_table(group):
    # one generator per element, one relator per product: an independent
    # route to the abelianization that never touches the stabilizer chain
    elements = group.elements()
    index = {x: i for i, x in enumerate(elements)}
    names = tuple(f"g{i}" for i in range(len(elements)))
    relators = []
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            k = index[x * y]
            relators.append(Word(((i, 1), (j, 1), (k, -1))))
    return FpPresentation(names, tuple(relators))


def test_cp_subgroup_index_matches_abelianization_mod_p():
    groups = [symmetric_group(3), alternating_group(4), klein_four_group(),
              cyclic_group(12), dihedral_group(4)]
    for group in groups:
        presented = _presentation_from_multiplication_table(group)
        ab = abelianization(presented)
        for p in range(1, 9):
            sub = cp_subgroup(group, p)
            for g in group.generators:
                for h in sub.generators:
                    assert (g * h * g.inverse()) in sub
            index = group.order() // sub.order()
            assert index == tensor_with_zp(ab, p).order(), (group, p)
            assert quotient_regular_action(group, sub).group.is_abelian()
            assert cp_quotient_perm(group, p) == tensor_with_zp(ab, p), (group, p)


def test_cp_quotient_perm_matches_census_of_regular_quotient():
    # two references: the brute-force order census, run on the quotient
    # built by the coset action that the index computation replaced
    for group in small_groups():
        for p in range(1, 13):
            structure = cp_quotient_perm(group, p)
            qa = quotient_regular_action(group, cp_subgroup(group, p))
            expected = abelian_invariants(list(qa.group.generators))
            assert structure.free_rank == 0, (group, p)
            assert structure.torsion == expected, (group, p)


def test_cp_product_law():
    pairs = [(symmetric_group(3), cyclic_group(4)),
             (alternating_group(4), cyclic_group(6)),
             (symmetric_group(4), symmetric_group(3))]
    for g, h in pairs:
        for p in (2, 3, 4, 6):
            combined = cp_subgroup(direct_product(g, h), p)
            split = direct_product(cp_subgroup(g, p), cp_subgroup(h, p))
            assert combined.equals_subgroup(split), (g, h, p)


def test_cp_functoriality_under_surjections():
    s4 = symmetric_group(4)
    z12 = cyclic_group(12)
    surjections = [(s4, quotient_regular_action(s4, klein_four_group())),
                   (s4, quotient_regular_action(s4, alternating_group(4))),
                   (z12, quotient_regular_action(z12, cp_subgroup(z12, 4)))]
    for source, qa in surjections:
        for p in range(1, 7):
            pushed = PermGroup(qa.group.degree,
                               [qa.image_of(x) for x in cp_subgroup(source, p).generators],
                               degree_cap=None)
            target = cp_subgroup(qa.group, p)
            assert pushed.equals_subgroup(target), (source, p)


def min_scan_quotient(group, normal):
    """The coset action that the chain-read coset key replaced: each coset
    N x is keyed by the least image tuple over its |N| elements. Kept as
    the reference for quotient_regular_action; returns the images of G's
    generators, the quotient map and the key."""
    n_elements = normal.elements()
    identity = Perm.identity(group.degree)

    def canon(x):
        return min((h * x).images for h in n_elements)

    reps = [identity]
    labels = {canon(identity): 0}
    qi = 0
    while qi < len(reps):
        rep = reps[qi]
        qi += 1
        for g in group.generators:
            t = rep * g
            key = canon(t)
            if key not in labels:
                labels[key] = len(reps)
                reps.append(t)

    def image_of(x):
        return Perm(tuple(labels[canon(rep * x)] for rep in reps))

    return tuple(image_of(g) for g in group.generators), image_of, canon


def test_coset_key_matches_min_scan_reference():
    # the same quotient, byte for byte, the same cosets on a sample of G,
    # and the same quotient map, on the surjections above and every C^p
    # quotient of the corpus
    s4 = symmetric_group(4)
    z12 = cyclic_group(12)
    cases = [(s4, klein_four_group()), (s4, alternating_group(4)),
             (z12, cp_subgroup(z12, 4))]
    for group in small_groups():
        normals = {}
        for p in range(1, 13):
            sub = cp_subgroup(group, p)
            normals.setdefault(sub.generators, sub)
        cases += [(group, sub) for sub in normals.values()]
    for group, normal in cases:
        qa = quotient_regular_action(group, normal)
        images, image_of, canon = min_scan_quotient(group, normal)
        assert qa.images == images, (group, normal)
        sample = group.elements()[::3]
        key_pairs = {(qa._canon(x), canon(x)) for x in sample}
        assert len(key_pairs) == len({k for k, _ in key_pairs}) \
            == len({k for _, k in key_pairs}), (group, normal)
        for x in sample[::3]:
            assert qa.image_of(x) == image_of(x), (group, normal, x)


def test_cp_characteristic_under_all_automorphisms():
    for group in [symmetric_group(3), symmetric_group(4), alternating_group(4),
                  cyclic_group(8), dihedral_group(4)]:
        aset = aut_group_search(group)
        assert aset.complete
        for p in (2, 3, 4):
            sub = cp_subgroup(group, p)
            for m in aset.maps:
                for h in sub.generators:
                    assert aset.apply(m, h) in sub, (group, p)


def test_cp_quotient_fp_examples():
    assert cp_quotient_fp(TREFOIL, 5) == cyclic(5)
    assert cp_quotient_fp(parse_presentation("< a, b | a^3, b^2 >"), 6) == cyclic(6)
    assert cp_quotient_fp(parse_presentation("< a, b | >"), 2) == \
        AbelianStructure(torsion=(2, 2))


def _branched_cover_torsion_oracle(p):
    # hand Fox calculus for the (3,2) torus knot: the knot polynomial is
    # t^2 - t + 1, the twisted chain group is Z[t]/(1 + t + ... + t^(p-1)),
    # and the branched cover torsion is the cokernel of multiplication by
    # the polynomial on that ring, written as an integer matrix
    if p == 2:
        # t = -1: multiplication by 1 - (-1) + 1 = 3 on Z
        matrix = [[3]]
    elif p == 3:
        # basis 1, t with t^2 = -1 - t: delta(t) = t^2 - t + 1 = -2t, and
        # -2t * 1 = -2t, -2t * t = 2 + 2t
        matrix = [[0, -2], [2, 2]]
    else:
        raise ValueError(p)
    return cokernel_structure(IntMatrix(matrix))


def test_cp_kernel_presentation_trefoil_covers():
    expected2 = _branched_cover_torsion_oracle(2)
    assert expected2 == AbelianStructure(torsion=(3,))
    sub2 = cp_kernel_presentation(TREFOIL, 2)
    assert abelianization(sub2) == AbelianStructure(free_rank=1, torsion=(3,))

    expected3 = _branched_cover_torsion_oracle(3)
    assert expected3 == AbelianStructure(torsion=(2, 2))
    sub3 = cp_kernel_presentation(TREFOIL, 3)
    assert abelianization(sub3) == AbelianStructure(free_rank=1, torsion=(2, 2))


def test_cp_kernel_of_infinite_cyclic():
    free = parse_presentation("< a | >")
    table = cp_kernel_coset_table(free, 3)
    assert table.index == 3
    sub = cp_kernel_presentation(free, 3)
    assert sub.ngens == 1 and sub.relators == ()


def test_cp_kernel_index_is_quotient_order():
    for text, p in [("< a, b | a^3 = b^2 >", 4), ("< a, b | >", 3),
                    ("< a, b | a^2 b^2 >", 2)]:
        pres = parse_presentation(text)
        table = cp_kernel_coset_table(pres, p)
        assert table.index == cp_quotient_fp(pres, p).order()


def test_derived_p_series_trefoil():
    for p in (2, 3):
        report = derived_p_series(TREFOIL, p, 2)
        assert report.quotients == [cyclic(p), cyclic(p)]
        assert report.truncated_at is None


def test_derived_p_series_surjects_onto_zp():
    # knot groups: every successive quotient has exponent exactly p when
    # p is prime (rank-1 case gives equality with Z_p)
    for pres in [TREFOIL, parse_presentation("< a, b | a^5 = b^2 >")]:
        for p in (2, 3, 5):
            report = derived_p_series(pres, p, 2)
            for level in report.levels:
                assert level.quotient == cyclic(p)


def test_derived_p_series_s3_terminates():
    report = derived_p_series(symmetric_group(3), 6, 2)
    assert [level.group.order() for level in report.levels] == [3, 1]
    assert report.quotients == [cyclic(2), cyclic(3)]


def test_perm_series_keeps_a_stationary_level_as_it_started():
    # S_5 -> A_5, then C^2(A_5) = A_5: a level of index 1 is the group it
    # started from, so its cached derived subgroup serves every later level
    report = derived_p_series(PermGroup(5, symmetric_group(5).generators), 2, 4)
    assert [level.index for level in report.levels] == [2, 1, 1, 1]
    a5 = report.levels[0].group
    assert all(level.group is a5 for level in report.levels[1:])


def test_derived_p_series_infinite_cyclic():
    free = parse_presentation("< a | >")
    report = derived_p_series(free, 2, 3)
    assert report.quotients == [cyclic(2)] * 3


def test_derived_p_series_budget_truncation():
    free2 = parse_presentation("< a, b | >")
    report = derived_p_series(free2, 5, 3, budget=20)
    assert report.truncated_at == 0
    assert report.levels == ()


def test_fp_series_checks_its_index_against_the_quotient(monkeypatch):
    # the index is the translation table's, so a quotient whose order
    # disagrees with it is caught
    for p in (2, 3, 6):
        report = derived_p_series(TREFOIL, p, 2)
        cur = TREFOIL
        for level in report.levels:
            assert level.index == cp_kernel_coset_table(cur, p).index
            cur = level.group
    monkeypatch.setattr(cp, "cp_quotient_fp",
                        lambda presentation, p: AbelianStructure(torsion=(2, 2)))
    with pytest.raises(ValueError, match="disagrees"):
        derived_p_series(TREFOIL, 2, 1)


def test_cp_quotient_perm_reduces_a_huge_p():
    # a prime far above the degree: it divides no order, and the primes
    # of p are never factored beyond those of |G|
    q = 2 ** 61 - 1
    assert cp_quotient_perm(symmetric_group(5), q).order() == 1
    for group in (symmetric_group(5), cyclic_group(12),
                  direct_product(cyclic_group(6), cyclic_group(4))):
        for p in (2, 4, 12):
            assert cp_quotient_perm(group, p * q) == cp_quotient_perm(group, p)
    report = derived_p_series(symmetric_group(5), q, 1)
    assert [level.index for level in report.levels] == [1]


def test_cp_quotient_perm_of_abelian_group_is_its_structure():
    # C^|H|(H) is trivial for abelian H
    for group, torsion in [(cyclic_group(12), (12,)), (klein_four_group(), (2, 2)),
                           (direct_product(cyclic_group(6), cyclic_group(4)), (2, 12)),
                           (trivial_group(), ())]:
        assert cp_quotient_perm(group, group.order()) == \
            AbelianStructure(torsion=torsion)
    with pytest.raises(ValueError):
        cp_quotient_perm(cyclic_group(4), 0)


def test_verdict_s3():
    odd = cp_group_verdict(symmetric_group(3), 3)
    assert (odd.status, odd.reason) == ("IS_CP_GROUP", "SELF_WITNESS")
    even = cp_group_verdict(symmetric_group(3), 2)
    assert (even.status, even.reason) == ("NOT_CP_GROUP", "COMPLETE_CRITERION")
    assert even.certificate["cp_order"] == 3


def test_verdict_reads_the_center_off_the_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("centralizer called")
    monkeypatch.setattr(perm, "centralizer", refuse)
    monkeypatch.setattr(cp, "centralizer", refuse)
    s5 = PermGroup(5, symmetric_group(5).generators)  # no cached results
    verdict = cp_group_verdict(s5, 2)
    assert verdict.reason == "COMPLETE_CRITERION"
    assert verdict.certificate["center_order"] == 1
    assert verdict.certificate["inner_order"] == 120


def test_verdict_complete_criterion():
    # S_3 and S_5 are complete; S_6 has an outer automorphism and Z_2 a
    # center, and C^2 moves all four
    for group, complete in ((symmetric_group(3), True), (symmetric_group(5), True),
                            (symmetric_group(6), False), (cyclic_group(2), False)):
        verdict = cp_group_verdict(group, 2)
        assert (verdict.reason == "COMPLETE_CRITERION") == complete, group


def test_cp_subgroup_leaves_the_cached_derived_chain_unchanged():
    for group in small_groups():
        chain = derived_subgroup(group).chain
        state = (chain.order(), len(chain.base), len(chain.strong))
        for p in range(1, 13):
            cp_subgroup(group, p)
            assert (chain.order(), len(chain.base), len(chain.strong)) == state, (group, p)
        assert derived_subgroup(group).chain is chain


def test_verdict_s6_uses_aut_criterion():
    verdict = cp_group_verdict(symmetric_group(6), 2)
    assert (verdict.status, verdict.reason) == ("NOT_CP_GROUP", "AUT_CRITERION")
    assert verdict.certificate["aut_order"] == 1440
    assert verdict.certificate["cp_of_aut_order"] == 360


def test_verdict_inconclusive_cases():
    # Z_2 and V_4 are in fact C^2-groups (witnessed by Z_4 and by Z_4 x Z_4),
    # but not their own witnesses; these criteria must stay silent
    z2 = cp_group_verdict(cyclic_group(2), 2)
    assert z2.status == "INCONCLUSIVE"
    v4 = cp_group_verdict(klein_four_group(), 2)
    assert v4.status == "INCONCLUSIVE"


def test_verdict_pairing_validation():
    with pytest.raises(ValueError):
        CpVerdict("IS_CP_GROUP", "AUT_CRITERION")


def test_exact_sequence_cases():
    s3 = symmetric_group(3)
    g = direct_product(s3, cyclic_group(2))
    h = direct_product(s3, trivial_group(2))
    assert verify_exact_sequence(g, h) is True
    assert verify_exact_sequence(s3, s3) is True
    with pytest.raises(ConjugationNotInnerError) as info:
        verify_exact_sequence(alternating_group(4), klein_four_group())
    assert info.value.witness.order() == 3


def test_s6_pipeline():
    for p in (2, 4, 6):
        report = verify_s6_pipeline(p)
        assert report.aut_order == 1440
        assert report.cp_of_aut_order == 360
        assert report.cp_equals_alternating_image
        assert not report.inner_contained_in_cp
        assert report.outer_order_10_exists
        assert report.counting_contradiction
        assert report.verdict == "NOT_CP_GROUP"
    with pytest.raises(ValueError):
        verify_s6_pipeline(3)
    with pytest.raises(ValueError):
        verify_s6_pipeline(14)


def element_action(aset):
    """AutomorphismSet.as_perm_group as it was before it acted on a few
    generating classes: the search chain itself, acting on all |G| element
    indices. This, the two functions after it and the two pipelines below
    are kept as the reference for the small action."""
    ambient = PermGroup(len(aset.elements), (), degree_cap=None)
    return ambient._make_subgroup(aset.chain.strong, aset.chain)


def element_conjugation_map(aset, g):
    """The inner automorphism x -> g x g^-1 as an element permutation."""
    conjugate = _conjugator(g)
    return Perm._raw(tuple(aset._index[conjugate(x)] for x in aset.elements))


def element_inner_maps(aset):
    return tuple(element_conjugation_map(aset, g) for g in aset.base_group.generators)


def element_action_verdict(group, p, aut_budget=DEFAULT_AUT_NODE_BUDGET):
    """cp_group_verdict on the degree-|G| action."""
    sub = cp_subgroup(group, p)
    cert = {"p": p, "group_order": group.order(), "cp_order": sub.order()}
    if sub.order() == group.order():
        return CpVerdict(IS_CP_GROUP, SELF_WITNESS, cert)
    aset = _complete_aut_search(group, aut_budget)
    cert["center_order"] = aset.center_order
    cert["aut_order"] = aset.order()
    cert["inner_order"] = aset.inner_order()
    if cert["center_order"] == 1 and cert["aut_order"] == cert["inner_order"]:
        return CpVerdict(NOT_CP_GROUP, COMPLETE_CRITERION, cert)
    cp_aut = cp_subgroup(element_action(aset), p)
    cert["cp_of_aut_order"] = cp_aut.order()
    contained = all(m in cp_aut for m in element_inner_maps(aset))
    cert["inner_in_cp_of_aut"] = contained
    if not contained:
        return CpVerdict(NOT_CP_GROUP, AUT_CRITERION, cert)
    return CpVerdict(INCONCLUSIVE, NO_REASON, cert)


def element_action_s6_pipeline(p, aut_budget=DEFAULT_AUT_NODE_BUDGET):
    """verify_s6_pipeline on the degree-720 action, without its checks."""
    aset = _complete_aut_search(symmetric_group(6), aut_budget)
    aut_perm = element_action(aset)
    aut_order = aset.order()
    inner_order = aset.inner_order()
    cp_aut = cp_subgroup(aut_perm, p)
    image_gens = [element_conjugation_map(aset, g) for g in alternating_group(6).generators]
    alt_image = PermGroup(aut_perm.degree, image_gens, degree_cap=None)
    inner_maps = element_inner_maps(aset)
    inner_group = PermGroup(aut_perm.degree, inner_maps, degree_cap=None)
    outer10 = any(m.order() == 10 and m not in inner_group for m in aset.maps)
    aut_over_inner = aut_order // inner_order
    aut_over_cp = aut_order // cp_aut.order()
    return S6PipelineReport(
        p=p, aut_order=aut_order, inner_order=inner_order,
        cp_of_aut_order=cp_aut.order(),
        cp_equals_alternating_image=cp_aut.equals_subgroup(alt_image),
        inner_contained_in_cp=all(m in cp_aut for m in inner_maps),
        outer_order_10_exists=outer10,
        aut_over_inner_index=aut_over_inner, aut_over_cp_index=aut_over_cp,
        counting_contradiction=aut_over_inner % aut_over_cp != 0,
        verdict=NOT_CP_GROUP)


def test_s6_pipeline_matches_element_action_reference():
    for p in range(2, 13, 2):
        assert verify_s6_pipeline(p) == element_action_s6_pipeline(p), p


def test_verdicts_match_element_action_reference():
    cases = [(name, g) for name, g, budget in aut_reference_corpus()
             if budget == DEFAULT_AUT_NODE_BUDGET]
    cases += [("S6", symmetric_group(6)), ("D4", dihedral_group(4)),
              ("Z2^4", elementary_abelian(2, 4))]
    for name, group in cases:
        for p in range(2, 7):
            assert cp_group_verdict(group, p) == element_action_verdict(group, p), (name, p)
        aset = aut_group_search(group)
        action = aset.as_perm_group()
        assert action.order() == aset.order() == len(aset.maps), name
        assert action.degree < len(aset.elements), name  # the identity is left out


def test_small_action_degrees():
    # the transpositions and triple transpositions of S_6, the double
    # transpositions of A_6
    for group, degree in ((symmetric_group(6), 30), (alternating_group(6), 45)):
        aset = aut_group_search(group)
        action = aset.as_perm_group()
        assert action.degree == degree
        assert action.order() == aset.order() == len(aset.maps) == 1440
        assert all(m.degree == degree for m in aset.inner_maps)
