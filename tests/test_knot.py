import random
from math import gcd

import pytest

from cpgroups.fp import abelianization, evaluate_word, kernel_coset_table, \
    parse_presentation
from cpgroups.homalg import Z
from cpgroups.knot import (LensSurgeryAnswer, TorusKnotParams, chbili_q,
                           complete_group_obstruction,
                           preimage_component_count, torus_knot_group,
                           torus_preimage_exists, trefoil_even_obstruction)
from cpgroups.perm import parse_cycles


def test_torus_knot_params():
    params = TorusKnotParams.normalized(2, 3)
    assert (params.m, params.n) == (3, 2)
    assert TorusKnotParams(-3, 2).m == -3
    with pytest.raises(ValueError):
        TorusKnotParams(4, 2)
    with pytest.raises(ValueError):
        TorusKnotParams(3, 1)


def test_torus_knot_group():
    p = torus_knot_group(3, 2)
    assert str(p) == "< a, b | a^3 b^-2 >"
    assert abelianization(p) == Z
    assert abelianization(torus_knot_group(5, 2)) == Z
    with pytest.raises(ValueError):
        torus_knot_group(4, 2)


def test_preimage_criterion():
    assert torus_preimage_exists(3, 2, 5) is True
    assert torus_preimage_exists(3, 2, 2) is False
    assert torus_preimage_exists(3, 2, 6) is False
    with pytest.raises(ValueError):
        torus_preimage_exists(4, 2, 5)
    with pytest.raises(ValueError):
        torus_preimage_exists(3, 2, 1)


def test_preimage_criterion_symmetric_in_m_n():
    for m in range(2, 10):
        for n in range(2, 10):
            if gcd(m, n) != 1:
                continue
            for p in range(2, 15):
                assert torus_preimage_exists(m, n, p) == \
                    torus_preimage_exists(n, m, p)


def test_chbili_q_values():
    a = chbili_q(3, 2, 5)
    assert a.exists and a.q == 4 and a.q_inverse == 4
    assert 3 - 2 * a.q == a.multiple * 5
    b = chbili_q(3, 2, 7)
    assert b.q == 5
    assert chbili_q(3, 2, 6).exists is False
    negative = chbili_q(-3, 2, 5)
    assert negative.exists and (-3 - 2 * negative.q) % 5 == 0


def test_chbili_q_certificate_grid():
    for m in range(2, 31):
        for n in range(2, 31):
            if gcd(m, n) != 1:
                continue
            for p in range(2, 31):
                answer = chbili_q(m, n, p)
                assert answer.exists == (gcd(m * n, p) == 1)
                if answer.exists:
                    assert 1 <= answer.q <= p - 1
                    assert (m - n * answer.q) % p == 0
                    assert gcd(answer.q, p) == 1
                    # uniqueness in [1, p-1]
                    assert [q for q in range(1, p) if (m - n * q) % p == 0] \
                        == [answer.q]


def test_lens_answer_validates_certificate():
    with pytest.raises(ValueError):
        LensSurgeryAnswer(3, 2, 5, exists=True, q=3, q_inverse=2, multiple=-1)


def test_component_count():
    assert preimage_component_count(6, 4) == 2
    assert preimage_component_count(9, 1) == 1
    assert preimage_component_count(9, 0) == 9
    for p in range(1, 31):
        for c in range(p):
            r = preimage_component_count(p, c)
            assert r == gcd(c, p)
            class_order = p // r  # the order of c in Z_p
            assert r * class_order == p


def test_trefoil_obstruction_pipeline():
    for p in (2, 4, 6):
        report = trefoil_even_obstruction(p)
        assert report.verdict == "OBSTRUCTED"
        names = [s.name for s in report.steps]
        assert names == ["hom_onto_s3", "kernel_index_6",
                         "kernel_characteristic", "s3_not_cp_group"]
        assert all(s.passed for s in report.steps)
        assert report.steps[1].data["index"] == 6
        assert report.steps[2].data["schreier_generator_count"] == 7
        assert report.steps[2].data["checked"] == 7
    with pytest.raises(ValueError):
        trefoil_even_obstruction(3)
    with pytest.raises(ValueError):
        trefoil_even_obstruction(0)


def test_trefoil_kernel_invariance_on_random_products():
    # independent spot check of step 3: the generator-inverting map sends
    # 200 random products of Schreier generators back into the kernel
    presentation = torus_knot_group(3, 2)
    images = [parse_cycles("(1 2 3)"), parse_cycles("(1 2)", 3)]
    table = kernel_coset_table(presentation, images)
    words = [word for _, _, word in table.schreier_generators()]
    from cpgroups.fp import Word
    theta = [Word(((0, -1),)), Word(((1, -1),))]
    rng = random.Random(42)
    for _ in range(200):
        product = Word()
        for _ in range(rng.randint(1, 6)):
            factor = rng.choice(words)
            if rng.random() < 0.5:
                factor = factor.inverse()
            product = product * factor
        assert evaluate_word(product, images).is_identity()
        assert evaluate_word(product.substitute(theta), images).is_identity()


def test_out_obstruction_refuses_unasserted_input():
    trefoil = torus_knot_group(3, 2)
    with pytest.raises(ValueError) as info:
        complete_group_obstruction(trefoil)
    assert "order 2" in str(info.value)


def test_out_obstruction_conditional_report():
    sample = parse_presentation("< a, b | a b a b^-1 a^-1 b^-1 >")
    report = complete_group_obstruction(sample, assert_out_trivial=True, p_max=6)
    assert report.verdict == "OBSTRUCTED_CONDITIONAL"
    assert [e["p"] for e in report.entries] == [2, 3, 4, 5, 6]
    assert all(e["obstructed"] for e in report.entries)
    assert "asserted" in report.assumption


def test_out_obstruction_requires_knot_group_abelianization():
    free2 = parse_presentation("< a, b | >")
    with pytest.raises(ValueError) as info:
        complete_group_obstruction(free2, assert_out_trivial=True)
    assert "not Z" in str(info.value)
