import itertools
import random
import time
import tracemalloc
from math import factorial

import pytest

from cpgroups.cp import cp_kernel_coset_table
from cpgroups.errors import BudgetExhausted, CapExceeded, PresentationSyntaxError
from cpgroups.fp import (DEFAULT_MAX_COSETS, CosetTable, FpPresentation, Word,
                         _columns, _Enumerator, abelianization, evaluate_word,
                         kernel_coset_table, parse_presentation, parse_word,
                         reidemeister_schreier, todd_coxeter, verify_hom)
from cpgroups.homalg import AbelianStructure, Z
from cpgroups.perm import Perm, parse_cycles

from oracles import mulclose


def w(names, text):
    return parse_word(tuple(names), text)


def test_parse_presentation_torus_relation():
    p = parse_presentation("< a, b | a^3 = b^2 >")
    assert p.generators == ("a", "b")
    assert p.relators == (Word(((0, 3), (1, -2))),)


def test_parse_free_and_product_presentations():
    free = parse_presentation("< a | >")
    assert free.ngens == 1 and free.relators == ()
    zp = parse_presentation("< a, b | a^3, b^2 >")
    assert zp.relators == (Word(((0, 3),)), Word(((1, 2),)))
    with_ones = parse_presentation("< a, b | a^3 = 1, b^2 = 1 >")
    assert with_ones.relators == zp.relators


def test_parse_word_juxtaposition_and_one():
    names = ("a", "b")
    assert _columns(w(names, "abab")) == (0, 2, 0, 2)
    assert w(names, "a b^-2 a^2").syllables == ((0, 1), (1, -2), (0, 2))
    assert w(names, "a a^-1").syllables == ()
    assert w(names, "1").syllables == ()
    assert w(names, "a^0 b").syllables == ((1, 1),)


def test_parse_longest_name_wins():
    p = parse_presentation("< x, x1 | x x1, x1^2 >")
    assert p.relators[0].syllables == ((0, 1), (1, 1))


def test_parse_errors_carry_positions():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("a, b | a^3 >")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("< a, b  a^3 >")
    with pytest.raises(PresentationSyntaxError) as info:
        parse_presentation("< a, b | a^3 = c >")
    assert info.value.position is not None
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("< a, a | >")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("< a | a^ >")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("< a | a = a = a >")


def test_presentation_round_trips_through_text():
    for text in ["< a, b | a^3 b^-2 >", "< a | >", "< a, b | a^2, b^2, a b a b a b >"]:
        p = parse_presentation(text)
        assert parse_presentation(str(p)) == p


def test_word_algebra():
    u = Word(((0, 2), (1, -1)))
    v = Word(((1, 1), (0, 1)))
    assert (u * v).syllables == ((0, 3),)
    assert (u * u.inverse()).syllables == ()
    assert (u ** 2).letter_count() == 6
    assert u.exponent_vector(2) == [2, -1]
    inverted = u.substitute([Word(((0, -1),)), Word(((1, -1),))])
    assert inverted.syllables == ((0, -2), (1, 1))


def test_word_refuses_non_integer_exponents():
    # refused, not truncated: Word(((0, 2.5),)) once became x0^2, and a
    # fractional exponent below one the empty word
    for e in (2.5, 0.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="is not an integer"):
            Word(((1, 1), (0, e)))
    # an unmerged syllable is stored as given, not copied
    s = (0, 12345)
    assert Word(((1, 1), s)).syllables[1] is s


def test_todd_coxeter_cyclic():
    assert todd_coxeter(parse_presentation("< a | a^5 >")).index == 5


def test_todd_coxeter_s3_presentation():
    p = parse_presentation("< a, b | a^2, b^2, a b a b a b >")
    table = todd_coxeter(p)
    # oracle: the presented group is realized by (1 2), (2 3)
    perms = [parse_cycles("(1 2)", 3), parse_cycles("(2 3)", 3)]
    assert verify_hom(p, perms)
    assert table.index == len(mulclose(perms)) == 6


def test_todd_coxeter_whole_group_subgroup():
    p = parse_presentation("< a, b | a^3 = b^2 >")
    table = todd_coxeter(p, [p.word("a"), p.word("b")])
    assert table.index == 1


# presentations with faithful permutation realizations, orders <= 48
REALIZATIONS = [
    ("< a | a^12 >", ["(1 2 3 4 5 6 7 8 9 10 11 12)"]),
    ("< a, b | a^3, b^2, a b a b >", ["(1 2 3)", "(1 2)"]),
    ("< a, b | a^6, b^2, a b a b >",
     ["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"]),
    ("< a, b | a^4, b^2, a b a b a b >", ["(1 2 3 4)", "(1 2)"]),
    ("< a, b | a^3, b^3, a b a^-1 b^-1 >", ["(1 2 3)", "(4 5 6)"]),
    ("< a, b | a^12, b^2, a b a b >",
     ["(1 2 3 4 5 6 7 8 9 10 11 12)",
      "(1 12)(2 11)(3 10)(4 9)(5 8)(6 7)"]),
    ("< a, b | a^4, b^4, a b a^-1 b^-1 >", ["(1 2 3 4)", "(5 6 7 8)"]),
]


def realization(text, gens):
    p = parse_presentation(text)
    perms = [parse_cycles(s) for s in gens]
    degree = max(x.degree for x in perms)
    return p, [x.extended(degree) for x in perms]


def test_todd_coxeter_against_realizations():
    for text, gens in REALIZATIONS:
        p, perms = realization(text, gens)
        degree = perms[0].degree
        assert verify_hom(p, perms), text
        order = len(mulclose(perms))
        word_lists = [[], ["a"], ["a^2"]]
        if p.ngens > 1:
            word_lists += [["b"], ["a b"], ["a", "b"]]
        for words in word_lists:
            ws = [p.word(t) for t in words]
            table = todd_coxeter(p, ws)
            image = mulclose([evaluate_word(x, perms) for x in ws]) if ws \
                else {tuple(range(degree))}
            assert table.index == order // len(image), (text, words)
            # post hoc: the coset action satisfies every relator
            action = [Perm(tuple(row[2 * g] for row in table.rows))
                      for g in range(p.ngens)]
            for rel in p.relators:
                assert evaluate_word(rel, action).is_identity()


def test_todd_coxeter_matches_kernel_table_of_faithful_realizations():
    # independent oracle: both numberings are standardized, and the kernel
    # of a faithful realization is the trivial subgroup
    for text, gens in REALIZATIONS:
        p, perms = realization(text, gens)
        assert todd_coxeter(p).rows == kernel_coset_table(p, perms).rows, text


def fuzz_cases():
    """Random subgroup words in faithful presentations: (p, perms, words)."""
    rng = random.Random(1618)
    cases = [
        ("< a, b | a^4, b^2, a b a b >", ["(1 2 3 4)", "(1 3)"]),
        ("< a, b | a^2, b^2, a b a b a b >", ["(1 2)", "(2 3)"]),
        ("< a, b | a^6, b^2, a b a b >", ["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"]),
    ]
    for text, gens in cases:
        p, perms = realization(text, gens)
        for _ in range(12):
            words = []
            for _ in range(rng.randint(1, 3)):
                syls = tuple((rng.randrange(p.ngens), rng.choice([-2, -1, 1, 2, 3]))
                             for _ in range(rng.randint(1, 4)))
                words.append(Word(syls))
            yield p, perms, words


def test_todd_coxeter_fuzz_random_subgroup_words():
    # the index must always be |G| / |image subgroup|, however ugly the
    # coincidences
    for p, perms, words in fuzz_cases():
        table = todd_coxeter(p, words)
        image = mulclose([evaluate_word(w, perms) for w in words])
        assert table.index == len(mulclose(perms)) // len(image), (p, words)


class RescanEnumerator(_Enumerator):
    """The enumerator with the full rescan from coset 0 that the cursor
    replaced, kept as the reference for its definition order."""

    def first_undefined(self):
        for a in range(len(self.table)):
            if self.p[a] != a:
                continue
            row = self.table[a]
            for c in range(self.cols):
                if row[c] is None:
                    return a, c
        return None


def _standardize(rows):
    new = {0: 0}
    order = [0]
    qi = 0
    while qi < len(order):
        a = order[qi]
        qi += 1
        for t in rows[a]:
            if t not in new:
                new[t] = len(new)
                order.append(t)
    out = [None] * len(rows)
    for a, row in enumerate(rows):
        out[new[a]] = tuple(new[t] for t in row)
    return out


def compacted_standardized_rows(enum):
    """The rows of a closed enumeration as the compaction pass at the end of
    `_Enumerator.run` and a separate `_standardize` used to number them,
    before one first-appearance walk replaced both. Kept as the reference
    for that walk."""
    live = [i for i in range(len(enum.table)) if enum.p[i] == i]
    renum = {old: new for new, old in enumerate(live)}
    return _standardize([[renum[enum.find(t)] for t in enum.table[old]] for old in live])


def coxeter(n):
    """The Coxeter presentation of S_n on s0..s_{n-2}."""
    names = [f"s{i}" for i in range(n - 1)]
    rels = [f"{s}^2" for s in names]
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            rels.append(" ".join([names[i], names[j]] * (3 if j == i + 1 else 2)))
    return parse_presentation(f"< {', '.join(names)} | {', '.join(rels)} >")


def power(word, k):
    return " ".join([word] * k)


def triangle(l, m, n):
    return parse_presentation(f"< a, b | a^{l}, b^{m}, {power('a b', n)} >")


PSL27 = parse_presentation(
    f"< a, b | a^2, b^3, {power('a b', 7)}, {power('a b a^-1 b^-1', 4)} >")

INFINITE = {
    "trefoil": parse_presentation("< a, b | a^3 = b^2 >"),
    "237": triangle(2, 3, 7),
    "334": triangle(3, 3, 4),
}


def cursor_corpus():
    for n in (4, 5, 6):
        p = coxeter(n)
        for mask in range(1 << p.ngens):
            yield p, [p.word(name) for k, name in enumerate(p.generators)
                      if mask >> k & 1]
    for p in (triangle(2, 3, 5), PSL27):
        for words in ([], ["a"], ["b"], ["a b"]):
            yield p, [p.word(t) for t in words]
    for p, _, words in fuzz_cases():
        yield p, words


def test_cursor_enumeration_matches_full_rescan():
    count = 0
    for p, words in cursor_corpus():
        fast = _Enumerator(p, words, 10_000)
        slow = RescanEnumerator(p, words, 10_000)
        rows = fast.run()
        assert rows == slow.run(), (p, words)
        assert [tuple(r) for r in rows] == compacted_standardized_rows(fast), (p, words)
        assert len(fast.table) == len(slow.table), (p, words)
        count += 1
    assert count == 8 + 16 + 32 + 2 * 4 + 36


@pytest.mark.parametrize("name", sorted(INFINITE))
def test_cursor_budget_matches_full_rescan(name):
    p = INFINITE[name]
    for budget in (100, 250, 600, 2000):
        outcomes = []
        for enum in (_Enumerator(p, (), budget), RescanEnumerator(p, (), budget)):
            with pytest.raises(BudgetExhausted) as info:
                enum.run()
            outcomes.append((str(info.value), enum.table, enum.p))
        assert outcomes[0] == outcomes[1], (name, budget)
        live = sum(1 for i, r in enumerate(outcomes[1][2]) if i == r)
        assert f"exhausted with {live} live cosets;" in outcomes[0][0]


def test_todd_coxeter_budget_is_an_explicit_outcome():
    free_product = parse_presentation("< a, b | a^2, b^2 >")  # infinite
    with pytest.raises(BudgetExhausted):
        todd_coxeter(free_product, max_cosets=100)


def test_coset_budget_runs_out_in_bounded_time():
    start = time.perf_counter()
    with pytest.raises(BudgetExhausted) as info:
        todd_coxeter(INFINITE["trefoil"], max_cosets=50_000)
    assert time.perf_counter() - start < 10
    # the trefoil enumeration meets no coincidence, so every coset is live
    assert str(info.value) == ("coset budget 50000 exhausted with 50000 live "
                               "cosets; index unknown (possibly infinite)")


def test_todd_coxeter_refuses_long_relators_before_expanding():
    # a relator of 10^14 letters is refused by its letter count, not by
    # running out of memory while its columns are built
    long_relator = parse_presentation("< a, b | a^99999999999999 >")
    long_subgroup = parse_presentation("< a | a^2 >")
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded,
                           match="word of 99999999999999 letters exceeds cap 1000000"):
            todd_coxeter(long_relator)
        with pytest.raises(CapExceeded, match="exceeds cap 1000000"):
            todd_coxeter(long_subgroup, [long_subgroup.word(f"a^-{10**12}")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the cap is inclusive
    assert len(_columns(Word(((0, DEFAULT_MAX_COSETS),)))) == DEFAULT_MAX_COSETS


def test_todd_coxeter_deterministic():
    p = parse_presentation("< a, b | a^4, b^2, a b a b >")
    assert todd_coxeter(p).rows == todd_coxeter(p).rows


def test_coset_table_validation():
    p = parse_presentation("< a | a^2 >")
    with pytest.raises(ValueError, match="not a bijection"):
        CosetTable(p, (), [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="out of range"):
        CosetTable(p, (), [[1, 2], [0, 0]])
    with pytest.raises(ValueError, match="row width"):
        CosetTable(p, (), [[1, 1], [0]])
    # a valid table of < a | a^3 >, except that coset 2 appears before 1
    z3 = parse_presentation("< a | a^3 >")
    with pytest.raises(ValueError, match="first-appearance order"):
        CosetTable(z3, (), [[2, 1], [0, 2], [1, 0]])
    # coset 1 is never reached from coset 0, so its row comes too early
    free = parse_presentation("< a | >")
    with pytest.raises(ValueError, match="first-appearance order"):
        CosetTable(free, (), [[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="relator does not close"):
        CosetTable(p, (), [[1, 2], [2, 0], [0, 1]])
    with pytest.raises(ValueError, match="subgroup word does not fix"):
        CosetTable(p, [p.word("a")], [[1, 1], [0, 0]])
    table = CosetTable(z3, (), [[1, 2], [2, 0], [0, 1]])
    assert table._parent == (None, (0, 0), (0, 1))


def test_verify_hom():
    p = parse_presentation("< a, b | a^3 = b^2 >")
    good = [parse_cycles("(1 2 3)"), parse_cycles("(1 2)", 3)]
    assert verify_hom(p, good) is True
    swapped = [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)")]
    assert verify_hom(p, swapped) is False
    assert verify_hom(p, [Perm.identity(4), Perm.identity(4)]) is True
    with pytest.raises(ValueError):
        verify_hom(p, [parse_cycles("(1 2)", 3)])


def test_verify_hom_refuses_words_too_long_to_expand():
    p = parse_presentation(f"< a | a^{DEFAULT_MAX_COSETS + 1} >")
    with pytest.raises(CapExceeded,
                       match="word of 1000001 letters exceeds cap 1000000"):
        verify_hom(p, [Perm.identity(1)])


def test_kernel_coset_table_trefoil():
    p = parse_presentation("< a, b | a^3 = b^2 >")
    images = [parse_cycles("(1 2 3)"), parse_cycles("(1 2)", 3)]
    table = kernel_coset_table(p, images)
    assert table.index == 6
    assert len(table.schreier_generators()) == 7


def test_kernel_coset_table_trivial_and_cyclic_images():
    p = parse_presentation("< a, b | a^3 = b^2 >")
    trivial = kernel_coset_table(p, [Perm.identity(2), Perm.identity(2)])
    assert trivial.index == 1
    z6 = parse_presentation("< a | a^6 >")
    table = kernel_coset_table(z6, [parse_cycles("(1 2 3)")])
    assert table.index == 3


def test_kernel_coset_table_matches_translation_action():
    p = parse_presentation("< a, b | a^3 = b^2 >")
    images = [parse_cycles("(1 2 3)"), parse_cycles("(1 2)", 3)]
    table = kernel_coset_table(p, images)
    elements = [Perm.identity(3)]
    index = {elements[0]: 0}
    rows = []
    qi = 0
    while qi < len(elements):
        x = elements[qi]
        qi += 1
        row = []
        for g in images:
            for image in (g, g.inverse()):
                y = x * image
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                row.append(index[y])
        rows.append(row)
    assert [list(r) for r in table.rows] == rows


def test_kernel_coset_table_rejects_non_homomorphism():
    p = parse_presentation("< a, b | a^3 = b^2 >")
    with pytest.raises(ValueError):
        kernel_coset_table(p, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)")])


def test_rs_free_group_subgroup_is_free():
    free = parse_presentation("< a | >")
    table = todd_coxeter(free, [free.word("a^3")])
    assert table.index == 3
    sub = reidemeister_schreier(free, table)
    assert sub.ngens == 1 and sub.relators == ()


def test_rs_sign_kernel_of_s3():
    p = parse_presentation("< a, b | a^2, b^2, a b a b a b >")
    table = kernel_coset_table(p, [parse_cycles("(1 2)"), parse_cycles("(1 2)")])
    assert table.index == 2
    sub = reidemeister_schreier(p, table)
    assert abelianization(sub) == AbelianStructure(torsion=(3,))


def test_rs_trefoil_double_cover():
    # independent oracle: the knot's polynomial t^2 - t + 1 evaluated at -1
    # gives |torsion| = 3 for the double branched cover, so the index-2
    # subgroup of the knot group abelianizes to Z + Z_3
    p = parse_presentation("< a, b | a^3 = b^2 >")
    table = kernel_coset_table(p, [Perm.identity(2), parse_cycles("(1 2)")])
    assert table.index == 2
    sub = reidemeister_schreier(p, table)
    assert abelianization(sub) == AbelianStructure(free_rank=1, torsion=(3,))


def test_rs_nielsen_schreier_rank():
    free2 = parse_presentation("< a, b | >")
    cases = [
        (["a^2", "b", "a b a^-1"], 2),
        (["a^3", "b", "a b a^-1", "a^2 b a^-2"], 3),
    ]
    for words, index in cases:
        table = todd_coxeter(free2, [free2.word(t) for t in words])
        assert table.index == index
        assert len(table.schreier_generators()) == index * 2 - index + 1
        sub = reidemeister_schreier(free2, table)
        assert abelianization(sub) == AbelianStructure(free_rank=index + 1)
    free3 = parse_presentation("< a, b, c | >")
    words = ["a^2", "b", "c", "a b a^-1", "a c a^-1"]
    table = todd_coxeter(free3, [free3.word(t) for t in words])
    assert table.index == 2
    sub = reidemeister_schreier(free3, table)
    assert abelianization(sub) == AbelianStructure(free_rank=2 * (3 - 1) + 1)


def spanning_tree(table):
    """`CosetTable._spanning_tree` before `_validate` recorded the tree,
    kept as the reference for it (with the two methods below)."""
    # parent edges by first appearance; standardization guarantees that
    # scanning rows in order meets every coset > 0 exactly once as "new"
    parent = {0: None}
    for a, row in enumerate(table.rows):
        for c, t in enumerate(row):
            if t not in parent:
                parent[t] = (a, c)
    return parent


def rescan_representative_words(table):
    parent = spanning_tree(table)
    reps = [None] * len(table.rows)
    reps[0] = Word()
    for coset in range(1, len(table.rows)):
        a, c = parent[coset]
        step = Word(((c // 2, 1 if c % 2 == 0 else -1),))
        reps[coset] = reps[a] * step
    return reps


def rescan_schreier_generators(table):
    parent = spanning_tree(table)
    reps = rescan_representative_words(table)
    out = []
    for a in range(len(table.rows)):
        for g in range(table.presentation.ngens):
            b = table.rows[a][2 * g]
            if parent.get(b) == (a, 2 * g) or parent.get(a) == (b, 2 * g + 1):
                continue
            word = reps[a] * Word(((g, 1),)) * reps[b].inverse()
            out.append((a, g, word))
    return out


def pass_rs(presentation, table):
    """reidemeister_schreier as it was before the kill passes reduced
    relators in place: an edge_index dict, a Word per rewritten relator,
    and every relator rebuilt on every pass that kills. Kept as the
    reference for the output."""
    edges = table.schreier_edges()
    edge_index = {edge: k for k, edge in enumerate(edges)}
    rows = table.rows
    relator_columns = [_columns(rel) for rel in presentation.relators]
    rewritten = []
    for alpha in range(table.index):
        for columns in relator_columns:
            cur = alpha
            syls = []
            for c in columns:
                nxt = rows[cur][c]
                if c & 1:
                    k = edge_index.get((nxt, c >> 1))
                    if k is not None:
                        syls.append((k, -1))
                else:
                    k = edge_index.get((cur, c >> 1))
                    if k is not None:
                        syls.append((k, 1))
                cur = nxt
            if cur != alpha:
                raise RuntimeError("relator trace did not close")  # unreachable
            rewritten.append(Word(tuple(syls)))

    # Deleting a set K of generators and then reducing freely is the
    # free-group retraction that kills K. That map is unique and composes
    # over unions, so a relator whose image is x^+-1 keeps that image, or
    # becomes empty, as K grows. The killed set is therefore the least
    # fixpoint whatever the order of kills, and each pass kills every
    # generator that a single-letter relator trivializes at once.
    killed = set()
    rels = rewritten
    while True:
        rels = [w for w in rels if w.syllables]
        victims = {w.syllables[0][0] for w in rels
                   if len(w.syllables) == 1 and abs(w.syllables[0][1]) == 1}
        if not victims:
            break
        killed |= victims
        rels = [Word(tuple(s for s in w.syllables if s[0] not in victims))
                for w in rels]

    alive = [k for k in range(len(edges)) if k not in killed]
    remap = {old: new for new, old in enumerate(alive)}
    names = tuple(f"x{k}" for k in alive)
    relators = tuple(Word(tuple((remap[g], e) for g, e in w.syllables))
                     for w in rels)
    return FpPresentation(names, relators)


def one_victim_rs(presentation, table):
    """reidemeister_schreier with the simplification that killing every
    trivialized generator of a pass at once replaced: one kill per pass,
    then every relator rebuilt. Kept as the reference for the killed set
    and the relator order."""
    sgens = table.schreier_generators()
    edge_index = {(a, g): k for k, (a, g, _) in enumerate(sgens)}
    rows = table.rows
    relator_columns = [_columns(rel) for rel in presentation.relators]
    rels = []
    for alpha in range(table.index):
        for columns in relator_columns:
            cur = alpha
            syls = []
            for c in columns:
                nxt = rows[cur][c]
                if c & 1:
                    k = edge_index.get((nxt, c >> 1))
                    if k is not None:
                        syls.append((k, -1))
                else:
                    k = edge_index.get((cur, c >> 1))
                    if k is not None:
                        syls.append((k, 1))
                cur = nxt
            rels.append(Word(tuple(syls)))
    killed = set()
    while True:
        rels = [w for w in rels if w.syllables]
        victim = None
        for w in rels:
            g, e = w.syllables[0]
            if len(w.syllables) == 1 and abs(e) == 1:
                victim = g
                break
        if victim is None:
            break
        killed.add(victim)
        rels = [Word(tuple(s for s in w.syllables if s[0] != victim)) for w in rels]
    alive = [k for k in range(len(sgens)) if k not in killed]
    remap = {old: new for new, old in enumerate(alive)}
    return FpPresentation(tuple(f"x{k}" for k in alive),
                          tuple(Word(tuple((remap[g], e) for g, e in w.syllables))
                                for w in rels))


def parabolics(p):
    """Every subgroup generated by a subset of the generators, as words."""
    for mask in range(1 << p.ngens):
        yield [p.word(name) for k, name in enumerate(p.generators) if mask >> k & 1]


def rs_corpus():
    """(presentation, closed coset table) pairs: S_4 and S_5 Coxeter
    presentations over every parabolic subgroup and S_6 over those of
    index <= 30 (the reference needs 0.5 s at index 60 and 28 s at index
    360), the fuzz cases, seeded relator orders of S_5 and S_6 over the
    parabolics of orders 6, 12, 36 and 48 (the benchmark's `rs` inputs),
    and the C^p kernels of torus knot groups (its `cp-kernel` inputs)."""
    for n in (4, 5, 6):
        p = coxeter(n)
        for words in parabolics(p):
            table = todd_coxeter(p, words)
            if n < 6 or table.index <= 30:
                yield p, table
    for p, _, words in fuzz_cases():
        yield p, todd_coxeter(p, words)
    rng = random.Random(1729)
    for n, orders in ((5, (6, 12)), (6, (36, 48))):
        p = coxeter(n)
        for _ in range(3):
            relators = list(p.relators)
            rng.shuffle(relators)
            shuffled = FpPresentation(p.generators, relators)
            for words in parabolics(shuffled):
                table = todd_coxeter(shuffled, words)
                if factorial(n) // table.index in orders:
                    yield shuffled, table
    for m, n, q in itertools.product((3, 5, 7), (2, 3, 4), (2, 3, 5, 7)):
        p = parse_presentation(f"< a, b | a^{m} = b^{n} >")
        yield p, cp_kernel_coset_table(p, q)


def test_rs_kill_sets_match_one_victim_reference():
    count = 0
    for p, table in rs_corpus():
        sub = reidemeister_schreier(p, table)
        assert sub == one_victim_rs(p, table) == pass_rs(p, table), \
            (str(p), table.index)
        # the tree recorded by validation, and everything read from it
        assert dict(enumerate(table._parent)) == spanning_tree(table)
        sgens = rescan_schreier_generators(table)
        assert table.schreier_generators() == sgens
        assert table.schreier_edges() == [(a, g) for a, g, _ in sgens]
        assert len(sgens) == table.index * p.ngens - table.index + 1
        count += 1
    assert count == 8 + 16 + 9 + 36 + 3 * (5 + 3) + 36


def test_rs_s6_coxeter_trivial_subgroup_in_bounded_time():
    # 2881 Schreier generators and 10800 rewritten relators, all of them
    # killed; the one-kill-per-pass loop took 94 s on a 2-vCPU VM
    p = coxeter(6)
    start = time.perf_counter()
    sub = reidemeister_schreier(p, todd_coxeter(p))
    assert time.perf_counter() - start < 10
    assert sub == FpPresentation((), ())


def test_abelianization_examples():
    assert abelianization(parse_presentation("< a, b | a^3 = b^2 >")) == Z
    assert abelianization(parse_presentation("< a, b | a^3, b^2 >")) == \
        AbelianStructure(torsion=(6,))
    assert abelianization(parse_presentation("< a, b | >")) == \
        AbelianStructure(free_rank=2)


def test_todd_coxeter_subgroup_word_edge_cases():
    z5 = parse_presentation("< a | a^5 >")
    assert todd_coxeter(z5, [z5.word("a")]).index == 1
    # a^5 is trivial in the group, so the subgroup it generates is too
    assert todd_coxeter(z5, [z5.word("a^5")]).index == 5
    assert todd_coxeter(z5, [z5.word("a^2")]).index == 1  # gcd(2, 5) = 1


def test_todd_coxeter_regular_representation_presentations():
    # gens = all elements, relators = the whole multiplication table; the
    # enumeration must recover the group order despite massive redundancy
    from cpgroups.perm import cyclic_group, klein_four_group, symmetric_group
    for group in [cyclic_group(6), symmetric_group(3), klein_four_group()]:
        elements = group.elements()
        index = {x: i for i, x in enumerate(elements)}
        names = tuple(f"g{i}" for i in range(len(elements)))
        relators = []
        for i, x in enumerate(elements):
            for j, y in enumerate(elements):
                relators.append(Word(((i, 1), (j, 1), (index[x * y], -1))))
        presentation = FpPresentation(names, tuple(relators))
        assert todd_coxeter(presentation).index == group.order()


def test_schreier_generator_words_generate_the_kernel():
    p = parse_presentation("< a, b | a^3 = b^2 >")
    images = [parse_cycles("(1 2 3)"), parse_cycles("(1 2)", 3)]
    table = kernel_coset_table(p, images)
    for _, _, word in table.schreier_generators():
        assert evaluate_word(word, images).is_identity()
