import itertools
import random
import time
import tracemalloc
from collections import Counter
from math import factorial

import pytest

from cpgroups.cp import cp_kernel_coset_table
from cpgroups.errors import BudgetExhausted, CapExceeded, PresentationSyntaxError
from cpgroups.fp import (DEFAULT_MAX_COSETS, CosetTable, FpPresentation, Word,
                         _columns, _Enumerator, _primitive_period,
                         abelianization, coset_table_from_action, evaluate_word,
                         kernel_coset_table, parse_presentation, parse_word,
                         reidemeister_schreier, todd_coxeter, verify_hom)
from cpgroups.homalg import AbelianStructure, Z
from cpgroups.perm import Perm, _first_appearance, parse_cycles

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


class RowEnumerator:
    """The row-major enumerator that the column one replaced: table[a][c],
    every rotation of a relator as its own tuple, one `scan` call per
    rotation and `find` on every entry a scan reads. Kept as the reference
    for the column enumerator's tables, definitions and budget messages."""

    def __init__(self, presentation, subgroup_words, max_cosets):
        self.ngens = presentation.ngens
        self.cols = 2 * self.ngens
        self.max_cosets = max_cosets
        self.table = [[None] * self.cols]
        self.p = [0]
        # every live row below the cursor is complete (see first_undefined)
        self.cursor = 0
        self.deductions = []
        # each distinct cyclic rotation of a relator, bucketed by its first
        # letter in relator order; rotation k + period repeats rotation k
        self.rot_by_first = {}
        seen = set()
        for rel in presentation.relators:
            letters = _columns(rel)
            for k in range(_primitive_period(letters) if letters else 0):
                rot = letters[k:] + letters[:k]
                if rot not in seen:
                    seen.add(rot)
                    self.rot_by_first.setdefault(rot[0], []).append(rot)
        self.subgroup_letters = [_columns(w) for w in subgroup_words]

    def find(self, i):
        r = i
        p = self.p
        while p[r] != r:
            r = p[r]
        while p[i] != r:
            p[i], i = r, p[i]
        return r

    def define(self, a, c):
        if len(self.table) >= self.max_cosets:
            live = sum(1 for i, r in enumerate(self.p) if i == r)
            raise BudgetExhausted(
                f"coset budget {self.max_cosets} exhausted with {live} live "
                "cosets; index unknown (possibly infinite)")
        b = len(self.table)
        self.table.append([None] * self.cols)
        self.p.append(b)
        self.table[a][c] = b
        self.table[b][c ^ 1] = a
        self.deductions.append((a, c))

    def _merge(self, a, b, queue):
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        queue.append(b)

    def coincide(self, a, b):
        queue = []
        self._merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            row = self.table[dead]
            for c in range(self.cols):
                d = row[c]
                if d is None:
                    continue
                row[c] = None
                if self.table[d][c ^ 1] == dead:
                    # the only place an entry of a possibly live row is
                    # emptied, so the cursor invariant is restored here
                    self.table[d][c ^ 1] = None
                    if d < self.cursor:
                        self.cursor = d
                mu = self.find(dead)
                nu = self.find(d)
                if self.table[mu][c] is not None:
                    self._merge(self.find(self.table[mu][c]), nu, queue)
                elif self.table[nu][c ^ 1] is not None:
                    self._merge(self.find(self.table[nu][c ^ 1]), mu, queue)
                else:
                    self.table[mu][c] = nu
                    self.table[nu][c ^ 1] = mu
                    self.deductions.append((mu, c))

    def scan(self, alpha, letters, fill=False):
        """Trace `letters` from alpha back to alpha, deducing or coinciding.

        Returns True once the scan is complete or produced a deduction;
        False if a gap of length >= 2 remains (never with fill=True).
        """
        table, p = self.table, self.p
        f = alpha if p[alpha] == alpha else self.find(alpha)
        b = f
        i, j = 0, len(letters) - 1
        while True:
            while i <= j:
                t = table[f][letters[i]]
                if t is None:
                    break
                f = t if p[t] == t else self.find(t)
                i += 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                return True
            while j >= i:
                t = table[b][letters[j] ^ 1]
                if t is None:
                    break
                b = t if p[t] == t else self.find(t)
                j -= 1
            if j < i:
                if f != b:
                    self.coincide(f, b)
                return True
            if j == i:
                table[f][letters[i]] = b
                table[b][letters[i] ^ 1] = f
                self.deductions.append((f, letters[i]))
                return True
            if not fill:
                return False
            self.define(f, letters[i])

    def process_deductions(self):
        p = self.p
        while self.deductions:
            a, c = self.deductions.pop()
            if p[a] != a:
                a = self.find(a)
            for rot in self.rot_by_first.get(c, ()):
                self.scan(a, rot)
            t = self.table[a][c]
            if t is not None:
                b = t if p[t] == t else self.find(t)
                for rot in self.rot_by_first.get(c ^ 1, ()):
                    self.scan(b, rot)

    def first_undefined(self):
        """The lowest undefined entry of the lowest live coset, or None.

        Scans from the cursor and leaves it at the row returned (or at the
        end of the table when it is complete).
        """
        table, p = self.table, self.p
        for a in range(self.cursor, len(table)):
            if p[a] == a:
                row = table[a]
                for c in range(self.cols):
                    if row[c] is None:
                        self.cursor = a
                        return a, c
        self.cursor = len(table)
        return None

    def run(self):
        for letters in self.subgroup_letters:
            if letters:
                self.scan(0, letters, fill=True)
                self.process_deductions()
        while True:
            self.process_deductions()
            pos = self.first_undefined()
            if pos is None:
                break
            self.define(*pos)
        # Every entry is written with its mirror (table[b][c ^ 1] = a when
        # table[a][c] = b), and a dying coset's row clears its entries'
        # mirrors, so in the closed table a live row points only at live
        # cosets and the walk reads the entries as they are. Every live
        # coset has a row, so the state cap never trips here.
        table = self.table
        return _first_appearance(0, self.cols, lambda a, c: table[a][c],
                                 len(table))[2]


class RescanEnumerator(RowEnumerator):
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


def table_rows(enum):
    """An enumerator's table as rows: the column enumerator's
    table[a][c] = columns[c][a], or a `RowEnumerator`'s own table."""
    if isinstance(enum, RowEnumerator):
        return enum.table
    return [list(row) for row in zip(*enum.columns)]


def compacted_standardized_rows(enum):
    """The rows of a closed enumeration as the compaction pass at the end of
    `_Enumerator.run` and a separate `_standardize` used to number them,
    before one first-appearance walk replaced both. Kept as the reference
    for that walk."""
    table = table_rows(enum)
    live = [i for i in range(len(table)) if enum.p[i] == i]
    renum = {old: new for new, old in enumerate(live)}
    return _standardize([[renum[enum.find(t)] for t in table[old]] for old in live])


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


def find_per_entry_rows(enum):
    """The rows of a closed enumeration as `_Enumerator.run` walked them
    before it read the entries directly: `find` on every entry. Kept as
    the reference for the direct walk, which relies on live rows pointing
    only at live cosets."""
    table = table_rows(enum)
    return _first_appearance(0, enum.cols, lambda a, c: enum.find(table[a][c]),
                             len(table))[2]


def test_cursor_enumeration_matches_full_rescan():
    count = with_dead_cosets = 0
    for p, words in cursor_corpus():
        fast = _Enumerator(p, words, 10_000)
        slow = RescanEnumerator(p, words, 10_000)
        rows = fast.run()
        assert rows == slow.run(), (p, words)
        assert [tuple(r) for r in rows] == compacted_standardized_rows(fast), (p, words)
        assert rows == find_per_entry_rows(fast), (p, words)
        assert len(fast.p) == len(slow.table), (p, words)
        count += 1
        with_dead_cosets += len(fast.p) > len(rows)
    assert count == 8 + 16 + 32 + 2 * 4 + 36
    assert with_dead_cosets >= 20


def list_scan_rotations(presentation):
    """The relator rotations as `_Enumerator.__init__` built them before it
    deduplicated by primitive period: every rotation of every relator, each
    looked up in its bucket by a list scan. Kept as the reference for the
    buckets' contents and order, which decide the scan order."""
    rot_by_first = {}
    for rel in presentation.relators:
        letters = _columns(rel)
        for k in range(len(letters)):
            rot = letters[k:] + letters[:k]
            bucket = rot_by_first.setdefault(rot[0], [])
            if rot not in bucket:
                bucket.append(rot)
    return rot_by_first


def rotations(enum):
    """The column enumerator's buckets with each rotation written out as
    the tuple of its letters' columns, as `list_scan_rotations` gives them."""
    return {c: [letters[i:j + 1] for i, j, letters, _, _ in bucket]
            for c, bucket in enum.rot_by_first.items()}


def test_rotation_buckets_match_list_scan_reference():
    presentations = [p for p, _ in cursor_corpus()] + list(INFINITE.values())
    presentations += [realization(text, gens)[0] for text, gens in REALIZATIONS]
    presentations += [parse_presentation(text) for text in (
        # proper powers, cyclic conjugates of one another, repeats, the
        # empty relator and an inverse rotation
        "< a, b | a b a b, b a b a, a^6, a^2 a^-2, 1, a b a^-1 b^-1, b a b^-1 a^-1 >",
        "< a, b | a b^2 a b^2 a b^2, b a b a b^2, a^-1 b^-1 a^-1 b^-1, a b, b a >",
        "< x, y, z | x y z x y z, z x y, y^-3 x, x^2 y^2 x^2 y^2 >",
    )]
    for p in presentations:
        expected = list_scan_rotations(p)
        got = rotations(_Enumerator(p, (), 10))
        assert list(got.items()) == list(expected.items()), p
    # a power of one letter has one rotation, found in near-linear time
    start = time.perf_counter()
    enum = _Enumerator(parse_presentation("< a | a^10000 >"), (), 10)
    assert time.perf_counter() - start < 0.25
    assert rotations(enum) == {0: [(0,) * 10000]}


def enumeration_outcome(enum):
    """The rows of a closed enumeration, or the budget message, plus the
    table and union-find forest it ended with."""
    try:
        result = enum.run()
    except BudgetExhausted as exc:
        result = str(exc)
    return result, table_rows(enum), enum.p


def row_reference_corpus():
    """(presentation, subgroup words, budget) cases for the column
    enumerator against `RowEnumerator`."""
    for p, words in cursor_corpus():  # fuzz_cases() included
        yield p, words, 10_000
    for p in INFINITE.values():
        for budget in (50, 999, 1000, 4000):
            yield p, [], budget
    s7 = coxeter(7)
    for names in (["s0", "s1"], ["s0"]):  # parabolics of index 840 and 2520
        yield s7, [s7.word(name) for name in names], 10_000
    # a long relator that is not a proper power: b = a^-400, so the group
    # is infinite cyclic
    long_relator = parse_presentation("< a, b | a^200 b a^200 >")
    for words in ([], ["b"], ["a^7"], ["b a^3"]):
        yield long_relator, [long_relator.word(text) for text in words], 1000
    # coincidences that kill the start coset of a later rotation's scan
    for text, words in (("< a | a^2, a^-3, a^-1 >", []),
                        ("< a, b, c | c^-3 b^2 a^-2 c^-2, c^-3 a^2 b^-3, b^-1 >", ["b"])):
        p = parse_presentation(text)
        yield p, [p.word(word) for word in words], 300


def test_column_enumerator_matches_row_reference():
    indices = Counter()
    for p, words, budget in row_reference_corpus():
        got = enumeration_outcome(_Enumerator(p, words, budget))
        expected = enumeration_outcome(RowEnumerator(p, words, budget))
        # the same rows or budget message, the same cosets defined, and
        # the same table and forest at the end
        assert got == expected, (p, words, budget)
        if isinstance(got[0], str):
            indices["exhausted"] += 1
        else:
            indices[len(got[0])] += 1
    # only <a^7> closes on the long relator within its budget
    assert indices["exhausted"] == 12 + 3
    assert indices[840] == indices[2520] == indices[7] == 1


class CheckedEnumerator(_Enumerator):
    """The column enumerator, checking after every coincidence that dead
    rows are empty and live rows name only live cosets: the invariant that
    lets scans step without `find`."""

    coincidences = 0

    def coincide(self, a, b):
        super().coincide(a, b)
        self.coincidences += 1
        p = self.p
        for col in self.columns:
            for x, t in enumerate(col):
                if t is not None:
                    assert p[x] == x and p[t] == t, (x, t)


def test_live_rows_name_only_live_cosets_after_each_coincidence():
    with_dead_cosets = 0
    for p, words in cursor_corpus():
        enum = CheckedEnumerator(p, words, 10_000)
        rows = enum.run()
        assert (enum.coincidences > 0) == (len(enum.p) > len(rows)), (p, words)
        with_dead_cosets += len(enum.p) > len(rows)
    assert with_dead_cosets >= 20


def test_enumerator_setup_is_linear_in_relator_length():
    # 4,001 letters, not a proper power: 4,001 distinct rotations, each an
    # offset into the relator stored once (every rotation as its own tuple
    # took about 128 MB)
    p = parse_presentation("< a, b | a^2000 b a^2000 >")
    start = time.perf_counter()
    enum = _Enumerator(p, (), 10)
    assert time.perf_counter() - start < 0.1
    assert sum(map(len, enum.rot_by_first.values())) == 4001
    tracemalloc.start()
    try:
        _Enumerator(p, (), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("name", sorted(INFINITE))
def test_cursor_budget_matches_full_rescan(name):
    p = INFINITE[name]
    for budget in (100, 250, 600, 2000):
        outcomes = []
        for enum in (_Enumerator(p, (), budget), RescanEnumerator(p, (), budget)):
            with pytest.raises(BudgetExhausted) as info:
                enum.run()
            outcomes.append((str(info.value), table_rows(enum), enum.p))
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


def walk_validate(presentation, subgroup_words, rows):
    """`CosetTable._validate` as it was before it composed relator
    columns: one scan entry by entry, then every relator walked letter by
    letter from every coset. Kept as the reference for the composition;
    returns the spanning tree."""
    n = len(rows)
    cols = 2 * presentation.ngens
    if n == 0:
        raise ValueError("a coset table has at least one coset")
    if any(len(row) != cols for row in rows):
        raise ValueError("row width disagrees with the generator count")

    def walk(coset, columns):
        for c in columns:
            coset = rows[coset][c]
        return coset

    parent = [None]
    seen_max = 0
    for a, row in enumerate(rows):
        if a > seen_max:
            raise ValueError("table is not in first-appearance order")
        for c, t in enumerate(row):
            if not 0 <= t < n:
                raise ValueError(f"entry {t} out of range at ({a}, {c})")
            if rows[t][c ^ 1] != a:
                raise ValueError(f"column {c} is not a bijection at coset {a}")
            if t > seen_max:
                if t != seen_max + 1:
                    raise ValueError("table is not in first-appearance order")
                seen_max = t
                parent.append((a, c))
    for rel in presentation.relators:
        columns = _columns(rel)
        for a in range(n):
            if walk(a, columns) != a:
                raise ValueError(f"relator does not close at coset {a}")
    for w in subgroup_words:
        if walk(0, _columns(w)) != 0:
            raise ValueError("subgroup word does not fix coset 0")
    return tuple(parent)


def validation_outcomes(presentation, subgroup_words, rows):
    """(table's outcome, reference's outcome): the spanning tree, or the
    ValueError message."""
    outcomes = []
    for check in (lambda *args: CosetTable(*args)._parent, walk_validate):
        try:
            outcomes.append(check(presentation, subgroup_words, rows))
        except ValueError as exc:
            outcomes.append(str(exc))
    return outcomes


def random_word(rng, ngens):
    """A random word; a third of them a proper power of a random root."""
    root = Word(tuple((rng.randrange(ngens), rng.choice([-3, -2, -1, 1, 2, 5]))
                      for _ in range(rng.randint(1, 4))))
    return root ** rng.choice([1, 1, 2, 3, 4, 6])


def test_validation_matches_walk_reference():
    rng = random.Random(27)
    count = 0
    kinds = Counter()
    for p, words in cursor_corpus():
        rows = todd_coxeter(p, words).rows
        fast, slow = validation_outcomes(p, words, rows)
        assert fast == slow and isinstance(fast, tuple), (p, words)
        n, width = len(rows), len(rows[0])
        for _ in range(4):
            # one entry changed, possibly out of range on either side
            a, c = rng.randrange(n), rng.randrange(width)
            t = rng.choice([x for x in range(-1, n + 1) if x != rows[a][c]])
            mutated = [list(row) for row in rows]
            mutated[a][c] = t
            fast, slow = validation_outcomes(p, words, mutated)
            assert fast == slow and isinstance(fast, str), (p, words, a, c, t)
            # a random extra relator, which may or may not close
            extra = FpPresentation(p.generators, p.relators + (random_word(rng, p.ngens),))
            fast, slow = validation_outcomes(extra, words, rows)
            assert fast == slow, (extra, words)
            kinds["relator", isinstance(fast, str)] += 1
            # a random subgroup word, which may or may not fix coset 0
            more = list(words) + [random_word(rng, p.ngens)]
            fast, slow = validation_outcomes(p, more, rows)
            assert fast == slow, (p, more)
            kinds["subgroup word", isinstance(fast, str)] += 1
        count += 1
    assert count == 100
    # each kind of extra word both closes and fails on many tables
    assert min(kinds.values()) >= 50 and len(kinds) == 4, kinds


def test_validation_composes_powers_of_long_relators():
    # Z_10000, whose one relator is a power of a single letter
    z = parse_presentation("< a | a^10000 >")
    rows = coset_table_from_action(z, 0, lambda s, g, sign: (s + sign) % 10000,
                                   10_000).rows
    start = time.perf_counter()
    CosetTable(z, (), rows)
    assert time.perf_counter() - start < 0.5
    # exponents that do and do not kill Z_12, against the letter walk
    z12 = coset_table_from_action(parse_presentation("< a | a^12 >"), 0,
                                  lambda s, g, sign: (s + sign) % 12, 12).rows
    for e in (12, 1200, -1200, 1201, 1206, -6, 12 * 997):
        for text in (f"< a | a^{e} >", f"< a | a^{e} a^{e} a^{e} >",
                     f"< a | a^2 a^{e} a^2 a^{e} >"):
            p = parse_presentation(text)
            fast, slow = validation_outcomes(p, (), z12)
            assert fast == slow, text
    assert validation_outcomes(parse_presentation("< a | a^1201 >"), (), z12)[0] == \
        "relator does not close at coset 0"


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
    with pytest.raises(CapExceeded, match="exceeds cap 1000000"):
        evaluate_word(p.relators[0], [Perm.identity(1)])


def letter_evaluate(word, images):
    """`evaluate_word` as it was before it composed syllables by
    `_word_action`: one Perm product per letter. Kept as its reference."""
    if not images:
        raise ValueError("no images to evaluate at")
    steps = [x for g in images for x in (g, g.inverse())]
    out = Perm.identity(images[0].degree)
    for c in _columns(word):
        out = out * steps[c]
    return out


def test_evaluate_word_matches_letter_reference():
    count = 0
    for p, perms, words in fuzz_cases():
        for word in words + list(p.relators):
            assert evaluate_word(word, perms) == letter_evaluate(word, perms), (p, word)
            count += 1
    # seeded words with exponents up to 10^5, a third of them proper powers
    rng = random.Random(33)
    for _ in range(20):
        degree, ngens = rng.randint(1, 9), rng.randint(1, 3)
        perms = [Perm(rng.sample(range(degree), degree)) for _ in range(ngens)]
        root = Word(tuple((rng.randrange(ngens),
                           rng.choice([-1, 1]) * rng.choice([1, 2, 3, rng.randint(1, 10 ** 5)]))
                          for _ in range(rng.randint(1, 4))))
        word = root ** rng.choice([1, 1, 2, 3])
        assert evaluate_word(word, perms) == letter_evaluate(word, perms), (perms, word)
        count += 1
    assert count == 198
    assert evaluate_word(Word(((0, 10 ** 5),)), [Perm((1, 2, 0))]) == Perm((1, 2, 0))
    assert evaluate_word(Word(), [Perm((1, 0))]) == Perm.identity(2)


def test_evaluate_word_refuses_bad_images():
    a, b = parse_cycles("(1 2 3)"), parse_cycles("(1 2)")
    with pytest.raises(ValueError, match="no images"):
        evaluate_word(Word(), [])
    # refused whatever the word, even one that never multiplies a by b
    for word in (Word(), Word(((0, 1),)), Word(((0, 1), (1, 1)))):
        with pytest.raises(ValueError, match="mixed degrees"):
            evaluate_word(word, [a, b])
    with pytest.raises(ValueError, match="mixed degrees"):
        verify_hom(parse_presentation("< a, b | >"), [a, b])


def test_word_powers_and_substitution_match_iterated_products():
    def product(factors):
        out = Word()
        for x in factors:
            out = out * x
        return out

    rng = random.Random(34)
    for _ in range(150):
        ngens = rng.randint(1, 3)
        u = random_word(rng, ngens)
        v = random_word(rng, ngens)
        for word in (u, v * u * v.inverse(), u * v.inverse() ** 2):
            for k in range(-5, 6):
                factor = word if k > 0 else word.inverse()
                assert word ** k == product([factor] * abs(k)), (word, k)
        images = [random_word(rng, ngens) for _ in range(ngens)]
        images[0] = v * images[0] * v.inverse()  # cancels across the seams
        expected = product(images[g] if e > 0 else images[g].inverse()
                           for g, e in u.syllables for _ in range(abs(e)))
        assert u.substitute(images) == expected, (u, images)


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
