import inspect
import itertools
import random
import tracemalloc
from math import gcd

import pytest

from cpgroups import perm
from cpgroups.cp import cp_subgroup
from cpgroups.errors import BudgetExhausted, CapExceeded
from cpgroups.perm import (DEFAULT_AUT_NODE_BUDGET, DEFAULT_AUT_ORDER_CAP,
                           Perm, PermGroup, _first_appearance,
                           _reduce_generators, _StabilizerChain,
                           alternating_group, aut_group_search, center,
                           centralizer, commutator,
                           cyclic_group, derived_subgroup, dihedral_group,
                           direct_product, format_cycles, klein_four_group,
                           normal_closure, parse_cycles,
                           quotient_regular_action, symmetric_group,
                           trivial_group)

from corpus import coprime_product, small_groups
from oracles import _conjugator, mulclose


def test_cycle_parse_and_format():
    p = parse_cycles("(1 2 3)(4 5)")
    assert p.images == (1, 2, 0, 4, 3)
    assert format_cycles(p) == "(1 2 3)(4 5)"
    assert str(parse_cycles("( 1  2 )")) == "(1 2)"
    assert parse_cycles("()").is_identity()
    assert format_cycles(Perm.identity(5)) == "()"
    assert parse_cycles("(1 2 3)", degree=6).degree == 6


def test_cycle_parse_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1 2")
    with pytest.raises(ValueError):
        parse_cycles("(0 1)")
    with pytest.raises(ValueError):
        parse_cycles("(1 1 2)")
    with pytest.raises(ValueError):
        parse_cycles("(1 2 3)", degree=2)
    # the degree cap holds before the image list (megabytes at 10^6) is built
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="degree 1000000 exceeds cap 64"):
            parse_cycles("(1 1000000)")
        with pytest.raises(CapExceeded, match="degree 1000000 exceeds cap 64"):
            parse_cycles("(1 2)", degree=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert parse_cycles("(1 64)").degree == 64


def test_product_reads_left_to_right():
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(1 3)", 3)
    # apply (1 2) first, then (1 3)
    assert (a * b) == parse_cycles("(1 2 3)", 3)
    assert a * a.inverse() == Perm.identity(3)
    c = parse_cycles("(1 2 3 4 5)")
    assert c ** 5 == Perm.identity(5)
    assert c ** -1 == c.inverse()
    assert c.order() == 5
    assert parse_cycles("(1 2 3)(4 5)").order() == 6
    assert Perm.identity(4).order() == 1


def test_degree_mismatch_raises():
    with pytest.raises(ValueError):
        parse_cycles("(1 2)") * parse_cycles("(1 2 3)")
    with pytest.raises(ValueError):
        symmetric_group(4).contains(parse_cycles("(1 2 3 4 5)"))


def test_group_order_examples():
    s4 = PermGroup(4, [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)")])
    assert s4.order() == 24
    assert PermGroup(3, ()).order() == 1
    a6 = PermGroup(6, [parse_cycles("(1 2 3)", 6), parse_cycles("(2 3 4 5 6)", 6)])
    assert a6.order() == len(mulclose(list(a6.generators)))
    assert a6.order() == 360


def test_order_and_membership_match_bruteforce_closure():
    rng = random.Random(3)
    groups = [symmetric_group(3), symmetric_group(4), alternating_group(4),
              alternating_group(5), klein_four_group(), cyclic_group(24),
              dihedral_group(4), dihedral_group(7), dihedral_group(10),
              direct_product(symmetric_group(3), cyclic_group(2)),
              direct_product(klein_four_group(), cyclic_group(5))]
    for g in groups:
        closure = mulclose(list(g.generators))
        assert g.order() == len(closure) <= 200
        for images in sorted(closure):
            assert Perm(images) in g
        for _ in range(20):
            images = list(range(g.degree))
            rng.shuffle(images)
            candidate = Perm(images)
            assert (candidate in g) == (candidate.images in closure)


def test_degree_cap():
    big = PermGroup(70, [Perm(tuple(range(1, 70)) + (0,))])
    with pytest.raises(CapExceeded):
        big.order()
    with pytest.raises(CapExceeded):
        big.elements()
    # subgroups that receive a ready-built chain keep the cap too
    with pytest.raises(CapExceeded):
        normal_closure(big, []).order()
    with pytest.raises(CapExceeded):
        _reduce_generators(big, [Perm.identity(70)]).order()
    assert PermGroup(70, [Perm(tuple(range(1, 70)) + (0,))],
                     degree_cap=None).order() == 70


def test_membership_examples():
    a4 = alternating_group(4)
    assert not a4.contains(parse_cycles("(1 2)", 4))
    assert a4.contains(Perm.identity(4))
    assert klein_four_group().contains(parse_cycles("(1 2)(3 4)"))


def test_derived_subgroup():
    assert derived_subgroup(symmetric_group(4)).equals_subgroup(alternating_group(4))
    assert derived_subgroup(cyclic_group(12)).is_trivial()
    assert derived_subgroup(alternating_group(4)).equals_subgroup(klein_four_group())


def test_derived_subgroup_is_normal_with_abelian_quotient():
    for g in [symmetric_group(4), dihedral_group(6), alternating_group(5)]:
        d = derived_subgroup(g)
        for x in g.generators:
            for h in d.generators:
                assert (x * h * x.inverse()) in d
        q = quotient_regular_action(g, d).group
        assert q.is_abelian()


def test_center_and_centralizer():
    assert center(symmetric_group(3)).is_trivial()
    z6 = cyclic_group(6)
    assert center(z6).order() == 6
    g = direct_product(symmetric_group(3), cyclic_group(2))
    h = direct_product(symmetric_group(3), trivial_group(2))
    c = centralizer(g, h)
    assert c.order() == 2
    # brute-force oracle: elements commuting with everything in h
    commuting = [x for x in g.elements()
                 if all(x * y == y * x for y in h.elements())]
    assert len(commuting) == 2
    with pytest.raises(ValueError):
        centralizer(symmetric_group(3), symmetric_group(4))


def test_normal_closure():
    s4 = symmetric_group(4)
    assert normal_closure(s4, [parse_cycles("(1 2 3)", 4)]) \
        .equals_subgroup(alternating_group(4))
    assert normal_closure(s4, []).is_trivial()
    assert normal_closure(s4, [parse_cycles("(1 2)", 4)]).order() == 24
    with pytest.raises(ValueError):
        normal_closure(alternating_group(4), [parse_cycles("(1 2)", 4)])


def frontier_normal_closure(group, seeds):
    """The round-based normal closure that `normal_closure` replaced, kept
    verbatim as its reference: it keeps every distinct seed and every
    conjugate not yet in the chain when it was tested."""
    gens = []
    for s in seeds:
        if not group.contains(s):
            raise ValueError(f"element {s} is not in the group")
        if not s.is_identity() and s not in gens:
            gens.append(s)
    chain = _StabilizerChain(group.degree, gens)
    conjugators = [(g.inverse(), g) for g in group.generators]
    # conjugates of older generators were tested in earlier rounds, so each
    # round conjugates only the generators the previous round added
    frontier = gens
    while frontier:
        new = []
        seen = set()
        for h in frontier:
            for ginv, g in conjugators:
                c = ginv * h * g
                if c.images not in seen and not chain.contains(c):
                    seen.add(c.images)
                    new.append(c)
        chain.extend(new)
        gens = gens + new
        frontier = new
    return group._make_subgroup(gens, chain)


def _series_levels(group, p, depth):
    """The group and its first `depth` levels of C^p."""
    levels = [group]
    for _ in range(depth):
        levels.append(cp_subgroup(levels[-1], p))
    return levels


def test_normal_closure_matches_frontier_reference():
    rng = random.Random(4711)
    for group in small_groups():
        elements = group.elements()
        for k in range(4):
            # repeats and the identity among the seeds too
            seeds = [rng.choice(elements) for _ in range(k)] + [elements[0]]
            fast = normal_closure(group, seeds)
            assert fast.equals_subgroup(frontier_normal_closure(group, seeds)), \
                (group, seeds)
    # the reference takes seconds from A_6's third level on
    for group in (alternating_group(6), symmetric_group(8)):
        for level in _series_levels(group, 2, 2):
            gens = level.generators
            seeds = [commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]]
            assert normal_closure(level, seeds).equals_subgroup(
                frontier_normal_closure(level, seeds)), level


def _has_at_most_log2_generators(sub):
    return 2 ** len(sub.generators) <= sub.order()


def test_subgroup_generators_are_at_most_log2_of_the_order():
    rng = random.Random(815)
    for group in small_groups():
        seeds = [rng.choice(group.elements()) for _ in range(3)]
        subs = [normal_closure(group, seeds), derived_subgroup(group)]
        subs += [cp_subgroup(group, p) for p in (1, 2, 3, 4, 6)]
        for sub in subs:
            assert _has_at_most_log2_generators(sub), (group, sub)
    for group in (alternating_group(6), symmetric_group(8)):
        for level in _series_levels(group, 2, 6):
            assert _has_at_most_log2_generators(level), level
            assert _has_at_most_log2_generators(derived_subgroup(level)), level


def _cayley(degree, generators):
    """Breadth-first walk of the Cayley graph from the identity.

    Returns (elements, index, right, parent, pgen): the elements in walk
    order, the position of each, right[k][i] = position of elements[i] *
    generators[k], and for i > 0 the tree edge elements[i] =
    elements[parent[i]] * generators[pgen[i]] with parent[i] < i.

    The walk that the shared _first_appearance replaced, kept as its
    reference.
    """
    identity = Perm.identity(degree)
    elements = [identity]
    index = {identity: 0}
    right = [[] for _ in generators]
    parent = [0]
    pgen = [-1]
    for i, x in enumerate(elements):  # the list grows while it is walked
        for k, g in enumerate(generators):
            y = x * g
            j = index.get(y)
            if j is None:
                j = index[y] = len(elements)
                elements.append(y)
                parent.append(i)
                pgen.append(k)
            right[k].append(j)
    return elements, index, right, parent, pgen


def test_elements_walk_matches_closure():
    for group in small_groups():
        elements = group.elements()
        gens = list(group.generators) or [Perm.identity(group.degree)]
        assert {x.images for x in elements} == mulclose(gens), group
        assert len(elements) == group.order(), group
        # the tree edges and right-multiplication columns of the same walk
        walk, index, right, parent, pgen = _cayley(group.degree, group.generators)
        assert tuple(walk) == elements
        assert all(index[x] == i for i, x in enumerate(walk))
        for i in range(1, len(walk)):
            assert parent[i] < i
            assert walk[i] == walk[parent[i]] * group.generators[pgen[i]]
        for k, g in enumerate(group.generators):
            assert [walk[j] for j in right[k]] == [x * g for x in walk]
    # the shared walk numbers the Cayley graph exactly as the reference
    groups = small_groups() + [g for _, g, _ in aut_reference_corpus()]
    for group in groups:
        gens = group.generators
        states, labels, rows, tree = _first_appearance(
            Perm.identity(group.degree), len(gens), lambda x, k: x * gens[k])
        walk, index, right, parent, pgen = _cayley(group.degree, gens)
        assert states == walk and labels == index, group
        assert len(rows) == len(walk), group
        assert [[row[k] for row in rows] for k in range(len(gens))] == right, group
        assert tree[1:] == list(zip(parent[1:], pgen[1:])), group
    # no columns: the initial state alone; a state cap raises CapExceeded
    assert _first_appearance("x", 0, None) == (["x"], {"x": 0}, [[]], [None])
    gens = symmetric_group(4).generators
    with pytest.raises(CapExceeded, match="exceeds 23 states"):
        _first_appearance(Perm.identity(4), 2, lambda x, k: x * gens[k], 23)
    assert len(_first_appearance(Perm.identity(4), 2,
                                 lambda x, k: x * gens[k], 24)[0]) == 24


def test_quotient_regular_action():
    s4 = symmetric_group(4)
    assert quotient_regular_action(s4, alternating_group(4)).group.order() == 2
    assert quotient_regular_action(s4, s4).group.order() == 1
    qa = quotient_regular_action(s4, klein_four_group())
    assert qa.group.order() == 6
    assert not qa.group.is_abelian()
    # the quotient map is a homomorphism: spot check on coset multiplication
    rng = random.Random(5)
    elements = s4.elements()
    for _ in range(50):
        x, y = rng.choice(elements), rng.choice(elements)
        assert qa.image_of(x * y) == qa.image_of(x) * qa.image_of(y)
    assert s4.order() == klein_four_group().order() * qa.group.order()


def test_quotient_requires_normal_subgroup():
    s4 = symmetric_group(4)
    sub = PermGroup(4, [parse_cycles("(1 2)", 4)])
    with pytest.raises(ValueError):
        quotient_regular_action(s4, sub)


def test_direct_product():
    g = direct_product(symmetric_group(3), cyclic_group(2))
    assert g.order() == 12 and g.degree == 5
    t = direct_product(symmetric_group(3), trivial_group(1))
    assert t.order() == 6
    v = direct_product(cyclic_group(2), cyclic_group(2))
    assert v.order() == 4
    assert all(x.order() <= 2 for x in v.elements())


def test_aut_s3_all_inner():
    aset = aut_group_search(symmetric_group(3))
    assert aset.complete
    assert len(aset.maps) == 6
    assert aset.inner_order() == 6
    # oracle: images (t, c) with t a transposition, c a 3-cycle, relations
    # t^2 = c^3 = (tc)^2 = 1 always hold, and any such pair generates S_3
    s3 = mulclose([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)")])
    transpositions = [x for x in s3 if sorted(x) == [0, 1, 2] and
                      sum(1 for i, v in enumerate(x) if v != i) == 2]
    threecycles = [x for x in s3 if sum(1 for i, v in enumerate(x) if v != i) == 3]
    assert len(transpositions) * len(threecycles) == 6


def test_aut_z2_trivial():
    aset = aut_group_search(cyclic_group(2))
    assert aset.complete and len(aset.maps) == 1


def test_aut_set_is_closed_and_contains_inner():
    g = alternating_group(4)
    aset = aut_group_search(g)
    assert aset.complete
    assert len(aset.maps) == 24  # Aut(A_4) = S_4
    assert len(aset.maps) % aset.inner_order() == 0
    perm_group = aset.as_perm_group()
    assert perm_group.order() == len(aset.maps)
    rng = random.Random(9)
    for _ in range(20):
        m1, m2 = rng.choice(aset.maps), rng.choice(aset.maps)
        assert (m1 * m2) in aset.maps
        # the permutation group acts on a few classes of A_4, and
        # restricting the maps to them is a homomorphism into it
        assert aset._restrict(m1 * m2) == aset._restrict(m1) * aset._restrict(m2)
        assert aset._restrict(m1 * m2) in perm_group
    for x in g.generators:
        assert aset.conjugation_map(x) in perm_group


def test_aut_apply_matches_generator_images():
    g = symmetric_group(3)
    aset = aut_group_search(g)
    for m in aset.maps:
        for x in g.elements():
            for y in g.elements():
                assert aset.apply(m, x * y) == aset.apply(m, x) * aset.apply(m, y)


def test_aut_s6_has_outer_half():
    aset = aut_group_search(symmetric_group(6))
    assert aset.complete
    assert len(aset.maps) == 1440
    assert aset.inner_order() == 720
    assert len(aset.maps) // aset.inner_order() == 2


def elementary_abelian(p, k):
    """Z_p^k as k disjoint p-cycles."""
    cycles = ["(" + " ".join(str(p * i + j) for j in range(1, p + 1)) + ")"
              for i in range(k)]
    return PermGroup(k * p, [parse_cycles(c, degree=k * p) for c in cycles])


def gl_order(k, q):
    """|GL(k, q)| = |Aut(Z_q^k)| for a prime q."""
    out = 1
    for i in range(k):
        out *= q**k - q**i
    return out


# search nodes per group, pinned so that any change in candidate order or
# pruning shows up here
AUT_NODES = {
    "Z1": 0, "Z2": 1, "Z3": 2, "Z4": 2, "Z5": 4, "Z6": 2, "Z7": 6, "Z8": 4,
    "Z9": 6, "Z10": 4, "Z11": 10, "Z12": 4, "Z13": 12, "Z14": 6, "Z15": 8,
    "Z16": 8, "Z17": 16, "Z18": 6, "Z19": 18, "Z20": 8, "Z21": 12, "Z22": 10,
    "Z23": 22, "Z24": 8, "D3": 6, "D4": 7, "D5": 10, "D6": 9, "D7": 15,
    "D8": 14, "D9": 16, "D10": 15, "D11": 22, "D12": 18, "A4": 17, "A5": 47,
    "S5": 35, "S6": 324, "A6": 228, "S4xZ7": 82, "S3xZ25": 102,
    # three kept generators, so the product prune shows in nodes
    "S4xZ2": 32, "A4xZ2": 20,
    # the prefix-order prune shows too: Z3^3 takes 110 nodes without it,
    # and Z2^6 243,119
    "Z2^4": 77, "Z2^5": 191, "Z2^6": 443, "Z2^7": 995, "Z3^3": 84, "Z3^4": 337,
    "Z2^2xS3": 28, "Z2^2xZ3^2": 30,
}


def test_aut_orders_match_closed_forms():
    def phi(n):
        return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    cases = ([(f"Z{n}", cyclic_group(n), phi(n)) for n in range(1, 25)]
             + [(f"D{n}", dihedral_group(n), n * phi(n)) for n in range(3, 13)]
             + [("A4", alternating_group(4), 24), ("A5", alternating_group(5), 120),
                ("S5", symmetric_group(5), 120), ("S6", symmetric_group(6), 1440),
                ("A6", alternating_group(6), 1440),
                ("S4xZ7", coprime_product(symmetric_group(4), 7), 144),
                ("S3xZ25", coprime_product(symmetric_group(3), 25), 120),
                # |Aut(H x Z_2)| = |Aut(H)| |Hom(H, Z_2)| for centerless H
                ("S4xZ2", direct_product(symmetric_group(4), cyclic_group(2)), 48),
                ("A4xZ2", direct_product(alternating_group(4), cyclic_group(2)), 24)]
             # three or more kept generators, so the prefix-order prune runs
             + [(f"Z2^{k}", elementary_abelian(2, k), gl_order(k, 2)) for k in range(4, 8)]
             + [(f"Z3^{k}", elementary_abelian(3, k), gl_order(k, 3)) for k in (3, 4)]
             # |Aut(S_3)| |Aut(Z_2^2)| |Hom(S_3, Z_2^2)| = 6 * 6 * 4, and
             # Aut(Z_6^2) = GL(2, 2) x GL(2, 3)
             + [("Z2^2xS3", direct_product(elementary_abelian(2, 2), symmetric_group(3)), 144),
                ("Z2^2xZ3^2", direct_product(elementary_abelian(2, 2),
                                             elementary_abelian(3, 2)), 288)])
    for name, group, order in cases:
        aset = aut_group_search(group)
        assert aset.complete and aset.order() == len(aset.maps) == order, name
        assert aset.nodes_used == AUT_NODES[name], name


def test_aut_budget_truncation_flags_incomplete():
    g = symmetric_group(4)
    g2 = PermGroup(4, g.generators)  # fresh instance, no cached search
    aset = aut_group_search(g2, budget=3)
    assert not aset.complete
    # exactly the budget is spent; the maps are the group found so far
    assert aset.nodes_used == 3
    assert aset.order() == len(aset.maps) == aset.as_perm_group().order()
    assert g2._aut is None


def test_aut_cache_serves_only_budgets_that_would_finish():
    g = PermGroup(5, symmetric_group(5).generators)  # no cached search yet
    full = aut_group_search(g)
    assert full.complete and g._aut is full
    used = full.nodes_used
    # a smaller budget runs out exactly as it does on a fresh group
    short = aut_group_search(g, budget=used - 1)
    fresh = aut_group_search(PermGroup(5, g.generators), budget=used - 1)
    assert not short.complete and short.nodes_used == used - 1
    assert (short.order(), set(short.maps)) == (fresh.order(), set(fresh.maps))
    assert aut_group_search(g, budget=used) is full


def test_aut_of_elementary_abelian_cubes_completes_in_small_memory(monkeypatch):
    # Aut(Z_p^3) = GL(3, p), of order (p^3 - 1)(p^3 - p)(p^3 - p^2): a chain
    # of a few strong generators, where a closure would hold every map
    for p, order in ((5, 1_488_000), (7, 33_784_128)):
        assert order == (p**3 - 1) * (p**3 - p) * (p**3 - p**2)
        g = elementary_abelian(p, 3)
        tracemalloc.start()
        try:
            aset = aut_group_search(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20, (p, peak)
        assert aset.complete and aset.order() == order, p
        with monkeypatch.context() as patch:
            def enumerated(*args):
                raise AssertionError("len(maps) listed the maps")
            patch.setattr(type(aset.maps), "__iter__", enumerated)
            patch.setattr(type(aset.maps), "__getitem__", enumerated)
            assert len(aset.maps) == order
        assert aset.as_perm_group().order() == order
        # maps read by index, far into the group, are automorphisms
        x, y = g.generators[:2]
        for i in (1, order // 3, order - 1, -1):
            m = aset.maps[i]
            assert m in aset.maps
            assert aset.apply(m, x * y) == aset.apply(m, x) * aset.apply(m, y)
        with pytest.raises(IndexError):
            aset.maps[order]


class ListAutomorphismSet:
    """The result type of the searches below: the AutomorphismSet that held
    every map as a tuple, before the search returned a stabilizer chain.
    Kept, renamed, as the container of the reference searches.

    `maps` are the automorphisms found, each a permutation of element
    indices: the automorphism sends elements[i] to elements[m(i)]. Each map
    is either verified against the multiplication action of the group or a
    product of verified maps. When `complete` is true the set is the whole
    automorphism group and has been certified: the search found exactly
    the group that the verified maps generate, so the set is closed under
    composition, and it contains all inner automorphisms. When the node
    budget ran out, `complete` is false and `maps` holds only the
    automorphisms found so far.
    """

    def __init__(self, base_group, maps, complete, elements, index, nodes_used):
        self.base_group = base_group
        self.maps = tuple(maps)
        self.complete = complete
        self.elements = tuple(elements)
        self.nodes_used = nodes_used
        self._index = index
        # maps that generate `maps`; the search narrows this to the ones it
        # verified
        self._generators = self.maps
        self._perm_group = None

    def inner_order(self):
        return self.base_group.order() // center(self.base_group).order()

    def apply(self, automorphism, x):
        """Image of an arbitrary group element under one of the maps."""
        return self.elements[automorphism.images[self._index[x]]]

    def conjugation_map(self, g):
        """The inner automorphism x -> g x g^-1 as an element permutation."""
        conjugate = _conjugator(g)
        return Perm._raw(tuple(self._index[conjugate(x)] for x in self.elements))

    def as_perm_group(self):
        """The automorphism group acting on the element set of the base group.

        Built on first use from the generating maps (the verified ones, for
        a search result); its order re-checks that `maps` is closed under
        composition.
        """
        if self._perm_group is None:
            ambient = PermGroup(len(self.elements), (), degree_cap=None)
            grp = _reduce_generators(ambient, self._generators)
            if self.complete and grp.order() != len(self.maps):
                raise RuntimeError("automorphism set is not closed under composition")
            self._perm_group = grp
        return self._perm_group




# the cap on stored closure entries (maps x |G|) that closure_aut_search kept
CLOSURE_CAP = 10_000_000


def closure_aut_search(group, budget=DEFAULT_AUT_NODE_BUDGET):
    """The closure search that the base-image backtrack of aut_group_search
    replaced, kept as its reference. Unlike the library search it neither
    reads nor fills the group's cached result.

    Search for the full automorphism group by backtracking over images.

    Candidate images are pruned by the (element order, centralizer order)
    fingerprint and by fingerprints of generator products. A surviving
    assignment is looked up by its generator images in the cache of
    products of the maps verified so far; if absent, it is extended to the
    whole group and verified against every edge of the Cayley graph, and a
    new automorphism extends the cache. Nothing unverified is ever
    reported, and a complete search must have found exactly the cached
    keys. If the node budget runs out, the partial set is returned flagged
    incomplete. A closure that would store more than CLOSURE_CAP
    entries (maps x |G|) raises BudgetExhausted instead.
    """
    n = group.order()
    if n > DEFAULT_AUT_ORDER_CAP:
        raise CapExceeded(
            f"group order {n} exceeds automorphism search cap {DEFAULT_AUT_ORDER_CAP}")

    kept = _reduce_generators(group, group.generators).generators
    elems, index, rows, tree = _first_appearance(
        Perm.identity(group.degree), len(kept), lambda x, k: x * kept[k])
    if len(elems) != n:
        raise RuntimeError("element enumeration disagrees with the group order")
    gidx = [index[g] for g in kept]
    m = len(gidx)
    right = list(zip(*rows))  # right[k][x] = position of elements[x] * g_k

    # cols[j][x] = position of x * elements[j]; x * j = (x * a) * g_k for
    # the tree entry (a, k) of j, so a column follows from a's along the tree
    cols = {0: range(n)}

    def col(j):
        path = []
        while j not in cols:
            path.append(j)
            j = tree[j][0]
        c = cols[j]
        for j in reversed(path):
            r = right[tree[j][1]]
            c = cols[j] = [r[x] for x in c]
        return c

    # |C(x)| = |G| / |x^G|; the classes are the orbits of conjugation by the
    # kept generators
    conjugators = [_conjugator(g) for g in kept]
    cent = [0] * n
    for i in range(n):
        if cent[i]:
            continue
        orbit = [i]
        cent[i] = -1
        for x in orbit:  # the list grows while it is walked
            for conjugate in conjugators:
                y = index[conjugate(elems[x])]
                if not cent[y]:
                    cent[y] = -1
                    orbit.append(y)
        for x in orbit:
            cent[x] = n // len(orbit)
    fingerprint = list(zip([x.order() for x in elems], cent))

    candidates = [[i for i in range(n) if fingerprint[i] == fingerprint[gi]]
                  for gi in gidx]
    # targets[k][l]: fingerprint of g_l g_k. It is also that of g_k g_l, a
    # conjugate, so one order of each product is checked.
    targets = [[fingerprint[rows[gidx[l]][k]] for l in range(k)] for k in range(m)]

    # the walk's edges x -> x * g_k in walk order, flagging the tree edge
    # that first reaches each element
    edges = [(x, k, y, tree[y] == (x, k))
             for x, row in enumerate(rows) for k, y in enumerate(row)]

    def verify(img):
        # phi(x g_k) = phi(x) img_k: tree edges define phi, and every other
        # edge is checked as soon as the walk reaches it
        img_cols = [col(c) for c in img]
        phi = [0] * n
        for x, k, y, tree in edges:
            v = img_cols[k][phi[x]]
            if tree:
                phi[y] = v
            elif phi[y] != v:
                return None
        if len(set(phi)) != n:
            return None
        return tuple(phi)

    # an automorphism is determined by its images of the kept generators;
    # closure maps each key to its map, for the group generated by the
    # verified maps. The walk reaches each generator from the identity by a
    # tree edge, so a map that verify returns for a leaf has the leaf as key.
    def key(images):
        return tuple(images[g] for g in gidx)

    closure = {tuple(gidx): tuple(range(n))}
    verified = []

    def adjoin(g):
        # Dimino: the new group is a union of right cosets H r of the old
        # one, found by a walk over right multiplication by the generators
        verified.append(g)
        old = list(closure.values())
        reps = []

        def add_coset(r):
            if (len(closure) + len(old)) * n > CLOSURE_CAP:
                raise BudgetExhausted(
                    f"automorphism closure cap {CLOSURE_CAP} entries "
                    f"reached after {nodes} nodes with {len(closure)} maps held")
            reps.append(r)
            for h in old:
                hr = tuple([r[x] for x in h])  # h, then r
                closure[key(hr)] = hr

        add_coset(g)
        for r in reps:  # the list grows while it is walked
            for s in verified:
                if tuple(s[r[gi]] for gi in gidx) not in closure:  # key(r, then s)
                    add_coset(tuple([s[x] for x in r]))

    found = []
    nodes = 0
    truncated = False

    def search(img):
        nonlocal nodes, truncated
        k = len(img)
        for c in candidates[k]:
            if truncated:
                return
            nodes += 1
            if nodes > budget:
                truncated = True
                return
            ok = True
            for l, target in enumerate(targets[k]):
                if fingerprint[col(c)[img[l]]] != target:
                    ok = False
                    break
            if not ok:
                continue
            if k + 1 == m:
                leaf = img + [c]
                phi = closure.get(tuple(leaf))
                if phi is None:
                    phi = verify(leaf)
                    if phi is not None:
                        adjoin(phi)
                if phi is not None:
                    found.append(Perm._raw(phi))
            else:
                search(img + [c])

    if m == 0:
        found.append(Perm.identity(n))
    else:
        search([])

    result = ListAutomorphismSet(group, found, not truncated, elems, index, nodes)
    result._generators = [Perm._raw(g) for g in verified]
    if result.complete:
        # found lies inside the closure and has distinct keys, so equal
        # counts mean found is the whole closure, a group
        if len(found) != len(closure):
            raise RuntimeError("automorphism set is not closed under composition")
        for g in group.generators:
            inner = result.conjugation_map(g).images
            if closure.get(key(inner)) != inner:
                raise RuntimeError("search missed an inner automorphism")
    return result



def table_aut_search(group, budget=DEFAULT_AUT_NODE_BUDGET,
                     order_cap=DEFAULT_AUT_ORDER_CAP):
    """The automorphism search that the table-free aut_group_search
    replaced, kept as its reference. It builds the whole |G| x |G|
    multiplication table, counts commuting pairs for centralizer orders,
    and verifies every leaf against every edge in two passes. Unlike the
    library search it neither reads nor fills the group's cached result.
    """
    n = group.order()
    if n > order_cap:
        raise CapExceeded(f"group order {n} exceeds automorphism search cap {order_cap}")

    kept = _reduce_generators(group, group.generators).generators
    elems, index, right, parent, pgen = _cayley(group.degree, kept)
    if len(elems) != n:
        raise RuntimeError("element enumeration disagrees with the group order")

    # x * y = (x * parent(y)) * gen(y): each row follows the walk's tree
    steps = [(right[k], j) for j, k in zip(parent[1:], pgen[1:])]
    table = []
    for x in range(n):
        row = [x]
        for col, j in steps:
            row.append(col[row[j]])
        table.append(row)

    orders = [x.order() for x in elems]
    # cent[i]: how many elements commute with element i
    cent = [sum(1 for j, tij in enumerate(ti) if tij == table[j][i])
            for i, ti in enumerate(table)]
    fingerprint = list(zip(orders, cent))

    gidx = [index[g] for g in kept]
    m = len(gidx)
    candidates = [[i for i in range(n) if fingerprint[i] == fingerprint[gi]]
                  for gi in gidx]

    found = []
    nodes = 0
    truncated = False

    def verify(img):
        phi = [0] * n
        for x in range(1, n):
            phi[x] = table[phi[parent[x]]][img[pgen[x]]]
        seen = bytearray(n)
        for v in phi:
            if seen[v]:
                return None
            seen[v] = 1
        for x in range(n):
            px = phi[x]
            tx = table[x]
            for k in range(m):
                if phi[tx[gidx[k]]] != table[px][img[k]]:
                    return None
        return phi

    def search(img):
        nonlocal nodes, truncated
        k = len(img)
        for c in candidates[k]:
            if truncated:
                return
            nodes += 1
            if nodes > budget:
                truncated = True
                return
            ok = True
            for l in range(k):
                if (fingerprint[table[img[l]][c]] != fingerprint[table[gidx[l]][gidx[k]]]
                        or fingerprint[table[c][img[l]]]
                        != fingerprint[table[gidx[k]][gidx[l]]]):
                    ok = False
                    break
            if not ok:
                continue
            if k + 1 == m:
                phi = verify(img + [c])
                if phi is not None:
                    found.append(Perm._raw(tuple(phi)))
            else:
                search(img + [c])

    if m == 0:
        found.append(Perm.identity(n))
    else:
        search([])

    result = ListAutomorphismSet(group, found, not truncated, elems, index, nodes)
    if result.complete:
        maps = set(found)
        for g in group.generators:
            if result.conjugation_map(g) not in maps:
                raise RuntimeError("search missed an inner automorphism")
        result.as_perm_group()  # certifies closure
    return result


def aut_reference_corpus():
    """(name, group, budget) triples on which the search must match
    closure_aut_search and table_aut_search, each group a fresh instance
    with no cached search."""
    named = ([(f"Z{n}", cyclic_group(n)) for n in range(1, 25)]
             + [(f"D{n}", dihedral_group(n)) for n in range(3, 13)]
             + [(f"A{n}", alternating_group(n)) for n in range(4, 7)]
             + [(f"S{n}", symmetric_group(n)) for n in range(3, 7)]
             + [("S4xZ7", coprime_product(symmetric_group(4), 7)),
                ("S3xZ25", coprime_product(symmetric_group(3), 25))]
             # three kept generators, so the product prune shows in nodes
             + [("S4xZ2", direct_product(symmetric_group(4), cyclic_group(2))),
                ("A4xZ2", direct_product(alternating_group(4), cyclic_group(2)))]
             # four or five kept generators, so the prefix-order prune runs
             + [(f"Z2^2x{name}", direct_product(elementary_abelian(2, 2), h))
                for name, h in (("S3", symmetric_group(3)), ("A4", alternating_group(4)),
                                ("Z3^2", elementary_abelian(3, 2)),
                                ("D4", dihedral_group(4)))]
             + [("Z2^3xS3", direct_product(elementary_abelian(2, 3), symmetric_group(3)))]
             + [(f"small{i}", g) for i, g in enumerate(small_groups())])
    cases = [(name, g, DEFAULT_AUT_NODE_BUDGET) for name, g in named]
    cases += [("S6", symmetric_group(6), budget) for budget in (50, 200, 323, 324)]
    return [(name, PermGroup(g.degree, g.generators), budget)
            for name, g, budget in cases]


def test_aut_search_matches_table_reference():
    references = {}
    for name, group, budget in aut_reference_corpus():
        fast = aut_group_search(group, budget)
        maps = list(fast.maps)
        assert len(set(maps)) == len(maps) == len(fast.maps) == fast.order(), name
        # reading by index, negative ones too, agrees with iterating
        for i in range(-len(maps), len(maps), 1 + len(maps) // 50):
            assert fast.maps[i] == maps[i], (name, i)
        assert fast.as_perm_group().order() == fast.order(), name
        assert fast.chain.base == [fast._index[g] for g in
                                   _reduce_generators(group, group.generators).generators]
        if name not in references:
            fresh = PermGroup(group.degree, group.generators)
            closure = closure_aut_search(fresh)
            table = table_aut_search(fresh)
            assert closure.complete and table.complete, name
            assert set(closure.maps) == set(table.maps), name
            references[name] = set(table.maps)
        if fast.complete:
            assert set(maps) == references[name], (name, budget)
        else:
            # the group found so far, after exactly the budget (at 323 of
            # S_6's 324 nodes it is already the whole group, unproven)
            assert fast.nodes_used == budget, (name, budget)
            assert set(maps) <= references[name], (name, budget)


def test_aut_action_raises_when_its_points_do_not_generate(monkeypatch):
    # Aut(D_4) fixes the centre of D_4, so acting on the centre alone would
    # give the trivial group: the action must refuse, not report order 1
    d4 = PermGroup(4, dihedral_group(4).generators)
    aset = aut_group_search(d4)
    centre = [i for i, x in enumerate(aset.elements)
              if not x.is_identity() and x in center(d4)]
    assert len(centre) == 1 and aset.order() == 8
    monkeypatch.setattr(perm, "_generating_classes", lambda elements, fingerprint: centre)
    with pytest.raises(RuntimeError, match="not faithful"):
        aset.as_perm_group()
    with pytest.raises(RuntimeError, match="not faithful"):
        aset.conjugation_map(d4.generators[0])


def test_center_order_and_inner_maps_come_from_the_search():
    # S_4 x Z_2 and the cyclic groups have a nontrivial center, and the
    # truncated S_6 searches show that a partial result reads them too
    cases = aut_reference_corpus() + [
        ("S3xZ4", direct_product(symmetric_group(3), cyclic_group(4)),
         DEFAULT_AUT_NODE_BUDGET)]
    for name, group, budget in cases:
        aset = aut_group_search(group, budget)
        assert aset.center_order == center(group).order(), name
        assert aset.inner_maps == tuple(aset.conjugation_map(g)
                                        for g in group.generators), name


def test_conjugations_match_the_element_reference():
    # the search's classes and inner maps come from its verified maps; here
    # they are formed again by conjugating Perm objects
    seen = set()
    for name, group, budget in aut_reference_corpus():
        aset = aut_group_search(group, budget)
        if not aset.complete or name in seen:
            continue
        seen.add(name)
        elements, index = aset.elements, aset._index
        n = len(elements)
        conjugates = [_conjugator(g) for g in group.generators]
        orbit_size = {}
        for i in range(n):
            if i in orbit_size:
                continue
            orbit, frontier = {i}, [i]
            for x in frontier:  # the list grows while it is walked
                for conjugate in conjugates:
                    y = index[conjugate(elements[x])]
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            orbit_size.update(dict.fromkeys(orbit, len(orbit)))
        assert aset._fingerprint == [(x.order(), n // orbit_size[i])
                                     for i, x in enumerate(elements)], name
        aset.as_perm_group()
        for g in elements[::1 + (n - 1) // 200]:  # every k-th one past 200
            conjugate = _conjugator(g)
            expected = tuple([aset._pos[index[conjugate(elements[x])]]
                              for x in aset._points])
            assert aset.conjugation_map(g).images == expected, (name, g)


def test_conjugation_map_refuses_an_element_outside_the_group():
    # conjugation by (1 2) inverts Z_3, an automorphism that is not inner
    z3 = PermGroup(3, [parse_cycles("(1 2 3)")])
    aset = aut_group_search(z3)
    assert aset.inner_order() == 1 and aset.order() == 2
    with pytest.raises(ValueError, match="not in the group"):
        aset.conjugation_map(parse_cycles("(1 2)", 3))
    assert aset.conjugation_map(parse_cycles("(1 3 2)")).is_identity()


def test_conjugation_map_keeps_no_columns_past_its_call():
    # a conjugation asked after the search builds its columns in a copy of
    # the search's memo, so conjugating by every element of S_6 leaves the
    # memo that the result keeps as the search left it
    aset = aut_group_search(PermGroup(6, symmetric_group(6).generators))
    memo = inspect.getclosurevars(aset._conjugation).nonlocals["cols"]
    after_search = dict(memo)
    maps = {aset.conjugation_map(g) for g in aset.elements}
    assert len(maps) == aset.inner_order() == 720
    assert memo == after_search


def test_commutator():
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(1 2 3)")
    assert commutator(a, b) == a * b * a.inverse() * b.inverse()
    assert commutator(b, b).is_identity()


def fuzz_generator_pairs():
    """40 random two-generator groups of degree 3..6 whose closure has at
    most 200 elements: (degree, generators, closure)."""
    rng = random.Random(271828)
    found = 0
    while found < 40:
        degree = rng.randint(3, 6)
        gens = []
        for _ in range(2):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(images))
        closure = mulclose(gens)
        if len(closure) > 200:
            continue
        yield degree, gens, closure
        found += 1


def test_chain_fuzz_random_generator_pairs():
    # whenever the closure is small enough to enumerate, the chain must
    # agree with it exactly
    for degree, gens, closure in fuzz_generator_pairs():
        group = PermGroup(degree, gens)
        assert group.order() == len(closure)
        sample = sorted(closure)[:: max(1, len(closure) // 20)]
        for images in sample:
            assert Perm(images) in group
        outside = [p for p in mulclose([Perm(tuple(range(1, degree)) + (0,)),
                                        Perm((1, 0) + tuple(range(2, degree)))])
                   if p not in closure]
        for images in sorted(outside)[:10]:
            assert Perm(images) not in group


def chain_state(chain):
    """Order, base and generator counts, orbit sizes and Schreier-check
    counters: everything an extend of a copy must leave alone."""
    return (chain.order(), len(chain.base), len(chain.strong),
            [len(tr) for tr in chain.transversals], [len(g) for g in chain._gens],
            [list(counts) for counts in chain._checked])


def test_chain_extend_matches_fresh_chain():
    # one generator at a time, in two batches, and on a copy: each must
    # give the chain built from all the generators at once
    rng = random.Random(31)
    # the direct products place residues at several levels in one pass, and
    # each of those levels needs its own Schreier generators checked
    products = [direct_product(a, b) for a, b in (
        (cyclic_group(2), symmetric_group(4)), (symmetric_group(3), symmetric_group(4)),
        (dihedral_group(4), alternating_group(4)), (cyclic_group(3), alternating_group(5)),
        (klein_four_group(), dihedral_group(5)))]
    cases = [(g.degree, list(g.generators)) for g in small_groups() + products]
    cases += [(degree, gens) for degree, gens, _ in fuzz_generator_pairs()]
    for degree, gens in cases:
        closure = mulclose(gens) if gens else {tuple(range(degree))}
        points = [Perm(x) for x in sorted(closure)]
        points += [Perm(rng.sample(range(degree), degree)) for _ in range(20)]
        fresh = _StabilizerChain(degree, gens)
        assert fresh.order() == len(closure)
        one = _StabilizerChain(degree)
        for g in gens:
            before = one.order()
            assert one.extend([g]) == (one.order() > before)
        half = len(gens) // 2
        batches = _StabilizerChain(degree, gens[:half])
        batches.extend(gens[half:])
        first = _StabilizerChain(degree, gens[:half])
        state = chain_state(first)
        copied = first.copy()
        copied.extend(gens[half:])
        assert chain_state(first) == state
        for chain in (one, batches, copied):
            assert chain.order() == fresh.order(), gens
            for x in points:
                assert chain.contains(x) == fresh.contains(x) == (x.images in closure)


def rebuild_reduce(group, elements):
    """The greedy loop that _reduce_generators replaced: a fresh group, and
    so a fresh chain, for every kept element. Kept as its reference."""
    kept = []
    sub = PermGroup(group.degree, (), degree_cap=None)
    for x in elements:
        if not x.is_identity() and x not in sub:
            kept.append(x)
            sub = PermGroup(group.degree, kept, degree_cap=None)
    return tuple(kept)


def test_reduce_generators_matches_rebuild_reference():
    for group in small_groups():
        for elements in (group.generators, group.elements()):
            sub = _reduce_generators(group, elements)
            assert sub.generators == rebuild_reduce(group, elements)
            assert sub.order() == group.order()
    for n in (3, 4, 5):
        aset = aut_group_search(symmetric_group(n))
        ambient = PermGroup(len(aset.elements), (), degree_cap=None)
        sub = _reduce_generators(ambient, aset.maps)
        assert sub.generators == rebuild_reduce(ambient, aset.maps)
        assert sub.order() == len(aset.maps)


class RebuildChain:
    """The deterministic Schreier-Sims chain that the incremental
    _StabilizerChain replaced, kept as its reference. It inverts on every
    strip, rebuilds orbits 0..level on every placement and restarts its
    Schreier scan after each one.

    base[i] is fixed by every strong generator assigned to deeper levels;
    transversals[i] maps each orbit point d to a permutation u with
    u(base[i]) = d.
    """

    def __init__(self, degree, generators=()):
        self.degree = degree
        self.base = []
        self.strong = []
        self.transversals = []
        self.extend(generators)

    def extend(self, generators):
        """Add generators to the group; True iff the group grew.

        Levels deeper than the deepest one that received a residue are
        untouched, so re-verification starts at that level, not at the last.
        """
        deepest = -1
        for g in generators:
            residue, level = self._strip(g)
            if not residue.is_identity():
                deepest = max(deepest, self._place(residue, level))
        i = deepest
        while i >= 0:
            placed = self._check_level(i)
            if placed is None:
                i -= 1
            else:
                i = placed
        return deepest >= 0

    def copy(self):
        """An independent chain for the same group (Perms are immutable)."""
        other = RebuildChain(self.degree)
        other.base = list(self.base)
        other.strong = list(self.strong)
        other.transversals = [dict(tr) for tr in self.transversals]
        return other

    def _gens_at(self, i):
        prefix = self.base[:i]
        out = []
        for s in self.strong:
            img = s.images
            if all(img[b] == b for b in prefix):
                out.append(s)
        return out

    def _rebuild_orbit(self, i):
        b = self.base[i]
        gens = self._gens_at(i)
        tr = {b: Perm.identity(self.degree)}
        queue = [b]
        qi = 0
        while qi < len(queue):
            d = queue[qi]
            qi += 1
            ud = tr[d]
            for g in gens:
                e = g.images[d]
                if e not in tr:
                    tr[e] = ud * g
                    queue.append(e)
        self.transversals[i] = tr

    def _strip(self, g, start=0):
        i = start
        while i < len(self.base):
            d = g.images[self.base[i]]
            tr = self.transversals[i]
            if d not in tr:
                return g, i
            g = g * tr[d].inverse()
            i += 1
        return g, len(self.base)

    def _place(self, g, level):
        # g fixes base[:level]; push it as deep as it goes
        while level < len(self.base) and g.images[self.base[level]] == self.base[level]:
            level += 1
        if level == len(self.base):
            moved = next(p for p in range(self.degree) if g.images[p] != p)
            self.base.append(moved)
            self.transversals.append({})
        self.strong.append(g)
        for k in range(level + 1):
            self._rebuild_orbit(k)
        return level

    def _check_level(self, i):
        tr = self.transversals[i]
        gens = self._gens_at(i)
        for d in sorted(tr):
            ud = tr[d]
            for s in gens:
                schreier = ud * s * tr[s.images[d]].inverse()
                if schreier.is_identity():
                    continue
                residue, level = self._strip(schreier, i + 1)
                if residue.is_identity():
                    continue
                return self._place(residue, level)
        return None

    def order(self):
        n = 1
        for tr in self.transversals:
            n *= len(tr)
        return n

    def contains(self, g):
        residue, _ = self._strip(g)
        return residue.is_identity()


def wreath_product(a, b):
    """S_a wr S_b on a*b points: S_a on the first block, S_b on the blocks."""
    n = a * b
    swap = list(range(n))
    for i in range(a):
        swap[i], swap[a + i] = a + i, i
    return PermGroup(n, [Perm.from_cycles(n, [[0, 1]]), Perm.from_cycles(n, [list(range(a))]),
                         Perm(swap), Perm(tuple((x + a) % n for x in range(n)))])


def test_chain_matches_rebuild_reference():
    # equal orders, membership and extend results; the base may differ,
    # because the incremental orbits find their points in another order.
    # Each group is also built on 257 points, where the chain keeps image
    # tuples instead of bytes.
    rng = random.Random(47)
    wide = 257
    cases = [(g.degree, list(g.generators), True) for g in small_groups()]
    cases += [(degree, gens, True) for degree, gens, _ in fuzz_generator_pairs()]
    cases += [(g.degree, list(g.generators), False) for g in (
        symmetric_group(9), alternating_group(10), wreath_product(4, 5),
        wreath_product(3, 4))]
    assert [wreath_product(a, b).order() for a, b in ((4, 5), (3, 4))] == [
        24 ** 5 * 120, 6 ** 4 * 24]
    for degree, gens, small in cases:
        # one at a time: the generators, then redundant products of them
        sequence = gens + [a * b for a in gens for b in gens][:4]
        new, old = _StabilizerChain(degree), RebuildChain(degree)
        tuples = _StabilizerChain(wide)
        for g in sequence:
            assert new.extend([g]) == old.extend([g]) == tuples.extend([g.extended(wide)]), gens
            assert new.order() == old.order() == tuples.order(), gens
        assert _StabilizerChain(degree, gens).order() == new.order()
        points = [Perm(rng.sample(range(degree), degree)) for _ in range(20)]
        if small:
            closure = mulclose(gens) if gens else {tuple(range(degree))}
            assert new.order() == len(closure), gens
            points += [Perm(x) for x in sorted(closure)]
        else:
            closure = None
            for _ in range(20):
                word = Perm.identity(degree)
                for _ in range(30):
                    word = word * rng.choice(gens)
                points.append(word)
                assert new.contains(word), gens
        for x in points:
            assert new.contains(x) == old.contains(x) == tuples.contains(x.extended(wide)), \
                (gens, x)
            if closure is not None:
                assert new.contains(x) == (x.images in closure), (gens, x)
        if degree <= 6:
            # one element of the ambient symmetric group, usually outside
            x = Perm(rng.sample(range(degree), degree))
            assert new.extend([x]) == old.extend([x]) == tuples.extend([x.extended(wide)]), \
                (gens, x)
            assert new.order() == old.order() == tuples.order() == len(mulclose(gens + [x])), \
                (gens, x)


def test_byte_and_tuple_chains_agree():
    # the same group on n <= 24 points and extended to 255 and 256 points
    # (bytes) and to 257 and 300 (tuples) gives the same chain: base, strong
    # generators, transversal order, Schreier counters and coset keys
    rng = random.Random(59)
    for group in (wreath_product(3, 4), wreath_product(3, 8), symmetric_group(9),
                  alternating_group(10)):
        n = group.degree
        small = _StabilizerChain(n, group.generators)
        samples = [Perm(rng.sample(range(n), n)) for _ in range(10)]
        samples += [small.strong[0] * x for x in samples[:5]]
        for degree in (255, 256, 257, 300):
            chain = _StabilizerChain(degree, [g.extended(degree) for g in group.generators])
            assert isinstance(chain._identity, bytes) == (degree <= 256)
            assert chain.base == small.base, (group, degree)
            assert chain.strong == [s.extended(degree) for s in small.strong], (group, degree)
            assert [list(tr) for tr in chain.transversals] == \
                [list(tr) for tr in small.transversals], (group, degree)
            assert chain._checked == small._checked, (group, degree)
            for x in samples:
                wide = x.extended(degree)
                assert chain.coset_key(wide) == small.coset_key(x) + tuple(range(n, degree))
                assert chain.contains(wide) == small.contains(x)


def test_nothing_encoded_leaves_the_chain():
    # Perm.__eq__ compares tuples, so a bytes image would compare unequal:
    # one chain of each encoding (Aut(S_4) on 24 points, Aut(S_6) on 720)
    # hands back Perms of image tuples only
    for group, encoding in ((symmetric_group(4), bytes), (symmetric_group(6), tuple)):
        aset = aut_group_search(group)
        chain = aset.chain
        assert type(chain._identity) is encoding
        x = Perm(random.Random(61).sample(range(chain.degree), chain.degree))
        perms = [*chain.strong, Perm._raw(chain.coset_key(x)), aset.maps[0], aset.maps[-1],
                 aset.maps[len(aset.maps) // 2], *itertools.islice(aset.maps, 30),
                 *aset.as_perm_group().generators, *aset.as_perm_group().chain.strong]
        for p in perms:
            assert type(p) is Perm and type(p.images) is tuple, (group, p)
        assert aset.maps[0] == Perm.identity(chain.degree)
        assert list(itertools.islice(aset.maps, 3)) == [aset.maps[i] for i in range(3)]
