"""Finite permutation groups: orders, membership, canonical subgroups,
quotients, and automorphism group search.

Points are 0-based internally; all text (cycle notation) is 1-based.
Products read left to right: (p * q) means "apply p, then q", so words
evaluate in the order they are written, matching how words act on coset
tables in the fp module.

Orders and membership come from a stabilizer chain built by a deterministic
Schreier-Sims procedure: no randomized strong-generator filling, and
Schreier generators are sifted in the order their orbit points were found,
so rebuilding a group from the same generator list reproduces the same
chain. Nothing is computed twice: transversals hold the inverse coset
representatives, so sifting never inverts; orbits grow by the points a
new generator reaches; and per-point counters let every Schreier check
resume where the last one stopped. On at most 256 points the chain keeps
each permutation as a 256-byte `bytes` and composes with `bytes.translate`,
in C; above that, where a byte cannot name a point, it keeps image tuples.
Only Perms of image tuples go in and come out. A subgroup grows one
chain in place by `extend`, one element at a time, and keeps an element
as a generator only if it grew the chain: at most log2 of its order are
kept. A PermGroup lazily builds its chain behind a lock, or receives
one already built for its generators. A chain is extended only before its
group is returned, and a cached chain is never mutated (`cp_subgroup`
extends a copy of the derived subgroup's chain); once built, every query
is read-only, so sharing a group between threads is safe. Quotients G/N
tell the cosets of N apart by a key read off N's chain.

One breadth-first walk, `_first_appearance`, numbers every finite action
in first-appearance order: the Cayley graph (the elements, and the right
multiplication columns and tree the automorphism search reads), the
action of G on the cosets of a normal N (the images of G/N are its rows),
and the coset tables of the fp module.

The automorphism search is a base-image backtrack. An automorphism is
determined by its images of the kept generators, so their positions are a
base for Aut(G) acting on G, and the search builds a stabilizer chain on
that base level by level, from the last generator to the first; |Aut| is
the product of the basic orbit lengths, and no product of maps is stored.
Candidates are pruned by the (element order, centralizer order)
fingerprint, with centralizer orders read off conjugacy class sizes, by
the fingerprints of generator products, read off the element products,
and by prefix orders: images c_0..c_k must generate a subgroup of order
|<g_0..g_k>|. |Z(G)| is the number of one-element classes.
It never builds the |G| x |G| table: right multiplication by an element is
a column built along the walk's tree, only for the images being verified
and their ancestors. One edge check, `verify`, passes every map handed
out: the strong generators, and the conjugations behind the classes, the
inner maps and the check that a complete result holds them all. The
result lists its maps lazily from the chain. Its permutation group acts on
a few whole fingerprint classes that generate G instead of on all of G,
which is faithful: for S_6, on 30 points, not 720.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from functools import cached_property, lru_cache
from math import lcm

from .errors import CapExceeded

DEFAULT_DEGREE_CAP = 64
DEFAULT_INDEX_CAP = 10_000
DEFAULT_AUT_ORDER_CAP = 1000
DEFAULT_AUT_NODE_BUDGET = 1_000_000


class Perm:
    """A permutation of {0, ..., degree-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        n = len(images)
        seen = [False] * n
        for x in images:
            if not 0 <= x < n or seen[x]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images}")
            seen[x] = True
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def _raw(cls, images):
        # internal fast path: images already known to be a valid tuple
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(degree):
        return Perm._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Product of cycles over 0-based points, applied left to right."""
        images = list(range(degree))
        for cycle in cycles:
            cur = [0] * degree
            for i in range(degree):
                cur[i] = i
            for a, b in zip(cycle, cycle[1:]):
                cur[a] = b
            if cycle:
                cur[cycle[-1]] = cycle[0]
            images = [cur[x] for x in images]
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        o = other.images
        return Perm._raw(tuple([o[x] for x in self.images]))

    def inverse(self):
        return Perm._raw(_invert(self.images))

    def __pow__(self, k):
        if k == 0:
            return Perm.identity(len(self.images))
        images = self.images if k > 0 else _invert(self.images)
        return Perm._raw(tuple(_power(images, abs(k))))

    def is_identity(self):
        return all(i == x for i, x in enumerate(self.images))

    def cycles(self):
        """Nontrivial cycles (0-based), each starting at its minimum."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def order(self):
        return lcm(*(len(c) for c in self.cycles()))

    def extended(self, degree):
        """The same permutation acting on a larger point set."""
        if degree < len(self.images):
            raise ValueError("cannot shrink a permutation")
        return Perm._raw(self.images + tuple(range(len(self.images), degree)))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __str__(self):
        return format_cycles(self)

    def __repr__(self):
        return f"Perm({format_cycles(self)!r}, degree={self.degree})"


def _invert(images):
    """Image tuple of the inverse permutation."""
    inv = [0] * len(images)
    for i, x in enumerate(images):
        inv[x] = i
    return tuple(inv)


def _power(images, e):
    """Image list or tuple composed with itself e >= 1 times, by repeated
    squaring: log e compositions. The only power routine: Perm powers and
    the fp module's word actions both use it."""
    out = None
    while True:
        if e & 1:
            out = images if out is None else [images[x] for x in out]
        e >>= 1
        if not e:
            return out
        images = [images[x] for x in images]


def _compose(g, v):
    """Image tuple of g, then v."""
    return tuple([v[x] for x in g])


def _compose3(g, s, v):
    """Image tuple of g, then s, then v, in one pass."""
    return tuple([v[s[x]] for x in g])


# the identity on the 256 points a byte can name; see _StabilizerChain
_BYTE_ID = bytes(range(256))


def commutator(a, b):
    """[a, b] = a b a^-1 b^-1."""
    return a * b * a.inverse() * b.inverse()


def format_cycles(perm):
    """Cycle notation with 1-based points; the identity prints as ()."""
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in cyc) + ")" for cyc in cycles)


def parse_cycles(text, degree=None):
    """Parse 1-based cycle notation like "(1 2 3)(4 5)".

    Whitespace-insensitive; commas between points are tolerated. Non-disjoint
    cycles compose left to right. The degree defaults to the largest point
    mentioned; an explicit degree may only enlarge it. A degree over
    DEFAULT_DEGREE_CAP raises CapExceeded before the image list is built.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty permutation text")
    cycles = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise ValueError(f"expected '(' at position {i} in {text!r}")
        j = s.index(")", i + 1) if ")" in s[i + 1:] else -1
        if j < 0:
            raise ValueError(f"unclosed cycle in {text!r}")
        body = s[i + 1:j].replace(",", " ").split()
        points = []
        for tok in body:
            if not tok.isdigit():
                raise ValueError(f"bad point {tok!r} in {text!r}")
            p = int(tok)
            if p < 1:
                raise ValueError(f"points are 1-based, got {p}")
            points.append(p - 1)
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point in cycle {s[i:j + 1]!r}")
        if len(points) >= 2:
            cycles.append(points)
        i = j + 1
    needed = 1 + max((max(c) for c in cycles), default=-1)
    if degree is None:
        degree = max(needed, 1)
    elif degree < needed:
        raise ValueError(f"degree {degree} too small for {text!r}")
    if degree > DEFAULT_DEGREE_CAP:
        raise CapExceeded(f"degree {degree} exceeds cap {DEFAULT_DEGREE_CAP}")
    return Perm.from_cycles(degree, cycles)


class _StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain, grown incrementally.

    Level i has the base point base[i] and, in _gens[i], the strong
    generators that fix base[:i], each as a pair (s, s^-1). transversals[i]
    maps each point d of the orbit of base[i], in the order the points were
    found, to u_d^-1, where u_d is a product of level generators with
    u_d(base[i]) = d. That is the only permutation stored per point:
    sifting composes and never inverts. _checked[i][j] counts the level
    generators s whose Schreier generator u_d s u_{s(d)}^-1, for the j-th
    orbit point d, has been sifted. Orbits and generator lists only grow,
    and a transversal element never changes once set, so a Schreier
    generator that sifted to the identity stays in the group of the deeper
    levels, and every check resumes from the counters.

    Every permutation inside the chain is stored in one encoding, picked
    from the degree. On at most 256 points it is a 256-byte `bytes`, the
    image of each point followed by the identity on points degree..255:
    `g.translate(v)` composes (g, then v) and `bytes.maketrans(g, _BYTE_ID)`
    inverts, both in C. A byte cannot hold a larger point, so on more than
    256 points (the automorphism search on a large group) it is the image
    tuple, composed by list comprehension, with the Schreier generator
    formed in one fused pass. `_pack` and `_unpack` convert at the chain's
    boundary: `extend` and `contains` take Perms, and `strong`,
    `coset_key` and the elements listed by `_ChainElements` come back as
    image tuples, so nothing encoded leaves the chain.

    The automorphism search builds a chain on base points it chooses,
    each a level whose orbit is the point alone until a generator placed
    there moves it, and places its generators, packed, without Schreier
    checks, because its exhaustive search shows that they are a strong
    generating set. Such a level may keep a one-point orbit.
    """

    def __init__(self, degree, generators=()):
        self.degree = degree
        if degree <= 256:
            tail = _BYTE_ID[degree:]
            self._identity = _BYTE_ID
            self._pack = lambda images: bytes(images) + tail
            self._unpack = lambda z: tuple(z[:degree])
            self._inverse = lambda g: bytes.maketrans(g, _BYTE_ID)
            self._compose = bytes.translate
            self._schreier = lambda ud, s, ve: ud.translate(s).translate(ve)
        else:
            self._identity = tuple(range(degree))
            self._pack = self._unpack = tuple
            self._inverse = _invert
            self._compose = _compose
            self._schreier = _compose3
        self.base = []
        self.strong = []
        self.transversals = []
        self._gens = []
        self._checked = []
        self.extend(generators)

    def extend(self, generators):
        """Add generators to the group; True iff the group grew.

        Levels deeper than the deepest one that received a residue are
        untouched, so re-verification starts at that level, not at the last.
        """
        deepest = -1
        for g in generators:
            residue, level = self._strip(self._pack(g.images))
            if residue != self._identity:
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
        """An independent chain for the same group (its elements are
        immutable)."""
        other = _StabilizerChain(self.degree)
        other.base = list(self.base)
        other.strong = list(self.strong)
        other.transversals = [dict(tr) for tr in self.transversals]
        other._gens = [list(gens) for gens in self._gens]
        other._checked = [list(counts) for counts in self._checked]
        return other

    def _strip(self, g, start=0):
        """Sift the packed g from level `start`: (residue, level), where
        level is the first level whose orbit misses the image of its base
        point, or len(base)."""
        base = self.base
        transversals = self.transversals
        compose = self._compose
        for i in range(start, len(base)):
            b = base[i]
            d = g[b]
            if d != b:  # u_b is the identity
                v = transversals[i].get(d)
                if v is None:
                    return g, i
                g = compose(g, v)
        return g, len(base)

    def _place(self, g, level):
        # the packed g fixes base[:level]; push it as deep as it goes
        base = self.base
        while level < len(base) and g[base[level]] == base[level]:
            level += 1
        if level == len(base):
            self._new_level(next(p for p in range(self.degree) if g[p] != p))
        self.strong.append(Perm._raw(self._unpack(g)))
        pair = (g, self._inverse(g))
        for k in range(level + 1):
            self._gens[k].append(pair)
            self._grow_orbit(k, pair)
        return level

    def _new_level(self, b):
        self.base.append(b)
        self.transversals.append({b: self._identity})
        self._gens.append([])
        self._checked.append([0])

    def _grow_orbit(self, k, pair):
        # the old orbit is closed under the old generators, so only the new
        # generator moves old points; new points meet every generator
        tr = self.transversals[k]
        compose = self._compose
        g, ginv = pair
        new = []
        for d, v in list(tr.items()):
            e = g[d]
            if e not in tr:
                tr[e] = compose(ginv, v)  # u_e^-1 = g^-1 u_d^-1
                new.append(e)
        gens = self._gens[k]
        for d in new:  # the list grows while it is walked
            v = tr[d]
            for s, sinv in gens:
                e = s[d]
                if e not in tr:
                    tr[e] = compose(sinv, v)
                    new.append(e)
        counts = self._checked[k]
        counts.extend([0] * (len(tr) - len(counts)))

    def _check_level(self, i):
        """Sift the unchecked Schreier generators of level i; place the
        first residue that is not the identity and return its level."""
        tr = self.transversals[i]
        gens = self._gens[i]
        counts = self._checked[i]
        identity = self._identity
        inverse = self._inverse
        schreier_of = self._schreier
        n = len(gens)
        for j, d in enumerate(tr):
            if counts[j] == n:
                continue
            ud = inverse(tr[d])
            for k in range(counts[j], n):
                s = gens[k][0]
                ve = tr[s[d]]
                counts[j] = k + 1
                schreier = schreier_of(ud, s, ve)  # u_d s u_{s(d)}^-1
                if schreier == identity:
                    continue
                residue, level = self._strip(schreier, i + 1)
                if residue != identity:
                    return self._place(residue, level)
        return None

    def order(self):
        n = 1
        for tr in self.transversals:
            n *= len(tr)
        return n

    def contains(self, g):
        return self._strip(self._pack(g.images))[0] == self._identity

    def coset_key(self, x):
        """A key shared by exactly the elements of the coset xN, where N is
        this chain's group (for a normal N, xN = Nx).

        Level by level, take the least point p that x maps into the orbit
        and replace x by x u_d^-1, where d = x(p), so that p goes to the
        base point. The point p and the coset of the level's stabilizer
        that the new x lies in depend only on xN, and the pointwise
        stabilizer of the base is trivial, so the last x, whose image tuple
        is the key, is the same for every element of xN.
        """
        z = self._pack(x.images)
        compose = self._compose
        for tr in self.transversals:
            z = compose(z, tr[next(d for d in z if d in tr)])
        return self._unpack(z)


def _first_appearance(initial, cols, step, max_states=None):
    """Breadth-first walk of the action `step(state, column)` from `initial`.

    States are numbered in the order the walk meets them, reading the
    columns of each state in order: the standardized (first-appearance)
    numbering. Returns (states, labels, rows, tree): the states in that
    order, the label of each, rows[i][c] = label of step(states[i], c), and
    for i > 0 tree[i] = (a, c), the entry at which states[i] first appeared
    (a < i). More than `max_states` states raise CapExceeded.
    """
    labels = {initial: 0}
    states = [initial]
    rows = []
    tree = [None]
    for a, state in enumerate(states):  # the list grows while it is walked
        row = []
        for c in range(cols):
            target = step(state, c)
            label = labels.get(target)
            if label is None:
                if max_states is not None and len(states) >= max_states:
                    raise CapExceeded(f"coset action exceeds {max_states} states")
                label = labels[target] = len(states)
                states.append(target)
                tree.append((a, c))
            row.append(label)
        rows.append(row)
    return states, labels, rows, tree


class PermGroup:
    """A finite permutation group given by generators.

    Treat instances as immutable: the stabilizer chain and a few derived
    results (elements, derived subgroup, automorphism set) are cached on
    the instance, and the named-group constructors below share
    instances process-wide.
    """

    def __init__(self, degree, generators=(), *, degree_cap=DEFAULT_DEGREE_CAP):
        gens = []
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.degree_cap = degree_cap
        self._lock = threading.Lock()
        self._chain = None
        self._elements = None
        self._derived = None
        self._aut = None

    def _make_subgroup(self, generators, chain=None):
        """Subgroup on these generators; `chain`, if given, must have been
        built for exactly them."""
        sub = PermGroup(self.degree, generators, degree_cap=self.degree_cap)
        sub._chain = chain
        return sub

    @property
    def chain(self):
        # checked on every access, so it also holds for an installed chain
        if self.degree_cap is not None and self.degree > self.degree_cap:
            raise CapExceeded(f"degree {self.degree} exceeds cap {self.degree_cap}")
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    self._chain = _StabilizerChain(self.degree, self.generators)
        return self._chain

    def order(self):
        return self.chain.order()

    def contains(self, g):
        if g.degree != self.degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
        return self.chain.contains(g)

    def __contains__(self, g):
        return self.contains(g)

    def elements(self):
        """All elements, in breadth-first order of the Cayley graph on the
        generators (deterministic for a given generator list)."""
        if self._elements is None:
            n = self.order()  # enforces the degree cap before the walk
            gens = self.generators
            elements = _first_appearance(Perm.identity(self.degree), len(gens),
                                         lambda x, k: x * gens[k])[0]
            if len(elements) != n:
                raise RuntimeError("element enumeration disagrees with the group order")
            self._elements = tuple(elements)
        return self._elements

    def is_trivial(self):
        return not self.generators

    def is_abelian(self):
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])

    def is_subgroup_of(self, other):
        return self.degree == other.degree and all(g in other for g in self.generators)

    def equals_subgroup(self, other):
        """Same subgroup of Sym(degree): equal orders plus mutual membership."""
        return (self.degree == other.degree
                and self.order() == other.order()
                and self.is_subgroup_of(other))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, gens=[{gens}])"


def _sift_in(chain, elements):
    """Extend the chain by each element in turn; the elements that grew it
    (each at least doubles the order; the identity and repeats never do)."""
    return [x for x in elements if chain.extend([x])]


def normal_closure(group, seeds):
    """Smallest normal subgroup of `group` containing every seed element:
    the seeds, then the conjugates of kept generators by the group's
    generators, are each kept only if they grow the chain."""
    seeds = list(seeds)
    for s in seeds:
        if not group.contains(s):
            raise ValueError(f"element {s} is not in the group")
    chain = _StabilizerChain(group.degree)
    gens = _sift_in(chain, seeds)
    conjugators = [(g.inverse(), g) for g in group.generators]
    for h in gens:  # the list grows while it is walked
        gens.extend(_sift_in(chain, [ginv * h * g for ginv, g in conjugators]))
    return group._make_subgroup(gens, chain)


def derived_subgroup(group):
    """Commutator subgroup: normal closure of the generator commutators
    (cached on the instance)."""
    if group._derived is None:
        gens = group.generators
        seeds = [commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]]
        group._derived = normal_closure(group, seeds)
    return group._derived


def _reduce_generators(group, elements):
    """Subgroup of `group` generated by the elements, keeping in order each
    one that is not yet in the span of those kept before it."""
    chain = _StabilizerChain(group.degree)
    return group._make_subgroup(_sift_in(chain, elements), chain)


def _require_normal(group, sub, name):
    """Raise ValueError unless `sub` (called `name`) is normal in `group`."""
    if not sub.is_subgroup_of(group):
        raise ValueError(f"{name} is not contained in G")
    for g in group.generators:
        for h in sub.generators:
            if (g * h * g.inverse()) not in sub:
                raise ValueError(f"{name} is not normal in G (conjugation by {g})")


def centralizer(group, subgroup):
    """Centralizer of `subgroup` (must lie inside `group`) in `group`."""
    if not subgroup.is_subgroup_of(group):
        raise ValueError("subgroup is not contained in the ambient group")
    hgens = subgroup.generators
    central = [x for x in group.elements()
               if all(x * h == h * x for h in hgens)]
    return _reduce_generators(group, central)


def center(group):
    """Center of the group, by a scan of its elements."""
    return centralizer(group, group)


class QuotientAction:
    """A finite quotient G/N realized on the right cosets of N.

    `group` is the quotient as a permutation group of degree [G:N];
    `images` are the images of G's generators (aligned with them, identity
    entries included). `image_of` extends the quotient map to any element.
    """

    def __init__(self, group, images, reps, labels, normal_chain):
        self.group = group
        self.images = images
        self._reps = reps
        self._labels = labels
        self._canon = normal_chain.coset_key

    def image_of(self, x):
        labels = self._labels
        return Perm._raw(tuple(labels[self._canon(rep * x)] for rep in self._reps))


def quotient_regular_action(group, normal):
    """G/N as a permutation group on the cosets of N (N must be normal).

    Normality is always checked, never assumed. Cosets are told apart by
    `_StabilizerChain.coset_key` on N's chain; the key is itself an element
    of its coset, and Ng = gN, so a walk over the keys by right
    multiplication with G's generators labels the cosets in the order it
    meets them and reads the quotient images off its rows. Returns a
    QuotientAction so callers get both the quotient group and the quotient
    map on generators.
    """
    _require_normal(group, normal, "N")
    index = group.order() // normal.order()
    if index > DEFAULT_INDEX_CAP:
        raise CapExceeded(f"index {index} exceeds cap {DEFAULT_INDEX_CAP}")
    chain = normal.chain
    canon = chain.coset_key
    gens = group.generators
    keys, labels, rows, _ = _first_appearance(
        canon(Perm.identity(group.degree)), len(gens),
        lambda z, k: canon(Perm._raw(z) * gens[k]))
    if len(keys) != index:
        raise RuntimeError("coset count disagrees with the index")  # unreachable
    images = tuple(map(Perm._raw, zip(*rows)))
    quotient = PermGroup(index, images, degree_cap=None)
    return QuotientAction(quotient, images, [Perm._raw(z) for z in keys], labels, chain)


def direct_product(g, h):
    """G x H acting on the disjoint union of the two point sets."""
    dg, dh = g.degree, h.degree
    gens = [p.extended(dg + dh) for p in g.generators]
    shift = tuple(range(dg))
    for q in h.generators:
        gens.append(Perm._raw(shift + tuple(x + dg for x in q.images)))
    if g.degree_cap is None or h.degree_cap is None:
        cap = None
    else:
        cap = max(g.degree_cap, h.degree_cap, dg + dh)
    return PermGroup(dg + dh, gens, degree_cap=cap)


class _ChainElements(Sequence):
    """The elements of a stabilizer chain's group, as a read-only sequence.

    Its length is the chain's order and membership is a sift, so neither
    lists anything. An element is formed only when it is read: the one at
    index i is v_0 * v_1 * ... (v_0 applied first), where v_j is the stored
    inverse representative of the orbit point at level j picked by the
    j-th mixed-radix digit of i, the last level varying fastest. Each
    element of the group is the inverse of exactly one product of
    representatives u_last ... u_1 u_0, so each appears once.
    """

    def __init__(self, chain):
        self._chain = chain

    def __len__(self):
        return self._chain.order()

    def __contains__(self, g):
        return (isinstance(g, Perm) and g.degree == self._chain.degree
                and self._chain.contains(g))

    def __getitem__(self, i):
        n = len(self)
        if not -n <= i < n:
            raise IndexError("automorphism index out of range")
        i %= n
        chain = self._chain
        transversals = chain.transversals
        digits = []
        for tr in reversed(transversals):
            i, d = divmod(i, len(tr))
            digits.append(d)
        z = chain._identity
        for tr, d in zip(transversals, reversed(digits)):
            z = chain._compose(z, list(tr.values())[d])
        return Perm._raw(chain._unpack(z))

    def __iter__(self):
        chain = self._chain
        compose, unpack = chain._compose, chain._unpack
        levels = [tuple(tr.values()) for tr in chain.transversals]

        def walk(z, j):
            if j == len(levels):
                yield Perm._raw(unpack(z))
                return
            for v in levels[j]:
                yield from walk(compose(z, v), j + 1)

        return walk(chain._identity, 0)


class AutomorphismSet:
    """Result of an automorphism group search.

    The automorphisms act on element indices: one sends elements[i] to
    elements[m(i)]. `chain` is the stabilizer chain the search built for
    the group it found: its base is the positions of the kept generators,
    and its strong generators are automorphisms verified against the
    multiplication action of the group. `maps` lists that group as a
    read-only sequence: len(maps) is order(), read off the chain, and a map
    is formed only when it is read. When `complete` is true the group is
    the whole automorphism group: the search was exhaustive and the group
    contains all inner automorphisms. When the node budget ran out,
    `complete` is false and the group is the part found so far.
    `center_order` is |Z(G)|, counted off the search's conjugacy classes.
    The classes and the inner maps come from conjugations that the search
    verified exactly as it verified its strong generators.

    `as_perm_group`, `conjugation_map` and `inner_maps` (the conjugations
    by the base group's generators) act on a small point set S that every
    automorphism permutes faithfully, chosen on first use of any of them;
    see `as_perm_group`.
    """

    def __init__(self, base_group, chain, complete, elements, index, nodes_used,
                 center_order, fingerprint, conjugation):
        self.base_group = base_group
        self.chain = chain
        self.maps = _ChainElements(chain)
        self.complete = complete
        self.elements = tuple(elements)
        self.nodes_used = nodes_used
        self.center_order = center_order
        self._index = index
        self._fingerprint = fingerprint
        self._conjugation = conjugation
        self._points = None  # S, as element indices in increasing order
        self._pos = None  # _pos[x]: the position of element x in S
        self._perm_group = None

    def order(self):
        return self.chain.order()

    def inner_order(self):
        return self.base_group.order() // self.center_order

    def apply(self, automorphism, x):
        """Image of an arbitrary group element under one of the maps."""
        return self.elements[automorphism.images[self._index[x]]]

    @cached_property
    def inner_maps(self):
        """The conjugations by the base group's generators, as permutations
        of S."""
        return tuple(self.conjugation_map(g) for g in self.base_group.generators)

    def conjugation_map(self, g):
        """The inner automorphism x -> g x g^-1, as a permutation of S: an
        element of as_perm_group(): the search's conjugation by g, verified
        against the Cayley graph like a strong generator, restricted to S.
        ValueError if g is not in the base group."""
        if g not in self.base_group:
            raise ValueError(f"{format_cycles(g)} is not in the group")
        self.as_perm_group()
        return self._restrict(Perm._raw(self._conjugation(g)))

    def _restrict(self, automorphism):
        # one of the maps, as the permutation of S that it induces
        images, pos = automorphism.images, self._pos
        return Perm._raw(tuple([pos[images[x]] for x in self._points]))

    def as_perm_group(self):
        """The automorphism group acting faithfully on a small point set S.

        S is the union of fingerprint classes that `_generating_classes`
        picks: each class is the set of elements with one (element order,
        centralizer order) pair, which every automorphism preserves, so
        every automorphism permutes S. The classes generate G, and an
        automorphism that fixes a generating set pointwise fixes G, so
        restricting to S loses nothing. For S_6, S is the 30 transpositions
        and triple transpositions, against 720 elements. The group is
        generated by the restrictions of the search chain's strong
        generators, and it certifies itself: its order must be the chain's,
        or RuntimeError is raised (not an assert, so it holds under -O).
        """
        if self._perm_group is None:
            points = _generating_classes(self.elements, self._fingerprint)
            pos = [-1] * len(self.elements)
            for j, x in enumerate(points):
                pos[x] = j
            self._points, self._pos = points, pos
            group = PermGroup(len(points), [self._restrict(s) for s in self.chain.strong],
                              degree_cap=None)
            if group.order() != self.order():
                raise RuntimeError(
                    f"Aut acting on {len(points)} points has order {group.order()}, "
                    f"not {self.order()}: the action is not faithful")
            self._perm_group = group
        return self._perm_group


def _generating_classes(elements, fingerprint):
    """The point set S of AutomorphismSet.as_perm_group, as element indices
    in increasing order: whole fingerprint classes, smallest first (ties by
    their first element), each kept only if it grows the subgroup that the
    classes kept before it generate, until they generate the group."""
    classes = {}
    for x, f in enumerate(fingerprint):
        classes.setdefault(f, []).append(x)
    chain = _StabilizerChain(elements[0].degree)
    points = []
    for cls in sorted(classes.values(), key=len):
        if chain.order() == len(elements):
            break
        if chain.extend([elements[x] for x in cls]):
            points.extend(cls)
    return sorted(points)


def aut_group_search(group, budget=DEFAULT_AUT_NODE_BUDGET):
    """Search for the full automorphism group by a base-image backtrack.

    An automorphism that fixes the kept generators is trivial, so their
    positions are a base for Aut(G) acting on G. The search builds a
    stabilizer chain on that base from the last level up. Level i holds
    the automorphisms that fix the first i generators: a candidate image
    of generator i that lies outside the basic orbit found so far is
    searched depth first for one verified extension to the later
    generators. An extension found is a strong generator and grows the
    orbit; an exhausted subtree means that no automorphism sends generator
    i there. |Aut| is the product of the basic orbit lengths, and no
    product of maps is ever stored. Candidate images are pruned by the
    (element order, centralizer order) fingerprint, by the fingerprints
    of generator products, and by prefix orders: an automorphism keeps
    |<g_0..g_k>|, which grows with k. Every strong generator is verified
    against every edge of the Cayley graph. Only the order cap and the
    node budget bound the search. If the node budget runs out, the group
    found so far is returned flagged incomplete, after exactly `budget`
    nodes. The search is deterministic, so a complete result is cached and
    served to every later call whose budget would have let it finish.
    """
    if group._aut is not None and budget >= group._aut.nodes_used:
        return group._aut
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
    # the tree entry (a, k) of j, so a column follows from a's along the
    # tree. Only the images being verified, and their ancestors, get one.
    cols = {0: range(n)}

    def col(j, memo):
        path = []
        while j not in memo:
            path.append(j)
            j = tree[j][0]
        c = memo[j]
        for j in reversed(path):
            r = right[tree[j][1]]
            c = memo[j] = [r[x] for x in c]
        return c

    # the walk's edges x -> x * g_k in walk order, flagging the tree edge
    # that first reaches each element
    edges = [(x, k, y, tree[y] == (x, k))
             for x, row in enumerate(rows) for k, y in enumerate(row)]

    def verify(img, memo=cols):
        # phi(x g_k) = phi(x) img_k: tree edges define phi, each value at
        # most once (phi is injective), and every other edge is checked as
        # soon as the walk reaches it
        img_cols = [col(c, memo) for c in img]
        phi = [0] * n
        taken = bytearray(n)
        taken[0] = 1  # the identity, element 0, is its own image
        for x, k, y, tree in edges:
            v = img_cols[k][phi[x]]
            if tree:
                if taken[v]:
                    return None
                taken[v] = 1
                phi[y] = v
            elif phi[y] != v:
                return None
        return tuple(phi)

    def conjugation(g, memo=cols):
        # x -> g x g^-1 is an automorphism: verify extends and checks it
        phi = verify([index[g * h * g.inverse()] for h in kept], memo)
        if phi is None:
            raise RuntimeError("a conjugation failed the edge check")
        return phi

    # |C(x)| = |G| / |x^G|; the classes are the orbits of conjugation by the
    # kept generators
    conjugations = [conjugation(g) for g in kept]
    cent = [0] * n
    for i in range(n):
        if cent[i]:
            continue
        orbit = [i]
        cent[i] = -1
        for x in orbit:  # the list grows while it is walked
            for phi in conjugations:
                y = phi[x]
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
    # orders[k] = |<g_0..g_k>|, which an automorphism keeps; the fingerprint
    # holds it for k = 0, and verify decides k = m - 1
    orders = {k: _StabilizerChain(group.degree, kept[:k + 1]).order()
              for k in range(1, m - 1)}

    chain = _StabilizerChain(n)
    for b in gidx:
        chain._new_level(b)
    nodes = 0
    truncated = False

    def visit():
        # one search node: every candidate image looked at is one
        nonlocal nodes, truncated
        if nodes == budget:
            truncated = True
            return False
        nodes += 1
        return True

    def fits(img, c):
        # c as the image after img, against the fingerprints of the
        # products with img, read off the elements (no column is built),
        # and against the prefix order
        x = elems[c]
        k = len(img)
        return (all(fingerprint[index[elems[a] * x]] == t
                    for a, t in zip(img, targets[k]))
                and (k not in orders or orders[k] == _StabilizerChain(
                    group.degree, [elems[a] for a in img] + [x]).order()))

    def extension(img):
        # depth first: one verified automorphism with these first images
        if len(img) == m:
            return verify(img)
        for c in candidates[len(img)]:
            if not visit():
                return None
            if fits(img, c):
                phi = extension(img + [c])
                if phi is not None:
                    return phi
        return None

    # The walk reaches each generator from the identity by a tree edge, so
    # a verified map sends g_l to img[l]: one found at level i fixes the
    # first i generators and moves g_i out of its orbit so far.
    for i in reversed(range(m)):
        prefix = gidx[:i]
        orbit = chain.transversals[i]  # grows as generators are placed
        for c in candidates[i]:
            if not visit():
                break
            if c in orbit or not fits(prefix, c):
                continue
            phi = extension(prefix + [c])
            if phi is not None:
                chain._place(chain._pack(phi), i)

    # the result keeps the memo, so it must not keep the backtrack's
    # columns, and a conjugation asked of it later memoizes in a copy that
    # ends with the call
    cols.clear()
    cols[0] = range(n)

    def later_conjugation(g):
        return conjugation(g, dict(cols))

    result = AutomorphismSet(group, chain, not truncated, elems, index, nodes,
                             cent.count(n), fingerprint, later_conjugation)
    if result.complete:
        if not all(chain.contains(Perm._raw(conjugation(g))) for g in group.generators):
            raise RuntimeError("search missed an inner automorphism")
        group._aut = result
    return result


@lru_cache(maxsize=None)
def trivial_group(degree=1):
    return PermGroup(degree, ())


@lru_cache(maxsize=None)
def symmetric_group(n):
    """S_n on n points, generated by (1 2) and (1 2 ... n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return PermGroup(1, ())
    swap = Perm.from_cycles(n, [[0, 1]])
    if n == 2:
        return PermGroup(2, [swap])
    cycle = Perm.from_cycles(n, [list(range(n))])
    return PermGroup(n, [swap, cycle])


@lru_cache(maxsize=None)
def alternating_group(n):
    """A_n, generated by (1 2 3) and an n- or (n-1)-cycle by parity."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return PermGroup(max(n, 1), ())
    three = Perm.from_cycles(n, [[0, 1, 2]])
    if n == 3:
        return PermGroup(3, [three])
    if n % 2 == 1:
        big = Perm.from_cycles(n, [list(range(n))])
    else:
        big = Perm.from_cycles(n, [list(range(1, n))])
    return PermGroup(n, [three, big])


@lru_cache(maxsize=None)
def cyclic_group(n):
    """Z_n in its regular action on n points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return PermGroup(1, ())
    return PermGroup(n, [Perm.from_cycles(n, [list(range(n))])])


@lru_cache(maxsize=None)
def dihedral_group(n):
    """D_n of order 2n acting on the n vertices of a regular n-gon."""
    if n < 3:
        raise ValueError("dihedral groups need n >= 3 here")
    rot = Perm.from_cycles(n, [list(range(n))])
    ref = Perm([(n - i) % n for i in range(n)])
    return PermGroup(n, [rot, ref])


@lru_cache(maxsize=None)
def klein_four_group():
    """V_4 inside A_4: the two double transpositions generate it."""
    a = Perm.from_cycles(4, [[0, 1], [2, 3]])
    b = Perm.from_cycles(4, [[0, 2], [1, 3]])
    return PermGroup(4, [a, b])
