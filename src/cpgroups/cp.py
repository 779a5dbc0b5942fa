"""The subgroup generated by commutators and p-th powers, and the decision
machinery built on it.

For a group G and p >= 1, the operator returns the subgroup generated by
all commutators [g, h] and all p-th powers g^p. Its quotient G / C is
abelian of exponent dividing p, so C is exactly the kernel of
G -> G^ab / p G^ab. That characterization drives both implementations here:

* for a finite permutation group, C = < derived subgroup, g_i^p > over the
  generators g_i (any subgroup containing the derived subgroup is normal,
  and modulo it the generator powers span the p-th multiples);
* for a presented group, the cosets of C biject with G^ab tensor Z_p, on
  which G acts by translation through the abelianized generator images, so
  a coset table and then a Reidemeister-Schreier presentation of C are
  immediate.

A group H is called a C^p-group when H is isomorphic to the operator's
value on some other group. `cp_group_verdict` certifies the negative
cases this package can decide (complete groups, and groups whose
automorphism group traps the inner automorphisms) and reports
INCONCLUSIVE otherwise; INCONCLUSIVE is an honest outcome, not a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import BudgetExhausted, CapExceeded, ConjugationNotInnerError
from .homalg import (AbelianStructure, IntMatrix, smith_normal_form,
                     tensor_with_zp)
from .perm import (DEFAULT_AUT_NODE_BUDGET, PermGroup, _ChainElements,
                   _require_normal, _sift_in, alternating_group,
                   aut_group_search, center, centralizer, derived_subgroup,
                   symmetric_group)
from .fp import (FpPresentation, abelianization,
                 coset_table_from_action, reidemeister_schreier)

DEFAULT_SERIES_INDEX_CAP = 10_000


def cp_subgroup(group, p):
    """C^p of a finite permutation group, as a subgroup.

    Equals < [G,G], g^p for generators g >; the result contains the derived
    subgroup, hence is normal, and [G : result] = |G^ab tensor Z_p|.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    derived = derived_subgroup(group)
    chain = derived.chain.copy()  # the cached chain itself stays as it is
    powers = _sift_in(chain, [g ** p for g in group.generators])
    return group._make_subgroup(derived.generators + tuple(powers), chain)


def cp_quotient_fp(presentation, p):
    """Structure of G / C^p(G) for a presented G: the abelianization mod p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return tensor_with_zp(abelianization(presentation), p)


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def cp_quotient_perm(group, p):
    """Structure of G / C^p(G) for a finite permutation group G.

    The quotient is abelian of exponent dividing p, and for d | p its
    quotient mod d is G / C^d(G). So for each prime q | p the indices
    [G : C^(q^j)(G)] = q^(s_j), taken while q^j | p, fix the q-part:
    s_j - s_(j-1) cyclic factors have order at least q^j. The exponent
    also divides |G|, so p is first reduced to gcd(p, |G|), whose primes
    are at most the degree.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    n = group.order()
    p = gcd(p, n)
    prime_powers = []
    for q in _prime_factors(p):
        counts = []  # counts[j - 1]: cyclic q-factors of order >= q^j
        prev = 0
        qj = q
        while p % qj == 0:
            index = n // cp_subgroup(group, qj).order()
            s = 0
            while index % q == 0:
                index //= q
                s += 1
            if index != 1:
                raise RuntimeError(f"index of C^{qj} is not a power of {q}")
            if s == prev:
                break
            counts.append(s - prev)
            prev = s
            qj *= q
        for j, c in enumerate(counts, start=1):
            following = counts[j] if j < len(counts) else 0
            prime_powers.extend([q ** j] * (c - following))
    return AbelianStructure.from_cyclic_factors(prime_powers)


def _mod_p_quotient_data(presentation, p):
    """Coordinates for G^ab tensor Z_p: per-generator vectors and moduli."""
    ngens = presentation.ngens
    rows = [w.exponent_vector(ngens) for w in presentation.relators]
    rows.extend([p if i == j else 0 for j in range(ngens)] for i in range(ngens))
    _, d, v = smith_normal_form(IntMatrix(rows))
    moduli = [d[j, j] for j in range(ngens)]
    vectors = [[v[i, j] % moduli[j] for j in range(ngens)] for i in range(ngens)]
    size = 1
    for m in moduli:
        size *= m
    return vectors, moduli, size


def cp_kernel_coset_table(presentation, p, max_index=DEFAULT_SERIES_INDEX_CAP):
    """Coset table of C^p(G) from the translation action on G^ab tensor Z_p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    vectors, moduli, size = _mod_p_quotient_data(presentation, p)
    if size > max_index:
        raise CapExceeded(f"quotient order {size} exceeds cap {max_index}")

    def act(state, gen, sign):
        vec = vectors[gen]
        return tuple((x + sign * vec[j]) % moduli[j] for j, x in enumerate(state))

    start = tuple(0 for _ in moduli)
    table = coset_table_from_action(presentation, start, act, size)
    if table.index != size:
        raise RuntimeError("translation action orbit is smaller than the quotient")
    return table


def cp_kernel_presentation(presentation, p, max_index=DEFAULT_SERIES_INDEX_CAP):
    """Presentation of C^p(G) via Reidemeister-Schreier on the mod-p table."""
    table = cp_kernel_coset_table(presentation, p, max_index)
    return reidemeister_schreier(presentation, table)


@dataclass(frozen=True)
class PSeriesLevel:
    """One step of the derived p-series: the subgroup, the quotient above it,
    and the index over the previous level."""

    group: object
    quotient: AbelianStructure
    index: int


@dataclass(frozen=True)
class PSeriesReport:
    """Iterated application of the operator, with successive quotients."""

    p: int
    requested_depth: int
    kind: str
    levels: tuple
    truncated_at: object = None

    def __post_init__(self):
        for lvl in self.levels:
            if lvl.quotient.order() != lvl.index:
                raise ValueError("level index disagrees with its quotient order")
            if lvl.index > 1 and self.p % lvl.quotient.exponent() != 0:
                raise ValueError("quotient exponent does not divide p")

    @property
    def quotients(self):
        return [lvl.quotient for lvl in self.levels]

    def to_dict(self):
        levels = []
        for lvl in self.levels:
            entry = {"index": lvl.index, "quotient": lvl.quotient.as_dict()}
            if isinstance(lvl.group, FpPresentation):
                entry["presentation"] = str(lvl.group)
            else:
                entry["order"] = lvl.group.order()
            levels.append(entry)
        return {"p": self.p, "depth": self.requested_depth, "kind": self.kind,
                "levels": levels, "truncated_at": self.truncated_at}


def derived_p_series(obj, p, depth, budget=DEFAULT_SERIES_INDEX_CAP):
    """Iterate the operator `depth` times on a presentation or PermGroup.

    Level k records the k-th subgroup, the quotient above it, and its index.
    If a level's index would exceed the budget, the report is truncated
    there and flagged, with all completed levels kept.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    levels = []
    truncated_at = None
    if isinstance(obj, FpPresentation):
        kind = "presentation"
        cur = obj
        for k in range(depth):
            quotient = cp_quotient_fp(cur, p)
            if quotient.order() > budget:
                truncated_at = k
                break
            # the report checks the table's index against the quotient
            table = cp_kernel_coset_table(cur, p, budget)
            sub = reidemeister_schreier(cur, table)
            levels.append(PSeriesLevel(sub, quotient, table.index))
            cur = sub
    elif isinstance(obj, PermGroup):
        kind = "permutation"
        cur = obj
        for k in range(depth):
            sub = cp_subgroup(cur, p)
            index = cur.order() // sub.order()
            if index > budget:
                truncated_at = k
                break
            quotient = cp_quotient_perm(cur, p)
            if index == 1:  # a stationary level keeps cur and its derived subgroup
                sub = cur
            levels.append(PSeriesLevel(sub, quotient, index))
            cur = sub
    else:
        raise TypeError(f"expected FpPresentation or PermGroup, got {type(obj)!r}")
    return PSeriesReport(p, depth, kind, tuple(levels), truncated_at)


IS_CP_GROUP = "IS_CP_GROUP"
NOT_CP_GROUP = "NOT_CP_GROUP"
INCONCLUSIVE = "INCONCLUSIVE"

SELF_WITNESS = "SELF_WITNESS"
COMPLETE_CRITERION = "COMPLETE_CRITERION"
AUT_CRITERION = "AUT_CRITERION"
NO_REASON = "NONE"

_VALID_VERDICTS = {
    (IS_CP_GROUP, SELF_WITNESS),
    (NOT_CP_GROUP, COMPLETE_CRITERION),
    (NOT_CP_GROUP, AUT_CRITERION),
    (INCONCLUSIVE, NO_REASON),
}


@dataclass(frozen=True)
class CpVerdict:
    """Machine-checkable answer to "is H a C^p-group?".

    The certificate carries the orders behind the verdict so it can be
    re-verified independently of the search that produced it.
    """

    status: str
    reason: str
    certificate: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.status, self.reason) not in _VALID_VERDICTS:
            raise ValueError(f"invalid verdict {self.status}/{self.reason}")


def _complete_aut_search(group, aut_budget):
    """The automorphism search's result, or BudgetExhausted saying how far
    a truncated search got: no verdict may rest on a partial set."""
    aset = aut_group_search(group, aut_budget)
    if not aset.complete:
        raise BudgetExhausted(
            f"automorphism search budget {aut_budget} exhausted after "
            f"{aset.nodes_used} nodes with {aset.order()} maps found; "
            "no sound verdict")
    return aset


def cp_group_verdict(group, p, aut_budget=DEFAULT_AUT_NODE_BUDGET):
    """Decide whether the group is a C^p-group, where these criteria can.

    SELF_WITNESS: the operator fixes the group, which exhibits it as its own
    witness. COMPLETE_CRITERION: a complete group that the operator moves is
    never a C^p-group. AUT_CRITERION: if it were one, the operator applied
    to its automorphism group would trap every inner automorphism; if that
    containment fails, it is not one. Anything else is INCONCLUSIVE.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
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

    aut_perm = aset.as_perm_group()
    cp_aut = cp_subgroup(aut_perm, p)
    cert["cp_of_aut_order"] = cp_aut.order()
    contained = all(m in cp_aut for m in aset.inner_maps)
    cert["inner_in_cp_of_aut"] = contained
    if not contained:
        return CpVerdict(NOT_CP_GROUP, AUT_CRITERION, cert)
    return CpVerdict(INCONCLUSIVE, NO_REASON, cert)


def verify_exact_sequence(group, subgroup):
    """Brute-force the exact sequence 1 -> Z(H) -> H x C_G(H) -> G -> 1.

    Requires H normal in G with every conjugation by G restricting to an
    inner automorphism of H; a generator violating that is reported as the
    witness of a precondition error, not as a False return. The map
    phi: z -> (z, z^-1) is injective by construction, so exactness is checked
    at H x C_G(H) (image of phi = kernel of psi: (h, c) -> hc) and at G
    (psi onto G).
    """
    _require_normal(group, subgroup, "H")
    h_elements = subgroup.elements()
    h_gens = subgroup.generators
    for g in group.generators:
        ginv = g.inverse()
        if not any(all(g * h * ginv == h0 * h * h0.inverse() for h in h_gens)
                   for h0 in h_elements):
            raise ConjugationNotInnerError(
                f"conjugation by {g} is not inner on H", witness=g)

    zh = center(subgroup)
    cg = centralizer(group, subgroup)
    z_elements = zh.elements()
    c_elements = cg.elements()

    phi_image = {(z, z.inverse()) for z in z_elements}
    psi_kernel = {(h, c) for h in h_elements for c in c_elements
                  if (h * c).is_identity()}
    if phi_image != psi_kernel:
        return False
    products = {h * c for h in h_elements for c in c_elements}
    if len(products) != group.order():
        return False
    if any(x not in group for x in products):
        return False
    return True


@dataclass(frozen=True)
class S6PipelineReport:
    """Every computed step of the sixth symmetric group obstruction."""

    p: int
    aut_order: int
    inner_order: int
    cp_of_aut_order: int
    cp_equals_alternating_image: bool
    inner_contained_in_cp: bool
    outer_order_10_exists: bool
    aut_over_inner_index: int
    aut_over_cp_index: int
    counting_contradiction: bool
    verdict: str


def verify_s6_pipeline(p, aut_budget=DEFAULT_AUT_NODE_BUDGET):
    """Certify that S_6 is not a C^p-group for even p.

    Computes Aut(S_6) by search, applies the operator to it, checks the
    result is exactly the conjugation image of A_6 (order 360), checks that
    image misses inner automorphisms, and re-checks that the index counting
    identity [Aut : Inn] = [Aut : C][C : Inn] cannot hold, which is the
    contradiction the verdict rests on. Every step after the search acts on
    the 30 transpositions and triple transpositions of S_6, not on its 720
    elements (see AutomorphismSet.as_perm_group).

    For odd p the operator fixes S_6 (self witness), so odd p is rejected
    here rather than silently answering the wrong question.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError("this pipeline applies to even p >= 2 only")
    if p > 12:
        raise ValueError("p capped at 12 (desk scale)")
    s6 = symmetric_group(6)
    aset = _complete_aut_search(s6, aut_budget)
    aut_perm = aset.as_perm_group()
    aut_order = aset.order()
    inner_order = aset.inner_order()

    cp_aut = cp_subgroup(aut_perm, p)
    a6 = alternating_group(6)
    image_gens = [aset.conjugation_map(g) for g in a6.generators]
    alt_image = PermGroup(aut_perm.degree, image_gens, degree_cap=None)
    equals_image = cp_aut.equals_subgroup(alt_image)

    inner_group = PermGroup(aut_perm.degree, aset.inner_maps, degree_cap=None)
    inner_contained = all(m in cp_aut for m in aset.inner_maps)

    # the elements of the small action are formed one at a time, and the
    # scan stops at its first hit
    outer10 = any(m.order() == 10 and m not in inner_group
                  for m in _ChainElements(aut_perm.chain))

    aut_over_inner = aut_order // inner_order
    aut_over_cp = aut_order // cp_aut.order()
    # were Inn <= C, the identity [Aut:Inn] = [Aut:C][C:Inn] would force
    # [Aut:C] to divide [Aut:Inn] = 2
    contradiction = aut_over_inner % aut_over_cp != 0

    ok = (aut_order == 1440 and equals_image and not inner_contained
          and contradiction)
    if not ok:
        raise RuntimeError("pipeline step failed; this is a build bug")
    return S6PipelineReport(
        p=p,
        aut_order=aut_order,
        inner_order=inner_order,
        cp_of_aut_order=cp_aut.order(),
        cp_equals_alternating_image=equals_image,
        inner_contained_in_cp=inner_contained,
        outer_order_10_exists=outer10,
        aut_over_inner_index=aut_over_inner,
        aut_over_cp_index=aut_over_cp,
        counting_contradiction=contradiction,
        verdict=NOT_CP_GROUP,
    )
