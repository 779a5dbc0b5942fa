"""Knot-theoretic applications: torus knot groups, the lens-space preimage
criterion, the surgery coefficient formula, component counts, and the two
certified obstruction pipelines.

A knot group here is any presentation whose abelianization is infinite
cyclic. The preimage question for the torus knot T_{m,n} in a p-fold cyclic
quotient reduces to arithmetic (gcd(mn, p) = 1), and when a preimage
exists, the residue q of the target lens space is pinned down modulo p up
to inversion. The trefoil pipeline certifies the even-p obstruction
step by step through an explicit map onto S_3; the generic pipeline works
conditionally on an asserted (never computed) trivial outer automorphism
group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cp import NOT_CP_GROUP, cp_group_verdict, cp_quotient_fp
from .fp import FpPresentation, Word, abelianization, evaluate_word, \
    kernel_coset_table, verify_hom
from .homalg import Z, cyclic
from .perm import Perm, PermGroup, symmetric_group


@dataclass(frozen=True)
class TorusKnotParams:
    """Coprime torus knot parameters with |m|, |n| >= 2; (m, n) and (n, m)
    give the same knot, so the canonical form keeps |m| >= |n|."""

    m: int
    n: int

    def __post_init__(self):
        if abs(self.m) < 2 or abs(self.n) < 2:
            raise ValueError("|m| and |n| must be >= 2")
        if gcd(self.m, self.n) != 1:
            raise ValueError(f"m and n must be coprime, got gcd = {gcd(self.m, self.n)}")

    @classmethod
    def normalized(cls, m, n):
        if abs(m) < abs(n):
            m, n = n, m
        return cls(m, n)


def torus_knot_group(m, n):
    """The two-generator one-relator presentation < a, b | a^m = b^n >."""
    TorusKnotParams(m, n)
    return FpPresentation(("a", "b"), (Word(((0, m), (1, -n))),))


def torus_preimage_exists(m, n, p):
    """Whether T_{m,n} (or its mirror) is a connected p-fold preimage of a
    knot in some lens space of order p: true iff gcd(mn, p) = 1."""
    if m < 2 or n < 2 or p < 2:
        raise ValueError("m, n, p must all be >= 2")
    if gcd(m, n) != 1:
        raise ValueError("m and n must be coprime")
    return gcd(m * n, p) == 1


@dataclass(frozen=True)
class LensSurgeryAnswer:
    """Which lens space can have a knot with preimage T_{m,n}.

    When `exists`, q is the residue in [1, p-1] with p | m - n*q; it is
    unique there, determined only up to inversion mod p, so the inverse
    class is reported alongside. `multiple` is the integer (m - n*q) / p
    certifying the divisibility.
    """

    m: int
    n: int
    p: int
    exists: bool
    q: int | None = None
    q_inverse: int | None = None
    multiple: int | None = None

    def __post_init__(self):
        if self.exists:
            if gcd(self.q, self.p) != 1:
                raise ValueError("q must be a unit mod p")
            if self.m - self.n * self.q != self.multiple * self.p:
                raise ValueError("divisibility certificate fails")


def chbili_q(m, n, p):
    """Surgery coefficient for a torus knot preimage: q = m(1 - p p*)/n mod p,
    where p* inverts p modulo n. Negative m, n are accepted; everything is
    exact integer arithmetic, reduced only at the end."""
    if abs(m) < 2 or abs(n) < 2 or p < 2:
        raise ValueError("|m|, |n|, p must all be >= 2")
    if gcd(m, n) != 1:
        raise ValueError("m and n must be coprime")
    if gcd(m * n, p) != 1:
        return LensSurgeryAnswer(m, n, p, exists=False)
    p_star = pow(p, -1, abs(n))
    numerator = m * (1 - p * p_star)
    if numerator % n != 0:
        raise RuntimeError("p* inversion failed")  # unreachable
    q = (numerator // n) % p
    if gcd(q, p) != 1:
        raise RuntimeError("q is not a unit mod p")  # unreachable
    multiple = (m - n * q) // p
    if m - n * q != multiple * p:
        raise RuntimeError("divisibility certificate failed")  # unreachable
    return LensSurgeryAnswer(m, n, p, exists=True, q=q,
                             q_inverse=pow(q, -1, p), multiple=multiple)


def preimage_component_count(p, c):
    """Number of components of the p-fold preimage of a knot whose homology
    class reduces to c mod p: p divided by the order of c, i.e. gcd(c, p)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return gcd(c % p, p)


@dataclass(frozen=True)
class PipelineStep:
    name: str
    passed: bool
    data: dict


@dataclass(frozen=True)
class TrefoilObstructionReport:
    p: int
    steps: tuple
    verdict: str
    assumptions: tuple


def trefoil_even_obstruction(p):
    """Certify that the trefoil is not a p-fold preimage for even p.

    Four steps, each recomputed and checked:
      1. a -> (1 2 3), b -> (1 2) defines a homomorphism onto S_3;
      2. its kernel has index 6;
      3. the kernel is preserved by the generator-inverting automorphism
         (checked on every Schreier generator), hence characteristic;
      4. S_3 is not a C^p-group for this even p.
    A failing step raises; it cannot fail unless the build itself is broken.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError("the obstruction applies to even p >= 2 only")
    presentation = torus_knot_group(3, 2)
    images = [Perm.from_cycles(3, [[0, 1, 2]]), Perm.from_cycles(3, [[0, 1]])]
    steps = []

    hom_ok = verify_hom(presentation, images)
    image_order = PermGroup(3, images).order()
    steps.append(PipelineStep("hom_onto_s3", hom_ok and image_order == 6,
                              {"image_order": image_order}))

    table = kernel_coset_table(presentation, images)
    steps.append(PipelineStep("kernel_index_6", table.index == 6,
                              {"index": table.index}))

    theta = [Word(((0, -1),)), Word(((1, -1),))]
    schreier = table.schreier_generators()
    all_fixed = all(
        evaluate_word(word.substitute(theta), images).is_identity()
        for _, _, word in schreier)
    steps.append(PipelineStep(
        "kernel_characteristic", all_fixed,
        {"schreier_generator_count": len(schreier),
         "checked": len(schreier)}))

    verdict = cp_group_verdict(symmetric_group(3), p)
    steps.append(PipelineStep(
        "s3_not_cp_group", verdict.status == NOT_CP_GROUP,
        {"status": verdict.status, "reason": verdict.reason,
         "cp_order": verdict.certificate.get("cp_order")}))

    for step in steps:
        if not step.passed:
            raise RuntimeError(f"pipeline step {step.name} failed: {step.data}")
    return TrefoilObstructionReport(
        p=p, steps=tuple(steps), verdict="OBSTRUCTED",
        assumptions=(
            "every outer automorphism class of the trefoil group is "
            "represented by the generator-inverting map, so checking it "
            "suffices for characteristicity",))


@dataclass(frozen=True)
class OutObstructionReport:
    assumption: str
    p_max: int
    entries: tuple
    verdict: str


def complete_group_obstruction(presentation, assert_out_trivial=False, p_max=6):
    """Conditional obstruction for a knot group with trivial outer
    automorphism group.

    Out-triviality is an input assumption, never computed: there is no
    finite procedure for it here, and for torus knot groups it is actually
    false (their outer automorphism group has order 2), so refusing to
    assume it is the only honest default. Given the assumption, for every
    p in [2, p_max] the quotient by the operator is Z_p, nontrivial, which
    contradicts the operator fixing the group; the obstruction is emitted
    conditionally on the assumption.
    """
    if not assert_out_trivial:
        raise ValueError(
            "caller must assert Out(G) = 1 (pass assert_out_trivial=True); "
            "this is not machine-checkable here, and torus knot groups, "
            "whose outer automorphism group has order 2, do not qualify")
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    ab = abelianization(presentation)
    if ab != Z:
        raise ValueError(
            f"abelianization is {ab}, not Z: not a knot group presentation")
    entries = []
    for p in range(2, p_max + 1):
        quotient = cp_quotient_fp(presentation, p)
        if quotient != cyclic(p):
            raise RuntimeError("quotient disagrees with the rank-1 formula")
        entries.append({"p": p, "quotient": quotient.as_dict(),
                        "obstructed": True})
    return OutObstructionReport(
        assumption="Out(G) = 1 asserted by the caller (not computed)",
        p_max=p_max, entries=tuple(entries),
        verdict="OBSTRUCTED_CONDITIONAL")
