"""Named verification checks behind the CLI `verify` subcommand.

Every item recomputes one documented result of the library on fixed inputs
and compares against frozen expected values, returning a short detail
string or raising CheckFailed at the first value that differs. Each item
carries a wall-time budget that the acceptance tests assert. Item IDs are
stable: removing or renaming one is a breaking change for downstream
scripts that pin them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import cp, fp, homalg, knot, perm
from .errors import ConjugationNotInnerError
from .homalg import AbelianStructure


class CheckFailed(Exception):
    """A catalog check computed something other than its frozen value.

    Not a ValueError: the CLI reports those as input errors (exit 2).
    """


def _expect(label, got, want):
    """Raise CheckFailed unless got == want; unlike assert, this also runs
    under python -O."""
    if got != want:
        raise CheckFailed(f"{label}: expected {want!r}, got {got!r}")


@dataclass(frozen=True)
class CatalogItem:
    id: str
    description: str
    check: object
    budget_s: float = 1.0  # wall-time ceiling asserted by the acceptance tests


def _zn_quotients():
    for n in range(2, 25):
        for p in range(1, 13):
            group = perm.cyclic_group(n)
            sub = cp.cp_subgroup(group, p)
            expected = gcd(n, p)
            _expect(f"[Z_{n} : C^{p}]", group.order() // sub.order(), expected)
            presented = homalg.cokernel_structure(homalg.IntMatrix([[n], [p]]))
            _expect(f"coker [[{n}], [{p}]]", presented, homalg.cyclic(expected))
    return "quotient order gcd(n, p) for n in 2..24, p in 1..12, both routes"


def _z_infinite_row():
    for p in range(1, 13):
        _expect(f"Z (x) Z_{p}", homalg.tensor_with_zp(homalg.Z, p), homalg.cyclic(p))
        _expect(f"coker [[0], [{p}]]",
                homalg.cokernel_structure(homalg.IntMatrix([[0], [p]])),
                homalg.cyclic(p))
    return "Z / pZ = Z_p for p in 1..12 (the gcd(0, p) = p row)"


def _cp_of_symmetric():
    for n in range(3, 8):
        sn = perm.symmetric_group(n)
        an = perm.alternating_group(n)
        for p in (1, 3, 5):
            _expect(f"|C^{p}(S_{n})|", cp.cp_subgroup(sn, p).order(), sn.order())
        for p in (2, 4, 6):
            _expect(f"C^{p}(S_{n}) == A_{n}",
                    cp.cp_subgroup(sn, p).equals_subgroup(an), True)
    return "C^p(S_n) is S_n for odd p and A_n for even p, n in 3..7"


def _cp_of_alternating():
    v4 = perm.klein_four_group()
    for p in range(2, 9):
        a3 = cp.cp_subgroup(perm.alternating_group(3), p)
        _expect(f"|C^{p}(A_3)|", a3.order(), 1 if p % 3 == 0 else 3)
        a4 = cp.cp_subgroup(perm.alternating_group(4), p)
        if p % 3 == 0:
            _expect(f"C^{p}(A_4) == V_4", a4.equals_subgroup(v4), True)
        else:
            _expect(f"|C^{p}(A_4)|", a4.order(), 12)
        for n in (5, 6, 7):
            an = perm.alternating_group(n)
            _expect(f"|C^{p}(A_{n})|", cp.cp_subgroup(an, p).order(), an.order())
    return "C^p(A_n): trivial/V_4 exactly when n=3,4 and 3|p, else all of A_n"


def _s3_verdicts():
    s3 = perm.symmetric_group(3)
    v_odd = cp.cp_group_verdict(s3, 3)
    _expect("S_3 verdict for p = 3", (v_odd.status, v_odd.reason),
            (cp.IS_CP_GROUP, cp.SELF_WITNESS))
    v_even = cp.cp_group_verdict(s3, 2)
    _expect("S_3 verdict for p = 2", (v_even.status, v_even.reason),
            (cp.NOT_CP_GROUP, cp.COMPLETE_CRITERION))
    return "S_3: self-witness for odd p, complete-group obstruction for even p"


def _free_abelianization_quotients():
    free2 = fp.FpPresentation(("a", "b"), ())
    _expect("F_2 / C^2", cp.cp_quotient_fp(free2, 2), AbelianStructure(torsion=(2, 2)))
    trefoil = knot.torus_knot_group(3, 2)
    _expect("trefoil / C^5", cp.cp_quotient_fp(trefoil, 5), homalg.cyclic(5))
    zmn = fp.parse_presentation("< a, b | a^3, b^2 >")
    _expect("(Z_3 * Z_2) / C^6", cp.cp_quotient_fp(zmn, 6), homalg.cyclic(6))
    return "G/C^p(G) is (Z_p)^r when the abelianization is Z^r"


def _product_law():
    s3 = perm.symmetric_group(3)
    z4 = perm.cyclic_group(4)
    prod = perm.direct_product(s3, z4)
    for p in (2, 3, 4):
        left = cp.cp_subgroup(prod, p)
        right = perm.direct_product(cp.cp_subgroup(s3, p), cp.cp_subgroup(z4, p))
        _expect(f"C^{p}(S_3 x Z_4) == C^{p}(S_3) x C^{p}(Z_4)",
                left.equals_subgroup(right), True)
    return "C^p(G x H) = C^p(G) x C^p(H) on S_3 x Z_4 for p in 2..4"


def _exact_sequence_cases():
    s3 = perm.symmetric_group(3)
    g = perm.direct_product(s3, perm.cyclic_group(2))
    h = perm.direct_product(s3, perm.trivial_group(2))
    _expect("sequence for S_3 x Z_2 over S_3", cp.verify_exact_sequence(g, h), True)
    _expect("sequence for S_3 over S_3", cp.verify_exact_sequence(s3, s3), True)
    try:
        cp.verify_exact_sequence(perm.alternating_group(4), perm.klein_four_group())
        witness_order = None
    except ConjugationNotInnerError as e:
        witness_order = e.witness.order()
    _expect("order of the A_4/V_4 non-inner witness", witness_order, 3)
    return "centralizer exact sequence on two valid cases plus the A_4/V_4 refusal"


def _torus_knot_abelianizations():
    for m, n in ((3, 2), (5, 2), (5, 3), (7, 2)):
        _expect(f"H_1(T_{{{m},{n}}})",
                fp.abelianization(knot.torus_knot_group(m, n)), homalg.Z)
    return "torus knot groups abelianize to Z"


def _torus_criterion_grid():
    for m in range(2, 13):
        for n in range(2, 13):
            if gcd(m, n) != 1:
                continue
            for p in range(2, 31):
                _expect(f"preimage of T_{{{m},{n}}} for p = {p}",
                        knot.torus_preimage_exists(m, n, p), gcd(m * n, p) == 1)
    return "preimage exists iff gcd(mn, p) = 1 on the 2..12 x 2..30 grid"


def _trefoil_not_in_rp3():
    _expect("preimage of T_{3,2} for p = 2", knot.torus_preimage_exists(3, 2, 2), False)
    return "the trefoil is not a 2-fold preimage (order-2 lens space)"


def _surgery_coefficients():
    a = knot.chbili_q(3, 2, 5)
    _expect("(exists, q, q_inverse) for (3, 2, 5)", (a.exists, a.q, a.q_inverse),
            (True, 4, 4))
    b = knot.chbili_q(3, 2, 7)
    _expect("(exists, q) for (3, 2, 7)", (b.exists, b.q), (True, 5))
    _expect("exists for (3, 2, 6)", knot.chbili_q(3, 2, 6).exists, False)
    return "q = 4 mod 5 and q = 5 mod 7 for the trefoil; none for p = 6"


def _e2_table():
    table = homalg.lhs_e2_table(3, 2, 5, s_max=6, t_max=6)
    _expect("E2[0, 1]", table.entry(0, 1), homalg.cyclic(6))
    _expect("E2[1, 0]", table.entry(1, 0), homalg.cyclic(5))
    _expect("E2[2, 2]", table.entry(2, 2), homalg.TRIVIAL)
    for k in range(7):
        _expect(f"anti-diagonal {k}", table.anti_diagonal(k),
                homalg.cyclic_homology(30, k))
    return "second-page entries and anti-diagonal reassembly for (3, 2, 5)"


def _five_term():
    _expect("five-term for 30", homalg.five_term_from_multiplication(30),
            (homalg.TRIVIAL, homalg.cyclic(30)))
    _expect("five-term for 1", homalg.five_term_from_multiplication(1),
            (homalg.TRIVIAL, homalg.TRIVIAL))
    _expect("five-term for 0", homalg.five_term_from_multiplication(0),
            (homalg.Z, homalg.Z))
    return "five-term resolution of multiplication by 30, 1, and 0"


def _component_counts():
    for p, c, want in ((6, 4, 2), (5, 1, 1), (5, 0, 5)):
        _expect(f"components for p = {p}, class {c}",
                knot.preimage_component_count(p, c), want)
    return "component count is gcd(class, p)"


def _cover_homology(p, expected):
    presentation = knot.torus_knot_group(3, 2)
    sub = cp.cp_kernel_presentation(presentation, p)
    _expect(f"H_1 of the p = {p} cover subgroup", fp.abelianization(sub), expected)
    return f"p = {p} cover subgroup abelianizes to {expected}"


def _trefoil_pipeline(p):
    report = knot.trefoil_even_obstruction(p)
    _expect("verdict", report.verdict, "OBSTRUCTED")
    _expect("failed steps", [s.name for s in report.steps if not s.passed], [])
    _expect("kernel index", report.steps[1].data["index"], 6)
    kernel_step = report.steps[2].data
    _expect("Schreier generators", kernel_step["schreier_generator_count"], 7)
    _expect("Schreier generators checked", kernel_step["checked"], 7)
    return f"all four certified steps pass for p = {p}"


def _s6_pipeline():
    report = cp.verify_s6_pipeline(2)
    _expect("|Aut(S_6)|", report.aut_order, 1440)
    _expect("|C^2(Aut(S_6))|", report.cp_of_aut_order, 360)
    _expect("C^2(Aut(S_6)) is the image of A_6",
            report.cp_equals_alternating_image, True)
    _expect("Inn(S_6) inside C^2(Aut(S_6))", report.inner_contained_in_cp, False)
    _expect("verdict", report.verdict, cp.NOT_CP_GROUP)
    return "Aut order 1440, operator image of order 360, verdict NOT_CP_GROUP"


def _trefoil_series(p):
    report = cp.derived_p_series(knot.torus_knot_group(3, 2), p, 2)
    _expect("successive quotients", report.quotients, [homalg.cyclic(p)] * 2)
    return f"both successive quotients are Z_{p}"


def _s3_series():
    report = cp.derived_p_series(perm.symmetric_group(3), 6, 2)
    _expect("level orders", [level.group.order() for level in report.levels], [3, 1])
    return "S_3 reaches the trivial group at level 2 for p = 6"


def _conditional_obstruction():
    sample = fp.parse_presentation("< a, b | a b a b^-1 a^-1 b^-1 >")
    report = knot.complete_group_obstruction(sample, assert_out_trivial=True,
                                             p_max=6)
    _expect("verdict", report.verdict, "OBSTRUCTED_CONDITIONAL")
    _expect("entries", len(report.entries), 5)
    try:
        knot.complete_group_obstruction(knot.torus_knot_group(3, 2))
        refused = False
    except ValueError:
        refused = True
    _expect("trefoil without the assertion flag refused", refused, True)
    return "conditional obstruction for p in 2..6; unasserted input refused"


CATALOG = (
    CatalogItem("table1.zn", "cyclic group quotients two ways", _zn_quotients),
    CatalogItem("table1.gcd0", "infinite cyclic row of the quotient table",
                _z_infinite_row),
    CatalogItem("excp.sn", "operator on symmetric groups", _cp_of_symmetric),
    CatalogItem("propA.an", "operator on alternating groups", _cp_of_alternating),
    CatalogItem("ex.issncp.s3", "S_3 verdicts by parity of p", _s3_verdicts),
    CatalogItem("lem.freeab", "mod-p quotients of free-abelianized groups",
                _free_abelianization_quotients),
    CatalogItem("lem.cpproduct", "operator respects direct products", _product_law),
    CatalogItem("lem.centralizer.exact", "centralizer exact sequence",
                _exact_sequence_cases),
    CatalogItem("lem.knotab", "torus knot abelianizations", _torus_knot_abelianizations),
    CatalogItem("cor.torus.grid", "preimage criterion grid", _torus_criterion_grid,
                1 / 3),
    CatalogItem("cor.torus.rp3", "trefoil has no 2-fold preimage", _trefoil_not_in_rp3,
                1 / 3),
    CatalogItem("prop.chbili.q", "surgery coefficient values",
                _surgery_coefficients, 1 / 3),
    CatalogItem("lem.e2.table", "second-page homology table", _e2_table, 0.5),
    CatalogItem("cor.torus.fiveterm", "five-term resolution", _five_term, 0.5),
    CatalogItem("rem.components", "preimage component counts", _component_counts),
    CatalogItem("thmcov.trefoil.p2", "2-fold cover homology",
                lambda: _cover_homology(2, AbelianStructure(1, (3,))), 2.5),
    CatalogItem("thmcov.trefoil.p3", "3-fold cover homology",
                lambda: _cover_homology(3, AbelianStructure(1, (2, 2))), 2.5),
    CatalogItem("exA.trefoil.p2", "trefoil obstruction pipeline, p = 2",
                lambda: _trefoil_pipeline(2), 2.5),
    CatalogItem("exA.trefoil.p6", "trefoil obstruction pipeline, p = 6",
                lambda: _trefoil_pipeline(6), 2.5),
    CatalogItem("exA.s6", "sixth symmetric group pipeline", _s6_pipeline, 60.0),
    CatalogItem("corB.series.trefoil.p2", "trefoil derived 2-series",
                lambda: _trefoil_series(2), 10.0),
    CatalogItem("corB.series.trefoil.p3", "trefoil derived 3-series",
                lambda: _trefoil_series(3), 10.0),
    CatalogItem("remB.series.s3.p6", "S_3 derived 6-series", _s3_series, 10.0),
    CatalogItem("cor.out.conditional", "conditional outer-triviality obstruction",
                _conditional_obstruction),
)

_BY_ID = {item.id: item for item in CATALOG}


def item_ids():
    return [item.id for item in CATALOG]


def run(ids=None):
    """Run selected items (default all); returns one result dict per item."""
    if ids is None:
        items = CATALOG
    else:
        missing = [i for i in ids if i not in _BY_ID]
        if missing:
            raise ValueError(
                f"unknown catalog ids {missing}; known ids: {', '.join(item_ids())}")
        items = [_BY_ID[i] for i in ids]
    results = []
    for item in items:
        try:
            detail = item.check()
            results.append({"id": item.id, "description": item.description,
                            "passed": True, "detail": detail})
        except Exception as exc:  # a failing check is data, not a crash
            results.append({"id": item.id, "description": item.description,
                            "passed": False, "detail": f"{type(exc).__name__}: {exc}"})
    return results
