"""Command line front end.

Every subcommand builds one payload dict and renders it either as JSON or
as flattened key=value lines (same data either way; values are JSON
scalars). Exit codes: 0 success (or a true answer), 1 a false/negative
answer with the detail in the payload, 2 input errors, 3 exhausted
budgets, 4 internal errors (a failed self-check, any other unexpected
exception such as MemoryError, or an output stream that closed before the
payload was written).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict
from math import factorial, lcm

from . import catalog
from .errors import BudgetExhausted
from .homalg import IntMatrix, lhs_e2_table, smith_normal_form
from . import cp as cp_mod
from . import fp as fp_mod
from . import knot as knot_mod
from . import perm as perm_mod

_NAMED_GROUP = re.compile(r"([SAZD])([0-9]+)")


def split_top_level(text, sep=","):
    """Split on `sep` at parenthesis depth 0."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def group_from_spec(text):
    """A permutation group from "S5", "A6", "Z12", "D4", "V4", or cycles.

    Named families are capped at n <= 10; anything else is a comma-separated
    list of generators in cycle notation, e.g. "(1 2), (1 2 3 4)".
    """
    s = text.strip()
    if s == "V4":
        return perm_mod.klein_four_group()
    m = _NAMED_GROUP.fullmatch(s)
    if m:
        kind, n = m.group(1), int(m.group(2))
        if n > 10:
            raise ValueError(
                f"named group {s!r} exceeds the n <= 10 convenience cap; "
                "pass explicit cycles instead")
        if kind == "S":
            return perm_mod.symmetric_group(n)
        if kind == "A":
            return perm_mod.alternating_group(n)
        if kind == "Z":
            return perm_mod.cyclic_group(n)
        return perm_mod.dihedral_group(n)
    gens = [perm_mod.parse_cycles(piece) for piece in split_top_level(s)
            if piece.strip()]
    if not gens:
        raise ValueError(f"no generators in group spec {text!r}")
    degree = max(g.degree for g in gens)
    return perm_mod.PermGroup(degree, [g.extended(degree) for g in gens])


def _flatten(value, prefix, out):
    """Append the text lines `key=value` of `value`, at the dotted key
    `prefix`, to the list `out`.

    Each value is what json.dumps gives: a list of plain ints is written
    in one comprehension, and ints, bools and printable ASCII strings
    without quotes or backslashes are written directly; every other
    scalar goes through json.dumps."""
    if isinstance(value, dict):
        if not value:
            out.append(prefix + "={}")
        for k, v in value.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append(prefix + "=[]")
        head = prefix + "." if prefix else ""
        if set(map(type, value)) == {int}:
            out.extend([f"{head}{i}={v}" for i, v in enumerate(value)])
        else:
            for i, v in enumerate(value):
                _flatten(v, f"{head}{i}", out)
    else:
        out.append(f"{prefix}={_scalar(value)}")


def _scalar(value):
    # json.dumps(value), skipping the call where the encoding is plain
    kind = type(value)
    if kind is int:
        return str(value)  # int.__repr__, as json writes it
    if kind is bool:
        return "true" if value else "false"
    if (kind is str and value.isascii() and value.isprintable()
            and '"' not in value and "\\" not in value):
        return f'"{value}"'
    return json.dumps(value)


def _json(value, pad, out):
    """Append json.dumps(value, indent=2), for a value nested at indentation
    `pad`, to the list `out` in pieces, which are joined once.

    Dicts with str keys and lists recurse. A list of plain ints or of
    strs is written with str.join. Every scalar and key goes through
    `_scalar`, as in the text format, and every other container through
    json.dumps, so the bytes are the same. (indent=2 on the whole payload
    would run it all through json's pure-Python encoder.)"""
    if not isinstance(value, (dict, list, tuple)):
        out.append(_scalar(value))  # indent changes containers only
        return
    inner = pad + "  "
    types = set(map(type, value))
    if type(value) is dict and value and types == {str}:
        head = "{\n" + inner
        for k, v in value.items():
            out.append(f"{head}{_scalar(k)}: ")
            _json(v, inner, out)
            head = ",\n" + inner
        out.append("\n" + pad + "}")
    elif type(value) not in (list, tuple) or not value:
        out.append(json.dumps(value, indent=2).replace("\n", "\n" + pad))
    elif types == {int}:
        out.append(_lines(map(str, value), pad))
    elif types == {str}:
        out.append(_lines(map(_scalar, value), pad))
    else:
        head = "[\n" + inner
        for v in value:
            out.append(head)
            _json(v, inner, out)
            head = ",\n" + inner
        out.append("\n" + pad + "]")


def _lines(items, pad):
    # a list of already encoded items, one per line
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def render(payload, fmt):
    if fmt == "json":
        out = []
        _json(payload, "", out)
        return "".join(out)
    lines = []
    _flatten(payload, "", lines)
    return "\n".join(lines)


def _group_payload(spec, group):
    return {"group": spec, "degree": group.degree, "order": group.order()}


def _recognize(group, sub, spec):
    if sub.is_trivial():
        return "1"
    if sub.order() == group.order():
        return spec
    if sub.degree <= 10:
        # a subgroup of S_n of order n!/2 whose generators are even is A_n;
        # a permutation's parity is that of n minus its number of cycles
        if sub.degree >= 3 and 2 * sub.order() == factorial(sub.degree) and all(
                sum(len(c) - 1 for c in g.cycles()) % 2 == 0 for g in sub.generators):
            return f"A{sub.degree}"
        if sub.degree == 4 and sub.order() == 4 \
                and sub.equals_subgroup(perm_mod.klein_four_group()):
            return "V4"
    # an abelian H is cyclic iff its exponent, the lcm of its generators'
    # orders, is |H|
    if sub.is_abelian() and lcm(*(g.order() for g in sub.generators)) == sub.order():
        return f"Z{sub.order()}"
    return None


def _subgroup_words(presentation, text):
    if not text or not text.strip():
        return []
    return [fp_mod.parse_word(presentation.generators, piece)
            for piece in split_top_level(text) if piece.strip()]


def cmd_order(args):
    group = group_from_spec(args.group)
    return _group_payload(args.group, group), 0


def cmd_cp_subgroup(args):
    group = group_from_spec(args.group)
    sub = cp_mod.cp_subgroup(group, args.p)
    payload = _group_payload(args.group, group)
    payload.update({
        "p": args.p,
        "subgroup_order": sub.order(),
        "index": group.order() // sub.order(),
        "name": _recognize(group, sub, args.group),
        "subgroup_generators": [str(g) for g in sub.generators],
    })
    return payload, 0


def cmd_cp_quotient(args):
    presentation = fp_mod.parse_presentation(args.presentation)
    structure = cp_mod.cp_quotient_fp(presentation, args.p)
    return {"presentation": str(presentation), "p": args.p,
            "quotient": structure.as_dict()}, 0


def cmd_cp_kernel(args):
    presentation = fp_mod.parse_presentation(args.presentation)
    table = cp_mod.cp_kernel_coset_table(presentation, args.p, args.budget)
    sub = fp_mod.reidemeister_schreier(presentation, table)
    return {"presentation": str(presentation), "p": args.p,
            "index": table.index, "kernel_presentation": str(sub),
            "kernel_abelianization": fp_mod.abelianization(sub).as_dict()}, 0


def cmd_series(args):
    if bool(args.presentation) == bool(args.group):
        raise ValueError("give exactly one of --presentation or --group")
    if args.presentation:
        obj = fp_mod.parse_presentation(args.presentation)
        source = args.presentation
    else:
        obj = group_from_spec(args.group)
        source = args.group
    report = cp_mod.derived_p_series(obj, args.p, args.depth, args.budget)
    payload = {"input": source, **report.to_dict()}
    return payload, 3 if report.truncated_at is not None else 0


def cmd_verdict(args):
    group = group_from_spec(args.group)
    verdict = cp_mod.cp_group_verdict(group, args.p, args.budget)
    payload = {"group": args.group, "p": args.p, **asdict(verdict)}
    return payload, 0 if verdict.status == cp_mod.IS_CP_GROUP else 1


def cmd_aut(args):
    group = group_from_spec(args.group)
    aset = perm_mod.aut_group_search(group, args.budget)
    payload = _group_payload(args.group, group)
    payload.update({
        "aut_order": aset.order(),
        "inner_order": aset.inner_order(),
        "complete": aset.complete,
        "all_inner": aset.order() == aset.inner_order() if aset.complete else None,
        "nodes_used": aset.nodes_used,
    })
    return payload, 0 if aset.complete else 3


def cmd_coset_enum(args):
    presentation = fp_mod.parse_presentation(args.presentation)
    words = _subgroup_words(presentation, args.subgroup)
    table = fp_mod.todd_coxeter(presentation, words, args.max_cosets)
    return {"presentation": str(presentation),
            "subgroup": [w.render(presentation.generators) for w in words],
            "index": table.index,
            "table": table.rows}, 0


def cmd_rs(args):
    presentation = fp_mod.parse_presentation(args.presentation)
    words = _subgroup_words(presentation, args.subgroup)
    table = fp_mod.todd_coxeter(presentation, words, args.max_cosets)
    sub = fp_mod.reidemeister_schreier(presentation, table)
    return {"presentation": str(presentation), "index": table.index,
            "schreier_generators": len(table.schreier_edges()),
            "subgroup_presentation": str(sub),
            "subgroup_abelianization": fp_mod.abelianization(sub).as_dict()}, 0


def cmd_abelianize(args):
    presentation = fp_mod.parse_presentation(args.presentation)
    return {"presentation": str(presentation),
            "abelianization": fp_mod.abelianization(presentation).as_dict()}, 0


def cmd_snf(args):
    try:
        rows = json.loads(args.matrix)
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix must be a JSON row list: {exc}") from exc
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix must be a list of rows")
    matrix = IntMatrix(rows)
    u, d, v = smith_normal_form(matrix)
    # matrices print as bracketed row lists, strings that are themselves JSON
    return {"matrix": str(matrix), "U": str(u), "D": str(d), "V": str(v),
            "diagonal": list(d.diagonal_entries())}, 0


def cmd_torus_cover(args):
    exists = knot_mod.torus_preimage_exists(args.m, args.n, args.p)
    return {"m": args.m, "n": args.n, "p": args.p, "exists": exists}, \
        0 if exists else 1


def cmd_chbili_q(args):
    answer = knot_mod.chbili_q(args.m, args.n, args.p)
    return asdict(answer), 0 if answer.exists else 1


def cmd_components(args):
    count = knot_mod.preimage_component_count(args.p, args.c)
    return {"p": args.p, "class": args.c, "components": count}, 0


def cmd_trefoil_obstruction(args):
    report = knot_mod.trefoil_even_obstruction(args.p)
    return asdict(report), 0


def cmd_out_obstruction(args):
    presentation = fp_mod.parse_presentation(args.presentation)
    report = knot_mod.complete_group_obstruction(
        presentation, assert_out_trivial=args.assert_out_trivial,
        p_max=args.p_max)
    return {"presentation": str(presentation), **asdict(report)}, 0


def cmd_s6(args):
    report = cp_mod.verify_s6_pipeline(args.p, args.budget)
    return asdict(report), 0


def cmd_e2_table(args):
    table = lhs_e2_table(args.m, args.n, args.p, args.s_max, args.t_max)
    entries = [{"s": s, "t": t, "entry": entry.as_dict()}
               for s, t, entry in table.nonzero_entries()]
    return {"m": args.m, "n": args.n, "p": args.p,
            "s_max": args.s_max, "t_max": args.t_max,
            "nonzero_entries": entries,
            "verified_degrees": list(range(min(args.s_max, args.t_max) + 1))}, 0


def cmd_verify(args):
    ids = None if args.target == "all" else [args.target]
    results = catalog.run(ids)
    passed = sum(1 for r in results if r["passed"])
    payload = {"items": results, "passed": passed, "total": len(results)}
    return payload, 0 if passed == len(results) else 1


def positive_int(text):
    """Argument type for budgets: 0 or less is an input error, not "default"."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing never changes
    it, so every `run` can share it."""
    parser = argparse.ArgumentParser(
        prog="cpgroups",
        description="Commutator-and-pth-power subgroup workbench")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text key=value lines)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, func, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    def limit(p, flag, default, help_text):
        p.add_argument(flag, type=positive_int, default=default,
                       help=f"{help_text} (default %(default)s)")

    p = add("order", cmd_order, "order of a permutation group")
    p.add_argument("--group", required=True)

    p = add("cp-subgroup", cmd_cp_subgroup,
            "subgroup generated by commutators and p-th powers")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("cp-quotient", cmd_cp_quotient,
            "structure of G modulo that subgroup, for a presented G")
    p.add_argument("--presentation", required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("cp-kernel", cmd_cp_kernel,
            "presentation of the subgroup, for a presented G")
    p.add_argument("--presentation", required=True)
    p.add_argument("--p", type=int, required=True)
    limit(p, "--budget", cp_mod.DEFAULT_SERIES_INDEX_CAP, "largest quotient order")

    p = add("series", cmd_series, "iterate the operator to a given depth")
    p.add_argument("--presentation")
    p.add_argument("--group")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    limit(p, "--budget", cp_mod.DEFAULT_SERIES_INDEX_CAP, "largest index per level")

    p = add("verdict", cmd_verdict, "is the group a C^p-group?")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, required=True)
    limit(p, "--budget", perm_mod.DEFAULT_AUT_NODE_BUDGET, "search nodes")

    p = add("aut", cmd_aut, "automorphism group by certified search")
    p.add_argument("--group", required=True)
    limit(p, "--budget", perm_mod.DEFAULT_AUT_NODE_BUDGET, "search nodes")

    p = add("coset-enum", cmd_coset_enum, "Todd-Coxeter coset enumeration")
    p.add_argument("--presentation", required=True)
    p.add_argument("--subgroup", default="",
                   help="comma-separated subgroup generator words")
    limit(p, "--max-cosets", fp_mod.DEFAULT_MAX_COSETS, "cosets")

    p = add("rs", cmd_rs, "Reidemeister-Schreier subgroup presentation")
    p.add_argument("--presentation", required=True)
    p.add_argument("--subgroup", default="")
    limit(p, "--max-cosets", fp_mod.DEFAULT_MAX_COSETS, "cosets")

    p = add("abelianize", cmd_abelianize, "abelianization of a presentation")
    p.add_argument("--presentation", required=True)

    p = add("snf", cmd_snf, "Smith normal form of an integer matrix")
    p.add_argument("--matrix", required=True,
                   help='JSON row list, e.g. "[[3, -2]]"')

    p = add("torus-cover", cmd_torus_cover,
            "can T_{m,n} be a p-fold lens space preimage?")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)

    p = add("chbili-q", cmd_chbili_q, "surgery coefficient of the target lens space")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)

    p = add("components", cmd_components, "preimage component count")
    p.add_argument("p", type=int)
    p.add_argument("c", type=int)

    p = add("trefoil-obstruction", cmd_trefoil_obstruction,
            "certified even-p obstruction for the trefoil")
    p.add_argument("--p", type=int, required=True)

    p = add("out-obstruction", cmd_out_obstruction,
            "conditional obstruction under asserted Out(G) = 1")
    p.add_argument("--presentation", required=True)
    p.add_argument("--assert-out-trivial", action="store_true")
    p.add_argument("--p-max", type=int, default=6)

    p = add("s6", cmd_s6, "sixth symmetric group pipeline")
    p.add_argument("--p", type=int, required=True)
    limit(p, "--budget", perm_mod.DEFAULT_AUT_NODE_BUDGET, "search nodes")

    p = add("e2-table", cmd_e2_table, "second-page homology table")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--s-max", type=int, default=6)
    p.add_argument("--t-max", type=int, default=6)

    p = add("verify", cmd_verify, "run the named verification catalog")
    p.add_argument("target", help="a catalog id, or 'all'")

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        if type(exc) is MemoryError and not str(exc):  # as the interpreter raises it
            budget = ("--max-cosets" if hasattr(args, "max_cosets")
                      else "--budget" if hasattr(args, "budget") else None)
            message = ("out of memory; " + (f"a smaller {budget} or " if budget else "")
                       + "a larger memory limit may let the command finish")
        print(f"internal error: {message}", file=sys.stderr)
        return 4
    try:
        print(render(payload, args.format))
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the exit-time flush would raise again on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"internal error: output closed early: {exc}", file=sys.stderr)
        return 4
    return code


def main(argv=None):
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
