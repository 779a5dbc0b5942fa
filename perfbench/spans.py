"""Span tracing for the traced benchmark pass, from outside the program.

`Tracer.install` replaces public functions of cpgroups with wrappers in
every cpgroups module namespace that binds them, so calls made through
`cp`, `knot`, `catalog` or `cli` are seen as well as direct ones. Each call
records a span (name, start, end, parent span, job id) in memory, plus
counts read from the returned object. `summary` turns the spans into the
per-layer metrics; `write` dumps them as JSON lines when the run ends.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


def _chain_counts(chain, args):
    return {"base_len": len(chain.base), "strong_gens": len(chain.strong),
            "transversal_points": sum(len(t) for t in chain.transversals)}


def _uv_bits(result, args):
    u, d, v = result
    bits = max((abs(x).bit_length() for m in (u, v) for row in m.entries
                for x in row), default=0)
    return {"cells": d.rows * d.cols, "uv_max_bits": bits}


# (module, attribute, span name, counts from (result, args))
FUNCTIONS = (
    ("perm", "aut_group_search", "perm.aut_group_search",
     lambda r, a: {"nodes": r.nodes_used, "maps": len(r.maps)}),
    ("perm", "normal_closure", "perm.normal_closure", None),
    ("perm", "centralizer", "perm.centralizer", None),
    ("perm", "quotient_regular_action", "perm.quotient_regular_action",
     lambda r, a: {"index": r.group.degree, "normal_order": a[1].order()}),
    ("fp", "todd_coxeter", "fp.todd_coxeter", lambda r, a: {"index": r.index}),
    ("fp", "reidemeister_schreier", "fp.reidemeister_schreier",
     lambda r, a: {"gens": r.ngens, "relators": len(r.relators)}),
    ("fp", "coset_table_from_action", "fp.coset_table_from_action",
     lambda r, a: {"states": r.index}),
    ("fp", "parse_presentation", "fp.parse_presentation", None),
    ("fp", "abelianization", "fp.abelianization", None),
    ("homalg", "smith_normal_form", "homalg.smith_normal_form", _uv_bits),
    ("homalg", "cokernel_structure", "homalg.cokernel_structure", None),
    ("cp", "cp_subgroup", "cp.cp_subgroup", None),
    ("cp", "derived_p_series", "cp.derived_p_series", None),
    ("cp", "cp_group_verdict", "cp.cp_group_verdict", None),
    ("cp", "verify_s6_pipeline", "cp.verify_s6_pipeline", None),
    ("cp", "cp_kernel_coset_table", "cp.cp_kernel_coset_table", None),
    ("knot", "trefoil_even_obstruction", "knot.trefoil_even_obstruction", None),
    ("catalog", "run", "catalog.run", None),
    ("cli", "run", "cli.run", lambda r, a: {"exit_nonzero": int(r != 0)}),
    ("cli", "render", "cli.render", None),
)

# The per-layer metrics reported, as (metric, unit). "<span>.calls",
# ".self_s" and ".s" (inclusive seconds) come from the spans; the rest are
# summed counts, except uv_max_bits, which is a maximum.
METRICS = (
    ("perm.aut_group_search.calls", "count"), ("perm.aut_group_search.self_s", "s"),
    ("perm.aut_group_search.nodes", "count"), ("perm.aut_group_search.maps", "count"),
    ("perm.as_perm_group.s", "s"),
    ("perm.chain.builds", "count"), ("perm.chain.build_s", "s"),
    ("perm.chain.base_len", "count"), ("perm.chain.strong_gens", "count"),
    ("perm.chain.transversal_points", "count"),
    ("perm.quotient_regular_action.self_s", "s"),
    ("perm.quotient_regular_action.index", "count"),
    ("perm.quotient_regular_action.normal_order", "count"),
    ("perm.normal_closure.calls", "count"), ("perm.normal_closure.self_s", "s"),
    ("perm.centralizer.self_s", "s"),
    ("perm.elements.calls", "count"), ("perm.elements.count", "count"),
    ("fp.todd_coxeter.calls", "count"), ("fp.todd_coxeter.self_s", "s"),
    ("fp.todd_coxeter.index", "count"), ("fp.todd_coxeter.budget_exhausted", "count"),
    ("fp.reidemeister_schreier.self_s", "s"), ("fp.reidemeister_schreier.gens", "count"),
    ("fp.reidemeister_schreier.relators", "count"),
    ("fp.coset_table_from_action.self_s", "s"),
    ("fp.coset_table_from_action.states", "count"),
    ("fp.parse_presentation.s", "s"),
    ("homalg.smith_normal_form.calls", "count"), ("homalg.smith_normal_form.self_s", "s"),
    ("homalg.smith_normal_form.cells", "count"),
    ("homalg.smith_normal_form.uv_max_bits", "bits"),
    ("homalg.cokernel_structure.calls", "count"),
    ("homalg.cokernel_structure.self_s", "s"),
    ("fp.abelianization.self_s", "s"),
    ("cp.cp_subgroup.self_s", "s"), ("cp.derived_p_series.self_s", "s"),
    ("cp.cp_group_verdict.self_s", "s"), ("cp.verify_s6_pipeline.self_s", "s"),
    ("cp.cp_kernel_coset_table.self_s", "s"),
    ("knot.trefoil_even_obstruction.self_s", "s"),
    ("catalog.run.self_s", "s"),
    ("cli.run.calls", "count"), ("cli.run.self_s", "s"),
    ("cli.run.exit_nonzero", "count"),
    ("cli.render.s", "s"), ("cli.output_bytes", "bytes"),
)


class Tracer:
    """Spans in memory for one process; `job` tags the spans of each job."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.counts = defaultdict(int)
        self.stack = []
        self.job = None
        self.budget_error = None

    def traced(self, name, fn, counts=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else -1, self.job])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if isinstance(exc, self.budget_error):
                    self.counts[name + ".budget_exhausted"] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if counts is not None:
                for key, value in counts(result, args).items():
                    if key == "uv_max_bits":
                        self.counts[f"{name}.{key}"] = max(
                            self.counts[f"{name}.{key}"], value)
                    else:
                        self.counts[f"{name}.{key}"] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        from cpgroups import errors, perm

        self.budget_error = errors.BudgetExhausted
        modules = [m for key, m in sys.modules.items()
                   if key == "cpgroups" or key.startswith("cpgroups.")]
        for home, attr, name, counts in FUNCTIONS:
            original = getattr(sys.modules[f"cpgroups.{home}"], attr)
            wrapper = self.traced(name, original, counts)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

        # Methods: only cold calls do work; cached ones return at once.
        build_chain = self.traced("perm.chain", perm.PermGroup.chain.fget,
                                  _chain_counts)

        def chain(group):
            return group._chain if group._chain is not None else build_chain(group)

        perm.PermGroup.chain = property(chain)

        elements = self.traced("perm.elements", perm.PermGroup.elements,
                               lambda r, a: {"count": len(r)})

        def elements_cold(group):
            return group._elements if group._elements is not None else elements(group)

        perm.PermGroup.elements = elements_cold
        perm.AutomorphismSet.as_perm_group = self.traced(
            "perm.as_perm_group", perm.AutomorphismSet.as_perm_group)

    def summary(self):
        """Per-layer totals: calls, inclusive and self seconds, counts."""
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, child):
            total[name + ".calls"] += 1
            total[name + ".s"] += end - start
            total[name + ".self_s"] += end - start - inner
        total.update(self.counts)
        total["perm.chain.builds"] = total["perm.chain.calls"]
        total["perm.chain.build_s"] = total["perm.chain.s"]
        return total

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
