"""Per-layer metrics from a cProfile run of the package.

Layers are the package's modules.  Functions are found through their code
objects, so the metrics follow a function when lines move; a function that a
later version removes simply reports 0.  Counts come from cProfile's call
counts, which repeat exactly for a fixed seed; times are cProfile's own and
carry its overhead.
"""
from __future__ import annotations

import cProfile
import fractions
import importlib
import os
import pstats

MODULES = ("field", "poly", "classes", "exceptional", "reduction", "vandermonde", "cli")

F = "polyred.field:"
P = "polyred.poly:"
C = "polyred.classes:"
R = "polyred.reduction:"

# metric -> functions whose primitive-plus-recursive call counts are summed
CALLS = {
    "field.inverse.calls": [F + "FieldElement.inverse"],
    "field.mul.calls": [F + "FieldElement.__mul__"],
    "field.add.calls": [F + "FieldElement.__add__"],
    "field.normalize.calls": [F + "CyclotomicField._normalized"],
    "field.coerce.calls": [F + "FieldElement._co", F + "CyclotomicField.from_rational",
                           F + "CyclotomicField.element"],
    "field.compare.calls": [F + "FieldElement.__lt__", F + "FieldElement.__eq__",
                            F + "FieldElement.__hash__"],
    "field.sqrt.calls": [F + "FieldElement.sqrt"],
    "poly.eval.calls": [P + "Poly.__call__"],
    "poly.derivative.calls": [P + "Poly.derivative"],
    "poly.mul.calls": [P + "Poly.__mul__"],
    "poly.solve_linear.calls": [P + "solve_linear"],
    "classes.canonical_invariant.calls": [C + "canonical_invariant"],
    "classes.finite_subset.calls": [C + "FiniteSubset.__init__"],
    "exceptional.decompose.calls": ["polyred.exceptional:decompose"],
    "reduction.search_nodes": [R + "_search_degree.rec"],
    "reduction.certificate.calls": [R + "_fiber_certificate"],
    "vandermonde.exact_rank.calls": ["polyred.vandermonde:exact_rank"],
}
# metric -> functions whose cumulative times are summed (none nests in another)
CUM = {
    "field.inverse.cum_s": [F + "FieldElement.inverse"],
    "field.sqrt.cum_s": [F + "FieldElement.sqrt"],
    "poly.solve_linear.cum_s": [P + "solve_linear"],
    "classes.canonical_invariant.cum_s": [C + "canonical_invariant"],
    "classes.linear_maps_between.cum_s": [C + "linear_maps_between"],
    "exceptional.decompose.cum_s": ["polyred.exceptional:decompose"],
    "reduction.find_reductions.cum_s": [R + "find_reductions"],
    "reduction.successors.cum_s": [R + "successors"],
    "vandermonde.exact_rank.cum_s": ["polyred.vandermonde:exact_rank"],
    "cli.build_poset.cum_s": ["polyred.cli:build_poset"],
    "cli.parse.cum_s": ["polyred.cli:build_parser", "polyred.cli:parse_set_file",
                        "polyred.cli:_parse_element", "polyred.cli:_parse_elements"],
}
SELF = {"field.mul.self_s": [F + "FieldElement.__mul__"]}
# metric -> (callee, caller, index into cProfile's per-caller tuple (cc, nc, tt, ct))
UNDER = {
    "cli.emit.cum_s": ("json:dumps", "polyred.cli:main", 3),
    "cli.parse.cum_s": ("argparse:ArgumentParser.parse_args", "polyred.cli:main", 3),
    "cli.poset.pairs_searched": (R + "find_reductions", "polyred.cli:build_poset", 1),
}


def _code(path: str):
    """Code object for "module:Qual.name"; a last part that is not an attribute
    names a function nested in the one before it.  None when it is gone."""
    modname, _, qual = path.partition(":")
    obj = importlib.import_module(modname)
    parts = qual.split(".")
    for i, part in enumerate(parts):
        nxt = getattr(obj, part, None)
        if nxt is None:
            code = getattr(obj, "__code__", None)
            if code is None or i != len(parts) - 1:
                return None
            return next((c for c in code.co_consts
                         if getattr(c, "co_name", None) == part), None)
        obj = nxt
    obj = getattr(obj, "__func__", obj)
    obj = getattr(obj, "__wrapped__", obj)
    return getattr(obj, "__code__", None)


def _key(code):
    return (code.co_filename, code.co_firstlineno, code.co_name)


def metric_names() -> list[str]:
    names = list(CALLS) + list(CUM) + list(SELF) + list(UNDER)
    names += [f"{m}.self_s" for m in MODULES]
    names += ["field.fraction_self_s", "reduction.certificate_yield",
              "trace.overhead_frac"]
    return list(dict.fromkeys(names))


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_frac")):
        return "ratio"
    return "count"


class Profiled:
    """cProfile plus a pass counter on the fiber certificate, for one block."""

    def __init__(self):
        self.keys = {}
        paths = {p for group in (CALLS, CUM, SELF) for ps in group.values() for p in ps}
        paths |= {p for callee, caller, _ in UNDER.values() for p in (callee, caller)}
        for p in paths:
            code = _code(p)
            self.keys[p] = _key(code) if code is not None else None
        self.cert_runs = 0
        self.cert_passes = 0
        self.stats = None

    def __enter__(self):
        import polyred.reduction as red
        self._red = red
        self._orig = red._fiber_certificate
        orig = self._orig

        def counted_certificate(P, A, B):
            out = orig(P, A, B)
            self.cert_runs += 1
            self.cert_passes += out is not None
            return out

        red._fiber_certificate = counted_certificate
        self._prof = cProfile.Profile()
        self._prof.enable()
        return self

    def __exit__(self, *exc):
        self._prof.disable()
        self._red._fiber_certificate = self._orig
        self.stats = pstats.Stats(self._prof).stats
        return False

    def _entry(self, path):
        key = self.keys.get(path)
        return self.stats.get(key) if key else None

    def metrics(self) -> dict:
        out = {}
        for name, paths in CALLS.items():
            out[name] = sum(e[1] for e in map(self._entry, paths) if e)
        for name, paths in CUM.items():
            out[name] = sum(e[3] for e in map(self._entry, paths) if e)
        for name, paths in SELF.items():
            out[name] = sum(e[2] for e in map(self._entry, paths) if e)
        for name, (callee, caller, idx) in UNDER.items():
            entry, ckey = self._entry(callee), self.keys.get(caller)
            part = entry[4].get(ckey) if entry and ckey else None
            out[name] = out.get(name, 0) + (part[idx] if part else 0)
        src = os.path.dirname(importlib.import_module("polyred").__file__)
        frac_file = fractions.__file__
        per_file: dict = {}
        for (filename, _, _), (_, _, tt, _, _) in self.stats.items():
            per_file[filename] = per_file.get(filename, 0.0) + tt
        for m in MODULES:
            out[f"{m}.self_s"] = per_file.get(os.path.join(src, m + ".py"), 0.0)
        out["field.fraction_self_s"] = per_file.get(frac_file, 0.0)
        out["reduction.certificate_yield"] = (
            self.cert_passes / self.cert_runs if self.cert_runs else 0.0)
        return out
