"""Command-line front end.

Sets live in JSON files: {"cyclotomic_order": N, "sets": {label: [[coords]]}}
where each element is an array of phi(N) strings "p/q".  Every subcommand
prints a JSON payload on stdout and a one-line human summary on stderr;
domain errors exit 1 with {"error": {...}} on stdout, usage errors exit 2.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .classes import (FiniteSubset, canonical_invariant, chi, equivalent,
                      linear_maps_between, sigma3_coordinate, stabilizer)
from .exceptional import decompose, generate_exceptional, is_exceptional
from .field import CyclotomicField, make_field
from .reduction import (check_exact_preimage, degree_bounds, find_reductions,
                        normalize_to_contain_0_1, predecessor_2n_minus_1,
                        singleton_reduction, successors)
from .vandermonde import build_enriched, exact_rank


class SetFileError(ValueError):
    """Malformed set file or reference to a missing label."""


@dataclass
class SetFile:
    field: CyclotomicField
    sets: dict  # label -> FiniteSubset


def parse_set_text(text: str) -> SetFile:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SetFileError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise SetFileError("top level must be an object")
    order = obj.get("cyclotomic_order")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise SetFileError('"cyclotomic_order" must be a positive integer')
    raw = obj.get("sets")
    if not isinstance(raw, dict) or not raw:
        raise SetFileError('"sets" must be a nonempty object')
    field = make_field(order)
    sets = {}
    for label, arr in raw.items():
        if not isinstance(arr, list) or not arr:
            raise SetFileError(f'set "{label}" must be a nonempty array')
        elems = []
        for entry in arr:
            if (not isinstance(entry, list)
                    or not all(isinstance(s, str) for s in entry)):
                raise SetFileError(
                    f'set "{label}": each element must be an array of strings')
            try:
                elems.append(field.element_from_encoding(entry))
            except ValueError as e:
                raise SetFileError(f'set "{label}": {e}') from e
        try:
            sets[label] = FiniteSubset(field, elems)
        except ValueError as e:
            raise SetFileError(f'set "{label}": {e}') from e
    return SetFile(field, sets)


def parse_set_file(path: str) -> SetFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SetFileError(f"cannot read {path}: {e}") from e
    return parse_set_text(text)


def emit_set_file(sf: SetFile) -> str:
    """Canonical form: sorted labels, sorted elements, 2-space indent."""
    obj = {
        "cyclotomic_order": sf.field.order,
        "sets": {label: sf.sets[label].encode() for label in sorted(sf.sets)},
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _get(sf: SetFile, label: str) -> FiniteSubset:
    if label not in sf.sets:
        raise SetFileError(f'no set labeled "{label}" in the input file')
    return sf.sets[label]


# -- poset ---------------------------------------------------------------------

@dataclass
class PosetReport:
    """Class nodes, the full strict relation, and its transitive reduction."""

    nodes: list
    relation: list
    edges: list

    def to_json_obj(self) -> dict:
        return {"nodes": self.nodes, "relation": self.relation,
                "edges": self.edges}

    def to_dot(self) -> str:
        lines = ["digraph reducibility {", "  rankdir=TB;"]
        for node in self.nodes:
            if node["chi"] is not None:
                text = f"{node['label']} (n={node['n']}, chi={node['chi']})"
            else:
                text = f"{node['label']} (n={node['n']})"
            lines.append(f'  "{node["label"]}" [label="{text}"];')
        for e in self.edges:
            lines.append(f'  "{e["source"]}" -> "{e["target"]}"'
                         f' [label="deg {e["degree"]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_poset(sets: dict) -> PosetReport:
    """Quotient the labeled sets by equivalence, then compute the relation.

    Nodes are classes (least member label as representative); an edge records
    the lowest-degree witness found.  Every witness re-verifies under the
    exact preimage certificate before it is emitted.  The relation is
    transitively closed because reducibility is, so the diagram edges are
    just the non-composite pairs.
    """
    if not sets:
        raise ValueError("poset needs at least one set")
    by_key: dict = {}
    invs = {}
    for label in sorted(sets):
        inv = canonical_invariant(sets[label])
        invs[label] = inv
        by_key.setdefault(inv.key(), []).append(label)
    nodes = []
    reps = []
    for key, labels in sorted(by_key.items(), key=lambda kv: min(kv[1])):
        rep = min(labels)
        A = sets[rep]
        n = len(A)
        nodes.append({
            "label": rep,
            "members": sorted(labels),
            "n": n,
            "invariant": invs[rep].to_json_obj(),
            "chi": chi(A) if n >= 3 else None,
            "exceptional": is_exceptional(A) if n >= 3 else None,
        })
        reps.append(rep)
    relation = []
    succ: dict = {rep: set() for rep in reps}
    for ra in reps:
        A = sets[ra]
        for rb in reps:
            if ra == rb or len(sets[rb]) >= len(A):
                continue
            B = sets[rb]
            if len(B) == 1:
                wit = singleton_reduction(A, B[0])
            else:
                found = find_reductions(A, B, first_only=True)
                if not found:
                    continue
                wit = found[0]
            if not check_exact_preimage(wit.poly, A, wit.target):
                raise ArithmeticError("edge witness failed re-verification")
            relation.append({"source": ra, "target": rb, "degree": wit.gamma,
                             "witness": wit.poly.encode()})
            succ[ra].add(rb)
    edges = [e for e in relation
             if not any(e["target"] in succ[w]
                        for w in succ[e["source"]] if w != e["target"])]
    key = lambda e: (e["source"], e["target"])
    return PosetReport(nodes, sorted(relation, key=key), sorted(edges, key=key))


# -- subcommand handlers ---------------------------------------------------------

def _cmd_invariant(args):
    sf = parse_set_file(args.file)
    inv = canonical_invariant(_get(sf, args.label))
    return inv.to_json_obj(), f"invariant key: {inv.key()}"


def _cmd_equiv(args):
    sf = parse_set_file(args.file)
    A, B = _get(sf, args.label_a), _get(sf, args.label_b)
    eq = equivalent(A, B)
    wits = linear_maps_between(A, B) if (eq and len(A) == len(B)) else []
    payload = {"equivalent": eq, "witnesses": [w.encode() for w in wits]}
    return payload, (f"{args.label_a} ~ {args.label_b}: "
                     f"{'yes' if eq else 'no'} ({len(wits)} witnesses)")


def _cmd_stabilizer(args):
    sf = parse_set_file(args.file)
    st = stabilizer(_get(sf, args.label))
    payload = {"order": st.order,
               "maps": [f.encode() for f in st.maps],
               "y_values": [y.encode() for y in st.y_values]}
    return payload, f"stabilizer order {st.order}"


def _cmd_chi(args):
    sf = parse_set_file(args.file)
    value = chi(_get(sf, args.label))
    return {"chi": value}, f"chi = {value}"


def _cmd_exceptional(args):
    sf = parse_set_file(args.file)
    flag = is_exceptional(_get(sf, args.label))
    return {"exceptional": flag}, f"exceptional: {'yes' if flag else 'no'}"


def _cmd_decompose(args):
    sf = parse_set_file(args.file)
    d = decompose(_get(sf, args.label))
    return d.to_json_obj(), (f"r={d.r} s={d.s} barycenter={d.barycenter} "
                             f"includes_barycenter={d.includes_barycenter}")


def _cmd_gen_exceptional(args):
    field = make_field(args.field)
    seeds = _parse_elements(field, args.base_vertices, "--base-vertices")
    second = _parse_element(field, args.second_vertex, "--second-vertex")
    B = generate_exceptional(field, args.r, args.s, args.epsilon_exponent,
                             seeds, second,
                             include_barycenter=args.include_barycenter)
    payload = {"cyclotomic_order": field.order, "elements": B.encode()}
    return payload, f"generated {len(B)} elements"


def _cmd_bounds(args):
    w = degree_bounds(args.m, args.n)
    return ({"m": w.m, "n": w.n, "gammas": list(w.gammas)},
            f"admissible degrees: {list(w.gammas) or 'none'}")


def _cmd_reduce(args):
    sf = parse_set_file(args.file)
    A, B = _get(sf, args.label_a), _get(sf, args.label_b)
    rs = find_reductions(A, B)
    payload = {"count": len(rs), "reductions": [r.to_json_obj() for r in rs]}
    return payload, f"{len(rs)} reduction(s) from {args.label_a} onto {args.label_b}"


def _cmd_successors(args):
    sf = parse_set_file(args.file)
    scs = successors(_get(sf, args.label), max_degree=args.max_degree)
    payload = {"successors": [
        {"invariant": sc.invariant.to_json_obj(),
         "trivial": sc.trivial,
         "witness": "trivial" if sc.trivial else sc.witness.to_json_obj()}
        for sc in scs]}
    return payload, f"{len(scs)} successor class(es)"


def _cmd_predecessor(args):
    sf = parse_set_file(args.file)
    B = _get(sf, args.label)
    A = predecessor_2n_minus_1(B)
    Bn, _ = normalize_to_contain_0_1(B)
    payload = {"elements": A.encode(), "normalized_target": Bn.encode()}
    return payload, f"predecessor has {len(A)} elements"


def _cmd_sigma3(args):
    sf = parse_set_file(args.file)
    u, v = sigma3_coordinate(_get(sf, args.label))
    return ({"coordinate": [u.encode(), v.encode()]},
            f"sigma3 coordinate ({u} : {v})")


def _cmd_vdm_rank(args):
    field = make_field(args.field)
    try:
        svec = json.loads(args.s_vec)
    except json.JSONDecodeError as e:
        raise SetFileError(f"--s-vec: invalid JSON: {e}") from e
    if not isinstance(svec, list) or not all(isinstance(s, int) for s in svec):
        raise SetFileError("--s-vec must be a JSON array of integers")
    avec = _parse_elements(field, args.a_vec, "--a-vec")
    M = build_enriched(args.gamma_plus_1, svec, avec)
    rank = exact_rank(M.rows)
    payload = M.to_json_obj()
    payload["rank"] = rank
    return payload, f"rank {rank} of a {M.row_count}x{M.gamma_plus_1} matrix"


def _cmd_poset(args):
    sf = parse_set_file(args.file)
    report = build_poset(sf.sets)
    dot = report.to_dot()
    if args.dot == "-":
        return dot, f"{len(report.nodes)} class(es), {len(report.edges)} edge(s)"
    if args.dot is not None:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    return (report.to_json_obj(),
            f"{len(report.nodes)} class(es), {len(report.edges)} edge(s)")


def _parse_element(field, text, flag):
    try:
        arr = json.loads(text)
    except json.JSONDecodeError as e:
        raise SetFileError(f"{flag}: invalid JSON: {e}") from e
    if not isinstance(arr, list) or not all(isinstance(s, str) for s in arr):
        raise SetFileError(f"{flag} must be a JSON array of strings")
    return field.element_from_encoding(arr)


def _parse_elements(field, text, flag):
    try:
        arr = json.loads(text)
    except json.JSONDecodeError as e:
        raise SetFileError(f"{flag}: invalid JSON: {e}") from e
    if not isinstance(arr, list):
        raise SetFileError(f"{flag} must be a JSON array of element encodings")
    out = []
    for entry in arr:
        if not isinstance(entry, list) or not all(isinstance(s, str) for s in entry):
            raise SetFileError(f"{flag} must be a JSON array of element encodings")
        out.append(field.element_from_encoding(entry))
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyred",
        description="Exact polynomial-reducibility workbench over Q(zeta_N)")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p):
        p.add_argument("-f", "--file", required=True,
                       help="JSON set file (cyclotomic_order + named sets)")
        return p

    p = with_file(sub.add_parser("invariant", help="canonical class invariant"))
    p.add_argument("label")
    p.set_defaults(handler=_cmd_invariant)

    p = with_file(sub.add_parser("equiv", help="equal-cardinality equivalence"))
    p.add_argument("label_a")
    p.add_argument("label_b")
    p.set_defaults(handler=_cmd_equiv)

    p = with_file(sub.add_parser("stabilizer", help="group of self-maps"))
    p.add_argument("label")
    p.set_defaults(handler=_cmd_stabilizer)

    p = with_file(sub.add_parser("chi", help="number of characteristic planes"))
    p.add_argument("label")
    p.set_defaults(handler=_cmd_chi)

    p = with_file(sub.add_parser("exceptional", help="nontrivial stabilizer?"))
    p.add_argument("label")
    p.set_defaults(handler=_cmd_exceptional)

    p = with_file(sub.add_parser("decompose", help="gon structure"))
    p.add_argument("label")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("gen-exceptional", help="build a union of regular gons")
    p.add_argument("--field", type=int, required=True, metavar="N",
                   help="cyclotomic order of the working field")
    p.add_argument("-r", type=int, required=True, help="gon order (>= 2)")
    p.add_argument("-s", type=int, required=True, help="number of gons")
    p.add_argument("--epsilon-exponent", type=int, required=True,
                   help="zeta exponent of the rotation")
    p.add_argument("--base-vertices", required=True,
                   help="JSON array of element encodings, one seed per gon")
    p.add_argument("--second-vertex", required=True,
                   help="JSON element encoding of the first gon's second vertex")
    p.add_argument("--include-barycenter", action="store_true")
    p.set_defaults(handler=_cmd_gen_exceptional)

    p = sub.add_parser("bounds", help="admissible reduction degrees")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_bounds)

    p = with_file(sub.add_parser("reduce", help="all reductions A onto B"))
    p.add_argument("label_a")
    p.add_argument("label_b")
    p.set_defaults(handler=_cmd_reduce)

    p = with_file(sub.add_parser("successors", help="all reachable classes"))
    p.add_argument("label")
    p.add_argument("--max-degree", type=int, default=None, metavar="G",
                   help="cap the witness degree (default: cardinality - 1)")
    p.set_defaults(handler=_cmd_successors)

    p = with_file(sub.add_parser("predecessor",
                                 help="quadratic predecessor of size 2n-1"))
    p.add_argument("label")
    p.set_defaults(handler=_cmd_predecessor)

    p = with_file(sub.add_parser("sigma3", help="projective 3-set coordinate"))
    p.add_argument("label")
    p.set_defaults(handler=_cmd_sigma3)

    p = sub.add_parser("vdm-rank", help="enriched Vandermonde rank")
    p.add_argument("--field", type=int, required=True, metavar="N")
    p.add_argument("--gamma-plus-1", type=int, required=True, metavar="K",
                   help="column count")
    p.add_argument("--s-vec", required=True, help="JSON array of integers")
    p.add_argument("--a-vec", required=True,
                   help="JSON array of element encodings")
    p.set_defaults(handler=_cmd_vdm_rank)

    p = with_file(sub.add_parser("poset", help="reducibility diagram"))
    p.add_argument("--json", action="store_true",
                   help="emit JSON on stdout (default)")
    p.add_argument("--dot", metavar="PATH", default=None,
                   help="also write DOT to PATH ('-' replaces stdout JSON)")
    p.set_defaults(handler=_cmd_poset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, summary = args.handler(args)
    except (ValueError, ZeroDivisionError, ArithmeticError, OSError) as e:
        print(json.dumps({"error": {"type": type(e).__name__,
                                    "message": str(e)}}))
        print(f"error: {e}", file=sys.stderr)
        return 1
    if isinstance(payload, str):
        sys.stdout.write(payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    print(summary, file=sys.stderr)
    return 0


run_command = main

if __name__ == "__main__":
    sys.exit(main())
