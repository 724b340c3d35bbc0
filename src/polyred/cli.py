"""Command-line front end.

Sets live in JSON files: {"cyclotomic_order": N, "sets": {label: [[coords]]}}
where each element is an array of phi(N) strings "p/q" and 1 <= N <= MAX_ORDER.
Every subcommand prints a JSON payload on stdout and a one-line human summary
on stderr; domain errors exit 1 with {"error": {...}} on stdout, usage errors
exit 2.

Subcommands are registered from the COMMANDS table.  A file command takes
-f/--file and the set labels its entry names; main parses the file once,
resolves each label, and hands the sets to the handler (a file command that
names no label gets every set of the file).  Each handler returns
(payload, summary).  The library logic lives in the other modules; the
reducibility diagram is polyred.poset.build_poset.  The parser is built
once per process and reused by every later call of main.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Callable

from .classes import FiniteSubset, canonical_invariant, sigma3_coordinate
from .exceptional import decompose, generate_exceptional, is_exceptional
from .field import CyclotomicField, make_field
from .poset import build_poset
from .reduction import (chi, degree_bounds, find_reductions, linear_maps_between,
                        normalize_to_contain_0_1, predecessor_2n_minus_1,
                        stabilizer, successors)
from .vandermonde import build_enriched, exact_rank

# Largest accepted cyclotomic order.  Building Q(zeta_N) is cheap (16 ms at
# N = 512); the arithmetic grows.  On a 2-core Xeon, one inverse of an element
# with coordinates in [-5, 5] takes 0.02 s at N = 512, four- to fivefold more
# per doubling of N.  One square root there (predecessor) takes 6-9 s on the
# first call, which builds the field's sqrt data, and 1.0-1.5 s after it.
MAX_ORDER = 512

# Largest M that `bounds M N` accepts.  The window holds about M/(N(N-1))
# degrees, M/2 at N = 2: 50,000 here, while M = 10^12 would exhaust memory.
MAX_BOUNDS_M = 100_000

# Largest column count K (>= row count) that `vdm-rank` accepts.  On a 2-core
# Xeon, --s-vec [K-1] at K = 64 takes 0.1 s and prints 0.5 MB at N = 4 (1.1 s,
# 8 MB at N = 64); doubling K costs 4-5x the time and 7x the output.
MAX_VDM_COLUMNS = 64


class SetFileError(ValueError):
    """Malformed set file or argument, or reference to a missing label."""


@dataclass
class SetFile:
    field: CyclotomicField
    sets: dict  # label -> FiniteSubset


def _field(order: int) -> CyclotomicField:
    if order > MAX_ORDER:
        raise SetFileError(
            f"cyclotomic order {order} exceeds the limit {MAX_ORDER}")
    return make_field(order)


def _parse_elements(field, arr, where) -> list:
    """Field elements from a decoded JSON array of element encodings; errors
    name `where` (a flag or a set label)."""
    if not isinstance(arr, list):
        raise SetFileError(f"{where} must be a JSON array of element encodings")
    for entry in arr:
        if not isinstance(entry, list) or not all(isinstance(s, str) for s in entry):
            raise SetFileError(f"{where}: each element must be an array of strings")
    try:
        return [field.element_from_encoding(entry) for entry in arr]
    except ValueError as e:
        raise SetFileError(f"{where}: {e}") from e


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
    field = _field(order)
    sets = {}
    for label, arr in raw.items():
        where = f'set "{label}"'
        elems = _parse_elements(field, arr, where)
        try:
            sets[label] = FiniteSubset(field, elems)
        except ValueError as e:
            raise SetFileError(f"{where}: {e}") from e
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


def _json_arg(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SetFileError(f"{flag}: invalid JSON: {e}") from e


# -- subcommand handlers ---------------------------------------------------------

def _cmd_invariant(args, A):
    inv = canonical_invariant(A)
    return inv.to_json_obj(), f"invariant key: {inv.key()}"


def _cmd_equiv(args, A, B):
    wits = linear_maps_between(A, B) if len(A) == len(B) else []
    eq = bool(wits)
    payload = {"equivalent": eq, "witnesses": [w.encode() for w in wits]}
    return payload, (f"{args.label_a} ~ {args.label_b}: "
                     f"{'yes' if eq else 'no'} ({len(wits)} witnesses)")


def _cmd_stabilizer(args, A):
    st = stabilizer(A)
    payload = {"order": st.order,
               "maps": [f.encode() for f in st.maps],
               "y_values": [y.encode() for y in st.y_values]}
    return payload, f"stabilizer order {st.order}"


def _cmd_chi(args, A):
    value = chi(A)
    return {"chi": value}, f"chi = {value}"


def _cmd_exceptional(args, A):
    flag = is_exceptional(A)
    return {"exceptional": flag}, f"exceptional: {'yes' if flag else 'no'}"


def _cmd_decompose(args, A):
    d = decompose(A)
    return d.to_json_obj(), (f"r={d.r} s={d.s} barycenter={d.barycenter} "
                             f"includes_barycenter={d.includes_barycenter}")


def _cmd_gen_exceptional(args):
    field = _field(args.field)
    seeds = _parse_elements(field, _json_arg(args.base_vertices, "--base-vertices"),
                            "--base-vertices")
    second, = _parse_elements(field, [_json_arg(args.second_vertex, "--second-vertex")],
                              "--second-vertex")
    B = generate_exceptional(field, args.r, args.s, args.epsilon_exponent,
                             seeds, second,
                             include_barycenter=args.include_barycenter)
    payload = {"cyclotomic_order": field.order, "elements": B.encode()}
    return payload, f"generated {len(B)} elements"


def _cmd_bounds(args):
    if args.m > MAX_BOUNDS_M:
        raise SetFileError(f"m = {args.m} exceeds the limit {MAX_BOUNDS_M}")
    w = degree_bounds(args.m, args.n)
    return ({"m": w.m, "n": w.n, "gammas": list(w.gammas)},
            f"admissible degrees: {list(w.gammas) or 'none'}")


def _cmd_reduce(args, A, B):
    rs = find_reductions(A, B)
    payload = {"count": len(rs), "reductions": [r.to_json_obj() for r in rs]}
    return payload, f"{len(rs)} reduction(s) from {args.label_a} onto {args.label_b}"


def _cmd_successors(args, A):
    scs = successors(A, max_degree=args.max_degree)
    payload = {"successors": [
        {"invariant": sc.invariant.to_json_obj(),
         "trivial": sc.trivial,
         "witness": "trivial" if sc.trivial else sc.witness.to_json_obj()}
        for sc in scs]}
    return payload, f"{len(scs)} successor class(es)"


def _cmd_predecessor(args, B):
    Bn, _ = normalize_to_contain_0_1(B)
    A = predecessor_2n_minus_1(Bn)  # the identity normalization on Bn
    payload = {"elements": A.encode(), "normalized_target": Bn.encode()}
    return payload, f"predecessor has {len(A)} elements"


def _cmd_sigma3(args, A):
    u, v = sigma3_coordinate(A)
    return ({"coordinate": [u.encode(), v.encode()]},
            f"sigma3 coordinate ({u} : {v})")


def _cmd_vdm_rank(args):
    if args.gamma_plus_1 > MAX_VDM_COLUMNS:
        raise SetFileError(f"--gamma-plus-1 = {args.gamma_plus_1} exceeds the limit "
                           f"{MAX_VDM_COLUMNS}")
    field = _field(args.field)
    svec = _json_arg(args.s_vec, "--s-vec")
    if not isinstance(svec, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in svec):
        raise SetFileError("--s-vec must be a JSON array of integers")
    avec = _parse_elements(field, _json_arg(args.a_vec, "--a-vec"), "--a-vec")
    M = build_enriched(args.gamma_plus_1, svec, avec)
    rank = exact_rank(M.rows)
    payload = M.to_json_obj()
    payload["rank"] = rank
    return payload, f"rank {rank} of a {M.row_count}x{M.gamma_plus_1} matrix"


def _cmd_poset(args, sets):
    report = build_poset(sets)
    summary = f"{len(report.nodes)} class(es), {len(report.edges)} edge(s)"
    dot = report.to_dot()
    if args.dot == "-":
        return dot, summary
    if args.dot is not None:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    return report.to_json_obj(), summary


# -- registration ----------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    name: str
    help: str
    handler: Callable
    labels: tuple | None = None  # set labels after -f FILE; None: no file
    options: tuple = ()          # (flags, add_argument keywords) pairs


def _opt(*flags, **kwargs):
    return flags, kwargs


_FIELD = _opt("--field", type=int, required=True, metavar="N",
              help="cyclotomic order of the working field")
_ONE, _TWO = ("label",), ("label_a", "label_b")

COMMANDS = (
    Command("invariant", "canonical class invariant", _cmd_invariant, _ONE),
    Command("equiv", "equal-cardinality equivalence", _cmd_equiv, _TWO),
    Command("stabilizer", "group of self-maps", _cmd_stabilizer, _ONE),
    Command("chi", "number of characteristic planes", _cmd_chi, _ONE),
    Command("exceptional", "nontrivial stabilizer?", _cmd_exceptional, _ONE),
    Command("decompose", "gon structure", _cmd_decompose, _ONE),
    Command("gen-exceptional", "build a union of regular gons", _cmd_gen_exceptional,
            options=(
                _FIELD,
                _opt("-r", type=int, required=True, help="gon order (>= 2)"),
                _opt("-s", type=int, required=True, help="number of gons"),
                _opt("--epsilon-exponent", type=int, required=True,
                     help="zeta exponent of the rotation"),
                _opt("--base-vertices", required=True,
                     help="JSON array of element encodings, one seed per gon"),
                _opt("--second-vertex", required=True,
                     help="JSON element encoding of the first gon's second vertex"),
                _opt("--include-barycenter", action="store_true"))),
    Command("bounds", "admissible reduction degrees", _cmd_bounds,
            options=(_opt("m", type=int), _opt("n", type=int))),
    Command("reduce", "all reductions A onto B", _cmd_reduce, _TWO),
    Command("successors", "all reachable classes", _cmd_successors, _ONE,
            options=(_opt("--max-degree", type=int, default=None, metavar="G",
                          help="cap the witness degree, >= 1 (default: cardinality - 1)"),)),
    Command("predecessor", "quadratic predecessor of size 2n-1", _cmd_predecessor, _ONE),
    Command("sigma3", "projective 3-set coordinate", _cmd_sigma3, _ONE),
    Command("vdm-rank", "enriched Vandermonde rank", _cmd_vdm_rank,
            options=(
                _FIELD,
                _opt("--gamma-plus-1", type=int, required=True, metavar="K",
                     help="column count"),
                _opt("--s-vec", required=True, help="JSON array of integers"),
                _opt("--a-vec", required=True,
                     help="JSON array of element encodings"))),
    Command("poset", "reducibility diagram", _cmd_poset, (),
            options=(_opt("--dot", metavar="PATH", default=None,
                          help="also write DOT to PATH ('-' replaces stdout JSON)"),)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, one subparser per entry of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="polyred",
        description="Exact polynomial-reducibility workbench over Q(zeta_N)")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        if cmd.labels is not None:
            p.add_argument("-f", "--file", required=True,
                           help="JSON set file (cyclotomic_order + named sets)")
            for label in cmd.labels:
                p.add_argument(label)
        for flags, kwargs in cmd.options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(spec=cmd)
    return parser


def _run(cmd: Command, args):
    if cmd.labels is None:
        return cmd.handler(args)
    sf = parse_set_file(args.file)
    if not cmd.labels:
        return cmd.handler(args, sf.sets)
    return cmd.handler(args, *(_get(sf, getattr(args, label)) for label in cmd.labels))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, summary = _run(args.spec, args)
    except (ValueError, ArithmeticError, OSError) as e:
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


if __name__ == "__main__":
    sys.exit(main())
