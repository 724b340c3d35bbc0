"""Seeded inputs, queries and answer checks for the three workloads.

Each workload is a list of queries built from the seed alone.  A query runs
one closed-loop request against the package (``run``), turns the raw result
into a JSON-able summary outside the timed region (``summarize``) and checks
that summary against facts known by construction or against an oracle from
``oracles`` (``check``).  ``desc`` is the JSON description of the query's
inputs; the digest of all descriptions identifies the inputs byte for byte.

Query kinds follow a short fixed pattern, so any prefix of a workload, and
any point at which a timed run stops, has the same mix of kinds and fields.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from polyred import (FiniteSubset, canonical_invariant, decompose, equivalent,
                     find_reductions, generate_exceptional, make_field,
                     roots_of_unity, stabilizer, successors)
from polyred import cli

import oracles


@dataclass
class Query:
    qid: int
    kind: str
    desc: dict
    run: Callable            # (tracer) -> raw result
    summarize: Callable      # raw -> JSON-able answer
    check: Callable          # (answer, first answers by qid) -> list of problems


class Tracer:
    """Spans around each query and each public entry point it calls.

    Without a clock, ``call`` is a plain call.  With one, it appends
    [name, start, end, parent span index, query id] to an in-memory list.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self.spans: list = []
        self.query = None
        self._open: list = []

    def call(self, name, fn, *args):
        if self.clock is None:
            return fn(*args)
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent, self.query])
        self._open.append(idx)
        try:
            return fn(*args)
        finally:
            self._open.pop()
            self.spans[idx][2] = self.clock()


def input_digest(queries, extra=None) -> str:
    blob = json.dumps({"queries": [q.desc for q in queries], "extra": extra},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"polyred-bench:{workload}:{seed}")


# -- generators -------------------------------------------------------------------

def _enc_rational(F, q: Fraction) -> list[str]:
    return [f"{q.numerator}/{q.denominator}"] + ["0/1"] * (F.degree - 1)


def _rand_element(F, rng, span):
    return F.element([rng.randint(-span, span) for _ in range(F.degree)])


def _separated(elems) -> bool:
    return oracles.min_gap(oracles.embed_all(elems)) >= oracles.MIN_GAP


def rand_set(F, rng, n, span=3) -> FiniteSubset:
    """n distinct, numerically well-separated elements with small coordinates."""
    while True:
        elems = set()
        while len(elems) < n:
            elems.add(_rand_element(F, rng, span))
        if _separated(list(elems)):
            return FiniteSubset(F, elems)


def rand_rational_set(F, rng, n, span=12, den=6) -> FiniteSubset:
    vals = set()
    while len(vals) < n:
        vals.add(Fraction(rng.randint(-span, span), rng.randint(1, den)))
    return FiniteSubset(F, [F.from_rational(v) for v in sorted(vals)])


def linear_image(F, rng, A) -> FiniteSubset:
    """A under a random x -> c*x + c' with small coordinates."""
    while True:
        slope = _rand_element(F, rng, 2)
        if abs(oracles.embed(slope)) < 0.25:
            continue
        icpt = _rand_element(F, rng, 3)
        elems = [slope * a + icpt for a in A]
        if _separated(elems):
            return FiniteSubset(F, elems)


GON_ORDERS = {4: (2, 4), 8: (2, 4, 8), 12: (2, 3, 4, 6), 16: (2, 4, 8)}


class Rotation:
    """Round-robin over the options of each key.

    Sizes and shapes come from here, not from the seed, so every seed has the
    same mix of problem sizes; the seed only picks the values.
    """

    def __init__(self):
        self._turn: dict = {}

    def next(self, key, options):
        i = self._turn.get(key, 0)
        self._turn[key] = i + 1
        return options[i % len(options)]


def gon_shapes(N, nmin, nmax) -> list:
    """Every (r, s, has_centre) of a gon union in Q(zeta_N) with nmin <= n <= nmax."""
    return [(r, s, inc) for r in GON_ORDERS[N] for s in (1, 2, 3)
            for inc in (False, True) if nmin <= r * s + inc <= nmax]


def gon_union(F, rng, shape):
    """Union of s aligned regular r-gons with distinct radii, maybe with centre.

    Distinct positive radii leave only the r rotations in the stabilizer, so
    the stabilizer order is exactly r.  Returns (set, (r, s, has_centre, centre)).
    """
    N = F.order
    r, s, inc = shape
    radii = [Fraction(k, 2) for k in rng.sample(range(1, 13), s)]
    bary = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    unit = F.zeta(rng.randrange(N))
    b = F.from_rational(bary)
    seeds = [b + unit * F.from_rational(t) for t in radii]
    second = b + unit * F.from_rational(radii[0]) * F.zeta(N // r)
    A = generate_exceptional(F, r, s, N // r, seeds, second, include_barycenter=inc)
    return A, (r, s, inc, bary)


def planted_shapes(N, max_m) -> list:
    """Every (r, s, has_zero) of a planted pair with |B| >= 2 and |A| <= max_m."""
    return [(r, s, inc) for r in (2, 3, 4) if N % r == 0 for s in (1, 2, 3)
            for inc in (False, True) if s + inc >= 2 and r * s + inc <= max_m]


def planted_pair(F, rng, shape):
    """A: r-gons centred at 0 (maybe with 0); B = A^r.  X^r witnesses A <= B."""
    N = F.order
    r, s, inc = shape
    radii = [Fraction(k, 2) for k in rng.sample(range(1, 13), s)]
    unit = F.zeta(rng.randrange(N))
    step = F.zeta(N // r)
    A, B = [], []
    for t in radii:
        v = unit * F.from_rational(t)
        B.append(v ** r)
        for _ in range(r):
            A.append(v)
            v = v * step
    if inc:
        A.append(F.zero())
        B.append(F.zero())
    return FiniteSubset(F, A), FiniteSubset(F, B), r


def x_power_encoding(F, r) -> list:
    zero = ["0/1"] * F.degree
    return [zero] * r + [["1/1"] + ["0/1"] * (F.degree - 1)]


# -- classify -------------------------------------------------------------------------

# (field order, A is a gon union, B is a linear image of A): 30% exceptional,
# 50% linear images, fields Q(zeta_12), Q(zeta_16) and Q(zeta_13).
CLASSIFY_PATTERN = [
    (12, True, True), (16, False, True), (13, False, False), (12, False, False),
    (16, True, False), (12, False, True), (16, False, False), (13, False, True),
    (12, True, False), (16, False, True),
]


def build_classify(seed: int, count: int) -> list[Query]:
    rng = rng_for("classify", seed)
    turn = Rotation()
    queries = []
    for qid in range(count):
        N, exc, image = CLASSIFY_PATTERN[qid % len(CLASSIFY_PATTERN)]
        F = make_field(N)
        nmax = 5 if N == 13 else 8
        if exc:
            A, known = gon_union(F, rng, turn.next((N, "gon"), gon_shapes(N, 3, nmax)))
        else:
            n = turn.next((N, "random"), range(3, nmax + 1))
            A, known = rand_set(F, rng, n), None
        B = linear_image(F, rng, A) if image else rand_set(F, rng, len(A))
        queries.append(_classify_query(qid, F, A, B, known, image))
    return queries


def _classify_query(qid, F, A, B, known, image):
    def run(t):
        ia = t.call("canonical_invariant", canonical_invariant, A)
        ib = t.call("canonical_invariant", canonical_invariant, B)
        eq = t.call("equivalent", equivalent, A, B)
        st = t.call("stabilizer", stabilizer, A)
        dec = t.call("decompose", decompose, A) if known else None
        return ia, ib, eq, st, dec

    def summarize(raw):
        ia, ib, eq, st, dec = raw
        return {"keys_equal": ia.key() == ib.key(), "n": ia.n, "equivalent": eq,
                "order": st.order,
                "decompose": None if dec is None else
                [dec.r, dec.s, dec.includes_barycenter, dec.barycenter.encode()]}

    def check(ans, _peers):
        want_eq = True if image else oracles.affine_map_count(A, B) > 0
        if known:
            r, s, inc, bary = known
            want_order = r
            want_dec = [r, s, inc, _enc_rational(F, bary)]
        else:
            want_order = oracles.affine_map_count(A, A)
            want_dec = None
        problems = []
        if ans["equivalent"] != want_eq:
            problems.append(f"equivalent={ans['equivalent']}, expected {want_eq}")
        if ans["keys_equal"] != want_eq:
            problems.append(f"invariant keys equal={ans['keys_equal']}, expected {want_eq}")
        if ans["n"] != len(A):
            problems.append("invariant cardinality")
        if ans["order"] != want_order:
            problems.append(f"stabilizer order {ans['order']}, expected {want_order}")
        if ans["decompose"] != want_dec:
            problems.append(f"decompose {ans['decompose']}, expected {want_dec}")
        return problems

    desc = {"kind": "classify", "field": F.order, "A": A.encode(),
            "B": B.encode(), "image": image,
            "gons": None if known is None else
            [known[0], known[1], known[2], str(known[3])]}
    return Query(qid, "classify", desc, run, summarize, check)


# -- search ---------------------------------------------------------------------------

# 40% planted find_reductions, 40% random rational find_reductions, 20% successors.
SEARCH_PATTERN = ["planted", "random", "planted", "random", "successors",
                  "planted", "random", "planted", "random", "successors"]
SEARCH_FIELDS = (4, 12, 16)
RANDOM_PAIR_SIZES = [(m, n) for m in (5, 6, 7) for n in (2, 3, 4)]
# (shape, size parameter) of successor inputs; options whose mu_d is not in
# the field are skipped.
SUCCESSOR_SHAPES = [("arith", 2), ("rational", 6), ("arith", 3), ("mu0", 4),
                    ("rational", 6), ("mu", 4), ("mu0", 6), ("mu", 6)]


def _arith(F, k):
    """{0, +-1, ..., +-k}."""
    return FiniteSubset(F, [F.from_rational(v) for v in range(-k, k + 1)])


def _mu0(F, d):
    return FiniteSubset(F, [F.zero()] + list(roots_of_unity(F, d)))


def successor_input(F, rng, shape, size):
    """A structured successor input and the classes it must reach by construction.

    shape "arith" is {0, +-1, ..., +-size}, "mu" is mu_size, "mu0" is
    mu_size with 0, "rational" is a random rational set of that many elements.
    Returns (set, list of target sets whose classes must appear).
    """
    if shape == "arith":
        return _arith(F, size), [[F.from_rational(v * v) for v in range(size + 1)]]
    if shape in ("mu", "mu0"):
        extra = shape == "mu0"
        A = _mu0(F, size) if extra else roots_of_unity(F, size)
        targets = []
        for e in range(1 if extra else 2, size):
            if size % e == 0:
                mu_e = list(roots_of_unity(F, e))
                targets.append(mu_e + [F.zero()] if extra else mu_e)
        return A, targets
    return rand_rational_set(F, rng, size), []


def successor_shapes(N) -> list:
    return [(shape, size) for shape, size in SUCCESSOR_SHAPES
            if shape not in ("mu", "mu0") or N % size == 0]


def build_search(seed: int, count: int) -> list[Query]:
    rng = rng_for("search", seed)
    turn = Rotation()
    queries = []
    for qid in range(count):
        kind = SEARCH_PATTERN[qid % len(SEARCH_PATTERN)]
        N = SEARCH_FIELDS[(qid // 2) % len(SEARCH_FIELDS)]
        F = make_field(N)
        if kind == "planted":
            A, B, r = planted_pair(F, rng, turn.next((N, kind), planted_shapes(N, 8)))
            queries.append(_reduce_query(qid, "planted", F, A, B, r))
        elif kind == "random":
            m, n = turn.next(kind, RANDOM_PAIR_SIZES)
            A = rand_rational_set(F, rng, m)
            B = rand_rational_set(F, rng, n)
            queries.append(_reduce_query(qid, "random", F, A, B, None))
        else:
            shape, size = turn.next((N, kind), successor_shapes(N))
            A, targets = successor_input(F, rng, shape, size)
            queries.append(_successors_query(qid, F, A, targets))
    return queries


def _is_rational(S) -> bool:
    return all(not any(e.num[1:]) for e in S)


def _reduce_query(qid, kind, F, A, B, r):
    def run(t):
        return t.call("find_reductions", find_reductions, A, B)

    def summarize(raw):
        return {"witnesses": [red.poly.encode() for red in raw],
                "gammas": [red.gamma for red in raw]}

    def check(ans, _peers):
        problems = []
        if r is not None and x_power_encoding(F, r) not in ans["witnesses"]:
            problems.append(f"planted witness X^{r} missing")
        if _is_rational(A) and _is_rational(B):
            problems += _check_rational_witnesses(A, B, ans["witnesses"])
        return problems

    desc = {"kind": kind, "field": F.order, "A": A.encode(), "B": B.encode(),
            "r": r}
    return Query(qid, "find_reductions", desc, run, summarize, check)


def _check_rational_witnesses(A, B, witnesses) -> list[str]:
    A_vals, B_vals = oracles.rational_values(A), oracles.rational_values(B)
    got = set()
    for w in witnesses:
        try:
            coeffs = tuple(oracles.decode_rational(c) for c in w)
        except ValueError:
            return ["non-rational witness between rational sets"]
        got.add(coeffs)
    if len(A_vals) <= 6:
        want = oracles.reduction_oracle_q(A_vals, B_vals)
        if got != want:
            return [f"witnesses differ from the rational oracle "
                    f"({len(got)} returned, {len(want)} expected)"]
        return []
    bad = [c for c in got if not oracles.witness_is_exact_q(list(c), A_vals, B_vals)]
    return [f"{len(bad)} witness(es) fail the Fraction check"] if bad else []


def _successors_query(qid, F, A, targets):
    def run(t):
        return t.call("successors", successors, A)

    def summarize(raw):
        return {"nontrivial": sorted(sc.invariant.key() for sc in raw if not sc.trivial),
                "trivial": sorted(sc.invariant.key() for sc in raw if sc.trivial)}

    def check(ans, _peers):
        return _check_successor_keys(F, A, targets, ans["nontrivial"], ans["trivial"])

    desc = {"kind": "successors", "field": F.order, "A": A.encode(),
            "targets": [[e.encode() for e in T] for T in targets]}
    return Query(qid, "successors", desc, run, summarize, check)


def _check_successor_keys(F, A, targets, nontrivial, trivial) -> list[str]:
    problems = []
    want_trivial = sorted({canonical_invariant(A).key(),
                           oracles.class_key({"n": 1, "lambdas": []})})
    if trivial != want_trivial:
        problems.append("trivial successor entries")
    got = set(nontrivial)
    for T in targets:
        if canonical_invariant(FiniteSubset(F, T)).key() not in got:
            problems.append(f"class of a {len(T)}-set reachable by construction missing")
    if _is_rational(A) and 3 <= len(A) <= 6:
        want = oracles.successor_oracle(A)
        if got != want:
            problems.append(f"successor classes differ from the partition oracle "
                            f"({len(got)} returned, {len(want)} expected)")
    return problems


# -- cli -------------------------------------------------------------------------------

CLI_FIELDS = (4, 8, 12, 16)
# One row per query slot; every field runs the whole recipe in each pass.  The
# first 12 rows already cover every subcommand, so a 48-query prefix does too.
CLI_RECIPE = [
    ("poset", 0), ("invariant", 0), ("invariant_image", 0), ("stabilizer_gon", 0),
    ("decompose", 0), ("reduce_planted", 0), ("reduce_rational", 0),
    ("successors", 0), ("vdm_rank", 0), ("predecessor", 0), ("stabilizer_random", 0),
    ("predecessor_nonsquare", 0),
    ("invariant", 1), ("invariant_image", 1), ("stabilizer_gon", 1), ("decompose", 1),
    ("reduce_planted", 1), ("reduce_rational", 1), ("successors", 1), ("vdm_rank", 1),
    ("predecessor", 1), ("stabilizer_random", 1), ("vdm_rank", 2), ("poset", 1),
    ("successors", 2),
]


# Shapes that exist in every field of the workload, one per variant.
CLI_GON_SHAPES = ((2, 2, True), (4, 1, True))
CLI_PLANTED_SHAPES = ((2, 3, False), (4, 1, True))


@dataclass
class CliField:
    """One field's generated sets, plus the facts known about them."""
    F: object
    sets: dict          # label -> FiniteSubset, written to the set file
    facts: dict         # label -> facts known by construction
    posets: list        # [(label -> FiniteSubset, facts)] per poset family
    vdm: list           # [(gamma_plus_1, s_vec, nodes)]


def _affine_rational(F, rng, S):
    p = Fraction(rng.choice([1, -1, 2, -2, 3])) / rng.choice([1, 2])
    q = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
    return FiniteSubset(F, [e * p + F.from_rational(q) for e in S])


def _affine_unit(F, rng, S):
    c = F.zeta(rng.randrange(F.order)) * rng.choice([1, 2])
    q = F.from_rational(Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
    return FiniteSubset(F, [c * e + q for e in S])


def _poset_family(F, rng):
    """mu_d divisor chains and {0, +-k} -> {k^2} chains, each under a seeded
    affine map, plus one random rational 4-set."""
    fam = {}
    mus = [d for d in (1, 2, 3, 4, 6, 8) if F.order % d == 0]
    for d in mus:
        fam[f"mu{d}"] = _affine_unit(F, rng, roots_of_unity(F, d))
    for k in (1, 2):
        fam[f"s{k}"] = _affine_rational(F, rng, _arith(F, k))
        fam[f"t{k}"] = _affine_rational(
            F, rng, FiniteSubset(F, [F.from_rational(v * v) for v in range(k + 1)]))
    fam["q4"] = rand_rational_set(F, rng, 4, span=6, den=2)
    return fam, {"mus": mus, "chains": [("s1", "t1"), ("s2", "t2")]}


def _square_target(F, rng):
    """{0, 1, y1^2, y2^2} with its predecessor {0, +-1, +-y1, +-y2} known.

    The cost of ``sqrt``'s sign search depends on where y's sign pattern falls
    among the 2^(d-1) it tries, so the caller passes a generator that does not
    depend on the seed: every seed then pays the same for these queries.
    """
    while True:
        ys = [_rand_element(F, rng, 2) for _ in range(2)]
        pts = [F.zero(), F.one(), -F.one()] + ys + [-y for y in ys]
        sq = [F.zero(), F.one()] + [y * y for y in ys]
        if len(set(pts)) == 7 and len(set(sq)) == 4 and _separated(pts):
            return FiniteSubset(F, sq), FiniteSubset(F, pts)


def build_cli_field(F, rng) -> CliField:
    sets, facts = {}, {}
    N = F.order
    squares = rng_for("cli-squares", N)
    for v in (0, 1):
        X = rand_set(F, rng, 5 + v)
        sets[f"x{v}"], sets[f"x{v}i"] = X, linear_image(F, rng, X)
        G, known = gon_union(F, rng, CLI_GON_SHAPES[v])
        sets[f"g{v}"], facts[f"g{v}"] = G, known
        sets[f"r{v}"] = rand_set(F, rng, 4 + 2 * v)
        PA, PB, r = planted_pair(F, rng, CLI_PLANTED_SHAPES[v])
        sets[f"pa{v}"], sets[f"pb{v}"], facts[f"pa{v}"] = PA, PB, r
        sets[f"qa{v}"] = rand_rational_set(F, rng, 5 + v)
        sets[f"qb{v}"] = rand_rational_set(F, rng, 2 + v)
        SQ, pred = _square_target(F, squares)
        sets[f"sq{v}"], facts[f"sq{v}"] = SQ, pred
    for v, (shape, size) in enumerate((("rational", 5), ("arith", 2), ("mu0", 4))):
        A, targets = successor_input(F, rng, shape, size)
        sets[f"su{v}"], facts[f"su{v}"] = A, targets
    sets["ns"] = FiniteSubset(F, [F.zero(), F.one(), F.zeta()])
    posets = [_poset_family(F, rng) for _ in range(2)]
    vdm = []
    for cols, k in ((9, 2), (10, 3), (11, 4)):
        budget = cols - k
        svec = []
        for _ in range(k):
            s = rng.randint(0, min(3, budget))
            svec.append(s)
            budget -= s
        nodes = rand_set(F, rng, k, span=2)
        vdm.append((cols, svec, list(nodes)))
    return CliField(F, sets, facts, posets, vdm)


def set_file_text(F, sets: dict) -> str:
    obj = {"cyclotomic_order": F.order,
           "sets": {label: S.encode() for label, S in sets.items()}}
    return json.dumps(obj, sort_keys=True) + "\n"


class CliInputs:
    """Generated set files for every field; ``write`` puts them in a directory."""

    def __init__(self, seed: int):
        rng = rng_for("cli", seed)
        self.fields = {N: build_cli_field(make_field(N), rng) for N in CLI_FIELDS}
        self.files = {}
        for N, cf in self.fields.items():
            self.files[f"sets_{N}.json"] = set_file_text(cf.F, cf.sets)
            for i, (fam, _) in enumerate(cf.posets):
                self.files[f"poset{i}_{N}.json"] = set_file_text(cf.F, fam)

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")

    def parse(self, directory: Path) -> None:
        for name in sorted(self.files):
            cli.parse_set_file(str(directory / name))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def build_cli(seed: int, count: int, inputs: CliInputs, directory: Path) -> list[Query]:
    queries = []
    for qid in range(count):
        N = CLI_FIELDS[qid % len(CLI_FIELDS)]
        recipe, v = CLI_RECIPE[(qid // len(CLI_FIELDS)) % len(CLI_RECIPE)]
        queries.append(_cli_query(qid, recipe, v, inputs.fields[N], directory))
    return queries


def _cli_query(qid, recipe, v, cf, directory):
    F, N = cf.F, cf.F.order
    setfile = str(directory / f"sets_{N}.json")
    expect_code = 0
    partner = None
    if recipe == "poset":
        argv = ["poset", "-f", str(directory / f"poset{v}_{N}.json")]
    elif recipe in ("invariant", "invariant_image"):
        label = f"x{v}" if recipe == "invariant" else f"x{v}i"
        argv = ["invariant", "-f", setfile, label]
        if recipe == "invariant_image":
            partner = qid - len(CLI_FIELDS)  # the previous slot, same field
    elif recipe == "stabilizer_gon":
        argv = ["stabilizer", "-f", setfile, f"g{v}"]
    elif recipe == "stabilizer_random":
        argv = ["stabilizer", "-f", setfile, f"r{v}"]
    elif recipe == "decompose":
        argv = ["decompose", "-f", setfile, f"g{v}"]
    elif recipe == "reduce_planted":
        argv = ["reduce", "-f", setfile, f"pa{v}", f"pb{v}"]
    elif recipe == "reduce_rational":
        argv = ["reduce", "-f", setfile, f"qa{v}", f"qb{v}"]
    elif recipe == "successors":
        argv = ["successors", "-f", setfile, f"su{v}"]
    elif recipe == "vdm_rank":
        cols, svec, nodes = cf.vdm[v]
        argv = ["vdm-rank", "--field", str(N), "--gamma-plus-1", str(cols),
                "--s-vec", json.dumps(svec),
                "--a-vec", json.dumps([e.encode() for e in nodes])]
    elif recipe == "predecessor":
        argv = ["predecessor", "-f", setfile, f"sq{v}"]
    elif recipe == "predecessor_nonsquare":
        argv = ["predecessor", "-f", setfile, "ns"]
        expect_code = 1
    else:
        raise ValueError(recipe)

    def run(t):
        return t.call("cli.main", run_main, argv)

    def summarize(raw):
        code, out, _err = raw
        return {"code": code, "stdout": out}

    def check(ans, peers):
        if ans["code"] != expect_code:
            return [f"exit code {ans['code']}, expected {expect_code}"]
        try:
            payload = json.loads(ans["stdout"])
        except json.JSONDecodeError:
            return ["stdout is not JSON"]
        if expect_code:
            return [] if "error" in payload else ["no error payload"]
        return _check_cli_payload(recipe, v, cf, payload, peers.get(partner))

    desc = {"kind": "cli", "recipe": recipe, "argv": [
        a.replace(str(directory), "<dir>") for a in argv]}
    return Query(qid, f"cli.{recipe}", desc, run, summarize, check)


def _check_cli_payload(recipe, v, cf, payload, partner_ans) -> list[str]:
    F = cf.F
    if recipe == "poset":
        return _check_poset(F, *cf.posets[v], payload)
    if recipe == "invariant":
        return [] if payload.get("n") == len(cf.sets[f"x{v}"]) else ["invariant n"]
    if recipe == "invariant_image":
        if partner_ans is None or json.loads(partner_ans["stdout"]) != payload:
            return ["invariant of a linear image differs"]
        return []
    if recipe in ("stabilizer_gon", "decompose"):
        r, s, inc, bary = cf.facts[f"g{v}"]
        if recipe == "stabilizer_gon":
            return [] if payload["order"] == r else [f"stabilizer order {payload['order']} != {r}"]
        got = [payload["r"], payload["s"], payload["includes_barycenter"],
               payload["barycenter"]]
        want = [r, s, inc, _enc_rational(F, bary)]
        return [] if got == want else [f"decompose {got} != {want}"]
    if recipe == "stabilizer_random":
        want = oracles.affine_map_count(cf.sets[f"r{v}"], cf.sets[f"r{v}"])
        return [] if payload["order"] == want else ["stabilizer order"]
    if recipe == "reduce_planted":
        coeffs = [red["coeffs"] for red in payload["reductions"]]
        r = cf.facts[f"pa{v}"]
        return [] if x_power_encoding(F, r) in coeffs else [f"planted X^{r} missing"]
    if recipe == "reduce_rational":
        coeffs = [red["coeffs"] for red in payload["reductions"]]
        if payload["count"] != len(coeffs):
            return ["reduction count"]
        return _check_rational_witnesses(cf.sets[f"qa{v}"], cf.sets[f"qb{v}"], coeffs)
    if recipe == "successors":
        A = cf.sets[f"su{v}"]
        entries = payload["successors"]
        nontrivial = sorted(oracles.class_key(e["invariant"]) for e in entries
                            if not e["trivial"])
        trivial = sorted(oracles.class_key(e["invariant"]) for e in entries
                         if e["trivial"])
        return _check_successor_keys(F, A, cf.facts[f"su{v}"], nontrivial, trivial)
    if recipe == "vdm_rank":
        cols, svec, _ = cf.vdm[v]
        R = sum(svec) + len(svec)
        ok = payload["rank"] == R and len(payload["rows"]) == R
        return [] if ok else [f"rank {payload['rank']} != {R}"]
    if recipe == "predecessor":
        want = sorted(cf.facts[f"sq{v}"].encode())
        return [] if sorted(payload["elements"]) == want else ["predecessor elements"]
    raise ValueError(recipe)


def _check_poset(F, fam, facts, payload) -> list[str]:
    problems = []
    rep = {}
    for node in payload["nodes"]:
        for member in node["members"]:
            rep[member] = node["label"]
    if set(rep) != set(fam):
        return ["poset nodes do not cover the family"]
    # Classes: numeric equivalence oracle on every equal-size pair.
    labels = sorted(fam)
    for a in labels:
        for b in labels:
            if a < b and len(fam[a]) == len(fam[b]):
                same = len(fam[a]) <= 2 or oracles.affine_map_count(fam[a], fam[b]) > 0
                if same != (rep[a] == rep[b]):
                    problems.append(f"class of {a} vs {b}")
    rel = {(e["source"], e["target"]) for e in payload["relation"]}

    def related(a, b):
        return (rep[a], rep[b]) in rel

    mus = facts["mus"]
    for d1 in mus:
        for d2 in mus:
            if d1 != d2 and related(f"mu{d1}", f"mu{d2}") != (d2 < d1 and d1 % d2 == 0):
                problems.append(f"mu{d1} -> mu{d2} against reverse divisibility")
    for a, b in facts["chains"]:
        if not related(a, b):
            problems.append(f"{a} -> {b} (X^2) missing")
    rational = [x for x in labels if _is_rational(fam[x])]
    for a in rational:
        for b in rational:
            A, B = fam[a], fam[b]
            if 2 <= len(B) < len(A) <= 6 and rep[a] != rep[b]:
                want = bool(oracles.reduction_oracle_q(oracles.rational_values(A),
                                                       oracles.rational_values(B)))
                if related(a, b) != want:
                    problems.append(f"{a} -> {b} against the rational oracle")
    return problems


# -- entry points ------------------------------------------------------------------------

QUERIES_PER_PASS = {"classify": 200, "search": 100,
                    "cli": len(CLI_FIELDS) * len(CLI_RECIPE)}


def field_orders(workload: str) -> tuple:
    return {"classify": (12, 16, 13), "search": SEARCH_FIELDS, "cli": CLI_FIELDS}[workload]


def build(workload: str, seed: int, count: int, directory: Path):
    """(queries, input digest) for a workload; cli also writes and parses its files."""
    for N in field_orders(workload):
        make_field(N)
    if workload == "classify":
        qs = build_classify(seed, count)
        return qs, input_digest(qs)
    if workload == "search":
        qs = build_search(seed, count)
        return qs, input_digest(qs)
    if workload == "cli":
        inputs = CliInputs(seed)
        inputs.write(directory)
        inputs.parse(directory)
        qs = build_cli(seed, count, inputs, directory)
        return qs, input_digest(qs, extra=inputs.files)
    raise ValueError(f"unknown workload {workload!r}")
