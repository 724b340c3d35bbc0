"""Acceptance suite: eleven end-to-end criteria with pinned time budgets.

Each criterion is one test; a wrapper times it, enforces the budget, and
records a single PASS/FAIL line that conftest prints after the run.  All
checks are exact (zero tolerance); the budgets are wall-clock seconds.
"""
import functools
import math
import random
import time
from fractions import Fraction

import conftest
from helpers import (fiber_certificate_oracle, rand_element, rand_enriched_shape,
                     rand_linear_map, rand_rational_set, successor_oracle)
from polyred import (
    FiniteSubset,
    build_enriched,
    build_poset,
    canonical_invariant,
    check_exact_preimage,
    chi,
    decompose,
    degree_bounds,
    equivalent,
    exact_rank,
    find_reductions,
    generate_exceptional,
    is_exceptional,
    linear_maps_between,
    make_field,
    predecessor_2n_minus_1,
    roots_of_unity,
    stabilizer,
    successors,
)

F12 = make_field(12)


def criterion(num, budget, title):
    """Time the body, enforce the wall-clock budget, record one summary line."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException as e:
                elapsed = time.perf_counter() - t0
                conftest.ACCEPTANCE_LINES.append(
                    f"criterion {num:2d} FAIL ({elapsed:6.2f}s / {budget:.0f}s)"
                    f" {title}: {e}")
                raise
            elapsed = time.perf_counter() - t0
            if elapsed >= budget:
                conftest.ACCEPTANCE_LINES.append(
                    f"criterion {num:2d} FAIL ({elapsed:6.2f}s / {budget:.0f}s)"
                    f" {title}: time budget exceeded")
                raise AssertionError(
                    f"time budget exceeded: {elapsed:.2f}s >= {budget}s")
            conftest.ACCEPTANCE_LINES.append(
                f"criterion {num:2d} PASS ({elapsed:6.2f}s / {budget:.0f}s) {title}")
        return wrapper
    return deco


def _fs(F, vals):
    return FiniteSubset(F, [F.from_rational(Fraction(v)) for v in vals])


def _gon_set(F, r, s, epsilon_exponent, include_barycenter, bary, radii, unit=None):
    """Union of s aligned regular r-gons with distinct positive rational radii.

    Distinct radii forbid any stabilizer map beyond the r rotations, so the
    stabilizer order is exactly r; an optional global unit rotation conjugates
    the configuration without changing that."""
    u = F.one() if unit is None else unit
    b = F.from_rational(bary)
    seeds = [b + u * F.from_rational(t) for t in radii]
    second = b + u * F.from_rational(radii[0]) * F.zeta(epsilon_exponent)
    return generate_exceptional(F, r, s, epsilon_exponent, seeds, second,
                                include_barycenter=include_barycenter)


@criterion(1, 1.0, "3-set landscape over the 12th cyclotomic field")
def test_criterion_01_three_set_landscape():
    F = F12
    half = _fs(F, [0, 1, Fraction(1, 2)])
    prog = _fs(F, [0, 1, 2])
    sym = _fs(F, [0, 1, -1])
    k = canonical_invariant(half)
    assert canonical_invariant(prog) == k == canonical_invariant(sym)
    assert is_exceptional(half) and chi(half) == 3
    z6 = F.zeta(2)
    tri = FiniteSubset(F, [F.zero(), F.one(), z6])
    assert stabilizer(tri).order == 3
    assert chi(tri) == 2
    tri5 = FiniteSubset(F, [F.zero(), F.one(), z6 ** 5])
    assert equivalent(tri, tri5)


@criterion(2, 10.0, "2-sets one class; equal-cardinality witnesses are linear")
def test_criterion_02_equal_cardinality_linearity():
    F = F12
    rng = random.Random(2002)
    for _ in range(200):
        a = rand_element(F, rng, span=4)
        b = rand_element(F, rng, span=4)
        while b == a:
            b = rand_element(F, rng, span=4)
        c = F.from_rational(rand_rational_set(F, rng, 1)[0].as_fraction())
        d = c + F.from_rational(Fraction(rng.randint(1, 9)))
        A = FiniteSubset(F, [a, b])
        B = FiniteSubset(F, [c, d])
        assert equivalent(A, B)
        assert linear_maps_between(A, B)
    for n in (3, 4, 5):
        for _ in range(100):
            A = rand_rational_set(F, rng, n)
            B = A.map(rand_linear_map(F, rng))
            found = find_reductions(A, B)
            assert found, "equivalent pair lost by the search"
            for red in found:
                assert red.gamma == 1 and red.poly.degree == 1
                assert check_exact_preimage(red.poly, A, B)


@criterion(3, 30.0, "invariant equality decides the linear-map search")
def test_criterion_03_invariant_vs_search():
    F = F12
    rng = random.Random(3003)
    for n in (3, 4, 5):
        for i in range(500):
            A = rand_rational_set(F, rng, n)
            if i % 2 == 0:
                B = A.map(rand_linear_map(F, rng))
            else:
                B = rand_rational_set(F, rng, n)
            same = canonical_invariant(A).key() == canonical_invariant(B).key()
            assert same == equivalent(A, B)


@criterion(4, 10.0, "realized plane counts are exactly {n!/r : r | n or n-1}")
def test_criterion_04_plane_count_spectrum():
    # (n, field order, [(r, s, zeta exponent, include barycenter)])
    plans = [
        (4, 12, [(2, 2, 6, False), (3, 1, 4, True), (4, 1, 3, False)]),
        (5, 20, [(2, 2, 10, True), (4, 1, 5, True), (5, 1, 4, False)]),
        (6, 30, [(2, 3, 15, False), (3, 2, 10, False), (5, 1, 6, True),
                 (6, 1, 5, False)]),
    ]
    generic = {4: [0, 1, 3, 7], 5: [0, 1, 3, 7, 15], 6: [0, 1, 3, 7, 15, 31]}
    for n, order, rows in plans:
        F = make_field(order)
        allowed = {math.factorial(n) // r
                   for r in range(1, n + 1)
                   if n % r == 0 or (n - 1) % r == 0}
        realized = set()
        G = FiniteSubset(F, [F.from_rational(Fraction(v)) for v in generic[n]])
        assert stabilizer(G).order == 1
        realized.add(chi(G))
        for r, s, exp, inc in rows:
            B = _gon_set(F, r, s, exp, inc, Fraction(1, 2),
                         [Fraction(k + 1) for k in range(s)])
            assert len(B) == n
            assert stabilizer(B).order == r
            realized.add(chi(B))
        assert realized == allowed
        # no tested set lands outside the allowed spectrum
        rng = random.Random(4000 + n)
        for _ in range(10):
            assert chi(rand_rational_set(F, rng, n)) in allowed


@criterion(5, 10.0, "generate/decompose round trip on 100 gon unions")
def test_criterion_05_round_trip():
    F = F12
    rng = random.Random(5005)
    exps = {2: 6, 3: 4, 4: 3, 6: 2}
    for _ in range(100):
        r = rng.choice([2, 3, 4, 6])
        s = rng.randint(1, 3)
        inc = rng.random() < 0.5
        if r * s < 3:
            inc = True
        bary = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        radii = rng.sample([Fraction(k, 3) for k in range(1, 13)], s)
        unit = F.zeta(rng.randrange(12))
        B = _gon_set(F, r, s, exps[r], inc, bary, radii, unit=unit)
        st = decompose(B)
        assert (st.r, st.s) == (r, s)
        assert st.barycenter == F.from_rational(bary)
        assert st.includes_barycenter == inc


@criterion(6, 10.0, "empty degree windows admit no reduction")
def test_criterion_06_empty_windows():
    F = F12
    rng = random.Random(6006)
    for m, n in ((4, 3), (6, 5)):
        assert degree_bounds(m, n).gammas == ()
        for _ in range(25):
            A = rand_rational_set(F, rng, m)
            B = rand_rational_set(F, rng, n)
            assert find_reductions(A, B) == []


@criterion(7, 30.0, "quadratic predecessors: exceptional, even order, unique class")
def test_criterion_07_predecessors():
    F = make_field(4)
    rng = random.Random(7007)
    seen = set()
    for _ in range(25):
        while True:
            t = Fraction(rng.randint(1, 30), rng.randint(1, 6))
            q = t * t * rng.choice([1, -1])
            if q != 0 and q != 1 and q not in seen:
                seen.add(q)
                break
        B = FiniteSubset(F, [F.zero(), F.one(), F.from_rational(q)])
        A = predecessor_2n_minus_1(B)
        assert len(A) == 5
        assert is_exceptional(A)
        assert stabilizer(A).order % 2 == 0
        card3 = [sc for sc in successors(A) if sc.invariant.n == 3]
        assert len(card3) == 1
        assert card3[0].invariant == canonical_invariant(B)


@criterion(8, 30.0, "roots-of-unity diagram equals reverse inclusion")
def test_criterion_08_lattice():
    F = F12
    divs = (1, 2, 3, 4, 6, 12)
    sets = {f"mu{d}": roots_of_unity(F, d) for d in divs}
    report = build_poset(sets)
    assert len(report.nodes) == len(divs)
    rel = {(e["source"], e["target"]) for e in report.relation}
    want = {(f"mu{a}", f"mu{b}") for a in divs for b in divs
            if a != b and a % b == 0}
    assert rel == want
    # diagram edges = transitive reduction of reverse inclusion
    edges = {(e["source"], e["target"]) for e in report.edges}
    want_edges = set()
    for a, b in want:
        da, db = int(a[2:]), int(b[2:])
        if not any(da % c == 0 and c % db == 0 and c != da and c != db
                   for c in divs):
            want_edges.add((a, b))
    assert edges == want_edges


@criterion(9, 20.0, "200 enriched Vandermonde instances have rank R")
def test_criterion_09_vandermonde_rank():
    F = F12
    rng = random.Random(9009)
    for _ in range(200):
        cols, svec, nodes = rand_enriched_shape(F, rng)
        R = sum(svec) + len(svec)
        M = build_enriched(cols, svec, nodes)
        assert M.row_count == R
        assert exact_rank(M.rows) == R


@criterion(10, 60.0, "successor enumeration is sound and complete (m <= 6)")
def test_criterion_10_successors():
    F = F12
    rng = random.Random(1001)

    def draw():
        kind = rng.randrange(4)
        if kind == 0:
            return roots_of_unity(F, rng.choice([3, 4, 6]))
        if kind == 1:
            r = rng.choice([2, 3])
            s = rng.randint(1, 2)
            inc = rng.random() < 0.5
            if r * s < 3:
                inc = True
            if r * s + inc > 6:
                inc = False
            radii = rng.sample([Fraction(k, 2) for k in range(1, 7)], s)
            return _gon_set(F, r, s, 12 // r, inc,
                            Fraction(rng.randint(-2, 2)), radii)
        if kind == 2:
            if rng.random() < 0.5:
                d = rng.choice([2, 3, 4])  # keep the augmented set at m <= 6
                return FiniteSubset(F, [F.zero()] + list(roots_of_unity(F, d)))
            return roots_of_unity(F, rng.choice([3, 4, 6]))
        return rand_rational_set(F, rng, rng.randint(2, 6), span=5, den=2)

    total_nontrivial = 0
    for _ in range(20):
        A = draw()
        res = successors(A)
        got = set()
        for sc in res:
            if sc.trivial:
                assert sc.witness is None
                continue
            red = sc.witness
            assert red.source == A
            assert check_exact_preimage(red.poly, red.source, red.target)
            assert canonical_invariant(red.target) == sc.invariant
            got.add(sc.invariant.key())
        oracle = successor_oracle(A) if len(A) >= 3 else set()
        assert oracle <= got, "oracle found a class the enumeration missed"
        assert got <= oracle, "enumeration returned a class the oracle rejects"
        total_nontrivial += len(got)
    assert total_nontrivial > 0, "sample exercised no nontrivial successor"


# Nontrivial class keys of successors on these sets, as the candidate loop at
# every degree returns them (9.3, 8.6 and 171 s on a 2-core machine).
_PROG12_KEYS = ['{"lambdas":[["-14/1","0/1"],["-9/1","0/1"],["-5/1","0/1"],'
                '["-2/1","0/1"]],"n":6}']
_PROG14_KEYS = ['{"lambdas":[["-20/1","0/1"],["-14/1","0/1"],["-9/1","0/1"],'
                '["-5/1","0/1"],["-2/1","0/1"]],"n":7}']


@criterion(11, 10.0, "successors at m = 12 and 14 (progressions, a random rational set)")
def test_criterion_11_successors_at_scale():
    F = make_field(4)
    for A, want in [(_fs(F, range(12)), _PROG12_KEYS),
                    (rand_rational_set(F, random.Random(12), 12), []),
                    (_fs(F, range(14)), _PROG14_KEYS)]:
        res = successors(A)
        assert [sc.invariant.key() for sc in res if sc.trivial] == [
            '{"lambdas":[],"n":1}', canonical_invariant(A).key()]
        assert [sc.invariant.key() for sc in res if not sc.trivial] == want
        for sc in res:
            if not sc.trivial:
                r = sc.witness
                assert r.fibers == fiber_certificate_oracle(r.poly, A, r.target)
