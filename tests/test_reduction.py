"""Reducibility: degree windows, certificates, searches, successors."""
import json
import random
import time
from fractions import Fraction
from itertools import combinations, count

import pytest

from polyred import (
    ClassInvariant,
    FieldMismatchError,
    FiniteSubset,
    LinearMap,
    Poly,
    canonical_invariant,
    check_exact_preimage,
    degree_bounds,
    equivalent,
    find_reductions,
    is_exceptional,
    linear_maps_between,
    make_field,
    normalize_to_contain_0_1,
    predecessor_2n_minus_1,
    reduces,
    roots_of_unity,
    singleton_reduction,
    stabilizer,
    successors,
)
from polyred.reduction import (_fiber_certificate, _fibers_full_mod_p, _root_order,
                               _search_degree, _split_residues)
from helpers import (compositions, rand_element, rand_irrational_map, rand_linear_map,
                     rand_rational_set, reduction_oracle_q, successor_oracle,
                     successors_candidate_oracle, top_degree_pair_oracle)


def _fs(F, vals):
    return FiniteSubset(F, [F.from_rational(Fraction(v)) for v in vals])


def _fracs(S):
    return [e.as_fraction() for e in S]


def test_degree_bounds():
    assert degree_bounds(5, 3).gammas == (2,)
    assert degree_bounds(7, 3).gammas == (3,)
    assert degree_bounds(6, 2).gammas == (3, 4, 5)
    assert degree_bounds(4, 3).gammas == ()   # ceil(4/3)=2 > 3/2
    assert degree_bounds(6, 5).gammas == ()
    with pytest.raises(ValueError):
        degree_bounds(3, 1)
    with pytest.raises(ValueError):
        degree_bounds(3, 3)
    for m, n in [(5, 2.0), (7.0, 3), (Fraction(5), 2), (5, True), (True, 2)]:
        with pytest.raises(ValueError):
            degree_bounds(m, n)


def test_compositions():
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]
    assert list(compositions(2, 3)) == []
    assert list(compositions(0, 0)) == [()]
    assert sum(1 for _ in compositions(7, 3)) == 15


def test_root_order_is_gamma_size_support_multiplicities():
    """The witness order (gamma, |I|, I, e) on hand-made root data [(a, e)]
    with a < b < c: I decides before e, e ascends, and gamma and |I| come
    first."""
    a, b, c = 0, 1, 2
    assert _root_order(3, [(a, 2), (c, 1)]) < _root_order(3, [(b, 1), (c, 2)])
    assert _root_order(3, [(a, 1), (b, 2)]) < _root_order(3, [(a, 2), (b, 1)])
    assert _root_order(2, [(b, 1), (c, 1)]) < _root_order(3, [(a, 3)])
    assert _root_order(3, [(c, 3)]) < _root_order(3, [(a, 1), (b, 2)])


def test_check_exact_preimage(F12):
    sq = Poly(F12, [0, 0, 1])
    assert check_exact_preimage(sq, _fs(F12, [0, 1, -1, 2, -2]), _fs(F12, [0, 1, 4]))
    assert check_exact_preimage(sq, _fs(F12, [0, 1, -1]), _fs(F12, [0, 1]))
    # preimage of 2 under X^2 - X also contains -1, so the fiber sum drops
    assert not check_exact_preimage(Poly(F12, [0, -1, 1]),
                                    _fs(F12, [0, 1, 2]), _fs(F12, [0, 2]))
    assert not check_exact_preimage(sq, _fs(F12, [0, 1]), _fs(F12, [0, 1]))
    f = LinearMap(F12.from_rational(2), F12.zero())
    assert check_exact_preimage(f, _fs(F12, [0, 1]), _fs(F12, [0, 2]))
    with pytest.raises(ValueError):
        check_exact_preimage(Poly(F12, [3]), _fs(F12, [0]), _fs(F12, [3]))


def test_find_reductions_frozen_examples(F12):
    red = find_reductions(_fs(F12, [0, 1, -1, 2, -2]), _fs(F12, [0, 1, 4]))
    assert [[c.as_fraction() for c in r.poly.coeffs] for r in red] == [[0, 0, 1]]
    assert red[0].gamma == 2

    assert find_reductions(_fs(F12, [0, 1, 3, 7]), _fs(F12, [0, 1, 5])) == []
    for A, B in (([0, 1, 2], [5]), ([0, 1], [0, 1, 2])):  # |B| < 2, |A| < |B|
        with pytest.raises(ValueError):
            find_reductions(_fs(F12, A), _fs(F12, B))

    red = find_reductions(roots_of_unity(F12, 4), _fs(F12, [1, -1]))
    polys = sorted([c.as_fraction() for c in r.poly.coeffs] for r in red)
    assert polys == [[0, 0, -1], [0, 0, 1]]

    # {0} plus the cube roots of unity maps onto {0,1} by X^3 and 1 - X^3
    A = FiniteSubset(F12, [F12.zero()] + list(roots_of_unity(F12, 3)))
    red = find_reductions(A, _fs(F12, [0, 1]))
    got = [[c.as_fraction() for c in r.poly.coeffs] for r in red]
    assert got == [[0, 0, 0, 1], [1, 0, 0, -1]]
    assert all(r.gamma == 3 for r in red)


def test_reduction_json_shape(F12):
    red = find_reductions(_fs(F12, [0, 1, -1, 2, -2]), _fs(F12, [0, 1, 4]))[0]
    obj = red.to_json_obj()
    assert obj["degree"] == 2
    assert obj["coeffs"] == [["0/1", "0/1", "0/1", "0/1"],
                             ["0/1", "0/1", "0/1", "0/1"],
                             ["1/1", "0/1", "0/1", "0/1"]]
    assert [f["target"] for f in obj["fibers"]] == [
        ["0/1", "0/1", "0/1", "0/1"],
        ["1/1", "0/1", "0/1", "0/1"],
        ["4/1", "0/1", "0/1", "0/1"]]
    assert [sorted(p["multiplicity"] for p in f["preimages"])
            for f in obj["fibers"]] == [[2], [1, 1], [1, 1]]


def test_equal_cardinality_reductions_are_linear(F12):
    rng = random.Random(300)
    for _ in range(30):
        n = rng.randint(2, 5)
        A = rand_rational_set(F12, rng, n)
        from helpers import rand_linear_map
        B = A.map(rand_linear_map(F12, rng))
        red = find_reductions(A, B)
        maps = linear_maps_between(A, B)
        assert len(red) == len(maps) > 0
        assert all(r.gamma == 1 for r in red)
        wit = {(r.poly.coeffs[1], r.poly.coeffs[0]) for r in red}
        assert wit == {(f.slope, f.intercept) for f in maps}


def test_find_reductions_against_interpolation_oracle(F1):
    rng = random.Random(71)
    shapes = [(4, 2), (5, 2), (5, 3), (4, 3), (6, 5)]
    for _ in range(25):
        m, n = shapes[rng.randrange(len(shapes))]
        A = rand_rational_set(F1, rng, m, span=6, den=2)
        B = rand_rational_set(F1, rng, n, span=6, den=2)
        got = {tuple(c.as_fraction() for c in r.poly.coeffs)
               for r in find_reductions(A, B)}
        want = reduction_oracle_q(_fracs(A), _fracs(B))
        assert got == want
    # a planted positive instance so agreement is not vacuous
    A = _fs(F1, [0, 1, -1, 2, -2])
    got = {tuple(c.as_fraction() for c in r.poly.coeffs)
           for r in find_reductions(A, _fs(F1, [0, 1, 4]))}
    assert got == reduction_oracle_q([0, 1, -1, 2, -2], [0, 1, 4]) == {(0, 0, 1)}
    # The top of a window, (n-1)gamma = m-1 at (m, n, gamma) = (4, 2, 3),
    # where the window alone makes every leaf onto within the fiber cap, and
    # a rational affine image of it; X^3 - 3X^2 has a double root in both
    # fibers.
    assert degree_bounds(4, 2).gammas == (2, 3)
    tight = ([0, 3, -1, 2], [0, -4])
    moved = ([Fraction(-3, 2) * a + Fraction(1, 5) for a in tight[0]],
             [Fraction(2, 7) * b - 3 for b in tight[1]])
    found = []
    for A_vals, B_vals in (tight, moved):
        got = {tuple(c.as_fraction() for c in r.poly.coeffs)
               for r in find_reductions(_fs(F1, A_vals), _fs(F1, B_vals))}
        assert len(got) == 4 and got == reduction_oracle_q(A_vals, B_vals)
        found.append(got)
    assert (0, 0, -3, 1) in found[0]


def _coeff_fracs(reductions):
    return {tuple(c.as_fraction() for c in r.poly.coeffs) for r in reductions}


def _signed_multiplicities(r):
    """x_a = e_a over the fiber of 0 and -f_a over the fiber of 1, like A."""
    (_, pre0), (_, pre1) = r.fibers
    x = dict(pre0)
    x.update((a, -f) for a, f in pre1)
    return tuple(x[a] for a in r.source.elems)


def _top_degree_cases(F1, F4, F12):
    """133 sets for the top-degree 2-set search: progressions, {0, 1, 3, 4},
    seeded integer sets and roots of unity with and without 0."""
    rng = random.Random(20261021)
    cases = []
    for field in (F1, F4, F12):
        cases += [_fs(field, range(m)) for m in range(3, 13)]
        cases.append(_fs(field, [0, 1, 3, 4]))
        cases += [_fs(field, rng.sample(range(-6, 7), rng.randint(3, 7)))
                  for _ in range(30)]
    for N, d in ((3, 3), (4, 4), (8, 8), (12, 6), (12, 12)):
        mu = roots_of_unity(make_field(N), d)
        cases += [mu, FiniteSubset(mu.field, [0, *mu.elems])]
    return cases


def test_top_degree_pair_search_matches_closed_form(F1, F4, F12):
    """The degree-(m-1) search onto {0, 1} finds no witness where the closed
    form of the Vandermonde kernel has none, and otherwise exactly the
    witness with signed multiplicities x and its mirror with -x, at sizes
    reduction_oracle_q cannot reach."""
    F = Poly.from_roots(F1, [(1, 2), (4, 1)])
    G = Poly.from_roots(F1, [(0, 1), (3, 2)])
    assert F - G == Poly(F1, [-4])  # {0, 1, 3, 4}: 0-fiber G, 1-fiber F
    assert top_degree_pair_oracle(_fs(F1, [0, 1, 3, 4])) == [(1, -2, 2, -1),
                                                              (-1, 2, -2, 1)]
    cases = _top_degree_cases(F1, F4, F12)
    witnessed = 0
    for A in cases:
        pair = FiniteSubset(A.field, [0, 1])
        found = _search_degree(A, pair, len(A) - 1, False, _split_residues(A, pair))
        want = top_degree_pair_oracle(A)
        assert sorted(map(_signed_multiplicities, found)) == sorted(want), A
        witnessed += bool(want)
    assert len(cases) == 133 and witnessed == 18


def test_top_degree_pair_first_only(F1, F4, F12):
    """On the 18 sets with a top-degree witness onto {0, 1}, first_only keeps
    the witness that sends min A to 0: at the top degree it is the member of
    the full list whose fiber over 0 holds min A, and find_reductions returns
    the member of its full list of least degree with that fiber."""
    witnessed = 0
    for A in _top_degree_cases(F1, F4, F12):
        pair = FiniteSubset(A.field, [0, 1])
        res = _split_residues(A, pair)
        full = _search_degree(A, pair, len(A) - 1, False, res)
        if not full:
            continue
        witnessed += 1
        first = _search_degree(A, pair, len(A) - 1, True, res)
        assert first == [r for r in full if A.elems[0] in dict(r.fibers[0][1])], A
        every = find_reductions(A, pair)
        (got,) = find_reductions(A, pair, first_only=True)
        low = [r for r in every if r.gamma == every[0].gamma
               and A.elems[0] in dict(r.fibers[0][1])]
        assert low == [got], A
    assert witnessed == 18


def test_top_degree_pair_search_at_scale(F1, F4):
    """The top-degree search onto {0, 1} reads the Vandermonde kernel line,
    so {0..m-1} for m = 16..24 and a seeded rational 16-set are decided in
    well under a second (the 2^(m-1)-leaf tree took 1.45 s at m = 16 alone),
    and agree with the closed form."""
    cases = [_fs(F4, range(m)) for m in range(16, 25)]
    cases.append(rand_rational_set(F1, random.Random(16), 16))
    start = time.process_time()
    for A in cases:
        pair = FiniteSubset(A.field, [0, 1])
        found = _search_degree(A, pair, len(A) - 1, False, _split_residues(A, pair))
        assert sorted(map(_signed_multiplicities, found)) == sorted(
            top_degree_pair_oracle(A)), A
    assert time.process_time() - start < 1.0


def test_top_degree_pair_with_a_double_least_element():
    """The points 2*zeta*cos(k*pi/8), k = 0..8, in Q(zeta_16) are a preimage
    of a 2-set under a scaled Chebyshev T_8, and their least element is a
    double point: the kernel line is kept at e0 = 2, where every set of
    _top_degree_cases keeps e0 = 1."""
    F = make_field(16)
    z = F.zeta()
    A = FiniteSubset(F, [z ** ((1 + k) % 16) + z ** ((1 - k) % 16) for k in range(9)])
    pair = FiniteSubset(F, [0, 1])
    found = _search_degree(A, pair, 8, False, _split_residues(A, pair))
    assert sorted(map(_signed_multiplicities, found)) == sorted(top_degree_pair_oracle(A))
    assert [dict(r.fibers[0][1]).get(A.elems[0]) for r in found] == [2, None]
    assert _search_degree(A, pair, 8, True, _split_residues(A, pair)) == found[:1]


def test_progressions_reach_a_pair_at_the_top_degree_only_at_3(F1):
    """{0..m-1} has r_a = (-1)^a C(m-1, a) on the kernel line, whose positive
    entries sum to 2^(m-2); x_0 = (m-1)/2^(m-2) must be an integer, so only
    m = 3 reaches a 2-set at degree m - 1."""
    for m in range(3, 41):
        A = _fs(F1, range(m))
        pair = FiniteSubset(F1, [0, 1])
        found = _search_degree(A, pair, m - 1, False, _split_residues(A, pair))
        assert len(found) == (2 if m == 3 else 0), m
        assert bool(found) == ((m - 1) % 2 ** (m - 2) == 0)

def test_bad_split_prime_moves_to_next(F4):
    """Pairs that are bad at the first split prime p0 of Q(zeta_4) are
    searched at the next one and lose no witness."""
    p0, p1 = F4.split_prime(0).p, F4.split_prime(1).p
    q = Fraction(1, p0)
    cases = [
        ([0, 1, -1, p0, -p0], [0, 1, p0 * p0]),  # 0 = p0 mod p0, in A and in B
        ([0, 1, -1, q, -q], [0, 1, q * q]),      # p0 divides a denominator
        ([0, 1, -1, 2, -2], [0, p0, 4 * p0]),    # B collapses to 0 mod p0
        ([0, 1, 2], [0, p0, 2 * p0]),            # the same at equal size
    ]
    for A_vals, B_vals in cases:
        A, B = _fs(F4, A_vals), _fs(F4, B_vals)
        assert _split_residues(A, B)[0] == p1
        got = _coeff_fracs(find_reductions(A, B))
        assert got and got == reduction_oracle_q(A_vals, B_vals)


def test_find_reductions_equivariant_over_extensions(F12):
    """find_reductions(f(A), g(B)) = {g o P o f^-1 : P in find_reductions(A, B)}
    for affine f and g with non-rational coefficients, over Q(zeta_12) and
    Q(zeta_16), where the search's residues send zeta to a root of unity other
    than 1.  The rational pairs are also checked against the Q oracle; the
    planted pairs are unions of regular r-gons, mapped by X^r."""
    with_witness = 0
    for F in (F12, make_field(16)):
        rng = random.Random(F.order)
        pairs = [(_fs(F, [0, 1, -1, 2, -2]), _fs(F, [0, 1, 4])),
                 (_fs(F, [-1, 0, 1]), _fs(F, [0, 1]))]
        for m, n in [(4, 2), (5, 2), (5, 3), (6, 2)]:
            pairs.append((rand_rational_set(F, rng, m, span=4, den=2),
                          rand_rational_set(F, rng, n, span=4, den=2)))
        for A, B in pairs:
            assert _coeff_fracs(find_reductions(A, B)) == reduction_oracle_q(
                _fracs(A), _fracs(B))
        c = F.one() + F.zeta(1)
        for r in (2, 3, 4):
            if F.order % r:
                continue
            gon = list(roots_of_unity(F, r))
            pairs.append((FiniteSubset(F, [F.zero()] + gon + [c * u for u in gon]),
                          FiniteSubset(F, [F.zero(), F.one(), c ** r])))
            pairs.append((FiniteSubset(F, gon + [c * u for u in gon]),
                          FiniteSubset(F, [F.one(), c ** r])))
        for A, B in pairs:
            f, g = rand_irrational_map(F, rng), rand_irrational_map(F, rng)
            base = find_reductions(A, B)
            with_witness += bool(base)
            f_inv, g_poly = f.inverse().to_poly(), g.to_poly()
            want = {g_poly.compose(r.poly.compose(f_inv)).coeffs for r in base}
            got = {r.poly.coeffs for r in find_reductions(A.map(f), B.map(g))}
            assert got == want
    assert with_witness >= 10


def test_empty_window_means_no_reduction(F1):
    """(m,n) with an empty degree window admits no witness of any degree."""
    rng = random.Random(72)
    for m, n in [(4, 3), (6, 5)]:
        assert degree_bounds(m, n).gammas == ()
        for _ in range(10):
            A = rand_rational_set(F1, rng, m, span=5, den=2)
            B = rand_rational_set(F1, rng, n, span=5, den=2)
            assert find_reductions(A, B) == []
            # the oracle searches all degrees, so emptiness is not a window artifact
            assert reduction_oracle_q(_fracs(A), _fracs(B)) == set()


def test_singleton_reduction(F12):
    A = _fs(F12, [0, 1, 3])
    red = singleton_reduction(A, Fraction(5))
    assert red.gamma == 3
    assert _fracs(red.target) == [5]
    assert check_exact_preimage(red.poly, A, red.target)
    assert reduces(A, _fs(F12, [5]))


def test_reduces_cases(F12):
    assert not reduces(_fs(F12, [0, 1]), _fs(F12, [0, 1, 2]))
    assert reduces(_fs(F12, [0, 1, 2]), _fs(F12, [0, 2, 4]))
    assert not reduces(_fs(F12, [0, 1, 2]), _fs(F12, [0, 1, 3]))
    assert reduces(_fs(F12, [0, 1, -1, 2, -2]), _fs(F12, [0, 1, 4]))
    assert not reduces(_fs(F12, [0, 1, 3, 7]), _fs(F12, [0, 1, 5]))
    assert reduces(_fs(F12, [0, 1, 3, 7]), _fs(F12, [9]))


def test_mixed_fields_rejected_before_cardinality_shortcuts(F4, F12):
    """Every cardinality case raises, not only the n >= 3 search."""
    two4, two12 = _fs(F4, [0, 1]), _fs(F12, [0, 1])
    cases = [(equivalent, two4, two12),                     # 2 vs 2
             (equivalent, two4, _fs(F12, [0, 1, 2])),       # 2 vs 3
             (reduces, two4, two12),                        # 2 -> 2
             (reduces, _fs(F4, [0, 1, 2]), _fs(F12, [5])),  # 3 -> 1
             (reduces, two4, _fs(F12, [0, 1, 2])),          # 2 -> 3
             (lambda A, B: check_exact_preimage(Poly(F12, [0, 0, 1]), A, B),
              _fs(F12, [0, 1, -1]), _fs(F4, [0, 1]))]       # P, A over Q(zeta_12)
    for decide, A, B in cases:
        with pytest.raises(FieldMismatchError):
            decide(A, B)


def test_successors_match_partition_oracle(F12):
    rng = random.Random(500)
    samples = [
        _fs(F12, [0, 1, 2]),
        _fs(F12, [0, 1, 2, 3]),
        roots_of_unity(F12, 4),
        _fs(F12, [0, 1, 3, 7]),
        FiniteSubset(F12, [F12.zero()] + list(roots_of_unity(F12, 3))),
        _fs(F12, [0, 1, -1, 2, -2]),
    ]
    samples += [rand_rational_set(F12, rng, rng.choice([4, 5]), span=5, den=2)
                for _ in range(4)]
    for A in samples:
        got = {sc.invariant.key() for sc in successors(A) if not sc.trivial}
        assert got == successor_oracle(A)


def _successor_keys(A):
    return {sc.invariant.key() for sc in successors(A)}


def test_successors_match_oracle_over_extensions(F12):
    """Over Q(zeta_12) and Q(zeta_16), where the window filter's residues send
    zeta to a root of unity other than 1: mu_d U {0} and rational sets moved
    by affine maps with non-rational coefficients agree with the partition
    oracle, and an affine image of A has the successor classes of A."""
    for F in (F12, make_field(16)):
        rng = random.Random(F.order + 1)
        samples = [FiniteSubset(F, [F.zero()] + list(roots_of_unity(F, d)))
                   for d in (2, 3, 4) if F.order % d == 0]
        samples += [rand_rational_set(F, rng, m, span=4, den=2)
                    for m in (4, 5, 5)]
        for A in samples:
            keys = []
            for B in (A, A.map(rand_irrational_map(F, rng))):
                res = successors(B)
                got = {sc.invariant.key() for sc in res if not sc.trivial}
                assert got == successor_oracle(B)
                keys.append({sc.invariant.key() for sc in res})
            assert keys[0] == keys[1]


def test_successors_at_a_bad_split_prime(F12):
    """Sets that are bad at the first split prime p0 (0 and p0 collide mod p0,
    or p0 divides a denominator) are filtered at the next prime and lose no
    class."""
    for F in (F12, make_field(16)):
        p0, p1 = F.split_prime(0).p, F.split_prime(1).p
        q = Fraction(1, p0)
        for vals in ([0, 1, -1, p0, -p0], [0, 1, -1, q, -q],
                     [0, 1, p0, p0 + 1]):
            A = _fs(F, vals)
            assert _split_residues(A, A)[0] == p1
            got = {sc.invariant.key() for sc in successors(A) if not sc.trivial}
            assert got and got == successor_oracle(A)


def test_successors_closed_under_composition(F8, F12):
    """A <= B <= C gives A <= C, so the classes reachable from each
    nontrivial successor B of A are among those reachable from A."""
    samples = [_fs(F12, [0, 1, -1, 2, -2]), _fs(F12, range(-3, 4)),
               FiniteSubset(F12, [F12.zero()] + list(roots_of_unity(F12, 6))),
               roots_of_unity(F8, 8), _fs(F8, range(-3, 5))]
    deeper = 0
    for A in samples:
        keys = _successor_keys(A)
        for sc in successors(A):
            if sc.trivial:
                continue
            sub = _successor_keys(sc.witness.target)
            assert sub <= keys
            deeper += len(sub) > 2
    assert deeper > 0


def test_successors_exact_product_count(F12, monkeypatch):
    """Both tests run on residues, so only their few survivors form exact
    images: successors on {0, +-1, +-2, +-3} makes under 300 exact products
    (70; 89 when the certificate evaluated P and its derivatives at each
    point; 224 with a certificate per new image set before the class dedup,
    572 with an eager table of difference powers and a second certificate
    per class as well, about 14,800 when every candidate's image is built
    exactly).  int * element goes through __rmul__, counted too."""
    from polyred.field import FieldElement
    A = _fs(F12, range(-3, 4))
    calls = [0]
    mul = FieldElement.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counting)
    monkeypatch.setattr(FieldElement, "__rmul__", counting)
    successors(A)
    assert 0 < calls[0] < 300


def test_witness_search_inverts_once_per_survivor(F12, monkeypatch):
    """A = {0} U mu_6 onto {0, +-1}: gamma = 3 and the witnesses are +-X^3.
    Each surviving leaf builds its witness from one fiber's roots with one
    exact inverse.  Under both witnesses x_0 = -1 has the fiber
    {-1, z^2, 1 - z^2} of simple roots, so both divide by the same
    prod(x_1 - a), and first_only and the full search each make 1
    FieldElement.inverse call (6 each when the leaf was re-interpolated by
    exact divided differences)."""
    from polyred.field import FieldElement
    A = FiniteSubset(F12, [F12.zero(), *roots_of_unity(F12, 6)])
    B = _fs(F12, [0, 1, -1])
    calls = [0]
    inverse = FieldElement.inverse

    def counting(self):
        calls[0] += 1
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counting)
    for first_only, want_calls, want_polys in [
            (True, 1, [Poly(F12, [0, 0, 0, 1])]),
            (False, 1, [Poly(F12, [0, 0, 0, -1]), Poly(F12, [0, 0, 0, 1])])]:
        calls[0] = 0
        found = find_reductions(A, B, first_only=first_only)
        assert [r.poly for r in found] == want_polys
        assert calls[0] == want_calls


def test_stabilizer_inverts_the_leaf_divisor_once(F12, monkeypatch):
    """The six rotations of mu_6 are six degree-1 leaves, and each divides by
    the same x_1 - x_0, so the search makes 1 FieldElement.inverse call."""
    from polyred.field import FieldElement
    calls = [0]
    inverse = FieldElement.inverse

    def counting(self):
        calls[0] += 1
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counting)
    assert stabilizer(roots_of_unity(F12, 6)).order == 6
    assert calls[0] == 1


def test_successors_entries_verified(F12):
    A = _fs(F12, [0, 1, -1, 2, -2])
    res = successors(A)
    trivial_n = {sc.invariant.n for sc in res if sc.trivial}
    assert trivial_n == {1, 5}
    assert all(sc.witness is None for sc in res if sc.trivial)
    for sc in res:
        if sc.trivial:
            continue
        r = sc.witness
        assert r.source == A
        assert check_exact_preimage(r.poly, r.source, r.target)
        assert r.fibers == _fiber_certificate(r.poly, r.source, r.target)
        assert canonical_invariant(r.target) == sc.invariant
    # the only nontrivial class is [{0,1,4}]: degrees 3 and 4 onto 2-sets fail
    n_vals = sorted(sc.invariant.n for sc in res)
    assert n_vals == [1, 3, 5]
    three = next(sc for sc in res if sc.invariant.n == 3)
    assert three.invariant == canonical_invariant(_fs(F12, [0, 1, 4]))


def test_successors_degree_cap(F12):
    A = _fs(F12, [0, 1, -1, 2, -2])
    capped = successors(A, max_degree=2)
    full = successors(A)
    keys_capped = {sc.invariant.key() for sc in capped}
    keys_full = {sc.invariant.key() for sc in full}
    assert keys_capped <= keys_full
    for sc in capped:
        if not sc.trivial:
            assert sc.witness.gamma <= 2
    with pytest.raises(ValueError):
        successors(_fs(F12, [3]))


def test_successors_max_degree_at_least_one(F12):
    A = _fs(F12, [0, 1, 3])
    assert all(sc.trivial for sc in successors(A, max_degree=1))
    for cap in (0, -5, True, 1.5, "2"):
        with pytest.raises(ValueError, match="max_degree"):
            successors(A, max_degree=cap)


def test_successor_filters_never_reject_a_witness(F1, F4):
    """Every candidate the certificate accepts satisfies the successor filters.

    For each support and composition the image set W = P(A) of the root
    product P is certified directly; whenever it passes, the degree window
    gamma(|W|-1) <= m-1 holds, no fiber has more than gamma elements, and
    the fiber test modulo the good split prime q of A accepts P mod q with
    A grouped by the residues of its images."""
    rng = random.Random(620)
    samples = [_fs(F1, [0, 1, -1, 2, -2]),
               FiniteSubset(F4, [F4.zero()] + list(roots_of_unity(F4, 4)))]
    samples += [rand_rational_set(F1, rng, m, span=4, den=2) for m in (4, 5, 5, 6, 6)]
    passed = 0
    for A in samples:
        m = len(A)
        q = _split_residues(A, A)[0]
        sp = next(s for s in map(A.field.split_prime, count()) if s.p == q)
        for gamma in range(2, m):
            for p in range(1, min(gamma, m - 1) + 1):
                for I in combinations(range(m), p):
                    for mults in compositions(gamma, p):
                        P = Poly.from_roots(A.field, [(A[i], e)
                                                      for i, e in zip(I, mults)])
                        values = [P(a) for a in A]
                        W = FiniteSubset(A.field, set(values))
                        if len(W) < 2 or not check_exact_preimage(P, A, W):
                            continue
                        passed += 1
                        assert gamma * (len(W) - 1) <= m - 1
                        assert max(values.count(w) for w in W) <= gamma
                        fibers = {}
                        for a, v in zip(A, values):
                            fibers.setdefault(sp.residue(v), []).append(sp.residue(a))
                        P_q = [sp.residue(c) for c in P.coeffs]
                        assert _fibers_full_mod_p(P_q, fibers.items(), q)
    assert passed > 0


def _certificate_outcomes(monkeypatch, A):
    """successors(A) with every _fiber_certificate call recorded as passed or
    failed: (nontrivial class keys, outcomes)."""
    import polyred.reduction as red
    certify = red._fiber_certificate
    outcomes = []

    def recording(P, A_, B):
        fibers = certify(P, A_, B)
        outcomes.append(fibers is not None)
        return fibers

    with monkeypatch.context() as mp:
        mp.setattr(red, "_fiber_certificate", recording)
        keys = {sc.invariant.key() for sc in successors(A) if not sc.trivial}
    return keys, outcomes


def test_successor_collision_caught_only_by_the_certificate(F4, F12, monkeypatch):
    """With q0 the first split prime, q0 is good for A = {0, 1, 2, q0 - 1}.
    X(X - 1) sends 2 and q0 - 1 to the distinct images 2 and (q0-1)(q0-2),
    which agree mod q0: at gamma = 2 > (m-1)/2 the witness search onto
    {0, 1} reaches X(X - 1)/2 as a leaf that passes every test mod q0, and
    only the exact certificate rejects it."""
    for F in (F4, F12):
        sp = F.split_prime(0)
        q0 = sp.p
        A = _fs(F, [0, 1, 2, q0 - 1])
        assert _split_residues(A, A)[0] == q0
        P = Poly(F, [0, -1, 1])
        images = [P(a) for a in A]
        assert images[2:] == [F.from_rational(2), F.from_rational((q0 - 1) * (q0 - 2))]
        assert sp.residue(images[2]) == sp.residue(images[3]) == 2
        assert _fibers_full_mod_p([0, q0 - 1, 1], [(2, [2, q0 - 1])], q0)
        assert not check_exact_preimage(P, A, FiniteSubset(F, set(images)))
        keys, outcomes = _certificate_outcomes(monkeypatch, A)
        assert keys == successor_oracle(A) == set()
        assert outcomes and not any(outcomes)


def test_successor_certificates_all_pass(F8, F12, monkeypatch):
    """The window and the fiber test mod q reject every failing candidate on
    these sets, so each certificate successors runs passes (17, 16 and 20
    calls, some failing, without the fiber test)."""
    for A in (_fs(F12, range(-3, 4)), _fs(F8, range(-3, 5)), roots_of_unity(F8, 8)):
        keys, outcomes = _certificate_outcomes(monkeypatch, A)
        assert keys and outcomes and all(outcomes)


def test_successors_certify_each_class_once(F12, monkeypatch):
    """Candidates are deduplicated by class key before the certificate, so on
    {0, +-1, +-2, +-3} the one certificate run passes and adds the one
    nontrivial class (four passing calls when the dedup ran after the
    certificate)."""
    keys, outcomes = _certificate_outcomes(monkeypatch, _fs(F12, range(-3, 4)))
    assert all(outcomes) and len(outcomes) == len(keys)


def test_successor_2_set_witness_certified_once(F4, F8, monkeypatch):
    """The 2-set class keeps the reduction the witness search onto {0, 1}
    certified: one certificate on {-1, 0, 1} and two on mu_8 (two and three
    when that class's witness was rebuilt and certified a second time), and
    the witness is one find_reductions returns at its degree."""
    two = ClassInvariant(2, ()).key()
    for A, calls in ((_fs(F4, [-1, 0, 1]), 1), (roots_of_unity(F8, 8), 2)):
        keys, outcomes = _certificate_outcomes(monkeypatch, A)
        assert two in keys and all(outcomes) and len(outcomes) == calls
        witness = next(sc.witness for sc in successors(A) if sc.invariant.key() == two)
        assert witness in [r for r in find_reductions(A, _fs(A.field, [0, 1]))
                           if r.gamma == witness.gamma]


def test_successor_certificates_match_candidate_oracle(F4, F8, F12, monkeypatch):
    """Capped at gamma = (m-1)/2, where the 2-set search never runs, successors
    runs the same certificates, on the same (P, B), in the same order, with
    the same outcomes as the candidate loop: the walk keeps every survivor
    of the loop, adds none, and takes them in (gamma, |I|, I, e) order."""
    import polyred.reduction as red
    certify = red._fiber_certificate

    def calls(run, A):
        seen = []

        def recording(P, A_, B):
            fibers = certify(P, A_, B)
            seen.append((P.coeffs, B.elems, fibers is not None))
            return fibers

        with monkeypatch.context() as mp:
            mp.setattr(red, "_fiber_certificate", recording)
            run(A, (len(A) - 1) // 2)
        return seen

    rng = random.Random(2323)
    cases = [_fs(F4, range(m)) for m in range(3, 10)]
    for F, d in ((F4, 4), (F8, 8), (F12, 6), (F12, 12)):
        mu = roots_of_unity(F, d)
        cases += [mu, FiniteSubset(F, [F.zero(), *mu])]
    cases += [rand_rational_set(F4, rng, m, span=4, den=2) for m in range(5, 9)]
    for A in cases:
        assert calls(successors, A) == calls(successors_candidate_oracle, A)


def _successor_dump(res):
    return json.dumps([(sc.invariant.key(), sc.trivial,
                        sc.witness and sc.witness.to_json_obj()) for sc in res])


def test_successors_match_candidate_oracle(F4, F8, F12):
    """successors equals, byte for byte (keys, trivial flags, witnesses), the
    candidate loop run at every degree: above (m-1)/2 the one witness search
    onto {0, 1} picks the candidate the loop certifies first.  Progressions,
    {0, +-1, ..., +-k}, mu_d and mu_d U {0}, random rational and
    small-coordinate sets, uncapped and at max_degree 3; some of them get the
    2-set class only from that search."""
    rng = random.Random(1919)
    cases = [_fs(F4, range(m)) for m in range(3, 10)]
    cases += [_fs(F4, [0, *range(-k, 0), *range(1, k + 1)]) for k in range(1, 5)]
    for F in (F4, F8, F12):
        for d in range(2, 9):
            if F.order % d == 0:
                mu = roots_of_unity(F, d)
                cases += [mu, FiniteSubset(F, [F.zero(), *mu])]
    for F in (F4, F12):
        for _ in range(3):
            cases.append(rand_rational_set(F, rng, rng.randint(3, 8), span=4, den=2))
            cases.append(FiniteSubset(F, {rand_element(F, rng, span=1)
                                          for _ in range(rng.randint(3, 8))}))
    by_search = 0
    for A in cases:
        m = len(A)
        for cap in (None, 3):
            got = successors(A, cap)
            want = successors_candidate_oracle(A, cap)
            assert _successor_dump(got) == _successor_dump(want)
            by_search += any(sc.invariant.n == 2 and not sc.trivial
                             and sc.witness.gamma > (m - 1) // 2 for sc in got)
    assert by_search


# Class keys the exhaustive enumeration (Poly.from_roots, Horner and the
# certificate on every candidate) returns for these 8-sets.
_ARITH8_KEYS = {'{"lambdas":[["-5/1","0/1","0/1","0/1"],["-2/1","0/1","0/1","0/1"]],"n":4}'}
_MU8_KEYS = {'{"lambdas":[["0/1","0/1","-1/1","0/1"],["1/1","0/1","-1/1","0/1"]],"n":4}',
             '{"lambdas":[],"n":2}'}


def test_successors_at_m8(F8):
    arith = _fs(F8, range(-3, 5))
    mu8 = roots_of_unity(F8, 8)
    for A, want in [(arith, _ARITH8_KEYS), (mu8, _MU8_KEYS)]:
        res = successors(A)
        got = {sc.invariant.key() for sc in res if not sc.trivial}
        assert got == want
        for sc in res:
            if not sc.trivial:
                r = sc.witness
                assert r.source == A
                assert check_exact_preimage(r.poly, r.source, r.target)
                assert r.fibers == _fiber_certificate(r.poly, r.source, r.target)
    for d in (4, 2):  # mu_8 -> mu_d under X^(8/d)
        assert canonical_invariant(roots_of_unity(F8, d)).key() in got


def _symmetric_set(F, rng, k, with_zero):
    """Random image of {+-a_1, ..., +-a_k} (optionally plus 0) under a linear map."""
    mags = rng.sample([Fraction(t, 2) for t in range(1, 9)], k)
    vals = [q for a in mags for q in (a, -a)] + ([0] if with_zero else [])
    A = FiniteSubset(F, [F.from_rational(q) for q in vals])
    return A.map(rand_linear_map(F, rng))


def test_quadratic_witness_implies_exceptional(F12):
    """Any set admitting a degree-2 reduction has an even-order stabilizer."""
    rng = random.Random(610)
    saw_quadratic = 0
    for _ in range(12):
        if rng.random() < 0.5:
            A = _symmetric_set(F12, rng, rng.randint(2, 3), rng.random() < 0.5)
        else:
            A = rand_rational_set(F12, rng, rng.randint(4, 6), span=5, den=2)
        for sc in successors(A):
            if not sc.trivial and sc.witness.gamma == 2:
                saw_quadratic += 1
                assert is_exceptional(A)
                assert stabilizer(A).order % 2 == 0
    assert saw_quadratic > 0


def test_even_cardinality_funnel(F12):
    """A 2k-set with even stabilizer order reduces onto exactly one k-class."""
    rng = random.Random(611)
    for _ in range(8):
        k = rng.randint(2, 3)
        A = _symmetric_set(F12, rng, k, with_zero=False)
        assert stabilizer(A).order % 2 == 0
        halves = [sc for sc in successors(A) if sc.invariant.n == k]
        assert len(halves) == 1
        assert halves[0].witness.gamma == 2


def test_predecessor_examples(F4):
    A = predecessor_2n_minus_1(_fs(F4, [0, 1, 4]))
    assert _fracs(A) == [-2, -1, 0, 1, 2]
    i = F4.zeta(1)
    A = predecessor_2n_minus_1(_fs(F4, [0, 1, -1]))
    assert set(A.elems) == {F4.zero(), F4.one(), -F4.one(), i, -i}
    # the source is exceptional with even stabilizer order
    assert is_exceptional(A) and stabilizer(A).order % 2 == 0
    with pytest.raises(ValueError):
        predecessor_2n_minus_1(_fs(F4, [7]))


def test_predecessor_missing_root_reported(F4):
    with pytest.raises(ValueError, match="not found in working field"):
        predecessor_2n_minus_1(_fs(F4, [0, 1, 2]))


def test_predecessor_unique_successor_class(F4):
    B = _fs(F4, [0, 1, 4])
    A = predecessor_2n_minus_1(B)
    res = [sc for sc in successors(A) if sc.invariant.n == 3]
    assert len(res) == 1
    assert res[0].invariant == canonical_invariant(B)


def test_normalize(F12):
    A = _fs(F12, [0, 1, 7])
    out, f = normalize_to_contain_0_1(A)
    assert out == A and f.slope.is_one() and f.intercept.is_zero()
    out, f = normalize_to_contain_0_1(_fs(F12, [2, 3, 5]))
    assert _fracs(out) == [0, 1, 3]
    out, f = normalize_to_contain_0_1(_fs(F12, [0, 2, 5]))
    assert _fracs(out) == [0, 1, Fraction(5, 2)]
    with pytest.raises(ValueError):
        normalize_to_contain_0_1(_fs(F12, [4]))
