"""Equal-cardinality classification: linear maps, invariants, stabilizers."""
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from polyred import (
    ClassInvariant,
    FiniteSubset,
    LinearMap,
    canonical_invariant,
    characteristic_lambda_points,
    chi,
    equivalent,
    generate_exceptional,
    lambda_tuple,
    linear_maps_between,
    make_field,
    roots_of_unity,
    sigma3_coordinate,
    stabilizer,
)
from polyred.reduction import _split_residues
from helpers import (canonical_invariant_oracle, linear_maps_oracle, rand_element,
                     rand_irrational_map, rand_linear_map, rand_rational_set)


def equiv_oracle_q(A_vals, B_vals):
    """Linear equivalence of rational sets, decided from scratch with Fractions."""
    if len(A_vals) != len(B_vals):
        return False
    A = sorted(Fraction(a) for a in A_vals)
    B = sorted(Fraction(b) for b in B_vals)
    if len(A) == 1:
        return True
    a1, a2 = A[0], A[1]
    for b1 in B:
        for b2 in B:
            if b1 == b2:
                continue
            c = (b2 - b1) / (a2 - a1)
            d = b1 - c * a1
            if {c * a + d for a in A} == set(B):
                return True
    return False


def _fs(F, vals):
    return FiniteSubset(F, [F.from_rational(Fraction(v)) for v in vals])


def test_subset_basics(F12):
    S = _fs(F12, [3, 0, 1])
    assert [e.as_fraction() for e in S] == [0, 1, 3]
    assert len(S) == 3 and S.n == 3
    assert repr(S) == "{0, 1, 3}"
    assert F12.from_rational(1) in S and F12.from_rational(2) not in S
    with pytest.raises(ValueError):
        _fs(F12, [])
    with pytest.raises(ValueError):
        _fs(F12, [1, 1])
    with pytest.raises(ValueError):
        S.map(lambda x: x * F12.zero())  # merges everything
    # only ints (bools excluded) and Fractions are rational scalars
    for bad in ([0.1], ["1/3"], ["1/3", True], [True], [0, 1, 2.0]):
        with pytest.raises(TypeError):
            FiniteSubset(F12, bad)
    assert FiniteSubset(F12, [0, Fraction(1, 3)]) == _fs(F12, [0, Fraction(1, 3)])


def test_roots_of_unity(F12):
    mu4 = roots_of_unity(F12, 4)
    assert len(mu4) == 4
    for z in mu4:
        assert (z ** 4) == F12.one()
    with pytest.raises(ValueError):
        roots_of_unity(F12, 5)
    for bad in (True, False, 4.0, "4", Fraction(4)):
        with pytest.raises(TypeError):
            roots_of_unity(F12, bad)


def test_maps_between_example(F12):
    A, B = _fs(F12, [0, 1, 2]), _fs(F12, [0, 2, 4])
    maps = linear_maps_between(A, B)
    got = [(f.slope.as_fraction(), f.intercept.as_fraction()) for f in maps]
    assert got == [(-2, 4), (2, 0)]
    for f in maps:
        assert A.map(f) == B


def test_maps_between_small_cardinalities(F12):
    # one representative translation for singletons
    maps = linear_maps_between(_fs(F12, [2]), _fs(F12, [7]))
    assert len(maps) == 1 and maps[0](F12.from_rational(2)).as_fraction() == 7
    # a 2-set maps onto another in exactly the two forced ways
    got = [(f.slope.as_fraction(), f.intercept.as_fraction())
           for f in linear_maps_between(_fs(F12, [0, 1]), _fs(F12, [0, 1]))]
    assert got == [(-1, 1), (1, 0)]  # 1 - X and X
    got = [(f.slope.as_fraction(), f.intercept.as_fraction())
           for f in linear_maps_between(_fs(F12, [0, 1]), _fs(F12, [3, 5]))]
    assert got == [(-2, 5), (2, 3)]  # 5 - 2X and 2X + 3
    assert equivalent(_fs(F12, [0, 1]), _fs(F12, [-5, Fraction(1, 3)]))
    with pytest.raises(ValueError):
        linear_maps_between(_fs(F12, [0, 1]), _fs(F12, [0, 1, 2]))


def test_maps_between_count_bounds(F12):
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 5)
        A = rand_rational_set(F12, rng, n)
        B = A.map(rand_linear_map(F12, rng)) if rng.random() < 0.5 \
            else rand_rational_set(F12, rng, n)
        assert len(linear_maps_between(A, B)) <= math.factorial(n)
        if n >= 2:
            assert len(linear_maps_between(A, A)) == stabilizer(A).order


def _gon_union(F, rng, r, s, include_barycenter):
    """generate_exceptional with random seeds, retried until no vertices collide."""
    while True:
        seeds = [rand_element(F, rng, span=2) for _ in range(s)]
        try:
            return generate_exceptional(F, r, s, F.order // r, seeds,
                                        rand_element(F, rng, span=2),
                                        include_barycenter=include_barycenter)
        except ValueError:
            continue


def _rand_set(F, rng, n):
    elems = set()
    while len(elems) < n:
        elems.add(rand_element(F, rng, span=2))
    return FiniteSubset(F, elems)


def _assert_maps_match_oracle(A, B):
    maps = linear_maps_between(A, B)
    assert maps == linear_maps_oracle(A, B)
    assert equivalent(A, B) == bool(maps)
    return maps


def test_linear_maps_match_anchor_oracle():
    """linear_maps_between, which reads the degree-1 reductions off
    find_reductions, equals the anchor-loop oracle's sorted list over
    Q(zeta_12), Q(zeta_13) and Q(zeta_16): gon unions, their images under
    maps with non-rational slope, and random sets."""
    shapes = {  # (r, s, include_barycenter) per cyclotomic order
        12: [(3, 1, True), (4, 1, False), (6, 1, False), (2, 2, True), (3, 2, False)],
        13: [(13, 1, False)],
        16: [(4, 1, True), (8, 1, False), (2, 2, False), (4, 2, False)]}
    exceptional = 0
    for order, field_shapes in shapes.items():
        F = make_field(order)
        rng = random.Random(order)
        for r, s, inc in field_shapes:
            B = _gon_union(F, rng, r, s, inc)
            image = B.map(rand_irrational_map(F, rng))
            other = B.map(rand_irrational_map(F, rng))
            assert len(_assert_maps_match_oracle(B, B)) == r
            assert len(_assert_maps_match_oracle(B, image)) == r
            assert len(_assert_maps_match_oracle(image, other)) == r
            assert not _assert_maps_match_oracle(B, _rand_set(F, rng, len(B)))
            assert stabilizer(image).order == r
            exceptional += 1
        for n in (3, 4, 5):
            A = _rand_set(F, rng, n)
            _assert_maps_match_oracle(A, A)
            _assert_maps_match_oracle(A, A.map(rand_irrational_map(F, rng)))
            _assert_maps_match_oracle(A, _rand_set(F, rng, n))
    assert exceptional == 10


def test_linear_maps_at_a_bad_split_prime():
    """Sets that are bad at the first split prime p0 (they contain 0 and p0,
    or an element with denominator p0) are searched at the next prime and lose
    no degree-1 map."""
    for F in (make_field(12), make_field(16)):
        p0, p1 = F.split_prime(0).p, F.split_prime(1).p
        mu4 = list(roots_of_unity(F, 4))
        A = FiniteSubset(F, [F.zero()] + [p0 * u for u in mu4])
        B = FiniteSubset(F, [F.zero()] + [u / p0 for u in mu4])
        C = FiniteSubset(F, [0, p0, Fraction(1, p0), 1, F.zeta(1)])
        for X, Y in [(A, A), (B, B), (A, B), (A, C), (C, C)]:
            assert _split_residues(X, Y)[0] == p1
        assert len(_assert_maps_match_oracle(A, B)) == 4
        assert not _assert_maps_match_oracle(A, C)
        assert _assert_maps_match_oracle(C, C) == [LinearMap.identity(F)]
        assert stabilizer(A).order == stabilizer(B).order == 4
        assert stabilizer(C).order == 1
        assert chi(A) == math.factorial(5) // 4


def test_equivalence_examples(F12):
    assert equivalent(_fs(F12, [0, 1, 2]), _fs(F12, [0, 2, 4]))
    assert equivalent(_fs(F12, [0, 1, 2]), _fs(F12, [0, 1, -1]))
    assert not equivalent(_fs(F12, [0, 1, 2]), _fs(F12, [0, 1, 3]))
    assert not equivalent(_fs(F12, [0, 1]), _fs(F12, [0, 1, 2]))


def test_equivalence_against_fraction_oracle(F1):
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(1, 5)
        A = rand_rational_set(F1, rng, n)
        A_vals = [e.as_fraction() for e in A]
        if rng.random() < 0.5:
            c = Fraction(0)
            while c == 0:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            d = Fraction(rng.randint(-4, 4))
            B_vals = [c * a + d for a in A_vals]
        else:
            B_vals = [e.as_fraction() for e in rand_rational_set(F1, rng, n)]
        got = equivalent(A, _fs(F1, B_vals))
        assert got == equiv_oracle_q(A_vals, B_vals)


def test_equivalent_is_an_equivalence_relation(F12):
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randint(1, 5)
        A = rand_rational_set(F12, rng, n)
        assert equivalent(A, A)
        B = A.map(rand_linear_map(F12, rng)) if rng.random() < 0.5 \
            else rand_rational_set(F12, rng, n)
        assert equivalent(A, B) == equivalent(B, A)
        # transitivity along a chain of two witnessed legs
        C = B.map(rand_linear_map(F12, rng))
        if equivalent(A, B):
            assert equivalent(A, C)


def test_lambda_tuple_shape_and_example(F12):
    B = _fs(F12, [0, 1, 3])
    lam = lambda_tuple(B, 0, 1)
    # (b0 - b2)/(b0 - b1) = (0-3)/(0-1) = 3
    assert [x.as_fraction() for x in lam] == [3]
    with pytest.raises(ValueError):
        lambda_tuple(_fs(F12, [0, 1]), 0, 1)
    with pytest.raises(ValueError):
        lambda_tuple(B, 1, 1)
    for i1, i2 in ((True, 0), (0, False), (1.0, 0), (0, 2.5)):
        with pytest.raises(TypeError):
            lambda_tuple(B, i1, i2)
    rng = random.Random(5)
    for _ in range(25):
        S = rand_rational_set(F12, rng, rng.randint(3, 6))
        n = len(S)
        i1, i2 = rng.sample(range(n), 2)
        lam = lambda_tuple(S, i1, i2)
        assert len(lam) == n - 2
        assert list(lam) == sorted(lam)
        zero, one = S.field.zero(), S.field.one()
        assert all(x != zero and x != one for x in lam)
        assert len(set(lam)) == len(lam)


def test_lambda_tuple_affine_invariance(F12):
    # an increasing map preserves sorted positions, so anchors line up
    B = _fs(F12, [0, 1, 3, 7])
    f = LinearMap(F12.from_rational(2), F12.from_rational(1))
    fB = B.map(f)
    for i1 in range(4):
        for i2 in range(4):
            if i1 != i2:
                assert lambda_tuple(B, i1, i2) == lambda_tuple(fB, i1, i2)


def test_canonical_invariant_examples(F12):
    for vals in ([0, 1, 2], [0, 1, Fraction(1, 2)], [0, 1, -1]):
        inv = canonical_invariant(_fs(F12, vals))
        assert [x.as_fraction() for x in inv.lambdas] == [-1]
    inv = canonical_invariant(_fs(F12, [0, 1, 3]))
    assert [x.as_fraction() for x in inv.lambdas] == [-2]
    assert canonical_invariant(_fs(F12, [4])) == ClassInvariant(1, ())
    assert canonical_invariant(_fs(F12, [4, 9])) == ClassInvariant(2, ())


def test_canonical_invariant_against_oracle():
    """The screened route against the full minimum over every lambda-tuple:
    random, rational and rational-image sets, and gon unions with and
    without the barycentre, whose stabilizer ties many anchor pairs."""
    rng = random.Random(81)
    for order in (4, 12, 13, 16):
        F = make_field(order)
        cases = [_rand_set(F, rng, n) for n in (1, 2, 3, 4, 5, 6)]
        cases += [rand_rational_set(F, rng, n) for n in (1, 2, 3, 5, 6)]
        cases += [A.map(rand_irrational_map(F, rng)) for A in cases[-2:]]
        for r in (r for r in (2, 3, 4) if order % r == 0):
            for s in (1, 2):
                cases += [_gon_union(F, rng, r, s, False), _gon_union(F, rng, r, s, True)]
        for A in cases:
            assert canonical_invariant(A) == canonical_invariant_oracle(A), (order, A)


def test_invariant_decides_equivalence(F12):
    """Dual route: search for a witness map vs comparing canonical invariants."""
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(3, 5)
        A = rand_rational_set(F12, rng, n)
        if rng.random() < 0.5:
            B = A.map(rand_linear_map(F12, rng))
        else:
            B = rand_rational_set(F12, rng, n)
        same_inv = canonical_invariant(A).key() == canonical_invariant(B).key()
        assert same_inv == equivalent(A, B)


def test_invariant_stable_under_linear_maps(F12):
    rng = random.Random(78)
    for _ in range(60):
        A = rand_rational_set(F12, rng, rng.randint(3, 6))
        f = rand_linear_map(F12, rng)
        assert canonical_invariant(A.map(f)) == canonical_invariant(A)


def _map_order(f, field, cap=64):
    g = f
    for k in range(1, cap + 1):
        if g.slope == field.one() and g.intercept.is_zero():
            return k
        g = g.compose(f)
    raise AssertionError("order not found")


def test_stabilizer_examples(F12):
    F = F12
    assert stabilizer(_fs(F, [0, 1, 2])).order == 2
    assert stabilizer(_fs(F, [0, 1, 3])).order == 1
    assert stabilizer(_fs(F, [0, 1, -1])).order == 2
    assert stabilizer(roots_of_unity(F, 3)).order == 3
    assert stabilizer(_fs(F, [5])).order == 1


def test_stabilizer_group_structure(F12):
    rng = random.Random(31)
    samples = [roots_of_unity(F12, d) for d in (3, 4, 6)]
    samples += [_fs(F12, [0, 1, 2, 3]), _fs(F12, [0, 1, -1, 2, -2])]
    samples += [rand_rational_set(F12, rng, rng.randint(3, 5)) for _ in range(10)]
    ident = LinearMap.identity(F12)
    for B in samples:
        G = stabilizer(B)
        n = len(B)
        keys = {(f.slope, f.intercept) for f in G.maps}
        assert (ident.slope, ident.intercept) in keys
        assert G.order == len(G.maps) and G.y_values == tuple(f.slope for f in G.maps)
        # closure and inverses
        for f in G.maps:
            assert (f.inverse().slope, f.inverse().intercept) in keys
            for g in G.maps:
                h = f.compose(g)
                assert (h.slope, h.intercept) in keys
                assert h.slope == f.slope * g.slope  # Y is a morphism
        assert n % G.order == 0 or (n - 1) % G.order == 0
        # the slope map is an injective morphism into the multiplicative group
        assert len({f.slope for f in G.maps}) == G.order
        orders = [_map_order(f, F12) for f in G.maps]
        assert max(orders) == G.order  # cyclic: some element generates
        for f, k in zip(G.maps, orders):
            if k > 1:
                assert f.slope.multiplicative_order() == k
                fixed = [b for b in B if f(b) == b]
                assert len(fixed) <= 1


def test_chi_values_and_plane_count(F12):
    assert chi(_fs(F12, [0, 1, 2])) == 3
    assert chi(_fs(F12, [0, 1, 3])) == 6
    assert chi(roots_of_unity(F12, 3)) == 2
    assert chi(roots_of_unity(F12, 4)) == 6
    with pytest.raises(ValueError):
        chi(_fs(F12, [0, 1]))
    rng = random.Random(92)
    samples = [roots_of_unity(F12, d) for d in (3, 4, 6)]
    samples += [rand_rational_set(F12, rng, rng.randint(3, 5)) for _ in range(8)]
    for B in samples:
        pts = characteristic_lambda_points(B)
        n = len(B)
        assert len(pts) == chi(B)
        assert len(pts) * stabilizer(B).order == math.factorial(n)
        for p in pts:
            assert len(p) == n - 2
            assert tuple(sorted(p)) in {tuple(sorted(q)) for q in pts}


def test_characteristic_points_closed_under_reordering(F12):
    # each plane's point set is permutation-stable as a whole
    B = _fs(F12, [0, 1, 3, 7])
    pts = characteristic_lambda_points(B)
    for p in pts:
        for q in permutations(p):
            assert q in pts
    with pytest.raises(ValueError):
        characteristic_lambda_points(_fs(F12, [0, 1]))


def test_sigma3_examples(F12):
    u, v = sigma3_coordinate(_fs(F12, [0, 1, 2]))
    assert u.as_fraction() == 1 and v.is_zero()
    u, v = sigma3_coordinate(roots_of_unity(F12, 3))
    assert u.is_zero() and v.as_fraction() == 1
    u, v = sigma3_coordinate(_fs(F12, [0, 1, 3]))
    assert u.as_fraction() == 1 and v.as_fraction() == Fraction(50, 1029)
    with pytest.raises(ValueError):
        sigma3_coordinate(_fs(F12, [0, 1]))


def test_sigma3_is_a_class_function(F12):
    rng = random.Random(55)
    for _ in range(40):
        A = rand_rational_set(F12, rng, 3)
        f = rand_linear_map(F12, rng)
        assert sigma3_coordinate(A.map(f)) == sigma3_coordinate(A)
    coords = {sigma3_coordinate(_fs(F12, [0, 1, 2])),
              sigma3_coordinate(roots_of_unity(F12, 3)),
              sigma3_coordinate(_fs(F12, [0, 1, 3]))}
    assert len(coords) == 3
