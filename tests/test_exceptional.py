"""Exceptional sets: detection, gon decomposition, generation, order-2 test."""
import random
from fractions import Fraction

import pytest

from polyred import (
    FiniteSubset,
    chi,
    decompose,
    generate_exceptional,
    is_exceptional,
    make_field,
    order2_criterion,
    roots_of_unity,
    stabilizer,
)


def _fs(F, vals):
    return FiniteSubset(F, [F.from_rational(Fraction(v)) for v in vals])


def test_is_exceptional(F12):
    assert is_exceptional(_fs(F12, [0, 1, 2]))
    assert is_exceptional(roots_of_unity(F12, 4))
    assert not is_exceptional(_fs(F12, [0, 1, 3]))
    with pytest.raises(ValueError):
        is_exceptional(_fs(F12, [0, 1]))


def test_decompose_arithmetic_progression(F12):
    # {0,1,2}: one 2-gon {0,2} around barycenter 1
    st = decompose(_fs(F12, [0, 1, 2]))
    assert (st.r, st.s, st.group_order) == (2, 1, 2)
    assert st.barycenter.as_fraction() == 1
    assert st.includes_barycenter
    assert [[v.as_fraction() for v in g] for g in st.gons] == [[0, 2]]
    img = st.gons[0][0]
    assert st.generator(img) == st.gons[0][1]


def test_decompose_roots_of_unity(F12):
    for d in (3, 4, 6):
        st = decompose(roots_of_unity(F12, d))
        assert (st.r, st.s) == (d, 1)
        assert st.barycenter.is_zero() and not st.includes_barycenter
        assert st.group_order == d


def test_decompose_two_gons(F12):
    # {0,1,-1,2,-2}: two 2-gons and the barycenter 0
    st = decompose(_fs(F12, [0, 1, -1, 2, -2]))
    assert (st.r, st.s, st.includes_barycenter) == (2, 2, True)
    assert st.barycenter.is_zero()
    assert len(st.gons) == 2 and all(len(g) == 2 for g in st.gons)


def test_decompose_rejects_plain_sets(F12):
    with pytest.raises(ValueError):
        decompose(_fs(F12, [0, 1, 3]))
    with pytest.raises(ValueError):
        decompose(_fs(F12, [0, 1]))


def test_r_always_matches_group_order(F12):
    cases = []
    for r, s in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (6, 1)]:
        for inc in (False, True):
            if r * s + (1 if inc else 0) >= 3:  # decompose needs n >= 3
                cases.append((r, s, inc))
    for r, s, inc in cases:
        exp = 12 // r
        seeds = [Fraction(k + 1) for k in range(s)]
        second = F12.zeta(exp) * F12.from_rational(seeds[0])
        B = generate_exceptional(F12, r, s, exp, seeds, second,
                                 include_barycenter=inc)
        st = decompose(B)
        assert st.r == st.group_order
        assert st.includes_barycenter == inc
        assert len(B) == st.r * st.s + (1 if inc else 0)


def test_generate_decompose_round_trip(F12):
    rng = random.Random(9)
    for _ in range(40):
        r = rng.choice([2, 3, 4, 6])
        s = rng.randint(1, 3)
        inc = rng.random() < 0.5
        if r * s < 3:
            inc = True  # keep the set at 3 or more elements
        # distinct positive radii around a rational barycenter keep the
        # stabilizer at exactly order r, so no degenerate retries are needed
        bary = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        radii = rng.sample([Fraction(k, 2) for k in range(1, 9)], s)
        seeds = [bary + t for t in radii]
        exp = 12 // r
        second = F12.from_rational(bary) + F12.zeta(exp) * F12.from_rational(radii[0])
        B = generate_exceptional(F12, r, s, exp, seeds, second,
                                 include_barycenter=inc)
        st = decompose(B)
        assert (st.r, st.s, st.includes_barycenter) == (r, s, inc)
        assert st.barycenter.as_fraction() == bary
        # the decomposition reassembles B exactly, gon by gon, no repeats
        pieces = [v for gon in st.gons for v in gon]
        if st.includes_barycenter:
            pieces.append(st.barycenter)
        assert all(len(gon) == st.r for gon in st.gons)
        assert len(pieces) == len(B) and set(pieces) == set(B.elems)
        # decompose may pick a different primitive generator; recover its exponent
        tau_exp = next(k for k in range(12) if F12.zeta(k) == st.generator.slope)
        regenerated = generate_exceptional(
            F12, st.r, st.s, tau_exp, [g[0] for g in st.gons], st.gons[0][1],
            include_barycenter=st.includes_barycenter)
        assert regenerated == B


def test_generate_validations(F12):
    one = Fraction(1)
    with pytest.raises(ValueError):
        generate_exceptional(F12, 1, 1, 12, [one], -one)
    with pytest.raises(ValueError):
        generate_exceptional(F12, 2, 0, 6, [], one)  # no gon
    with pytest.raises(ValueError):
        generate_exceptional(F12, 5, 1, 1, [one], one)  # no 5th roots in order 12
    with pytest.raises(ValueError):
        generate_exceptional(F12, 2, 2, 6, [one, one], -one)  # colliding gons
    with pytest.raises(ValueError):
        generate_exceptional(F12, 2, 1, 6, [one], one)  # second vertex = seed
    with pytest.raises(ValueError):
        generate_exceptional(F12, 2, 2, 6, [one], -one)  # wrong seed count
    # barycenter colliding with a vertex is rejected too
    with pytest.raises(ValueError):
        generate_exceptional(F12, 2, 1, 6, [Fraction(0)], Fraction(0),
                             include_barycenter=True)


def test_chi_of_generated_sets(F12):
    import math
    # chi = n!/r for a generated set whose stabilizer is exactly the gon group
    for r, s, inc in [(2, 2, False), (3, 1, True), (4, 1, False), (6, 1, False)]:
        seeds = [Fraction(k + 1) for k in range(s)]
        exp = 12 // r
        second = F12.zeta(exp) * F12.from_rational(seeds[0])
        B = generate_exceptional(F12, r, s, exp, seeds, second,
                                 include_barycenter=inc)
        assert chi(B) == math.factorial(len(B)) // r


def test_order2_criterion(F12):
    B = _fs(F12, [0, 1, 2, 3])
    assert order2_criterion(B, [3, 2, 1, 0])  # X -> 3 - X
    assert not order2_criterion(B, [1, 0, 3, 2])
    with pytest.raises(ValueError):
        order2_criterion(B, [0, 1, 2, 3])  # identity
    with pytest.raises(ValueError):
        order2_criterion(B, [1, 2, 0, 3])  # 3-cycle, not an involution
    with pytest.raises(ValueError):
        order2_criterion(B, [0, 1])


def test_order2_criterion_matches_stabilizer(F12):
    """Cross-check: constant-sum pairings exist iff an order-2 map stabilizes."""
    from itertools import permutations
    for vals in ([0, 1, 2], [0, 1, 3], [0, 1, -1, 2, -2], [0, 1, 2, 3],
                 [0, 2, 3, 7], [0, 1, 5, 6]):
        B = _fs(F12, vals)
        n = len(B)
        found = False
        for p in permutations(range(n)):
            lp = list(p)
            if lp == list(range(n)) or any(lp[lp[i]] != i for i in range(n)):
                continue
            if order2_criterion(B, lp):
                found = True
                break
        # an order-2 stabilizer map of a rational set has slope exactly -1
        has_order2 = any(f.slope == B.field.from_rational(-1)
                         for f in stabilizer(B).maps)
        assert found == has_order2
