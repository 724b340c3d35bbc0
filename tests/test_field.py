"""Field layer: modulus construction, arithmetic, ordering, embeddings, sqrt."""
import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
import sympy as sp

from polyred import FieldMismatchError, make_field


def test_cyclotomic_modulus_against_sympy():
    x = sp.Symbol("x")
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 20, 24, 30):
        F = make_field(n)
        want = [int(c) for c in reversed(sp.Poly(sp.cyclotomic_poly(n, x), x).all_coeffs())]
        assert list(F.modulus) == want, n
        assert F.degree == sp.totient(n)


def test_make_field_is_cached_and_validated():
    assert make_field(12) is make_field(12)
    with pytest.raises(ValueError):
        make_field(0)
    with pytest.raises(ValueError):
        make_field(-3)
    for bad in (True, False, 12.0, "12"):
        with pytest.raises(TypeError):
            make_field(bad)


def test_zeta_powers_and_orders(F12):
    z = F12.zeta(1)
    assert (z ** 12).is_one()
    for k in range(1, 12):
        assert not (z ** k).is_one()
    assert z.multiplicative_order() == 12
    assert F12.zeta(3).multiplicative_order() == 4
    assert F12.zeta(14) == F12.zeta(2)
    # zeta is a root of the modulus
    acc = F12.zero()
    for c in reversed(F12.modulus):
        acc = acc * z + F12.from_rational(c)
    assert acc.is_zero()


def test_rational_arithmetic_matches_fractions(F12):
    rng = random.Random(101)
    for _ in range(200):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        ea, eb = F12.from_rational(a), F12.from_rational(b)
        assert (ea + eb).as_fraction() == a + b
        assert (ea - eb).as_fraction() == a - b
        assert (ea * eb).as_fraction() == a * b
        if b:
            assert (ea / eb).as_fraction() == a / b
        assert (ea < eb) == (a < b)


def _rand_elem(field, rng, span=9):
    return field.element([Fraction(rng.randint(-span, span), rng.randint(1, 4))
                          for _ in range(field.degree)])


def test_field_axioms_random(F12):
    rng = random.Random(7)
    one, zero = F12.one(), F12.zero()
    for _ in range(60):
        a, b, c = (_rand_elem(F12, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a - a == zero
        if not a.is_zero():
            assert a * a.inverse() == one


def test_multiplication_against_sympy_polynomial_reduction(F12):
    y = sp.Symbol("y")
    cyc = sp.Poly(sp.cyclotomic_poly(12, y), y)
    rng = random.Random(13)
    for _ in range(25):
        a, b = _rand_elem(F12, rng, 5), _rand_elem(F12, rng, 5)
        pa = sp.Poly([sp.Rational(c) for c in reversed(a.coords)], y)
        pb = sp.Poly([sp.Rational(c) for c in reversed(b.coords)], y)
        prod = (pa * pb) % cyc
        got = (a * b).coords
        want = [sp.Rational(0)] * F12.degree
        for mono, coeff in zip(prod.monoms(), prod.coeffs()):
            want[mono[0]] = coeff
        assert [sp.Rational(c) for c in got] == want


def test_inverse_against_sympy():
    y = sp.Symbol("y")
    for order in (2, 4, 7, 12, 13, 16, 17):  # degrees 1, 2, 6, 4, 12, 8, 16
        F = make_field(order)
        cyc = sp.Poly(sp.cyclotomic_poly(order, y), y, domain="QQ")
        rng = random.Random(23 + order)
        fractional = negative = False
        for _ in range(8):
            a = _rand_elem(F, rng, 7)
            if a.is_zero():
                continue
            fractional |= a.den > 1
            negative |= min(a.num) < 0
            pa = sp.Poly([sp.Rational(c) for c in reversed(a.coords)], y, domain="QQ")
            got = sp.Poly([sp.Rational(c) for c in reversed(a.inverse().coords)], y,
                          domain="QQ")
            assert got == sp.invert(pa, cyc), (order, a)
        assert fractional and negative, order
        with pytest.raises(ZeroDivisionError):
            F.zero().inverse()


def test_total_order_is_consistent(F12):
    rng = random.Random(31)
    elems = [_rand_elem(F12, rng, 4) for _ in range(40)]
    s = sorted(elems)
    for u, v in zip(s, s[1:]):
        assert u < v or u == v
    for u in elems:
        assert not (u < u)
        for v in elems:
            assert (u < v) + (v < u) + (u == v) == 1
    # lexicographic by coordinates: real-rational part first
    a = F12.element([Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    b = F12.element([Fraction(1), Fraction(-1), Fraction(0), Fraction(0)])
    assert b < a


def test_encode_decode_round_trip(F12):
    rng = random.Random(43)
    for _ in range(30):
        a = _rand_elem(F12, rng)
        assert F12.element_from_encoding(a.encode()) == a
    assert F12.element_from_encoding(["1/2", "-3/1", "0/1", "7/5"]).encode() == \
        ["1/2", "-3/1", "0/1", "7/5"]
    for bad in (["1/0", "0/1", "0/1", "0/1"],
                ["1", "0/1", "0/1", "0/1"],
                ["1/-2", "0/1", "0/1", "0/1"],
                ["0/1"],
                ["a/b", "0/1", "0/1", "0/1"]):
        with pytest.raises(ValueError):
            F12.element_from_encoding(bad)


def test_field_mismatch_rejected(F4, F12):
    with pytest.raises(FieldMismatchError):
        F4.one() + F12.one()
    with pytest.raises(FieldMismatchError):
        F4.one() * F12.zeta(1)


def test_embedding_matches_mpmath(F12):
    rng = random.Random(53)
    with mp.workprec(120):
        zeta = mp.expjpi(mp.mpf(2) / 12)
        for _ in range(10):
            a = _rand_elem(F12, rng, 5)
            direct = mp.mpc(0)
            for k, c in enumerate(a.coords):
                direct += mp.mpf(c.numerator) / c.denominator * zeta ** k
            assert abs(a.embed(120) - direct) < mp.mpf(2) ** -90
        # the embedding is a ring homomorphism up to precision
        for _ in range(10):
            a = _rand_elem(F12, rng, 5)
            b = _rand_elem(F12, rng, 5)
            assert abs((a + b).embed(120) - (a.embed(120) + b.embed(120))) < mp.mpf(2) ** -80
            assert abs((a * b).embed(120) - a.embed(120) * b.embed(120)) < mp.mpf(2) ** -80


def test_sqrt_known_values(F4, F8, F12):
    # 2 is a square in Q(zeta_8) but not in Q(zeta_4)
    r = F8.from_rational(2).sqrt()
    assert r is not None and r * r == 2
    assert r == F8.zeta(1) - F8.zeta(3)
    assert F4.from_rational(2).sqrt() is None
    # -1 is a square in Q(zeta_4)
    i = F4.from_rational(-1).sqrt()
    assert i is not None and i * i == -1 and i in (F4.zeta(1), -F4.zeta(1))
    # 3 is a square in Q(zeta_12): (2*zeta - zeta^3)^2 = 3
    r3 = F12.from_rational(3).sqrt()
    assert r3 is not None and r3 * r3 == 3
    assert F12.zero().sqrt() == F12.zero()


def test_sqrt_random_squares(F12):
    rng = random.Random(61)
    for _ in range(15):
        a = _rand_elem(F12, rng, 3)
        sq = a * a
        got = sq.sqrt()
        assert got is not None and got * got == sq


def test_sqrt_random_rational_squares_exact(F4):
    rng = random.Random(71)
    for _ in range(25):
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        got = F4.from_rational(q * q).sqrt()
        assert got is not None and got.as_fraction() in (q, -q)


def test_hash_consistent_with_equality(F12):
    a = F12.from_rational(Fraction(3, 7))
    b = F12.from_rational(Fraction(6, 14))
    assert a == b and hash(a) == hash(b)
    assert a == Fraction(3, 7) and a != Fraction(2, 7)
    d = {a: "x"}
    assert d[b] == "x"


def test_rational_elements_hash_like_their_values(F1, F12):
    big = sys.hash_info.modulus
    values = [0, 1, -1, 2, -2, 7, big - 1, big, -big, 3 * big + 5, 10 ** 40,
              Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7), Fraction(-22, 9),
              Fraction(1, big), Fraction(-5, 2 * big), Fraction(10 ** 30, 3)]
    for F in (F1, F12):
        for q in values:
            e = F.from_rational(q)
            assert e == q and hash(e) == hash(q), (F, q)
            assert q in {e} and e in {q}
    assert 1 in {F12.one()} and F12.one() in {1}


def test_str_forms(F12):
    assert str(F12.zero()) == "0"
    assert str(F12.one()) == "1"
    z = F12.zeta(1)
    assert "z" in str(z + z * z)
