"""Field layer: modulus construction, arithmetic, ordering, embeddings, sqrt."""
import cmath
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
import sympy as sp

import polyred
from polyred import FieldMismatchError, make_field
from polyred.field import (CyclotomicField, FieldElement, _multiplicative_order, _power,
                           _sqrt_prime, _unit_chain)
from helpers import inverse_oracle, sqrt_oracle


def test_cyclotomic_modulus_against_sympy():
    x = sp.Symbol("x")
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 20, 24, 30):
        F = make_field(n)
        want = [int(c) for c in reversed(sp.Poly(sp.cyclotomic_poly(n, x), x).all_coeffs())]
        assert list(F.modulus) == want, n
        assert F.degree == sp.totient(n)


def test_make_field_is_cached_and_validated():
    assert make_field(12) is make_field(12)
    # fields are values: equal, and hashed alike, exactly when their orders are
    assert CyclotomicField(12) == make_field(12) and hash(CyclotomicField(12)) == hash(
        make_field(12)) == hash(12)
    assert CyclotomicField(12) != make_field(4) and make_field(12) != 12
    with pytest.raises(ValueError):
        make_field(0)
    with pytest.raises(ValueError):
        make_field(-3)
    for bad in (True, False, 12.0, "12"):
        with pytest.raises(TypeError):
            make_field(bad)


def test_zeta_powers_and_orders(F12, monkeypatch):
    z = F12.zeta(1)
    assert (z ** 12).is_one()
    for k in range(1, 12):
        assert not (z ** k).is_one()
    assert (z ** 0).is_one()
    assert z ** -1 == F12.zeta(11) and z ** -5 == F12.zeta(7)
    x = z + 2
    assert x ** -3 == (x * x * x).inverse()
    assert z.multiplicative_order() == 12
    assert F12.zeta(3).multiplicative_order() == 4
    assert F12.zeta(14) == F12.zeta(2)
    for n in (1, 2, 3, 5, 12, 16):
        F = make_field(n)
        for k in range(-2 * n, 2 * n):
            assert F.zeta(k) == F.zeta(1) ** (k % n), (n, k)
    for bad in (True, False, 2.0):
        with pytest.raises(TypeError):
            z ** bad
    for bad in (True, False, 1.5, 2.0, "1"):
        with pytest.raises(TypeError):
            F12.zeta(bad)
        with pytest.raises(TypeError):
            z.multiplicative_order(bad)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            z.multiplicative_order(bad)
    assert z.multiplicative_order(1) is None and F12.one().multiplicative_order(1) == 1
    # zeta is a root of the modulus
    acc = F12.zero()
    for c in reversed(F12.modulus):
        acc = acc * z + F12.from_rational(c)
    assert acc.is_zero()
    # x ** e makes bit_length(e) + popcount(e) - 2 products
    powers = {1: x}
    for e in range(2, 9):
        powers[e] = powers[e - 1] * x
    calls = [0]
    mul = FieldElement.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counting)
    for e, products in [(1, 0), (2, 1), (3, 2), (8, 3)]:
        calls[0] = 0
        assert x ** e == powers[e] and calls[0] == products, e


def test_prime_choices_pinned():
    """The split and sqrt primes are cached per field value, and each index
    keeps the prime it has always had."""
    assert CyclotomicField(12).split_prime(1) is make_field(12).split_prime(1)
    for bad, error in ((True, TypeError), (1.0, TypeError), (1.5, TypeError),
                       ("1", TypeError), (-1, ValueError)):
        with pytest.raises(error):
            make_field(12).split_prime(bad)
    for n, ps in ((4, (3, 7)), (12, (5, 7)), (13, (7, 11)), (105, (17, 23)),
                  (128, (3, 5))):
        assert tuple(_sqrt_prime(make_field(n), i).p for i in (0, 1)) == ps, n
    for n, ps in ((4, (1073741789, 1073741741)), (105, (1073740501, 1073739451))):
        assert tuple(make_field(n).split_prime(i).p for i in (0, 1)) == ps, n
    # the root w = g^((p-1)/N) of split_prime(0), g the least base that makes it primitive
    for n, w in ((4, 933053945), (12, 414888689), (16, 114739670), (105, 699551916)):
        assert make_field(n).split_prime(0).powers[1] == w, n
    # a high index on a cold cache walks its progression without recursion
    assert CyclotomicField(8).split_prime(700).p == 1073684761
    assert _sqrt_prime(CyclotomicField(4), 700).p == 11467  # the 701st prime 3 mod 4
    assert _sqrt_prime(CyclotomicField(12), 700).p == 7211  # the 701st prime > 3, not 1 mod 12

    class HugeOrder:  # Q(zeta_(2^29)): 2^29 + 1 is divisible by 3, and 1 is no prime
        order = 2 ** 29

    with pytest.raises(ArithmeticError):
        CyclotomicField.split_prime(HugeOrder(), 0)


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
            assert (2 / eb).as_fraction() == 2 / b
        assert (1 - ea).as_fraction() == 1 - a
        assert (ea < eb) == (a < b)
        assert bool(ea) == bool(a)
    # a float, a str or a bool is not a rational scalar: rejected with
    # TypeError at every entry point, never silently converted
    x = F12.zeta(1)
    for bad in (0.1, 0.5, "1/3", True, False):
        with pytest.raises(TypeError):
            F12.from_rational(bad)
        with pytest.raises(TypeError):
            F12.element([1, bad])
        with pytest.raises(TypeError):
            polyred.Poly(F12, [1, bad])
        with pytest.raises(TypeError):
            x + bad
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            x - bad
        with pytest.raises(TypeError):
            bad - x
        with pytest.raises(TypeError):
            x / bad
        with pytest.raises(TypeError):
            bad / x
        with pytest.raises(TypeError):
            x < bad
        with pytest.raises(TypeError):
            polyred.Poly(F12, [1, 1]) * bad
        with pytest.raises(TypeError):
            polyred.Poly(F12, [1, 1]) + bad
        with pytest.raises(TypeError):
            polyred.Poly(F12, [1, 1]) - bad
        assert x != bad


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


def _sympy_poly(coords, y):
    return sp.Poly([sp.Rational(c) for c in reversed(coords)], y, domain="QQ")


def _sympy_coords(p, degree):
    want = [sp.Rational(0)] * degree
    for mono, coeff in zip(p.monoms(), p.coeffs()):
        want[mono[0]] = coeff
    return want


def test_multiplication_against_sympy_polynomial_reduction():
    """Products, and the conjugations sigma_k on integer vectors, against
    sympy's reduction modulo Phi_N, on sparse and dense inputs: both fold
    through the sparse reduction rows."""
    y = sp.Symbol("y")
    rng = random.Random(13)
    for order in (1, 2, 3, 4, 5, 8, 9, 12, 13, 15, 16, 21, 24, 32, 60):
        F = make_field(order)
        cyc = sp.Poly(sp.cyclotomic_poly(order, y), y, domain="QQ")
        units = [k for k in range(order) if math.gcd(k, order) == 1]
        for sparse in (True, False, True, False):
            if sparse:
                a, b = (F.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                   if rng.random() < 2 / F.degree else 0
                                   for _ in range(F.degree)]) for _ in range(2))
            else:
                a, b = _rand_elem(F, rng, 5), _rand_elem(F, rng, 5)
            prod = (_sympy_poly(a.coords, y) * _sympy_poly(b.coords, y)).rem(cyc)
            assert [sp.Rational(c) for c in (a * b).coords] == _sympy_coords(
                prod, F.degree), (order, a, b)
            for k in rng.sample(units, min(3, len(units))):
                sub = sp.Poly(sum(c * y ** (j * k) for j, c in enumerate(a.num)), y,
                              domain="QQ").rem(cyc)
                assert F._conjugate(a.num, k) == _sympy_coords(sub, F.degree), (order, k, a)


def test_inverse_against_sympy(monkeypatch):
    """Against sympy and, up to degree 24, the one-by-one conjugate product.
    For 4 | N the tower step halves N until 4 does not divide it: 2-power
    orders reach Q, 12, 24 and 48 reach 6 (a cyclic chain), 20 reaches 10
    (cyclic) and 60 reaches 30 (C4 x C2).  For 4 not dividing N the
    Itoh-Tsujii chain meets the cyclic groups of 2, 7, 13 and 17, and the
    splittings C4 x C2 (15), C6 x C2 (21), C12 x C2 (35) and C12 x C2 x C2
    (105): factor orders 2 to 16 and up to three factors."""
    y = sp.Symbol("y")
    for order in (2, 4, 7, 8, 12, 13, 15, 16, 17, 20, 21, 24, 32, 35, 48, 60, 64, 105):
        F = make_field(order)
        cyc = sp.Poly(sp.cyclotomic_poly(order, y), y, domain="QQ")
        rng = random.Random(23 + order)
        fractional = negative = False
        for _ in range(8 if F.degree <= 24 else 1):
            a = _rand_elem(F, rng, 7)
            if a.is_zero():
                continue
            fractional |= a.den > 1
            negative |= min(a.num) < 0
            got = _sympy_poly(a.inverse().coords, y)
            assert got == sp.invert(_sympy_poly(a.coords, y), cyc), (order, a)
            if F.degree <= 24:
                assert a.inverse() == inverse_oracle(a), (order, a)
        assert fractional and negative, order
        with pytest.raises(ZeroDivisionError):
            F.zero().inverse()

    calls = {"_conjugate": 0, "_product": 0}
    for name in calls:
        def counting(self, *args, _name=name, _kernel=getattr(CyclotomicField, name)):
            calls[_name] += 1
            return _kernel(self, *args)
        monkeypatch.setattr(CyclotomicField, name, counting)
    rng = random.Random(29)
    for order in (2, 4, 8, 16, 32, 64):  # the tower alone, down to Q
        a = _rand_elem(make_field(order), rng, 7)
        assert (a * a.inverse()).is_one()
    assert calls["_conjugate"] == 0
    calls["_product"] = 0
    assert make_field(16).from_rational(Fraction(-3, 7)).inverse() == Fraction(-7, 3)
    assert calls["_product"] == 0


def test_unit_chain_covers_each_unit_once():
    for order in (3, 12, 15, 16, 21, 24, 60, 63, 105):
        chain = _unit_chain(order)
        units = {1}
        for g, m in chain:
            units = {u * pow(g, a, order) % order for u in units for a in range(m)}
        assert math.prod(m for _, m in chain) == len(units) == make_field(order).degree
    assert _unit_chain(60) == ((7, 4), (11, 2), (13, 2))


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
                ["a/b", "0/1", "0/1", "0/1"],
                ["1/2\n", "0/1", "0/1", "0/1"]):
        with pytest.raises(ValueError):
            F12.element_from_encoding(bad)
    with pytest.raises(ValueError):
        F12.element([1, 2, 3, 4, 5])  # more than phi(12) = 4 coordinates
    with pytest.raises(ValueError):
        F12.zeta(1).as_fraction()


def test_field_mismatch_rejected(F4, F12):
    with pytest.raises(FieldMismatchError):
        F4.one() + F12.one()
    with pytest.raises(FieldMismatchError):
        F4.one() * F12.zeta(1)


def _l1(a):
    return sum(abs(c) for c in a.coords)


def test_embedding_matches_direct_sum(F12):
    """+ and * agree with complex arithmetic at the principal embedding
    zeta -> e^(2 pi i / 12), computed here from the coordinates."""
    rng = random.Random(53)
    zeta = cmath.exp(2j * cmath.pi / 12)

    def embed(a):
        return sum(float(c) * zeta ** k for k, c in enumerate(a.coords))

    for _ in range(10):
        a = _rand_elem(F12, rng, 5)
        b = _rand_elem(F12, rng, 5)
        assert abs(embed(a + b) - (embed(a) + embed(b))) <= 1e-12 * (_l1(a) + _l1(b))
        assert abs(embed(a * b) - embed(a) * embed(b)) <= 1e-12 * _l1(a) * _l1(b)


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


SQUAREFREE = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11, 13, -13)


def test_sqrt_decides_rational_squares_by_conductor():
    # sqrt(m) lies in Q(zeta_N) iff |disc Q(sqrt m)| divides N, where the
    # discriminant is m for m = 1 (mod 4) and 4m otherwise.
    for n in (1, 2, 3, 4, 5, 7, 8, 12, 13, 15, 16, 20, 24):
        F = make_field(n)
        for m in SQUAREFREE:
            disc = m if m % 4 == 1 else 4 * m
            r = F.from_rational(m).sqrt()
            assert (r is not None) == (n % abs(disc) == 0), (n, m)
            if r is not None:
                assert r * r == m


def test_sqrt_of_zeta_times_square_is_none():
    # zeta_N is not a square in Q(zeta_N) for even N (a root would be a
    # primitive 2N-th root of unity), so neither is zeta_N * y^2.
    rng = random.Random(83)
    for n in (2, 4, 8, 12, 16, 20, 24):
        F = make_field(n)
        for _ in range(4):
            y = _rand_elem(F, rng, 4)
            if not y.is_zero():
                assert (F.zeta() * y * y).sqrt() is None, (n, y)


def test_sqrt_of_square_is_the_larger_root():
    rng = random.Random(89)
    for n in (4, 8, 12, 13, 16, 20, 24, 32):
        F = make_field(n)
        fractional = 0
        for _ in range(5):
            y = _rand_elem(F, rng, 6)
            if y.is_zero():
                continue
            fractional += y.den > 1
            r = (y * y).sqrt()
            assert r in (y, -y) and r == max(y, -y), (n, y)
        assert fractional


def test_sqrt_matches_per_pattern_lift_oracle():
    """sqrt lifts one root and reads every sign pattern off lifted
    idempotents; sqrt_oracle lifts each pattern alone.  Both give None or
    the same larger root on y^2, zeta*y^2 and y^2 + 1 (g <= 8)."""
    rng = random.Random(101)
    cases = []
    for n in (1, 3, 4, 8, 12, 15, 16, 20, 21, 24, 40, 60):
        F = make_field(n)
        y = _rand_elem(F, rng, 5)
        cases += [y * y, F.zeta() * y * y, y * y + 1]
    y = _rand_elem(make_field(120), rng, 5)
    cases += [y * y, y * y + 1]
    for x in cases:
        assert x.sqrt() == sqrt_oracle(x), x.field


def test_sqrt_decides_in_large_fields_within_budget():
    # Sign search over the conjugate embeddings took 54 s for a non-square at
    # d = 12 and more than 300 s at d = 16.  At N = 240 (g = 16) a Hensel
    # lift per sign pattern took over 2 minutes for zeta*y^2, which passes
    # Euler's test and leaves all 2^15 patterns to reject.
    rng = random.Random(97)
    start = time.perf_counter()
    # Each c is a non-square by conductor (8 does not divide 13, 28 not 32
    # nor 60, 8 not 105, 12 not 128); g = 4 at 60 and 105, g = 2 at 128.
    # zeta is a non-square for even N.
    for n, c in ((13, 2), (32, 7), (60, 7), (105, 2), (128, 3)):
        F = make_field(n)
        y = _rand_elem(F, rng, 5)
        assert (c * y * y).sqrt() is None
        assert (y * y).sqrt() in (y, -y)
    F = make_field(240)
    y = _rand_elem(F, rng, 5)
    assert (y * y).sqrt() in (y, -y)
    assert (F.zeta() * y * y).sqrt() is None
    assert time.perf_counter() - start < 5.0


def test_sqrt_prime_ring_data():
    """F_p[zeta] at the first sqrt prime is g = phi(N)/f copies of F_q: there
    are g idempotents, each nonzero and its own square, pairwise orthogonal
    and summing to 1, and sylow^(2^(s-1)) = -1 in every copy."""
    for n in (1, 3, 4, 8, 12, 13, 15, 16, 24, 60, 105, 120):
        F = make_field(n)
        units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        exponent = math.lcm(*(_multiplicative_order(k, n) for k in units))
        ring = _sqrt_prime(F, 0)
        p, mul, es = ring.p, ring.mul, ring.idempotents
        assert _multiplicative_order(p, n) == exponent, n
        one = [1] + [0] * (F.degree - 1)
        assert ring.q == p ** exponent == 2 ** ring.two_adic * ring.odd_part + 1
        assert len(es) == F.degree // exponent, n
        for i, e in enumerate(es):
            assert any(e) and mul(e, e) == e, (n, i)
            assert all(not any(mul(e, other)) for other in es[i + 1:]), (n, i)
        assert [sum(c) % p for c in zip(*es)] == one, n
        minus_one = [p - 1] + one[1:]
        assert _power(ring.sylow, 1 << (ring.two_adic - 1), mul) == minus_one, n


def test_import_loads_no_third_party_module():
    src = os.path.dirname(os.path.dirname(polyred.__file__))
    code = ("import sys; before = set(sys.modules); import polyred, polyred.cli; "
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names) - {'polyred'})); "
            "print('mpmath' in sys.modules, 'cmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout.split("\n")
    assert out[:2] == ["[]", "False False"]


def test_hash_consistent_with_equality(F12):
    # an element is its field, numerators and denominator; no hash is cached
    assert FieldElement.__slots__ == ("field", "num", "den")
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


def test_rational_hash_follows_the_numeric_rule(F1, F12):
    """The hash of p/q is computed from the coprime pair, not a Fraction, so
    pin it to hash(Fraction(p, q)) over seeded pairs, negative numerators,
    denominators divisible by the hash modulus and a hash of -1 (-> -2)."""
    big = sys.hash_info.modulus
    rng = random.Random(20261022)
    dens = (lambda: rng.randint(2, 10 ** 6), lambda: rng.randint(2, 10 ** 30),
            lambda: big, lambda: 3 * big)
    pairs = [(rng.randint(-10 ** 25, 10 ** 25), rng.choice(dens)()) for _ in range(2000)]
    pairs += [(1, big), (-1, big), (-7, 2 * big), (1, big * big), (-(big + 2), 2)]
    for F in (F1, F12):
        for p, q in pairs:
            if Fraction(p, q).denominator == 1:
                continue
            el = F.from_rational(Fraction(p, q))
            assert hash(el) == hash(Fraction(p, q)), (p, q)
    assert hash(F12.from_rational(Fraction(-(big + 2), 2))) == -2


def test_str_forms(F12):
    assert str(F12.zero()) == "0"
    assert str(F12.one()) == "1"
    assert repr(F12.from_rational(Fraction(-1, 2))) == "<-1/2 in Q(zeta12)>"
    assert repr(F12) == "CyclotomicField(12)"
    z = F12.zeta(1)
    assert "z" in str(z + z * z)
