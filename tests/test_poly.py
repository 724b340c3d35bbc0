"""Polynomials and linear maps."""
import random
from fractions import Fraction

import pytest
import sympy as sp

from polyred import NEG_INF, FieldMismatchError, LinearMap, Poly, make_field


def test_degree_and_normalization(F12):
    assert Poly(F12, []).degree == NEG_INF
    assert Poly(F12, [0, 0]).degree == NEG_INF
    assert Poly(F12, [5]).degree == 0
    assert Poly(F12, [1, 2, 0]).degree == 1
    assert Poly(F12, [0, 0, 3]).leading == 3
    with pytest.raises(ValueError):
        Poly(F12, []).leading
    assert repr(Poly(F12, [0, 0])) == "Poly(0)"
    assert repr(Poly(F12, [1, 0, Fraction(-2, 3)])) == "Poly((1) + (-2/3)*X^2)"


def test_evaluation_horner(F12):
    P = Poly(F12, [1, -2, 3])  # 3x^2 - 2x + 1
    for q in (Fraction(0), Fraction(2), Fraction(-5, 3)):
        assert P(F12.from_rational(q)).as_fraction() == 3 * q * q - 2 * q + 1
    z = F12.zeta(1)
    assert P(z) == 3 * z * z - 2 * z + 1


def test_arithmetic_against_sympy(F12):
    rng = random.Random(3)
    x = sp.Symbol("x")
    for _ in range(20):
        ca = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]
        cb = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]
        A, B = Poly(F12, ca), Poly(F12, cb)
        sa = sum(sp.Rational(c) * x ** i for i, c in enumerate(ca))
        sb = sum(sp.Rational(c) * x ** i for i, c in enumerate(cb))
        for got, want in [(A + B, sa + sb), (A - B, sa - sb), (A * B, sa * sb)]:
            wp = sp.Poly(want, x) if want != 0 else None
            coeffs = [] if wp is None else [Fraction(str(c))
                                            for c in reversed(wp.all_coeffs())]
            assert [c.as_fraction() for c in got.coeffs] == coeffs


def test_derivative_and_multiplicity(F12):
    # (x-2)^3 * (x+1)
    P = Poly.from_roots(F12, [(F12.from_rational(2), 3), (F12.from_rational(-1), 1)])
    two = F12.from_rational(2)
    assert [P.derivative(k)(two).is_zero() for k in range(5)] == \
        [True, True, True, False, False]
    minus_one = F12.from_rational(-1)
    assert P(minus_one).is_zero() and not P.derivative()(minus_one).is_zero()
    assert P.derivative(3).degree == 1
    assert P.derivative(4) == Poly(F12, [24])
    assert P.derivative(5).is_zero()


def test_derivative_order_validated(F12):
    P = Poly(F12, [1, 2, 3])
    assert P.derivative(0) == P
    for order in (-1, True, False, 1.0, "1"):
        with pytest.raises(ValueError, match="derivative order"):
            P.derivative(order)


def test_from_roots_matches_product_of_linear_factors(F12):
    rng = random.Random(16)
    for _ in range(10):
        roots = [(F12.element([Fraction(rng.randint(-3, 3)) for _ in range(F12.degree)]),
                  rng.randint(0, 3)) for _ in range(rng.randint(0, 4))]
        want = Poly(F12, [1])
        for a, e in roots:
            for _ in range(e):
                want = want * Poly(F12, [-a, 1])
        assert Poly.from_roots(F12, roots) == want


def test_from_roots_multiplicities_validated(F12):
    two = F12.from_rational(2)
    assert Poly.from_roots(F12, []) == Poly.from_roots(F12, [(two, 0)]) == Poly(F12, [1])
    assert Poly.from_roots(F12, [(two, 2), (0, 1)]) == Poly(F12, [0, 4, -4, 1])
    for e in (-1, True, False, 1.0, Fraction(1), "1", None):
        with pytest.raises(ValueError, match="root multiplicity"):
            Poly.from_roots(F12, [(two, e)])


def test_compose(F12):
    P = Poly(F12, [0, -1, 1])
    Q = Poly(F12, [1, 1])
    assert P.compose(Q) == Poly(F12, [0, 1, 1])
    assert Q.compose(P) == Poly(F12, [1, -1, 1])
    assert Poly(F12, []).compose(Q).is_zero()


def test_linear_map_algebra(F12):
    f = LinearMap(F12.from_rational(3), F12.from_rational(-2))
    g = LinearMap(F12.from_rational(Fraction(1, 2)), F12.one())
    x = F12.from_rational(Fraction(7, 5))
    assert f.compose(g)(x) == f(g(x))
    assert f.inverse()(f(x)) == x
    assert f.to_poly()(x) == f(x)
    assert LinearMap.identity(F12)(x) == x
    with pytest.raises(ValueError):
        LinearMap(F12.zero(), F12.one())
    assert repr(f) == "LinearMap((3)*X + (-2))"
    assert f.compose(LinearMap.identity(F12)) in {f} and hash(f.inverse().inverse()) == hash(f)
    assert f.encode() == {"c": ["3/1", "0/1", "0/1", "0/1"],
                          "c_prime": ["-2/1", "0/1", "0/1", "0/1"]}
    # the intercept takes the one coercion route of Poly and FiniteSubset
    assert LinearMap(F12.from_rational(Fraction(1, 2)), 1) == g
    with pytest.raises(TypeError):
        LinearMap(F12.one(), 1.5)
    with pytest.raises(TypeError):
        LinearMap(3, F12.one())
    with pytest.raises(FieldMismatchError,
                       match=r"^mixed fields Q\(zeta_12\) and Q\(zeta_4\)$"):
        LinearMap(F12.one(), make_field(4).one())
