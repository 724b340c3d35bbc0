"""Enriched Vandermonde ranks: full rank below the column bound, exact kernels."""
import random
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

from polyred import (FieldMismatchError, Poly, build_enriched, exact_rank, make_field,
                     nullspace, vandermonde)
from helpers import rand_element, rand_enriched_shape


def _nodes(F, vals):
    return [F.from_rational(Fraction(v)) for v in vals]


def test_build_shapes(F12):
    V = build_enriched(6, (1, 1), _nodes(F12, [0, 1]))
    assert V.row_count == 4
    assert all(len(row) == 6 for row in V.rows)
    assert V.to_json_obj()["s_vec"] == [1, 1]
    # plain Vandermonde rows when s = 0
    V = build_enriched(3, (0, 0, 0), _nodes(F12, [2, 3, 5]))
    got = [[e.as_fraction() for e in row] for row in V.rows]
    assert got == [[1, 2, 4], [1, 3, 9], [1, 5, 25]]


def test_derivative_rows_follow_falling_factorials(F12):
    a = F12.from_rational(Fraction(3, 2))
    V = build_enriched(5, (2,), [a])
    q = Fraction(3, 2)
    assert [e.as_fraction() for e in V.rows[0]] == [1, q, q**2, q**3, q**4]
    assert [e.as_fraction() for e in V.rows[1]] == [0, 1, 2*q, 3*q**2, 4*q**3]
    assert [e.as_fraction() for e in V.rows[2]] == [0, 0, 2, 6*q, 12*q**2]


def test_frozen_rank_example(F12):
    V = build_enriched(6, (1, 1), _nodes(F12, [0, 1]))
    assert exact_rank(V.rows) == 4


def test_validations(F12):
    ns = _nodes(F12, [0, 1])
    with pytest.raises(ValueError):
        build_enriched(0, (0,), _nodes(F12, [1]))
    with pytest.raises(ValueError):
        build_enriched(4, (-1, 0), ns)
    with pytest.raises(ValueError):
        build_enriched(4, (0,), ns)
    with pytest.raises(ValueError):
        build_enriched(4, (0, 0), [])
    with pytest.raises(ValueError):
        build_enriched(4, (0, 0), [Fraction(1), Fraction(2)])
    with pytest.raises(ValueError):
        build_enriched(4, (0, 0), _nodes(F12, [1, 1]))
    with pytest.raises(ValueError):
        build_enriched(3, (1, 1), ns)  # R = 4 > 3 columns
    for svec in ((1.5, 0), (True, 0), ("1", 0)):
        with pytest.raises(ValueError):
            build_enriched(4, svec, ns)
    for cols in (True, 2.5, 4.0, "4"):
        with pytest.raises(ValueError):
            build_enriched(cols, (0,), _nodes(F12, [1]))


def test_rank_always_R_random(F12):
    rng = random.Random(140)
    for _ in range(60):
        k = rng.randint(1, 3)
        svec = [rng.randint(0, 2) for _ in range(k)]
        R = sum(svec) + k
        cols = R + rng.randint(0, 3)
        nodes = []
        while len(nodes) < k:
            a = rand_element(F12, rng, span=3)
            if a not in nodes:
                nodes.append(a)
        V = build_enriched(cols, svec, nodes)
        assert V.row_count == R
        assert exact_rank(V.rows) == R


def test_rank_against_sympy(F1):
    rng = random.Random(141)
    y = sp.Symbol("y")
    for _ in range(25):
        k = rng.randint(1, 3)
        svec = [rng.randint(0, 2) for _ in range(k)]
        cols = sum(svec) + k + rng.randint(0, 2)
        vals = rng.sample([Fraction(t, 2) for t in range(-6, 7)], k)
        V = build_enriched(cols, svec, _nodes(F1, vals))
        M = sp.Matrix([[sp.Rational(e.as_fraction()) for e in row]
                       for row in V.rows])
        assert exact_rank(V.rows) == M.rank()


def test_general_matrix_rank_against_sympy(F1):
    rng = random.Random(142)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[F1.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                 for _ in range(n)] for _ in range(m)]
        M = sp.Matrix([[sp.Rational(e.as_fraction()) for e in row] for row in rows])
        assert exact_rank(rows) == M.rank()


def test_nullspace_against_sympy_rank(F1):
    """The kernel has dimension n - rank, its vectors are independent
    solutions of the homogeneous system, and the basis is sympy's, vector
    for vector (the one read off the reduced row echelon form)."""
    rng = random.Random(17)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[F1.from_rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                 for _ in range(n)] for _ in range(m)]
        kernel = nullspace(rows)
        M = sp.Matrix([[sp.Rational(e.as_fraction()) for e in row] for row in rows])
        assert len(kernel) == n - M.rank()
        assert ([[sp.Rational(e.as_fraction()) for e in vec] for vec in kernel]
                == [list(v) for v in M.nullspace()])
        for vec in kernel:
            for row in rows:
                assert sum((c * x for c, x in zip(row, vec)), F1.zero()).is_zero()
        if kernel:
            K = sp.Matrix([[sp.Rational(e.as_fraction()) for e in vec] for vec in kernel])
            assert K.rank() == len(kernel)
    one = F1.one()
    for bad in ([], [[one, one], [one]], [[one], [one, one]]):
        with pytest.raises(ValueError):
            nullspace(bad)


def test_kernel_vectors_are_multiple_root_polynomials(F12):
    """At R = gamma+1 the square system is invertible, so the only polynomial
    of degree <= gamma with roots of multiplicity s_l+1 at the nodes is 0;
    widening by one column produces exactly the expected product kernel."""
    F = F12
    nodes = _nodes(F, [0, 1, -1])
    svec = (1, 0, 0)
    R = sum(svec) + len(svec)  # 4
    V = build_enriched(R, svec, nodes)
    assert exact_rank(V.rows) == R
    wide = build_enriched(R + 1, svec, nodes)
    assert exact_rank(wide.rows) == R
    kernel = nullspace(wide.rows)
    assert len(kernel) == 1
    ker = Poly(F, kernel[0])
    for a, s in zip(nodes, svec):
        assert all(ker.derivative(k)(a).is_zero() for k in range(s + 1))
    # X^2 (X-1)(X+1) up to scale
    want = Poly.from_roots(F, [(F.zero(), 2), (F.one(), 1), (-F.one(), 1)])
    lead = ker.leading.inverse()
    assert ker * lead == want


def test_kernel_basis_multiplicities_random(F12):
    """Every nullspace vector encodes a polynomial vanishing to order s_l+1
    at node a_l, and the kernel has dimension columns - R."""
    rng = random.Random(144)
    for _ in range(20):
        k = rng.randint(1, 3)
        svec = [rng.randint(0, 2) for _ in range(k)]
        R = sum(svec) + k
        cols = R + rng.randint(1, 2)
        nodes = []
        while len(nodes) < k:
            a = rand_element(F12, rng, span=3)
            if a not in nodes:
                nodes.append(a)
        V = build_enriched(cols, svec, nodes)
        kernel = nullspace(V.rows)
        assert len(kernel) == cols - R
        for vec in kernel:
            P = Poly(F12, vec)
            assert not P.is_zero()
            for a, s in zip(nodes, svec):
                assert all(P.derivative(k)(a).is_zero() for k in range(s + 1))


def _rank_over_q(rows):
    """Rank over Q(zeta_N) from sympy alone: each entry x becomes the
    phi(N) x phi(N) rational matrix of multiplication by x modulo the N-th
    cyclotomic polynomial, and the rank over Q of the block matrix is phi(N)
    times the rank over Q(zeta_N)."""
    z = sp.Symbol("z")
    mod = sp.Poly(sp.cyclotomic_poly(rows[0][0].field.order, z), z, domain=sp.QQ)
    d = mod.degree()

    def columns(x):
        px = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(x.coords)],
                     z, domain=sp.QQ)
        out = []
        for j in range(d):
            c = (px * sp.Poly(z**j, z, domain=sp.QQ)).rem(mod).all_coeffs()[::-1]
            out.append(c + [0] * (d - len(c)))
        return out

    big = []
    for row in rows:
        blocks = [columns(x) for x in row]
        big += [[col[i] for cols in blocks for col in cols] for i in range(d)]
    rank = DomainMatrix.from_Matrix(sp.Matrix(big)).to_field().rank()
    assert rank % d == 0
    return rank // d


@pytest.fixture
def nullspace_calls(monkeypatch):
    """Count the exact kernels exact_rank falls back to."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return nullspace(rows)

    monkeypatch.setattr(vandermonde, "nullspace", counted)
    return calls


@pytest.mark.parametrize("order", [12, 16])
def test_rank_mod_p_against_kernel_and_sympy(order, nullspace_calls):
    """exact_rank equals the kernel rank and sympy's rank on tall, wide,
    rank-deficient, zero-column and bad-prime matrices; it falls back to the
    exact kernel exactly when the rank is below min(rows, cols) or the split
    prime divides a denominator."""
    F = make_field(order)
    p = F.split_prime(0).p
    rng = random.Random(order)

    def entry():
        return rand_element(F, rng, span=3) / rng.randint(1, 4)

    for shape in ("tall", "wide", "deficient", "zero column", "bad prime") * 5:
        if shape == "tall":
            n = rng.randint(1, 3)
            m = n + rng.randint(1, 2)
        elif shape == "wide":
            m = rng.randint(1, 3)
            n = m + rng.randint(1, 2)
        elif shape == "deficient":
            m = rng.randint(2, 4)
            n = rng.randint(m, 5)
        else:
            m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        if shape == "deficient":  # the last row combines the others
            cs = [entry() for _ in range(m - 1)]
            rows[-1] = [sum((c * r[j] for c, r in zip(cs, rows)), F.zero())
                        for j in range(n)]
        elif shape == "zero column":
            j = rng.randrange(n)
            for r in rows:
                r[j] = F.zero()
        elif shape == "bad prime":
            m = n = min(m, n)
            rows = [r[:n] for r in rows[:m]]
            rows[rng.randrange(m)][rng.randrange(n)] = F.from_rational(Fraction(1, p))
        before = len(nullspace_calls)
        rank = exact_rank(rows)
        fell_back = len(nullspace_calls) - before
        assert rank == n - len(nullspace(rows)) == _rank_over_q(rows)
        assert fell_back == (rank < min(m, n) or shape == "bad prime")
        if shape in ("deficient", "bad prime"):
            assert fell_back == 1


def test_full_rank_instances_never_fall_back(F12, nullspace_calls):
    """The 200 enriched Vandermonde instances of acceptance criterion 9 all
    reach rank R modulo the first split prime."""
    rng = random.Random(9009)
    for _ in range(200):
        cols, svec, nodes = rand_enriched_shape(F12, rng)
        assert exact_rank(build_enriched(cols, svec, nodes).rows) == sum(svec) + len(svec)
    assert nullspace_calls == []


def test_matrix_input_errors(F12):
    """Empty, ragged and field-free matrices raise ValueError, mixed fields
    FieldMismatchError; rationals join the field of the first field element."""
    one = F12.one()
    for bad in ([], [[]], [[], []], [[one], [one, one]], [[1, 2], [3, 4]],
                [[Fraction(1, 2)]]):
        for fn in (exact_rank, nullspace):
            with pytest.raises(ValueError):
                fn(bad)
    for fn in (exact_rank, nullspace):
        with pytest.raises(FieldMismatchError):
            fn([[one, make_field(8).one()]])
        with pytest.raises(FieldMismatchError):
            fn([[2, one], [make_field(8).one(), 1]])
    assert exact_rank([[2, one], [4, 2 * one]]) == 1
    assert exact_rank([[Fraction(1, 2), 0], [0, one]]) == 2
    assert nullspace([[2, one]]) == ((F12.from_rational(Fraction(-1, 2)), one),)
