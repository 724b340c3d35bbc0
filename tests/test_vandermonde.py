"""Enriched Vandermonde ranks: full rank below the column bound, exact kernels."""
import random
from fractions import Fraction

import pytest
import sympy as sp

from polyred import Poly, build_enriched, exact_rank, make_field, nullspace
from helpers import rand_element


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
