"""Property tests: field inverses, square roots and element contracts, the
affine invariance of the canonical invariant, the successor classes found
modulo a split prime against the exact partition oracle, the witness search
against the successor classes and against the Fraction oracle, the fiber
certificate against the derivative criterion, the multiplicities of every
witness modulo its good split prime, the composition of successor
witnesses, and successors against the candidate loop at every degree, over
generated elements, sets and maps (Hypothesis, derandomized)."""
import json
from fractions import Fraction
from itertools import count

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (fiber_certificate_oracle, inverse_oracle, reduction_oracle_q,
                     successor_oracle, successors_candidate_oracle)
from polyred import (FiniteSubset, LinearMap, Poly, canonical_invariant,
                     check_exact_preimage, find_reductions, make_field, reduces,
                     successors)
from polyred.reduction import _divide_out, _fiber_certificate, _split_residues

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
rationals_small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))


@st.composite
def elements(draw, field, coords=rationals):
    return field.element(draw(st.lists(coords, min_size=field.degree,
                                       max_size=field.degree)))


@st.composite
def nonzero_elements(draw, orders):
    x = draw(elements(make_field(draw(st.sampled_from(orders)))))
    assume(not x.is_zero())
    return x


@PROPERTY
@given(nonzero_elements((3, 4, 5, 8, 12, 15, 16, 21)))
def test_inverse_times_element_is_one(x):
    assert (x * x.inverse()).is_one()


@st.composite
def elements_and_rationals(draw):
    field = make_field(draw(st.sampled_from((1, 2, 3, 4, 8, 12, 13, 16))))
    x = draw(elements(field))
    assume(not x.is_zero())
    return x, draw(st.one_of(st.integers(-10 ** 20, 10 ** 20), rationals))


@PROPERTY
@given(elements_and_rationals())
def test_element_contracts(case):
    """== and hash agree across int, Fraction and the equal rational
    element; encode parses back; the inverse is exact and equals the
    one-by-one conjugate product."""
    x, q = case
    field = x.field
    r = field.element([q])
    values = [q, Fraction(q), field.from_rational(q)]
    if Fraction(q).denominator == 1:
        values.append(int(q))
    for value in values:
        assert r == value and value == r and hash(r) == hash(value)
    assert (x == q) == (x.is_rational() and x.as_fraction() == q)
    for y in (x, r):
        assert field.element_from_encoding(y.encode()) == y
    inverse = x.inverse()
    assert x * inverse == 1
    assert inverse == inverse_oracle(x)


@PROPERTY
@given(nonzero_elements((3, 4, 5, 8, 12, 16, 24)))
def test_sqrt_of_square_is_larger_root(x):
    """sqrt(x^2) is max(x, -x); for even N, zeta * x^2 is not a square (a
    root would make zeta a square, a primitive 2N-th root of unity)."""
    field = x.field
    assert (x * x).sqrt() == max(x, -x)
    if field.order % 2 == 0:
        assert (field.zeta() * x * x).sqrt() is None


@st.composite
def sets_and_maps(draw):
    field = make_field(draw(st.sampled_from((3, 4, 5, 8, 12))))
    small = elements(field, st.integers(-2, 2))
    A = draw(st.lists(small, min_size=3, max_size=6, unique=True))
    slope = draw(small)
    assume(not slope.is_zero())
    return FiniteSubset(field, A), LinearMap(slope, draw(small))


@settings(PROPERTY, max_examples=40)
@given(sets_and_maps())
def test_invariant_is_affine_invariant(case):
    A, f = case
    assert canonical_invariant(A.map(f)) == canonical_invariant(A)


@st.composite
def rational_sets_at_bad_primes(draw):
    """A random rational 4- or 5-set in Q(zeta_4), either free or symmetric
    about a centre c (so (X - c)^2 reduces it).  With a special value s (q0,
    the first split prime, or 1/q0) the set holds 0 and s, so q0 is bad for
    it and successors filters it at the next prime."""
    field = make_field(4)
    q0 = field.split_prime(0).p
    special = draw(st.sampled_from((None, q0, Fraction(1, q0))))
    size = draw(st.sampled_from((4, 5)))
    if draw(st.booleans()):
        c = Fraction(special) / 2 if special else draw(rationals_small)
        widths = [c] if special else []  # c -+ c are 0 and s
        widths += draw(st.lists(st.builds(Fraction, st.integers(1, 4), st.integers(1, 2)),
                                unique=True, min_size=size // 2 - len(widths),
                                max_size=size // 2 - len(widths)))
        vals = [c + sign * a for a in widths for sign in (1, -1)] + [c] * (size % 2)
    else:
        forced = [0, special] if special else []
        vals = forced + draw(st.lists(rationals_small.filter(lambda v: v not in forced),
                                      unique=True, min_size=size - len(forced),
                                      max_size=size - len(forced)))
    return FiniteSubset(field, vals)


@PROPERTY
@given(rational_sets_at_bad_primes())
def test_successors_mod_q_match_oracle(A):
    got = {sc.invariant.key() for sc in successors(A) if not sc.trivial}
    assert got == successor_oracle(A)


@PROPERTY
@given(rational_sets_at_bad_primes(), st.data())
def test_reduces_iff_class_among_successors(A, data):
    """Two routes, one relation: find_reductions walks target assignments,
    successors walks root data, and A <= B holds exactly when [B] is among
    the classes of successors(A).  B is a successor witness's target or a
    random rational 2- or 3-set."""
    found = successors(A)
    targets = [sc.witness.target for sc in found if not sc.trivial]
    if targets and data.draw(st.booleans()):
        B = data.draw(st.sampled_from(targets))
    else:
        B = FiniteSubset(A.field, data.draw(st.lists(rationals_small, unique=True,
                                                      min_size=2, max_size=3)))
    keys = {sc.invariant.key() for sc in found}
    assert reduces(A, B) == (canonical_invariant(B).key() in keys)


@st.composite
def planted_certificates(draw):
    """A planted witness P = b0 + c*prod(X - a)^e with the near misses the
    certificate must reject, as (P, A, B, passes) cases over Q(zeta_4) or
    Q(zeta_12).

    The root data is random, and so are the scale c and the shift b0.  A is
    either that root data's support plus random points, with B = P(A), or,
    for P = b0 + c*(X - s)^k with k | N, the full preimage {s} U (s + r*mu_k)
    of B = {b0} U {b0 + c*r^k} over random r, which the certificate accepts.
    From each, the near misses: a point of A dropped, a stray point added, a
    target of B removed, and one multiplicity one short."""
    N = draw(st.sampled_from((4, 12)))
    field = make_field(N)
    small = elements(field, st.integers(-2, 2))
    c = draw(small.filter(lambda x: not x.is_zero()))
    b0 = draw(small)
    if draw(st.booleans()):
        support = draw(st.lists(small, min_size=1, max_size=3, unique=True))
        roots = [(a, draw(st.integers(1, 3))) for a in support]
        extra = draw(st.lists(small, max_size=3, unique=True))
        A = FiniteSubset(field, set(support) | set(extra))
        P = Poly.from_roots(field, roots) * c + Poly(field, [b0])
        B = FiniteSubset(field, {P(a) for a in A})
        passes = None
    else:
        k = draw(st.sampled_from([d for d in (1, 2, 3, 4) if N % d == 0]))
        s = draw(small)
        radii = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
        roots = [(s, k)]
        zeta = field.zeta(N // k)
        A = FiniteSubset(field, [s] + [s + r * zeta ** j for r in radii for j in range(k)])
        B = FiniteSubset(field, [b0] + [b0 + c * r ** k for r in radii])
        P = Poly.from_roots(field, roots) * c + Poly(field, [b0])
        passes = True
    cases = [(P, A, B, passes)]
    if len(A) > 1:
        dropped = draw(st.sampled_from(A.elems))
        cases.append((P, FiniteSubset(field, [a for a in A if a != dropped]), B, False))
    stray = draw(small.filter(lambda x: x not in A))
    cases.append((P, FiniteSubset(field, [*A, stray]), B, passes and False))
    if len(B) > 1:
        removed = draw(st.sampled_from(B.elems))
        cases.append((P, A, FiniteSubset(field, [b for b in B if b != removed]), False))
    if P.degree > 1:
        i = draw(st.sampled_from(range(len(roots))))
        short = [(a, e - (j == i)) for j, (a, e) in enumerate(roots)]
        P_short = Poly.from_roots(field, short) * c + Poly(field, [b0])
        cases.append((P_short, A, B, None if passes is None else False))
    return cases


@PROPERTY
@given(planted_certificates())
def test_fiber_certificate_matches_derivative_oracle(cases):
    for P, A, B, passes in cases:
        got = _fiber_certificate(P, A, B)
        assert got == fiber_certificate_oracle(P, A, B)
        if passes is not None:
            assert (got is not None) == passes


@st.composite
def pairs_at_bad_primes(draw):
    """(A, B): A from rational_sets_at_bad_primes and B a target of one of
    its successor witnesses or a random rational 2- or 3-set, which may hold
    the special value q0 or 1/q0 of the first split prime q0 as well."""
    A = draw(rational_sets_at_bad_primes())
    targets = [sc.witness.target for sc in successors(A) if not sc.trivial]
    if targets and draw(st.booleans()):
        return A, draw(st.sampled_from(targets))
    q0 = A.field.split_prime(0).p
    special = draw(st.sampled_from(((), (q0,), (Fraction(1, q0),))))
    vals = draw(st.lists(rationals_small.filter(lambda v: v not in special), unique=True,
                         min_size=2 - len(special), max_size=3 - len(special)))
    return A, FiniteSubset(A.field, [*special, *vals])


@PROPERTY
@given(pairs_at_bad_primes())
def test_find_reductions_match_fraction_oracle(pair):
    """Modular search, exact certificate: find_reductions returns exactly the
    witnesses of the all-degree Fraction oracle, also at bad primes."""
    A, B = pair
    got = sorted(json.dumps(r.to_json_obj()["coeffs"]) for r in find_reductions(A, B))
    want = sorted(json.dumps(Poly(A.field, coeffs).encode()) for coeffs in
                  reduction_oracle_q([a.as_fraction() for a in A],
                                     [b.as_fraction() for b in B]))
    assert got == want


@PROPERTY
@given(pairs_at_bad_primes())
def test_witness_multiplicities_hold_mod_good_prime(pair):
    """The lemma behind building each witness from multiplicities counted mod
    p: every witness find_reductions and successors return, reduced at the
    good split prime of _split_residues(A, B), loses from each fiber's P - b,
    by _divide_out, exactly the certificate's multiplicities, down to a
    constant."""
    A, B = pair
    witnesses = [sc.witness for sc in successors(A) if not sc.trivial]
    witnesses += find_reductions(A, B)
    for r in witnesses:
        p = _split_residues(r.source, r.target)[0]
        sp = next(s for s in map(A.field.split_prime, count()) if s.p == p)
        poly = [sp.residue(c) for c in r.poly.coeffs]
        for b, pre in r.fibers:
            q = poly[:]
            q[0] = (q[0] - sp.residue(b)) % p
            for a, e in pre:
                size = len(q)
                q = _divide_out(q, sp.residue(a), p)
                assert size - len(q) == e
            assert len(q) == 1


@st.composite
def affine_maps(draw, field):
    small = elements(field, st.integers(-2, 2))
    slope = draw(small.filter(lambda x: not x.is_zero()))
    return LinearMap(slope, draw(small))


@st.composite
def sources(draw):
    """A set of 3 to 7 elements over Q(zeta_4) or Q(zeta_12) that often
    reaches small sets: (s + r1*mu_k) U (s + r2*mu_k), optionally with s, for
    k | N (so (X - s)^k sends it onto 2 or 3 values), a rational set
    symmetric about a centre c (so (X - c)^2 halves it), or a random
    rational set."""
    field = make_field(draw(st.sampled_from((4, 12))))
    kind = draw(st.sampled_from(("circles", "symmetric", "random")))
    if kind == "circles":
        k = draw(st.sampled_from([d for d in (2, 3, 4, 6) if field.order % d == 0]))
        s = draw(rationals_small)
        radii = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6 // k,
                              unique=True))
        zeta = field.zeta(field.order // k)
        vals = [s + r * zeta ** j for r in radii for j in range(k)]
        if len(radii) == 1 or draw(st.booleans()):
            vals.append(field.from_rational(s))
    elif kind == "symmetric":
        c = draw(rationals_small)
        widths = draw(st.lists(st.builds(Fraction, st.integers(1, 4), st.integers(1, 2)),
                               min_size=1, max_size=3, unique=True))
        vals = [c + sign * a for a in widths for sign in (1, -1)]
        if len(widths) == 1 or draw(st.booleans()):
            vals.append(c)
    else:
        vals = draw(st.lists(rationals_small, min_size=3, max_size=7, unique=True))
    return FiniteSubset(field, vals)


@PROPERTY
@given(sources())
def test_successors_match_candidate_oracle_on_sources(A):
    """successors gives the keys, trivial flags and witnesses of the
    candidate loop run at every degree, also on the irrational circle
    unions of Q(zeta_12)."""
    def dump(res):
        return json.dumps([(sc.invariant.key(), sc.trivial,
                            sc.witness and sc.witness.to_json_obj()) for sc in res])
    assert dump(successors(A)) == dump(successors_candidate_oracle(A))


@st.composite
def pairs_onto_2_sets(draw):
    """(A, B) with |B| = 2: B planted as the image of A under a successor
    witness onto two values, mapped by a random affine map, or a random
    rational 2-set, onto which A reduces only by chance."""
    A = draw(sources())
    targets = [sc.witness.target for sc in successors(A)
               if not sc.trivial and sc.invariant.n == 2]
    if targets and draw(st.booleans()):
        return A, targets[0].map(draw(affine_maps(A.field)))
    return A, FiniteSubset(A.field, draw(st.lists(rationals_small, min_size=2, max_size=2,
                                                  unique=True)))


@PROPERTY
@given(pairs_onto_2_sets())
def test_witnesses_onto_2_sets_are_mirror_closed(pair):
    """The mirror X -> b0 + b1 - X fixes B = {b0, b1} and swaps its points, so
    the witnesses onto B are closed under P -> b0 + b1 - P with the two
    fibers swapped; each is certified by the derivative criterion, and
    first_only returns one of them, alone, exactly when there is one."""
    A, B = pair
    b0, b1 = B.elems
    full = find_reductions(A, B)
    for r in full:
        assert r.fibers == fiber_certificate_oracle(r.poly, A, B)
        (_, pre0), (_, pre1) = r.fibers
        mirror = (Poly(A.field, [b0 + b1]) - r.poly, ((b0, pre1), (b1, pre0)))
        assert mirror in [(s.poly, s.fibers) for s in full]
    first = find_reductions(A, B, first_only=True)
    assert len(first) == (1 if full else 0)
    assert all(r in full for r in first)


@st.composite
def pairs_up_to_4(draw):
    """(A, B) with 2 <= |B| <= min(4, |A|): the target of a successor witness
    of A or a random rational set."""
    A = draw(sources())
    targets = [sc.witness.target for sc in successors(A)
               if not sc.trivial and 2 <= sc.invariant.n <= 4]
    if targets and draw(st.booleans()):
        return A, draw(st.sampled_from(targets))
    return A, FiniteSubset(A.field, draw(st.lists(
        rationals_small, min_size=2, max_size=min(4, len(A)), unique=True)))


@PROPERTY
@given(pairs_up_to_4(), st.data())
def test_preorder_is_affine_invariant(pair, data):
    """A <= B exactly when f(A) <= g(B), for affine bijections f and g: if P
    witnesses A <= B, then g o P o f^-1 witnesses f(A) <= g(B)."""
    A, B = pair
    f = data.draw(affine_maps(A.field))
    g = data.draw(affine_maps(A.field))
    assert reduces(A, B) == reduces(A.map(f), B.map(g))


@st.composite
def witness_chains(draw):
    """Nontrivial successor witnesses P: A -> B and Q: B -> C, with A from
    sources(), or None when A has none (|B| >= 3, so B has successors)."""
    A = draw(sources())
    firsts = [sc.witness for sc in successors(A)
              if not sc.trivial and sc.invariant.n >= 3]
    if not firsts:
        return None
    P = draw(st.sampled_from(firsts))
    seconds = [sc.witness for sc in successors(P.target) if not sc.trivial]
    return (P, draw(st.sampled_from(seconds))) if seconds else None


@settings(PROPERTY, max_examples=200)
@given(witness_chains())
def test_successor_witnesses_compose(chain):
    """If P witnesses A <= B and Q witnesses B <= C, then Q o P witnesses
    A <= C: (Q o P)^{-1}(C) = P^{-1}(Q^{-1}(C)) = P^{-1}(B) = A, and its
    degree is gamma_P * gamma_Q."""
    if chain is None:
        return
    P, Q = chain
    A, C = P.source, Q.target
    R = Q.poly.compose(P.poly)
    assert check_exact_preimage(R, A, C)
    assert _fiber_certificate(R, A, C) == fiber_certificate_oracle(R, A, C)
    assert R.degree == P.gamma * Q.gamma
    assert reduces(A, C)
