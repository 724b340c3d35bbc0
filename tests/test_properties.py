"""Property tests: field inverses, the affine invariance of the canonical
invariant, the successor classes found modulo a split prime against the
exact partition oracle, and the witness search against the successor
classes, over generated elements, sets and maps (Hypothesis,
derandomized)."""
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import successor_oracle
from polyred import (FiniteSubset, LinearMap, canonical_invariant, make_field, reduces,
                     successors)

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
