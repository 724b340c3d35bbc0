"""Property tests: field inverses and the affine invariance of the canonical
invariant, over generated elements, sets and maps (Hypothesis, derandomized)."""
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyred import FiniteSubset, LinearMap, canonical_invariant, make_field

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


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
