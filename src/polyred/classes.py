"""Finite subsets of a cyclotomic field and their class invariants.

Two sets of the same cardinality n are equivalent when some degree-1
polynomial maps one onto the other.  For n >= 3 the classification is carried
by the ratios lambda_j = (b_i1 - b_j)/(b_i1 - b_i2): the canonical invariant
is the lexicographically least sorted lambda-tuple over all n(n-1) ordered
anchor pairs.  Cardinalities 1 and 2 form a single class each and carry the
empty invariant.

The differences b_i - b_j are formed once per set, n(n-1)/2 subtractions and
their negations, and every lambda-tuple reads them from that table.
canonical_invariant screens the anchor pairs on the constant coordinate
before it builds any tuple.  The screen is exact: a sorted tuple starts
with its least lambda, so the winning tuple starts with the least lambda of
all, and the order compares coordinate 0 first, so that lambda has the least
constant coordinate of all; hence only anchor pairs whose least constant
coordinate ties the global least can win.

The maps themselves (linear_maps_between, equivalent, stabilizer, chi) are
the witness search at degree 1, in reduction.py.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations
from operator import mul

from .field import CyclotomicField, FieldElement, _coerce


class FiniteSubset:
    """Nonempty finite set of field elements, stored sorted ascending."""

    __slots__ = ("field", "elems", "_set")

    def __init__(self, field: CyclotomicField, elements):
        elems = sorted(_coerce(field, e) for e in elements)
        if not elems:
            raise ValueError("set must be nonempty")
        for prev, cur in zip(elems, elems[1:]):
            if prev == cur:
                raise ValueError(f"duplicate element {cur}")
        self.field = field
        self.elems = tuple(elems)
        self._set = frozenset(elems)

    @property
    def n(self) -> int:
        return len(self.elems)

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, i):
        return self.elems[i]

    def __contains__(self, x):
        return x in self._set

    def __eq__(self, other):
        return (isinstance(other, FiniteSubset)
                and self.field.order == other.field.order
                and self.elems == other.elems)

    def __hash__(self):
        return hash((self.field.order, self.elems))

    def map(self, f) -> "FiniteSubset":
        """Image under f; raises if f merges two elements (use it for bijections)."""
        return FiniteSubset(self.field, [f(b) for b in self.elems])

    def encode(self) -> list[list[str]]:
        return [b.encode() for b in self.elems]

    def __repr__(self):
        return "{" + ", ".join(str(b) for b in self.elems) + "}"


def roots_of_unity(field: CyclotomicField, d: int) -> FiniteSubset:
    """The d-th roots of unity; d must be an int dividing the cyclotomic order."""
    if type(d) is not int:
        raise TypeError(f"root-of-unity order must be an int, got {d!r}")
    if d < 1 or field.order % d != 0:
        raise ValueError(f"{d}-th roots of unity not contained in the working field")
    step = field.order // d
    return FiniteSubset(field, [field.zeta(step * k) for k in range(d)])


def lambda_tuple(B: FiniteSubset, i1: int, i2: int) -> tuple[FieldElement, ...]:
    """Sorted ratios (b_i1 - b_j)/(b_i1 - b_i2) over the n-2 remaining indices."""
    n = len(B)
    if n < 3:
        raise ValueError("lambda tuples need at least 3 elements")
    if type(i1) is not int or type(i2) is not int:
        raise TypeError(f"anchor indices must be ints, got {i1!r} and {i2!r}")
    if i1 == i2 or not (0 <= i1 < n) or not (0 <= i2 < n):
        raise ValueError("anchor indices must be distinct and in range")
    row = [B[i1] - b for b in B.elems]
    return _ratios(row, i1, i2, row[i2].inverse())


def _differences(B: FiniteSubset) -> list[list[FieldElement]]:
    """diff[i][j] = b_i - b_j: n(n-1)/2 subtractions and their negations."""
    n = len(B)
    diff = [[B.field.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = B[i] - B[j]
            diff[i][j], diff[j][i] = d, -d
    return diff


def _ratios(row, i1: int, i2: int, dinv: FieldElement) -> tuple[FieldElement, ...]:
    """lambda_tuple(B, i1, i2) from row[j] = b_i1 - b_j and dinv = 1/(b_i1 - b_i2)."""
    lams = [x * dinv for j, x in enumerate(row) if j != i1 and j != i2]
    lams.sort()
    return tuple(lams)


def _anchor_inverses(diff):
    """(i1, i2, 1/(b_i1 - b_i2)) over all n(n-1) ordered anchor pairs, one
    inverse per unordered pair: 1/(b_i2 - b_i1) is the negated 1/(b_i1 - b_i2)."""
    n = len(diff)
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            dinv = diff[i1][i2].inverse()
            yield i1, i2, dinv
            yield i2, i1, -dinv


@dataclass(frozen=True)
class ClassInvariant:
    """Complete invariant of a class: cardinality plus canonical lambda-tuple."""

    n: int
    lambdas: tuple[FieldElement, ...]

    def to_json_obj(self) -> dict:
        return {"n": self.n, "lambdas": [l.encode() for l in self.lambdas]}

    def key(self) -> str:
        """Byte-stable rendering for display and output order, not a class key."""
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def canonical_invariant(B: FiniteSubset) -> ClassInvariant:
    """Lexicographic minimum of lambda_tuple over all ordered anchor pairs.

    Only the anchors whose least constant coordinate ties the global least
    build their tuples (the screen in the module docstring).  For
    dinv = y/e, y an integer vector, the constant coordinate of
    lambda = (u/c) * dinv is (u . r)/(c e) with r = _constant_row(y), and
    r negates with dinv, so each lambda costs one dot product.
    """
    n = len(B)
    if n <= 2:
        return ClassInvariant(n, ())
    row_of = B.field._constant_row
    diff = _differences(B)
    best, tied = None, []
    for i1, i2, dinv in _anchor_inverses(diff):
        if i1 < i2:
            r = row_of(dinv.num)
        else:  # the pair (i2, i1) came just before, with -dinv
            r = [-c for c in r]
        e = dinv.den
        head = None
        for j, x in enumerate(diff[i1]):
            if j != i1 and j != i2:
                s, q = sum(map(mul, x.num, r)), x.den * e
                if head is None or s * head[1] < head[0] * q:
                    head = (s, q)
        if best is None or head[0] * best[1] < best[0] * head[1]:
            best, tied = head, []
        if head[0] * best[1] == best[0] * head[1]:
            tied.append((i1, i2, dinv))
    return ClassInvariant(n, min(_ratios(diff[i1], i1, i2, dinv) for i1, i2, dinv in tied))


def characteristic_lambda_points(B: FiniteSubset) -> set:
    """Lambda-points of the characteristic planes, one ordered tuple per plane.

    Planes correspond to enumerations of B up to stabilizer action, so each
    anchor pair contributes the (n-2)! orderings of its lambda values and the
    number of distinct points is n!/|G_B| = chi(B).
    """
    n = len(B)
    if n < 3:
        raise ValueError("needs at least 3 elements")
    diff = _differences(B)
    return {perm for i1, i2, dinv in _anchor_inverses(diff)
            for perm in permutations(_ratios(diff[i1], i1, i2, dinv))}


def sigma3_coordinate(B: FiniteSubset) -> tuple[FieldElement, FieldElement]:
    """Class coordinate of a 3-set: the pair (W2^3 : W3^2) from the centered
    power sums W_l = sum (b_j - mean)^l, normalized so the first nonzero
    entry is 1.  Projective form avoids dividing by zero at the class where
    W2 vanishes, which gets (0 : 1).  W2 and W3 never both vanish: the
    centered d_j sum to 0, so W2 = W3 = 0 would give e1 = e2 = e3 = 0 by
    Newton's identities, make every d_j a root of X^3, hence 0, and make the
    three elements coincide."""
    if len(B) != 3:
        raise ValueError("sigma3 coordinate is defined for 3-element sets")
    field = B.field
    mean = (B[0] + B[1] + B[2]) / 3
    d = [b - mean for b in B.elems]
    w2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    w3 = d[0] ** 3 + d[1] ** 3 + d[2] ** 3
    u = w2 ** 3
    v = w3 * w3
    if not u.is_zero():
        return (field.one(), v / u)
    return (field.zero(), field.one())
