"""Finite subsets of a cyclotomic field and equal-cardinality classification.

Two sets of the same cardinality n are equivalent when some degree-1
polynomial maps one onto the other.  For n >= 3 the classification is carried
by the ratios lambda_j = (b_i1 - b_j)/(b_i1 - b_i2): the canonical invariant
is the lexicographically least sorted lambda-tuple over all n(n-1) ordered
anchor pairs.  Cardinalities 1 and 2 form a single class each and carry the
empty invariant.

A linear map is determined by its values at two points, so every search here
anchors on the two least elements of the source set; the n(n-1) candidate
maps are then exhaustive and each is verified by exact image comparison.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import permutations

from .field import CyclotomicField, FieldElement, _check_same_field
from .poly import LinearMap, _coerce


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
    """The d-th roots of unity; requires d to divide the cyclotomic order."""
    if d < 1 or field.order % d != 0:
        raise ValueError(f"{d}-th roots of unity not contained in the working field")
    step = field.order // d
    return FiniteSubset(field, [field.zeta(step * k) for k in range(d)])


def linear_maps_between(A: FiniteSubset, B: FiniteSubset) -> list[LinearMap]:
    """All degree-1 maps with P(A) = B, sorted by (slope, intercept).

    For n = 1 the family is a one-parameter one; the single translation
    X + (b - a) is returned as its representative.
    """
    _check_same_field(A.elems[0], B.elems[0])
    n = len(A)
    if len(B) != n:
        raise ValueError("cardinality mismatch")
    if n == 1:
        one = A.field.one()
        return [LinearMap(one, B[0] - A[0])]
    a1, a2 = A.elems[0], A.elems[1]
    dinv = (a2 - a1).inverse()
    out = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            slope = (B[j] - B[i]) * dinv
            f = LinearMap(slope, B[i] - slope * a1)
            if all(f(a) in B for a in A.elems):
                # injective with |A| = |B|, so "image inside B" means "onto B"
                out.append(f)
    out.sort(key=lambda f: (f.slope, f.intercept))
    return out


def equivalent(A: FiniteSubset, B: FiniteSubset) -> bool:
    """Whether some degree-1 polynomial maps A onto B."""
    _check_same_field(A.elems[0], B.elems[0])
    if len(A) != len(B):
        return False
    if len(A) <= 2:
        return True
    return bool(linear_maps_between(A, B))


def lambda_tuple(B: FiniteSubset, i1: int, i2: int) -> tuple[FieldElement, ...]:
    """Sorted ratios (b_i1 - b_j)/(b_i1 - b_i2) over the n-2 remaining indices."""
    n = len(B)
    if n < 3:
        raise ValueError("lambda tuples need at least 3 elements")
    if i1 == i2 or not (0 <= i1 < n) or not (0 <= i2 < n):
        raise ValueError("anchor indices must be distinct and in range")
    return _ratios(B, i1, i2, (B[i1] - B[i2]).inverse())


def _ratios(B: FiniteSubset, i1: int, i2: int, dinv: FieldElement) -> tuple[FieldElement, ...]:
    """lambda_tuple(B, i1, i2) given dinv = 1/(b_i1 - b_i2)."""
    lams = [(B[i1] - B[j]) * dinv for j in range(len(B)) if j != i1 and j != i2]
    lams.sort()
    return tuple(lams)


def _all_lambda_tuples(B: FiniteSubset):
    """lambda_tuple over all n(n-1) ordered anchor pairs, one inverse per
    unordered pair: 1/(b_i2 - b_i1) is the negated 1/(b_i1 - b_i2)."""
    n = len(B)
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            dinv = (B[i1] - B[i2]).inverse()
            yield _ratios(B, i1, i2, dinv)
            yield _ratios(B, i2, i1, -dinv)


@dataclass(frozen=True)
class ClassInvariant:
    """Complete invariant of a class: cardinality plus canonical lambda-tuple."""

    n: int
    lambdas: tuple[FieldElement, ...]

    def to_json_obj(self) -> dict:
        return {"n": self.n, "lambdas": [l.encode() for l in self.lambdas]}

    def key(self) -> str:
        """Byte-stable serialization, usable as a deduplication key."""
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def canonical_invariant(B: FiniteSubset) -> ClassInvariant:
    """Lexicographic minimum of lambda_tuple over all ordered anchor pairs."""
    n = len(B)
    if n <= 2:
        return ClassInvariant(n, ())
    return ClassInvariant(n, min(_all_lambda_tuples(B)))


def characteristic_lambda_points(B: FiniteSubset) -> set:
    """Lambda-points of the characteristic planes, one ordered tuple per plane.

    Planes correspond to enumerations of B up to stabilizer action, so each
    anchor pair contributes the (n-2)! orderings of its lambda values and the
    number of distinct points is n!/|G_B| = chi(B).
    """
    n = len(B)
    if n < 3:
        raise ValueError("needs at least 3 elements")
    return {perm for lams in _all_lambda_tuples(B) for perm in permutations(lams)}


@dataclass(frozen=True)
class Stabilizer:
    """The group of degree-1 maps fixing a set, with their slopes (y_values)."""

    maps: tuple[LinearMap, ...]
    order: int
    y_values: tuple[FieldElement, ...]


def stabilizer(B: FiniteSubset) -> Stabilizer:
    """All degree-1 P with P(B) = B; cyclic, order dividing n or n-1."""
    if len(B) == 1:
        ident = LinearMap.identity(B.field)
        return Stabilizer((ident,), 1, (ident.slope,))
    maps = tuple(linear_maps_between(B, B))
    return Stabilizer(maps, len(maps), tuple(f.slope for f in maps))


def chi(B: FiniteSubset) -> int:
    """Number of characteristic planes, n!/|G_B|."""
    n = len(B)
    if n < 3:
        raise ValueError("chi needs at least 3 elements")
    return math.factorial(n) // stabilizer(B).order


def sigma3_coordinate(B: FiniteSubset) -> tuple[FieldElement, FieldElement]:
    """Class coordinate of a 3-set: the pair (W2^3 : W3^2) from the centered
    power sums W_l = sum (b_j - mean)^l, normalized so the first nonzero
    entry is 1.  Projective form avoids dividing by zero at the class where
    W3 vanishes."""
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
    if v.is_zero():
        raise ArithmeticError("degenerate 3-set: both symmetric coordinates vanish")
    return (field.zero(), field.one())
