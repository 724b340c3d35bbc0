"""Univariate polynomials over a cyclotomic field, and linear maps.

Coefficients are stored ascending with trailing zeros stripped, so the zero
polynomial has an empty coefficient tuple.  Its degree is the sentinel
NEG_INF (float("-inf")), never -1, so degree comparisons against integer
bounds cannot silently pass.

Every witness the package reports is built by Poly.from_roots, as
b + c*prod(X - a)^e.  Root multiplicities are counted by synthetic division
(the fiber certificate in reduction.py): dividing P by X - a leaves P(a),
and each further division with remainder 0 adds one to the multiplicity of
a in P - P(a).  No factorization or root finding happens anywhere in this
package.
"""
from __future__ import annotations

from .field import (CyclotomicField, FieldElement, FieldMismatchError,
                    _check_same_field, _is_rational)

NEG_INF = float("-inf")


def _coerce(field: CyclotomicField, c) -> FieldElement:
    if isinstance(c, FieldElement):
        if c.field.order != field.order:
            raise FieldMismatchError(
                f"mixed fields Q(zeta_{field.order}) and Q(zeta_{c.field.order})")
        return c
    return field.from_rational(c)


class Poly:
    """Polynomial in one variable over a CyclotomicField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs):
        cs = [_coerce(field, c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_roots(cls, field: CyclotomicField, root_multiplicities) -> "Poly":
        """Monic product of (X - a)^e over the given (a, e) pairs; each e is an
        int >= 0.  The coefficients are multiplied by each X - a in place."""
        out = [field.one()]  # ascending
        for a, e in root_multiplicities:
            if type(e) is not int or e < 0:
                raise ValueError(f"root multiplicity must be an int >= 0, got {e!r}")
            neg = -_coerce(field, a)
            for _ in range(e):
                out.append(out[-1])
                for i in range(len(out) - 2, 0, -1):
                    out[i] = out[i - 1] + neg * out[i]
                out[0] = neg * out[0]
        return cls(field, out)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field.order == other.field.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElement) or _is_rational(other):
            s = _coerce(self.field, other)
            return Poly(self.field, [c * s for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __call__(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, order: int = 1) -> "Poly":
        """The order-th derivative; order is an int >= 0 (0 gives P itself)."""
        if type(order) is not int or order < 0:
            raise ValueError(f"derivative order must be an int >= 0, got {order!r}")
        cs = list(self.coeffs)
        for _ in range(order):
            cs = [i * cs[i] for i in range(1, len(cs))]
        return Poly(self.field, cs)

    def compose(self, other: "Poly") -> "Poly":
        if self.is_zero():
            return Poly(self.field, [])
        acc = Poly(self.field, [self.coeffs[-1]])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * other + Poly(self.field, [c])
        return acc

    def encode(self) -> list[list[str]]:
        return [c.encode() for c in self.coeffs]

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            terms.append(f"({c})*X^{i}" if i else f"({c})")
        return "Poly(" + " + ".join(terms) + ")"


class LinearMap:
    """Degree-1 polynomial c*X + c', the invertible maps of the affine line."""

    __slots__ = ("slope", "intercept")

    def __init__(self, slope: FieldElement, intercept: FieldElement):
        if slope.is_zero():
            raise ValueError("linear map needs nonzero slope")
        _check_same_field(slope, intercept)
        self.slope = slope
        self.intercept = intercept

    @classmethod
    def identity(cls, field: CyclotomicField) -> "LinearMap":
        return cls(field.one(), field.zero())

    def __call__(self, x: FieldElement) -> FieldElement:
        return self.slope * x + self.intercept

    def inverse(self) -> "LinearMap":
        inv = self.slope.inverse()
        return LinearMap(inv, -self.intercept * inv)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other: x -> self(other(x))."""
        return LinearMap(self.slope * other.slope,
                         self.slope * other.intercept + self.intercept)

    def to_poly(self) -> Poly:
        return Poly(self.slope.field, [self.intercept, self.slope])

    def __eq__(self, other):
        return (isinstance(other, LinearMap)
                and self.slope == other.slope and self.intercept == other.intercept)

    def __hash__(self):
        return hash((self.slope, self.intercept))

    def encode(self) -> dict:
        return {"c": self.slope.encode(), "c_prime": self.intercept.encode()}

    def __repr__(self):
        return f"LinearMap(({self.slope})*X + ({self.intercept}))"

