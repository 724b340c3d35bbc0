"""Univariate polynomials over a cyclotomic field, linear maps, exact linear solving.

Coefficients are stored ascending with trailing zeros stripped, so the zero
polynomial has an empty coefficient tuple.  Its degree is the sentinel
NEG_INF (float("-inf")), never -1, so degree comparisons against integer
bounds cannot silently pass.

Root multiplicity uses the derivative criterion (valid in characteristic 0):
the multiplicity of a in P is the least k with the k-th derivative nonzero
at a.  No factorization or root finding happens anywhere in this package.

Interpolation has one route, Newton's divided differences:
interpolate_labeled computes them from scratch, the witness search in
reduction.py extends them one point at a time, and both expand the Newton
form with _newton_to_poly.

solve_linear is plain Gaussian elimination with full pivoting (exactness
means there is no stability concern; full pivoting just limits coefficient
blow-up).  It reports a unique solution, inconsistency, or an underdetermined
system with a particular solution and a nullspace basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import CyclotomicField, FieldElement, FieldMismatchError, _check_same_field

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
        """Monic product of (X - a)^e over the given (a, e) pairs."""
        out = cls(field, [1])
        for a, e in root_multiplicities:
            lin = cls(field, [-_coerce(field, a), 1])
            for _ in range(e):
                out = out * lin
        return out

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
        if isinstance(other, (int, Fraction, FieldElement)):
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
        cs = list(self.coeffs)
        for _ in range(order):
            cs = [i * cs[i] for i in range(1, len(cs))]
        return Poly(self.field, cs)

    def root_multiplicity(self, a: FieldElement) -> int:
        """Multiplicity of a as a root (0 when P(a) != 0); derivative criterion."""
        if self.is_zero():
            raise ValueError("zero polynomial has no root multiplicities")
        p = self
        k = 0
        while True:
            if not p(a).is_zero():
                return k
            p = p.derivative()
            k += 1

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


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of solve_linear: status is 'unique', 'underdetermined' or 'inconsistent'."""
    status: str
    solution: tuple[FieldElement, ...] | None
    nullity: int
    nullspace: tuple[tuple[FieldElement, ...], ...]


def _pivot_size(el: FieldElement) -> int:
    return sum(v.bit_length() for v in el.num) + el.den.bit_length()


def solve_linear(rows, rhs) -> LinearSolution:
    """Exact Gaussian elimination with full pivoting over the field.

    rows: m sequences of n FieldElements; rhs: m FieldElements.  The nullspace
    basis of the homogeneous system is always computed (it is the kernel
    shared with the rank routine).
    """
    m = len(rows)
    if m == 0:
        raise ValueError("empty system")
    ncols = len(rows[0])
    field = rhs[0].field if rhs else rows[0][0].field
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    col_of = list(range(ncols))  # col_of[j] = original index of current column j
    rank = 0
    while rank < min(m, ncols):
        best = None
        for i in range(rank, m):
            for j in range(rank, ncols):
                e = aug[i][j]
                if not e.is_zero():
                    sz = _pivot_size(e)
                    if best is None or sz < best[0]:
                        best = (sz, i, j)
        if best is None:
            break
        _, pi, pj = best
        aug[rank], aug[pi] = aug[pi], aug[rank]
        if pj != rank:
            for row in aug:
                row[rank], row[pj] = row[pj], row[rank]
            col_of[rank], col_of[pj] = col_of[pj], col_of[rank]
        inv = aug[rank][rank].inverse()
        aug[rank] = [e * inv for e in aug[rank]]
        for i in range(m):
            if i != rank and not aug[i][rank].is_zero():
                f = aug[i][rank]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        rank += 1
    for i in range(rank, m):
        if not aug[i][ncols].is_zero():
            return LinearSolution("inconsistent", None, ncols - rank, ())
    zero = field.zero()
    sol_perm = [aug[i][ncols] for i in range(rank)] + [zero] * (ncols - rank)
    solution = [zero] * ncols
    for j in range(ncols):
        solution[col_of[j]] = sol_perm[j]
    basis = []
    for free in range(rank, ncols):
        vec_perm = [-aug[i][free] for i in range(rank)] + [zero] * (ncols - rank)
        vec_perm[free] = field.one()
        vec = [zero] * ncols
        for j in range(ncols):
            vec[col_of[j]] = vec_perm[j]
        basis.append(tuple(vec))
    nullity = ncols - rank
    status = "unique" if nullity == 0 else "underdetermined"
    return LinearSolution(status, tuple(solution), nullity, tuple(basis))


def _newton_to_poly(field, coeffs, xs) -> Poly:
    """Expand the Newton form sum_t coeffs[t] * prod_{i<t} (X - xs[i])."""
    acc = [coeffs[-1]]
    for t in range(len(coeffs) - 2, -1, -1):
        xt = xs[t]
        nxt = [field.zero()] + acc
        for i, c in enumerate(acc):
            nxt[i] = nxt[i] - xt * c
        nxt[0] = nxt[0] + coeffs[t]
        acc = nxt
    return Poly(field, acc)


def interpolate_labeled(points, degree_cap: int):
    """The unique polynomial of degree <= degree_cap through the labeled points, or None.

    points: sequence of (abscissa, value) FieldElement pairs, abscissae pairwise
    distinct, with at least degree_cap + 1 points so the answer is unique when
    it exists.  Newton divided differences on the first degree_cap + 1 points
    give the candidate; the remaining points check it.
    """
    pts = list(points)
    if len(pts) < degree_cap + 1:
        raise ValueError("need at least degree_cap + 1 interpolation points")
    xs = [a for a, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae")
    k = degree_cap + 1
    dd = [v for _, v in pts[:k]]
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    P = _newton_to_poly(xs[0].field, dd, xs)
    if any(P(a) != v for a, v in pts[k:]):
        return None
    return P
