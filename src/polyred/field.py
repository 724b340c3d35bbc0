"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are represented in the power basis 1, z, ..., z^(phi(N)-1) where z is
a primitive N-th root of unity and phi is Euler's totient.  Internally a value
is a vector of integers plus a single positive denominator, normalized so the
gcd of all entries and the denominator is 1; this makes the representation
unique (equality is structural) and keeps the arithmetic in fast integer
operations.  A rational element hashes like the int or Fraction it equals.
The Fraction view of the coordinates is exposed at the serialization boundary.

Inversion is integer-only as well: the product of the Galois conjugates of an
element, divided by its norm.

The comparison operators implement a strict total order: lexicographic on the
coordinate vector, each coordinate compared by rational value.  It is used
everywhere a canonical ordering of field elements is needed (sorted sets,
canonical invariants, deterministic tie-breaks).

mpmath is used only by the numeric helpers ``embed`` and ``sqrt``; exactness
never depends on it.  ``sqrt`` reconstructs a candidate from high-precision
conjugate embeddings and then verifies it exactly, so a returned value is
always correct, while ``None`` only means "not found within the given
denominator bound", not a nonexistence proof.
"""
from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache, total_ordering

import mpmath
from mpmath import mp


class FieldMismatchError(ValueError):
    """Raised when operands belong to different cyclotomic fields."""


_ENCODING_RE = re.compile(r"^-?[0-9]+/[1-9][0-9]*$")


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _int_poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic); remainder must vanish."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q[k] = c
        for i, dc in enumerate(den):
            num[k + i] -= c * dc
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic.

    Computed by iterated exact division of X^n - 1 by the cyclotomic
    polynomials of the proper divisors of n.
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _int_poly_divmod_exact(poly, list(_cyclotomic_coeffs(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def make_field(order: int) -> "CyclotomicField":
    """The cyclotomic field Q(zeta_N) for N = order (cached singleton)."""
    return CyclotomicField(order)


class CyclotomicField:
    """Q(zeta_N) with exact power-basis arithmetic modulo the N-th cyclotomic polynomial."""

    __slots__ = ("order", "degree", "modulus", "_powers", "_galois", "_zeta")

    def __init__(self, order: int):
        if not isinstance(order, int) or isinstance(order, bool):
            raise TypeError(f"cyclotomic order must be an int, got {type(order).__name__}")
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = order
        self.modulus = _cyclotomic_coeffs(order)
        self.degree = len(self.modulus) - 1
        d = self.degree
        # _powers[j] = coordinates of z^j in the power basis, j = 0..N-1;
        # integer rows because the modulus is monic with integer coefficients.
        # A product folds its overflow z^k through row k mod N, and sigma_k
        # sends z^j to row jk mod N.
        top_row = [-c for c in self.modulus[:d]]
        row = [1] + [0] * (d - 1)
        powers = []
        for _ in range(order):
            powers.append(tuple(row))
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [r + top * t for r, t in zip(row, top_row)]
        self._powers = tuple(powers)
        # exponents k of the nontrivial automorphisms sigma_k: z -> z^k
        self._galois = tuple(k for k in range(2, order) if math.gcd(k, order) == 1)
        self._zeta = self._make(powers[1 % order], 1)

    def _make(self, num: tuple[int, ...], den: int) -> "FieldElement":
        el = FieldElement.__new__(FieldElement)
        el.field = self
        el.num = num
        el.den = den
        el._hash = None
        return el

    def _normalized(self, num: list[int], den: int) -> "FieldElement":
        if den < 0:
            den = -den
            num = [-v for v in num]
        g = math.gcd(den, *num)
        if g == 0:
            return self._make((0,) * self.degree, 1)
        if g > 1:
            num = [v // g for v in num]
            den //= g
        return self._make(tuple(num), den)

    def _conjugate(self, num: tuple[int, ...], k: int) -> "FieldElement":
        """sigma_k(num): the integer vector num with z replaced by z^k."""
        n, powers = self.order, self._powers
        out = [0] * self.degree
        for j, v in enumerate(num):
            if v:
                for i, c in enumerate(powers[j * k % n]):
                    if c:
                        out[i] += v * c
        return self._make(tuple(out), 1)

    def element(self, coords) -> "FieldElement":
        """Element from a sequence of ints/Fractions (length <= degree, zero padded)."""
        vals = [Fraction(c) for c in coords]
        if len(vals) > self.degree:
            raise ValueError(f"expected at most {self.degree} coordinates, got {len(vals)}")
        vals += [Fraction(0)] * (self.degree - len(vals))
        den = math.lcm(*[v.denominator for v in vals])
        num = [int(v * den) for v in vals]
        return self._normalized(num, den)

    def from_rational(self, q) -> "FieldElement":
        return self.element([Fraction(q)])

    def zero(self) -> "FieldElement":
        return self._make((0,) * self.degree, 1)

    def one(self) -> "FieldElement":
        return self.element([1])

    def zeta(self, power: int = 1) -> "FieldElement":
        """zeta_N^power for any integer power."""
        return self._zeta ** (power % self.order)

    def element_from_encoding(self, strings) -> "FieldElement":
        """Parse the textual coordinate form: phi(N) strings "p/q" with q >= 1."""
        if len(strings) != self.degree:
            raise ValueError(
                f"element needs exactly {self.degree} coordinates, got {len(strings)}")
        coords = []
        for s in strings:
            if not isinstance(s, str) or not _ENCODING_RE.match(s):
                raise ValueError(f"bad coordinate encoding {s!r}")
            p, q = s.split("/")
            coords.append(Fraction(int(p), int(q)))
        return self.element(coords)

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("CyclotomicField", self.order))

    def __repr__(self):
        return f"CyclotomicField({self.order})"


def _check_same_field(a: "FieldElement", b: "FieldElement"):
    if a.field.order != b.field.order:
        raise FieldMismatchError(
            f"mixed fields Q(zeta_{a.field.order}) and Q(zeta_{b.field.order})")


def _fraction_hash(p: int, q: int) -> int:
    """hash(Fraction(p, q)) for coprime p and q > 1, without building the Fraction."""
    try:
        h = hash(hash(abs(p)) * pow(q, -1, sys.hash_info.modulus))
    except ValueError:  # q is a multiple of the hash modulus
        h = sys.hash_info.inf
    h = h if p >= 0 else -h
    return -2 if h == -1 else h


def _mpf_to_fraction(x) -> Fraction:
    if not mpmath.isfinite(x):
        raise ArithmeticError("non-finite value in rational reconstruction")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


@total_ordering
class FieldElement:
    """Immutable element of a CyclotomicField; supports +, -, *, /, **, and a total order."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: CyclotomicField, coords):
        el = field.element(coords)
        self.field = field
        self.num = el.num
        self.den = el.den
        self._hash = None

    # -- coercion ------------------------------------------------------------
    def _co(self, other):
        if isinstance(other, FieldElement):
            _check_same_field(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.num)

    def encode(self) -> list[str]:
        return [f"{f.numerator}/{f.denominator}" for f in self.coords]

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        if d1 == d2:
            num = [a + b for a, b in zip(self.num, o.num)]
            return self.field._normalized(num, d1)
        l = math.lcm(d1, d2)
        m1, m2 = l // d1, l // d2
        num = [a * m1 + b * m2 for a, b in zip(self.num, o.num)]
        return self.field._normalized(num, l)

    __radd__ = __add__

    def __neg__(self):
        return self.field._make(tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        a, b = self.num, o.num
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        num = conv[:d]
        powers, n = self.field._powers, self.field.order
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = powers[k % n]
                for i in range(d):
                    if row[i]:
                        num[i] += c * row[i]
        return self.field._normalized(num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse through the norm, in integer arithmetic only.

        Write self = v/den with v an integer vector.  The conjugates
        sigma_k(v), z -> z^k for k != 1 in (Z/N)^*, multiply to an integer
        element P with v*P = N(v), the norm of v: a nonzero rational integer.
        Hence 1/self = den*P/N(v).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        fld = self.field
        v = self.num
        if fld.degree == 1:
            return fld._normalized([self.den], v[0])
        prod = None
        for k in fld._galois:
            conj = fld._conjugate(v, k)
            prod = conj if prod is None else prod * conj
        # N(v) is the constant coordinate of v*P; the others vanish.
        powers, n = fld._powers, fld.order
        norm = sum(vi * pj * powers[(i + j) % n][0]
                   for i, vi in enumerate(v) if vi
                   for j, pj in enumerate(prod.num) if pj)
        return fld._normalized([self.den * c for c in prod.num], norm)

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def multiplicative_order(self, limit: int | None = None) -> int | None:
        """Least k in 1..limit with self^k = 1, else None.

        The default limit lcm(2, N) covers every root of unity the field
        contains, so None then means "not a root of unity".
        """
        if limit is None:
            limit = math.lcm(2, self.field.order)
        p = self
        one = self.field.one()
        for k in range(1, limit + 1):
            if p == one:
                return k
            p = p * self
        return None

    # -- order / equality ------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.field.order == other.field.order
                and self.den == other.den and self.num == other.num)

    def __lt__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        for a, b in zip(self.num, o.num):
            lhs, rhs = a * o.den, b * self.den
            if lhs != rhs:
                return lhs < rhs
        return False

    def __hash__(self):
        # A rational element equals its int or Fraction value, so it takes
        # that value's hash (the formula of Python's numeric hash).
        if self._hash is None:
            if not self.is_rational():
                self._hash = hash((self.field.order, self.num, self.den))
            elif self.den == 1:
                self._hash = hash(self.num[0])
            else:
                self._hash = _fraction_hash(self.num[0], self.den)
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    # -- numeric --------------------------------------------------------------
    def embed(self, precision: int = 53):
        """Complex floating approximation at the principal embedding zeta -> e^(2*pi*i/N).

        Heuristic guidance only; never an exactness source.
        """
        with mp.workprec(max(precision, 53) + 16):
            z = mpmath.expjpi(mpmath.mpf(2) / self.field.order)
            acc = mpmath.mpc(0)
            for c in reversed(self.num):
                acc = acc * z + c
            return acc / self.den

    def sqrt(self, denominator_bound: int = 10 ** 6, precision: int = 256):
        """A y with y*y = self, or None if no candidate is found and verified.

        Search: take high-precision square roots of all conjugate embeddings,
        enumerate the sign ambiguity, solve back for power-basis coordinates,
        reconstruct each coordinate as a rational with denominator at most
        denominator_bound (continued fractions), and verify exactly.  None
        means "not found within the bound", not a nonexistence certificate.
        """
        if self.is_zero():
            return self
        fld = self.field
        d, n = fld.degree, fld.order
        units = [t for t in range(1, n + 1) if math.gcd(t, n) == 1]
        with mp.workprec(precision + 48):
            ztab = [mpmath.expjpi(mpmath.mpf(2 * t) / n) for t in units]
            vmat = mpmath.matrix(d, d)
            for r, z in enumerate(ztab):
                p = mpmath.mpc(1)
                for c in range(d):
                    vmat[r, c] = p
                    p = p * z
            roots = []
            for z in ztab:
                acc = mpmath.mpc(0)
                for c in reversed(self.num):
                    acc = acc * z + c
                roots.append(mpmath.sqrt(acc / self.den))
            tol = mpmath.mpf(2) ** (-(precision // 2))
            for signs in itertools.product((1, -1), repeat=d - 1):
                rhs = mpmath.matrix([roots[0]]
                                    + [s * r for s, r in zip(signs, roots[1:])])
                sol = mpmath.lu_solve(vmat, rhs)
                coords = []
                for v in sol:
                    if abs(mpmath.im(v)) > tol:
                        break
                    fr = _mpf_to_fraction(mpmath.re(v))
                    coords.append(fr.limit_denominator(denominator_bound))
                else:
                    cand = fld.element(coords)
                    if cand * cand == self:
                        return cand
        return None

    # -- display ----------------------------------------------------------------
    def __str__(self):
        terms = []
        for i, f in enumerate(self.coords):
            if f == 0:
                continue
            if i == 0:
                terms.append(str(f))
            else:
                head = "" if f == 1 else ("-" if f == -1 else f"{f}*")
                terms.append(f"{head}z^{i}" if i > 1 else f"{head}z")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    def __repr__(self):
        return f"<{self} in Q(zeta{self.field.order})>"
