"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are represented in the power basis 1, z, ..., z^(phi(N)-1) where z is
a primitive N-th root of unity and phi is Euler's totient.  Internally a value
is a vector of integers plus a single positive denominator, normalized so the
gcd of all entries and the denominator is 1; this makes the representation
unique (equality is structural) and keeps the arithmetic in fast integer
operations.  A rational element hashes like the int or Fraction it equals.
Every element is built by a CyclotomicField method, and every layer brings a
scalar into a field through _coerce.  element and element_from_encoding
share one integer route, so parsing "p/q" builds no Fraction.  Fraction
appears only at the boundary: the coords view (and so encode and str),
as_fraction, and Fraction input to element and from_rational.  The only
rational scalars are int (not bool) and Fraction: TypeError otherwise.

Inversion is integer-only as well: for an integer vector v the field finds an
integer vector P with v*P = n a nonzero integer, so 1/(v/den) = den*P/n.  P is
1 for a rational v; when 4 | N one relative-norm step z -> -z halves N; else
P is the product of the conjugates sigma_k(v), k != 1, built over a cyclic
splitting of (Z/N)^* by the doubling chain of Itoh and Tsujii.

``sqrt`` is a decision procedure in integer arithmetic.  Modulo an odd prime
p of maximal order f modulo N, the ring F_p[zeta] = Z[zeta]/p is a product of
g = phi(N)/f copies of F_q, q = p^f, and sqrt works in that ring with the
field's own product reduced mod p and its own adjugate for 1/B.  Euler's
criterion gives the idempotents of the copies, and Tonelli-Shanks runs in the
ring, correcting only the copies that need it.  One Newton lift carries the
root and the idempotents past a proven coefficient bound; the 2^(g-1) signed
sums of the lifted parts are checked exactly, so ``None`` proves a non-square.

A prime p = 1 (mod N) splits completely in Q(zeta_N): for a primitive N-th
root of unity w modulo p, zeta -> w is a ring map Z[zeta] -> F_p.
``split_prime(i)`` gives the i-th such prime below 2^30, in descending order,
cached per field; its ``residue`` sends v/den to (sum v_j w^j)/den mod p
and returns None when p divides den.  The witness search runs on these
residues and certifies its survivors exactly.

The comparison operators implement a strict total order: lexicographic on the
coordinate vector, each coordinate compared by rational value.  It is used
everywhere a canonical ordering of field elements is needed (sorted sets,
canonical invariants, deterministic tie-breaks).

The module uses the standard library only.
"""
from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction
from functools import lru_cache, total_ordering
from operator import mul
from sys import hash_info as _HASH


class FieldMismatchError(ValueError):
    """Raised when operands belong to different cyclotomic fields."""


_ENCODING_RE = re.compile(r"-?[0-9]+/[1-9][0-9]*")


def _is_rational(q) -> bool:
    """Whether q is a field scalar: an int (bool excluded) or a Fraction."""
    return isinstance(q, (int, Fraction)) and not isinstance(q, bool)


def _rational_pair(q) -> tuple[int, int]:
    """(numerator, denominator) of the int or Fraction q; TypeError otherwise."""
    if type(q) is int:
        return q, 1
    if not _is_rational(q):
        raise TypeError(f"expected an int or a Fraction, got {type(q).__name__} {q!r}")
    return q.numerator, q.denominator


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
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_divmod_exact(poly, list(_cyclotomic_coeffs(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def make_field(order: int) -> "CyclotomicField":
    """The cyclotomic field Q(zeta_N) for N = order (cached singleton)."""
    return CyclotomicField(order)


class CyclotomicField:
    """Q(zeta_N) with exact power-basis arithmetic modulo the N-th cyclotomic polynomial."""

    __slots__ = ("order", "degree", "modulus", "_rows", "_constants")

    def __init__(self, order: int):
        if not isinstance(order, int) or isinstance(order, bool):
            raise TypeError(f"cyclotomic order must be an int, got {type(order).__name__}")
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = order
        self.modulus = _cyclotomic_coeffs(order)
        self.degree = len(self.modulus) - 1
        d = self.degree
        # _rows[k] = the nonzero (i, c) coordinates of z^k in the power basis,
        # k = 0..N-1; integer because the modulus is monic with integer
        # coefficients.  A product folds its overflow z^k through row k mod N,
        # and sigma_k sends z^j to row jk mod N.
        top_row = [-c for c in self.modulus[:d]]
        row = [1] + [0] * (d - 1)
        rows = []
        for _ in range(order):
            rows.append(tuple((i, c) for i, c in enumerate(row) if c))
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [r + top * t for r, t in zip(row, top_row)]
        self._rows = tuple(rows)
        # _constants[k] = constant coordinate of z^k, k = 0..2d-2: every
        # exponent of a product of two coordinate vectors
        self._constants = tuple(dict(rows[k % order]).get(0, 0) for k in range(2 * d - 1))

    def _make(self, num: tuple[int, ...], den: int) -> "FieldElement":
        el = FieldElement.__new__(FieldElement)
        el.field = self
        el.num = num
        el.den = den
        return el

    def _normalized(self, num: list[int], den: int) -> "FieldElement":
        if den < 0:
            den = -den
            num = [-v for v in num]
        g = math.gcd(den, *num)
        if g > 1:
            num = [v // g for v in num]
            den //= g
        return self._make(tuple(num), den)

    def _product(self, a, b) -> list[int]:
        """Coordinates of the product of two integer coordinate vectors."""
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        num = conv[:d]
        rows, n = self._rows, self.order
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                for i, r in rows[k % n]:
                    num[i] += c * r
        return num

    def _constant_row(self, y) -> list[int]:
        """The integer row r with r . x = constant coordinate of the product of
        the integer vectors x and y: r_i = sum_j y_j const(z^(i+j))."""
        c, d = self._constants, self.degree
        return [sum(map(mul, y, c[i:i + d])) for i in range(d)]

    def _conjugate(self, num, k: int) -> list[int]:
        """sigma_k(num): the integer vector num with z replaced by z^k."""
        n, rows = self.order, self._rows
        out = [0] * self.degree
        for j, v in enumerate(num):
            if v:
                for i, c in rows[j * k % n]:
                    out[i] += v * c
        return out

    def _adjugate(self, v) -> tuple[list[int], int]:
        """(P, n) with P an integer vector and v*P = n a nonzero integer, for
        the nonzero integer vector v: the three cases of FieldElement.inverse."""
        if not any(v[1:]):
            return [1] + [0] * (self.degree - 1), v[0]
        product, n = self._product, self.order
        if n % 4 == 0:
            s = [-c if j & 1 else c for j, c in enumerate(v)]
            half, norm = make_field(n // 2)._adjugate(product(v, s)[0::2])
            lift = [0] * self.degree
            lift[0::2] = half
            return product(s, lift), norm
        conjugate, chain = self._conjugate, _unit_chain(n)
        prod, full = None, v
        for index, (g, m) in enumerate(chain):
            part, a = full, 1
            for bit in bin(m - 1)[3:]:
                part, a = product(part, conjugate(part, pow(g, a, n))), 2 * a
                if bit == "1":
                    part, a = product(full, conjugate(part, g)), a + 1
            t = conjugate(part, g)
            prod = t if prod is None else product(prod, t)
            if index + 1 < len(chain):
                full = product(full, t)
        return prod, sum(map(mul, v, self._constant_row(prod)))

    def _from_pairs(self, pairs) -> "FieldElement":
        """Element from integer (numerator, positive denominator) coordinate
        pairs, at most degree of them, zero padded."""
        den = math.lcm(*(q for _, q in pairs))
        num = [p * (den // q) for p, q in pairs]
        return self._normalized(num + [0] * (self.degree - len(num)), den)

    def element(self, coords) -> "FieldElement":
        """Element from a sequence of ints/Fractions (length <= degree, zero padded)."""
        pairs = [_rational_pair(c) for c in coords]
        if len(pairs) > self.degree:
            raise ValueError(f"expected at most {self.degree} coordinates, got {len(pairs)}")
        return self._from_pairs(pairs)

    def from_rational(self, q) -> "FieldElement":
        """The rational q, an int or a Fraction, as an element."""
        p, den = _rational_pair(q)
        return self._make((p,) + (0,) * (self.degree - 1), den)

    def zero(self) -> "FieldElement":
        return self._make((0,) * self.degree, 1)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def zeta(self, power: int = 1) -> "FieldElement":
        """zeta_N^power for any integer power: row power mod N of the power table."""
        if type(power) is not int:
            raise TypeError(f"zeta power must be an int, got {power!r}")
        row = dict(self._rows[power % self.order])
        return self._make(tuple(row.get(i, 0) for i in range(self.degree)), 1)

    def element_from_encoding(self, strings) -> "FieldElement":
        """Parse the textual coordinate form: phi(N) strings "p/q" with q >= 1."""
        if len(strings) != self.degree:
            raise ValueError(
                f"element needs exactly {self.degree} coordinates, got {len(strings)}")
        pairs = []
        for s in strings:
            if not isinstance(s, str) or not _ENCODING_RE.fullmatch(s):
                raise ValueError(f"bad coordinate encoding {s!r}")
            p, q = s.split("/")
            pairs.append((int(p), int(q)))
        return self._from_pairs(pairs)

    @lru_cache(maxsize=None, typed=True)
    def split_prime(self, index: int) -> "_SplitPrime":
        """The index-th prime p = 1 (mod N) below 2^30, counting down, with a
        primitive N-th root of unity w modulo p.  Cached on (field, index), so
        equal fields share it, and typed, so True and 1.0 miss the entry of 1."""
        if type(index) is not int:
            raise TypeError(f"split prime index must be an int, got {index!r}")
        if index < 0:
            raise ValueError(f"split prime index must be >= 0, got {index!r}")
        n = self.order
        primes = _primes((2 ** 30 - 2) // n * n + 1, -n)
        p = next(itertools.islice(primes, index, None), None)
        if p is None:
            raise ArithmeticError(f"no split prime left for Q(zeta_{n})")
        return _SplitPrime(self, p)

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return f"CyclotomicField({self.order})"


def _check_same_field(a, b):
    """Raise unless a and b (elements, polynomials or finite subsets: anything
    with a .field) lie over the same field."""
    if a.field.order != b.field.order:
        raise FieldMismatchError(
            f"mixed fields Q(zeta_{a.field.order}) and Q(zeta_{b.field.order})")


def _coerce(field: CyclotomicField, c) -> "FieldElement":
    if isinstance(c, FieldElement):
        if c.field.order != field.order:
            raise FieldMismatchError(
                f"mixed fields Q(zeta_{field.order}) and Q(zeta_{c.field.order})")
        return c
    return field.from_rational(c)


def _power(a, e: int, mul):
    """a^e for e >= 1 under the product mul, by left-to-right binary powering:
    bit_length(e) + popcount(e) - 2 products."""
    out = a
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
    return out


# -- square roots: the ring F_p[zeta] and the per-field data -----------------

def _multiplicative_order(k: int, n: int) -> int:
    e, x = 1, k % n
    while x != 1 % n:
        x, e = x * k % n, e + 1
    return e


@lru_cache(maxsize=None)
def _unit_chain(n: int) -> tuple[tuple[int, int], ...]:
    """Pairs (g_i, m_i) splitting (Z/N)^* into cyclic factors: with
    H_i = <g_1, ..., g_i>, m_i = [H_i : H_(i-1)] is the least m with g_i^m in
    H_(i-1), so every unit is g_1^a_1 ... g_r^a_r for exactly one choice of
    0 <= a_i < m_i.  Each g_i is the least unit of the largest relative order."""
    units = [k for k in range(2, n) if math.gcd(k, n) == 1]
    group, chain = {1}, []
    while len(group) <= len(units):
        best = None
        for k in units:
            m, x = 1, k
            while x not in group:
                x, m = x * k % n, m + 1
            if best is None or m > best[1]:
                best = (k, m)
        g, m = best
        group = {h * pow(g, a, n) % n for h in group for a in range(m)}
        chain.append(best)
    return tuple(chain)


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1))


def _primes(p: int, step: int):
    """The primes of p, p + step, p + 2*step, ..., in that order, until the
    walk falls below 2; callers take the index-th by a loop, not recursion."""
    while p >= 2:
        if _is_prime(p):
            yield p
        p += step


class _SqrtPrime:
    """The ring F_p[zeta] = Z[zeta]/p for an odd prime p, p not dividing N, of
    order f modulo N.  Phi_N is squarefree modulo p, because p does not divide
    N, and its irreducible factors all have degree f, so by the CRT the ring
    is a product of g = phi(N)/f copies of F_q, q = p^f.  Its product is the
    field's _product reduced mod p.

    For r in the ring, u = r^((q-1)/2) is 1, -1 or 0 in each copy, as r is a
    nonzero square there, a non-square or zero, so (u^2 - u)/2 is the
    idempotent of the copies where r is a non-square.  Random r, seeded from
    p, refine {1} by these idempotents until it has g parts, which are then
    the primitive idempotents e_i; no factor of Phi_N is computed.  Each part
    keeps an r that is a non-square on all its copies, so z = sum e_i r_i is
    a non-square in every copy and sylow = z^t, with q - 1 = 2^s t and t odd,
    generates the 2-Sylow subgroup of F_q^* in every copy (Tonelli-Shanks)."""

    __slots__ = ("field", "p", "q", "idempotents", "two_adic", "odd_part", "sylow")

    def __init__(self, field: "CyclotomicField", p: int, f: int):
        self.field, self.p, self.q = field, p, p ** f
        s, t = 0, self.q - 1
        while not t & 1:
            s, t = s + 1, t >> 1
        self.two_adic, self.odd_part = s, t
        rng, d, half = random.Random(p), field.degree, (p + 1) // 2
        parts = [([1] + [0] * (d - 1), None)]  # (idempotent, non-square on it)
        while len(parts) < d // f or any(w is None for _, w in parts):
            r = [rng.randrange(p) for _ in range(d)]
            u = _power(r, (self.q - 1) // 2, self.mul)
            split = [(a - b) * half % p for a, b in zip(self.mul(u, u), u)]
            refined = []
            for e, w in parts:
                a = self.mul(e, split)
                if a == e:
                    refined.append((e, r if w is None else w))
                elif any(a):
                    refined += [(a, r), ([(c - v) % p for c, v in zip(e, a)], w)]
                else:
                    refined.append((e, w))
            parts = refined
        self.idempotents = [e for e, _ in parts]
        z = [sum(c) % p for c in zip(*(self.mul(e, w) for e, w in parts))]
        self.sylow = _power(z, t, self.mul)

    def mul(self, a, b) -> list[int]:
        """The product of a and b in F_p[zeta]."""
        p = self.p
        return [c % p for c in self.field._product(a, b)]


@lru_cache(maxsize=None)
def _sqrt_prime(field: "CyclotomicField", index: int) -> _SqrtPrime:
    """The index-th odd prime p, p not dividing N, whose order modulo N is the
    exponent of (Z/N)^*, its largest element order: the first relative order
    of the unit chain, 1 when N <= 2."""
    n, chain = field.order, _unit_chain(field.order)
    exponent = chain[0][1] if chain else 1
    good = (p for p in _primes(3, 2) if n % p and _multiplicative_order(p, n) == exponent)
    return _SqrtPrime(field, next(itertools.islice(good, index, None)), exponent)


@lru_cache(maxsize=None)
def _sqrt_bound(field: "CyclotomicField") -> Fraction:
    """d * L1(Phi_N) * L1(1/Phi_N'(zeta)): |Y_j| is at most this times
    sqrt(L1(Y^2)); see FieldElement.sqrt."""
    phi = field.modulus
    w = field.element([i * c for i, c in enumerate(phi) if i]).inverse()
    return Fraction(field.degree * sum(map(abs, phi)) * sum(map(abs, w.num)), w.den)


class _SplitPrime:
    """A prime p = 1 (mod N) and powers[j] = w^j mod p, j < phi(N), for the
    primitive N-th root of unity w = g^((p-1)/N) with g the least base that
    makes it primitive."""

    __slots__ = ("p", "powers")

    def __init__(self, field: "CyclotomicField", p: int):
        n, t = field.order, (p - 1) // field.order
        w = next(w for w in (pow(g, t, p) for g in itertools.count(2))
                 if _multiplicative_order(w, p) == n)
        self.p, self.powers = p, [pow(w, j, p) for j in range(field.degree)]

    def residue(self, x: "FieldElement") -> int | None:
        """x = v/den modulo p under zeta -> w, or None when p divides den."""
        p = self.p
        if x.den % p == 0:
            return None
        return sum(v * w for v, w in zip(x.num, self.powers)) * pow(x.den, -1, p) % p


@total_ordering
class FieldElement:
    """Immutable element of a CyclotomicField, built by the field's methods;
    supports +, -, *, /, **, and a total order."""

    __slots__ = ("field", "num", "den")

    # -- coercion ------------------------------------------------------------
    def _co(self, other):
        if isinstance(other, FieldElement) or _is_rational(other):
            return _coerce(self.field, other)
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
        fld = self.field
        return fld._normalized(fld._product(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse in integer arithmetic: with self = v/den for
        an integer vector v, _adjugate(v) gives an integer vector P and a
        nonzero integer n = v*P, and 1/self = den*P/n.  A rational v (every
        v when the degree is 1) takes P = 1.

        When 4 | N, s = v with its odd coordinates negated is sigma(v) for
        sigma: z -> -z = z^(1+N/2).  The polynomial v(X)v(-X) is even, E(X^2),
        and Phi_N(X) = Phi_(N/2)(X^2), so it reduces modulo Phi_N to R(X^2)
        with R = E mod Phi_(N/2): v*s has zero odd coordinates, and its even
        ones are R in Q(zeta_(N/2)), basis z^(2i) = zeta_(N/2)^i.  The field
        of order N/2 gives R*P' = n, and P = s*P'(z^2).  For N = 2^k that is
        two products per halving and no conjugation.

        Otherwise P is the product of the Galois conjugates sigma_k(v),
        z -> z^k for k != 1 in (Z/N)^*, and n = v*P is the norm.  P is
        built over the chain (g_i, m_i) of _unit_chain.  With Q the
        product of sigma_h(v) over h in H_(i-1), the factor g_i contributes
        T = prod_(1 <= a < m_i) sigma_(g_i^a)(Q) = sigma_(g_i)(Q_(m_i - 1)),
        where Q_a = prod_(e < a) sigma_(g_i^e)(Q) follows the doubling chain
        Q_2a = Q_a * sigma_(g_i^a)(Q_a) and Q_(a+1) = Q * sigma_(g_i)(Q_a):
        O(log m_i) products.  Then P <- P*T and Q <- Q*T.  The norm is the
        constant coordinate of v*P, the only one that does not vanish.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        prod, norm = self.field._adjugate(self.num)
        return self.field._normalized([self.den * c for c in prod], norm)

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
        if type(e) is not int:
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return self.field.one()
        return _power(self, e, mul)

    def multiplicative_order(self, limit: int | None = None) -> int | None:
        """Least k in 1..limit with self^k = 1, else None.

        The default limit lcm(2, N) covers every root of unity the field
        contains, so None then means "not a root of unity".
        """
        if limit is None:
            limit = math.lcm(2, self.field.order)
        elif type(limit) is not int:
            raise TypeError(f"order limit must be an int, got {limit!r}")
        if limit < 1:
            raise ValueError(f"order limit must be >= 1, got {limit!r}")
        p, one = self, self.field.one()
        for k in range(1, limit + 1):
            if p == one:
                return k
            p = p * self
        return None

    # -- order / equality ------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            if not _is_rational(other):
                return NotImplemented
            other = self.field.from_rational(other)
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
        # that value's hash.
        if not self.is_rational():
            return hash((self.field.order, self.num, self.den))
        n, den, M = self.num[0], self.den, _HASH.modulus
        if den == 1:
            return hash(n)
        # Fraction's rule on the coprime pair: |n|/den mod M, signed, -1 -> -2
        h = hash(hash(abs(n)) * pow(den, -1, M)) if den % M else _HASH.inf
        return h if n >= 0 else (-2 if h == 1 else -h)

    def __bool__(self):
        return not self.is_zero()

    # -- numeric --------------------------------------------------------------
    def sqrt(self) -> "FieldElement | None":
        """The square root of self in Q(zeta_N), or None, which proves that self
        is not a square.  Of the two roots +-y the larger in the total order is
        returned.

        Write self = v/c with v an integer vector and put B = c*v.  A root is
        y = Y/c with Y^2 = B, so Y is an algebraic integer: it lies in
        Z[zeta_N], the ring of integers, and has integer coordinates.
        Lagrange interpolation at the conjugates, where |sigma_k(Y)| =
        sqrt|sigma_k(B)| <= sqrt(L1(B)), bounds them:
        |Y_j| <= d * L1(Phi_N) * L1(1/Phi_N'(zeta)) * sqrt(L1(B)).

        Work in F_p[zeta], a product of g copies of F_q with primitive
        idempotents e_i, for an odd prime p of maximal order modulo N
        (_SqrtPrime).  _adjugate gives an integer vector P with B*P = n, a
        nonzero integer.  When p does not divide n, a = P/n mod p satisfies
        B*a = 1 in the ring, so B is a unit and a = 1/B; only the finitely
        many p dividing n are skipped.

        Tonelli-Shanks runs on a in the ring, with q - 1 = 2^s t, t odd:
        x = a^((t+1)/2) and b = a^t = x^2 B keep x^2 = a*b.  Its first step
        is Euler's test.  b^(2^(s-1)) = a^((q-1)/2) is +1 in the copies where
        a is a square and -1 in the others, so it is 1 in the ring exactly
        when a is a square in every copy.  Otherwise B has no square root
        modulo p, so none in Z[zeta_N], and the answer is None.  Each later
        step takes the least j with b^(2^j) = 1.  Then f = (1 - b^(2^(j-1)))/2
        is the idempotent of the copies where b has order 2^j, and the usual
        correction w = c^(2^(m-j-1)), from c = sylow and m = s at the start,
        acts on those copies only, through r = 1 - f + f*w: x <- x*r,
        b <- b*r^2, c <- w^2, m <- j.  The order of b drops in every copy, so
        the loop ends at b = 1 and x^2 = a.

        If Y^2 = B, then (1/Y)^2 = a modulo p, whose roots in each copy are
        +-x, so 1/Y = x*S for S = sum(s_i e_i), s_i = +-1; fixing s_1 = 1
        picks 1/Y or -1/Y.  Newton's step z <- z(3 - B z^2)/2 lifts x alone to
        z mod p^k, p^k above twice the bound, and the same loop lifts e_i,
        i > 1, to E_i by e <- 3e^2 - 2e^3.  Lifts are unique, p odd and B a
        unit, so with E_1 = 1 - E_2 - ... - E_g the E_i are orthogonal
        idempotents, S' = sum(s_i E_i) has S'^2 = 1, and z*S' lifts x*S:
        Y = R - 2 sum(R E_i) for R = B z, over the i with s_i = -1.  Each Y,
        in symmetric residues, is built a coordinate at a time, dropped at the
        first beyond the bound, and accepted if Y*Y == B.  A root of B is, up
        to sign, one of these, so when none is accepted B is not a square.
        """
        if self.is_zero():
            return self
        fld = self.field
        B = [self.den * v for v in self.num]
        P, n = fld._adjugate(B)
        index = 0
        while n % _sqrt_prime(fld, index).p == 0:
            index += 1
        sp = _sqrt_prime(fld, index)
        p, mul, half = sp.p, sp.mul, (sp.p + 1) // 2
        one, inverse = [1] + [0] * (fld.degree - 1), pow(n, -1, p)
        a = [c * inverse % p for c in P]
        x = _power(a, (sp.odd_part + 1) // 2, mul)
        b, c, m = mul(mul(x, x), B), sp.sylow, sp.two_adic
        while b != one:
            j, b2 = 0, b
            while b2 != one:
                last, b2, j = b2, mul(b2, b2), j + 1
                if j == m:  # Euler's test: a is a non-square in some copy
                    return None
            f = [(o - v) * half % p for o, v in zip(one, last)]
            w = _power(c, 1 << (m - j - 1), mul)
            r = [(o - e + v) % p for o, e, v in zip(one, f, mul(f, w))]
            x, b, c, m = mul(x, r), mul(b, mul(r, r)), mul(w, w), j

        l1 = sum(map(abs, B))
        root_l1 = math.isqrt(l1)
        root_l1 += root_l1 * root_l1 < l1
        bound = math.ceil(_sqrt_bound(fld) * root_l1)
        k = next(k for k in itertools.count(1) if p ** k > 2 * bound)
        top, product, h = p ** k, fld._product, p ** k // 2
        B_top, z, parts = [v % top for v in B], x, sp.idempotents[1:]
        for _ in range((k - 1).bit_length()):  # each step doubles the precision
            z2 = [v % top for v in product(z, z)]
            t = [-v % top for v in product(B_top, z2)]
            t[0] += 3
            z = [v * (h + 1) % top for v in product(z, t)]  # h + 1 = 1/2
            squares = [[v % top for v in product(e, e)] for e in parts]
            parts = [[(3 * u - 2 * v) % top for u, v in zip(e2, product(e2, e))]
                     for e, e2 in zip(parts, squares)]
        root = [v % top for v in product(B_top, z)]
        columns = list(zip(root, *([v % top for v in product(root, e)] for e in parts)))
        for weights in itertools.product((1,), *[(0, -2)] * len(parts)):
            Y = []
            for column in columns:
                Y.append((sum(w * c for w, c in zip(weights, column)) + h) % top - h)
                if abs(Y[-1]) > bound:
                    break
            else:
                if product(Y, Y) == B:
                    y = fld._normalized(Y, self.den)
                    return max(y, -y)
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
