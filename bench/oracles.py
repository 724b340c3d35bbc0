"""Answer checks that do not go through the package's own arithmetic.

Three kinds of oracle are used:

* a numeric one: the principal complex embedding, computed here from the raw
  integer coordinates, decides equal-cardinality equivalence and stabilizer
  orders by testing every candidate affine map on floating-point values;
* exact rational ones: ``reduction_oracle_q`` and ``successor_oracle`` from
  ``tests/helpers.py`` (imported read-only, on rational inputs only), and a
  Fraction verifier for a single rational witness;
* facts known by construction, which the workload generators record next to
  each input.

Input generators keep every set well separated numerically (see
``MIN_GAP``), so the numeric tolerance below cannot merge two elements.
"""
from __future__ import annotations

import cmath
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

MIN_GAP = 1e-3   # least distance between two elements of a generated set
_REL_TOL = 1e-7  # numeric match tolerance, relative to the set's scale


def embed(el) -> complex:
    """Principal embedding zeta -> exp(2*pi*i/N), from the raw coordinates."""
    n = el.field.order
    acc = 0j
    for k, c in enumerate(el.num):
        if c:
            acc += c * cmath.exp(2j * math.pi * k / n)
    return acc / el.den


def embed_all(elems) -> list[complex]:
    return [embed(e) for e in elems]


def min_gap(values) -> float:
    return min((abs(a - b) for i, a in enumerate(values) for b in values[:i]),
               default=math.inf)


def affine_map_count(A, B) -> int:
    """Number of maps x -> c*x + c' taking A onto B (equal sizes, n >= 2)."""
    a = embed_all(A)
    b = embed_all(B)
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("affine_map_count needs equal sizes >= 2")
    tol = _REL_TOL * (1.0 + max(abs(z) for z in b))
    a1, a2 = a[0], a[1]
    count = 0
    for i, bi in enumerate(b):
        for j, bj in enumerate(b):
            if i == j:
                continue
            slope = (bj - bi) / (a2 - a1)
            icpt = bi - slope * a1
            if all(any(abs(slope * x + icpt - y) <= tol for y in b) for x in a):
                count += 1
    return count


def class_key(inv_obj: dict) -> str:
    """The byte-stable class key, rebuilt from an invariant's JSON object."""
    return json.dumps(inv_obj, sort_keys=True, separators=(",", ":"))


def rational_values(S) -> list[Fraction]:
    """Values of a set whose elements are all rational, read from raw coordinates."""
    out = []
    for e in S:
        if any(e.num[1:]):
            raise ValueError("set is not rational")
        out.append(Fraction(e.num[0], e.den))
    return out


def decode_rational(enc: list[str]) -> Fraction:
    """A rational value from a coordinate encoding; raises if it is not rational."""
    if any(Fraction(s) != 0 for s in enc[1:]):
        raise ValueError(f"not rational: {enc}")
    return Fraction(enc[0])


def witness_is_exact_q(coeffs: list[Fraction], A_vals, B_vals) -> bool:
    """Whether P, given by rational coefficients, satisfies A = P^-1(B).

    P(A) must equal B, and in every fiber the root multiplicities of P - b at
    the preimages in A must add up to deg P (derivative criterion).
    """
    def ev(cs, x):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    gamma = len(coeffs) - 1
    if gamma < 1:
        return False
    fibers: dict = {}
    for a in A_vals:
        v = ev(coeffs, a)
        if v not in B_vals:
            return False
        fibers.setdefault(v, []).append(a)
    if set(fibers) != set(B_vals):
        return False
    for b, pre in fibers.items():
        total = 0
        for a in pre:
            cs = list(coeffs)
            cs[0] -= b
            e = 0
            while cs and ev(cs, a) == 0:
                e += 1
                cs = [k * c for k, c in enumerate(cs)][1:]
            total += e
        if total != gamma:
            return False
    return True


def _helpers():
    tests_dir = str(Path(__file__).resolve().parents[1] / "tests")
    if tests_dir not in sys.path:
        sys.path.append(tests_dir)
    import helpers
    return helpers


def reduction_oracle_q(A_vals, B_vals) -> set:
    return _helpers().reduction_oracle_q(A_vals, B_vals)


def successor_oracle(A) -> set:
    return _helpers().successor_oracle(A)
