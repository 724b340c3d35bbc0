"""Exceptional sets: detection, gon decomposition, and parametric generation.

A set with a nontrivial stabilizer is a union of s concentric regular r-gons,
possibly together with the common barycenter.  decompose recovers that shape
from a maximal-order stabilizer generator; generate_exceptional produces it
from seed vertices, one per gon, plus the second vertex of the first gon.
"""
from __future__ import annotations

from dataclasses import dataclass

from .classes import FiniteSubset
from .field import CyclotomicField, FieldElement, _coerce
from .poly import LinearMap
from .reduction import stabilizer


@dataclass(frozen=True)
class ExceptionalStructure:
    """Gon decomposition of an exceptional set.

    gons lists each r-cycle in orbit order starting from its least vertex;
    generator is the witnessing stabilizer map, whose slope has
    multiplicative order group_order.
    """

    r: int
    s: int
    barycenter: FieldElement
    gons: tuple[tuple[FieldElement, ...], ...]
    includes_barycenter: bool
    generator: LinearMap
    group_order: int

    def to_json_obj(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "barycenter": self.barycenter.encode(),
            "gons": [[v.encode() for v in gon] for gon in self.gons],
            "includes_barycenter": self.includes_barycenter,
            "group_order": self.group_order,
        }


def is_exceptional(B: FiniteSubset) -> bool:
    """True when the stabilizer is nontrivial (defined for n >= 3)."""
    if len(B) < 3:
        raise ValueError("exceptionality is defined for sets of at least 3 elements")
    return stabilizer(B).order > 1


def decompose(B: FiniteSubset) -> ExceptionalStructure:
    """Gon structure of an exceptional set.

    The stabilizer is cyclic; a generator of maximal order is chosen (ties
    broken by least slope, which makes the output deterministic).  Its
    non-fixed cycles all share the generator's order r, and its unique fixed
    point is the common barycenter c/(1 - slope)."""
    stab = stabilizer(B)
    g = stab.order
    if len(B) < 3 or g == 1:
        raise ValueError("decompose requires an exceptional set")
    generators = [f for f in stab.maps if f.slope.multiplicative_order(g) == g]
    if not generators:
        raise ArithmeticError("stabilizer is not cyclic of its own order")
    tau = min(generators, key=lambda f: f.slope)
    one = B.field.one()
    barycenter = tau.intercept / (one - tau.slope)
    includes = barycenter in B
    visited = set()
    gons = []
    for b in B.elems:
        if b in visited or b == barycenter:
            continue
        cycle = [b]
        x = tau(b)
        while x != b:
            cycle.append(x)
            x = tau(x)
        visited.update(cycle)
        gons.append(tuple(cycle))
    lengths = {len(c) for c in gons}
    if lengths != {g}:
        raise ArithmeticError(f"unequal cycle lengths {lengths} under a generator")
    s = len(gons)
    if s * g + (1 if includes else 0) != len(B):
        raise ArithmeticError("cycles plus barycenter do not cover the set")
    return ExceptionalStructure(r=g, s=s, barycenter=barycenter,
                                gons=tuple(gons), includes_barycenter=includes,
                                generator=tau, group_order=g)


def generate_exceptional(field: CyclotomicField, r: int, s: int,
                         epsilon_exponent: int, base_vertices, second_vertex,
                         include_barycenter: bool = False) -> FiniteSubset:
    """Union of s regular r-gons from seed vertices, one per gon.

    With eps = zeta^epsilon_exponent (required to be a primitive r-th root of
    unity) and c = second_vertex - eps*base_vertices[0], each gon is the orbit
    of its seed under X -> eps*X + c; the shared barycenter c/(1 - eps) is
    appended when requested.  Degenerate parameters that collide two vertices
    are rejected."""
    if r < 2:
        raise ValueError("gon order r must be at least 2")
    if s < 1:
        raise ValueError("need at least one gon")
    eps = field.zeta(epsilon_exponent)
    if eps.multiplicative_order(r) != r:
        raise ValueError(
            f"zeta^{epsilon_exponent} is not a primitive root of unity of order {r}")
    seeds = [_coerce(field, b) for b in base_vertices]
    if len(seeds) != s:
        raise ValueError(f"expected {s} base vertices, got {len(seeds)}")
    c = _coerce(field, second_vertex) - eps * seeds[0]
    elems = []
    for seed in seeds:
        v = seed
        for _ in range(r):
            elems.append(v)
            v = eps * v + c
    if include_barycenter:
        elems.append(c / (field.one() - eps))
    if len(set(elems)) != len(elems):
        raise ValueError("degenerate parameters: generated vertices collide")
    return FiniteSubset(field, elems)


def order2_criterion(B: FiniteSubset, pairing) -> bool:
    """Whether the involution's vertex sums b + tau(b) are all one constant.

    pairing is a list of indices with pairing[pairing[i]] == i, not the
    identity; constancy of the sums is exactly membership of the induced
    permutation in the stabilizer for order-2 candidates."""
    n = len(B)
    p = list(pairing)
    if sorted(p) != list(range(n)) or any(p[p[i]] != i for i in range(n)):
        raise ValueError("pairing must be an involution of the index set")
    if all(p[i] == i for i in range(n)):
        raise ValueError("pairing must move at least one index")
    sums = {B[i] + B[p[i]] for i in range(n)}
    return len(sums) == 1
