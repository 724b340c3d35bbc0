"""Enriched Vandermonde matrices and exact rank.

An instance stacks, for each node a_l, the power row (1, a, ..., a^gamma)
followed by its first s_l formal derivatives in a.  Entries come from the
falling-factorial rule d^s/da^s a^(j-1) = (j-1)(j-2)...(j-s) a^(j-1-s), so no
symbolic differentiation is involved.  With R = sum(s_l + 1) <= gamma + 1 the
rank is always R; a kernel vector of the matrix is exactly a polynomial of
degree <= gamma having each a_l as a root of multiplicity >= s_l + 1.

nullspace is the package's one elimination kernel: exact Gauss-Jordan
elimination with full pivoting on the entry of least bit size (exactness
means there is no stability concern; the pivot choice only limits
coefficient growth).  exact_rank is the column count minus its dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .field import FieldElement
from .poly import _coerce


@dataclass(frozen=True)
class EnrichedVandermonde:
    """R x (gamma+1) matrix of derivative rows at the nodes a_vec."""

    gamma_plus_1: int
    s_vec: tuple[int, ...]
    a_vec: tuple[FieldElement, ...]
    rows: tuple[tuple[FieldElement, ...], ...]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def to_json_obj(self) -> dict:
        return {
            "gamma_plus_1": self.gamma_plus_1,
            "s_vec": list(self.s_vec),
            "a_vec": [a.encode() for a in self.a_vec],
            "rows": [[e.encode() for e in row] for row in self.rows],
        }


def build_enriched(gamma_plus_1: int, s_vec, a_vec) -> EnrichedVandermonde:
    """Power rows plus s_l derivative rows per node; requires R <= gamma+1."""
    if gamma_plus_1 < 1:
        raise ValueError("need at least one column")
    svec = tuple(s_vec)
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in svec):
        raise ValueError("derivative counts must be integers")
    if any(s < 0 for s in svec):
        raise ValueError("derivative counts must be nonnegative")
    if len(svec) != len(a_vec):
        raise ValueError("s_vec and a_vec must have equal length")
    if not a_vec:
        raise ValueError("need at least one node")
    field = a_vec[0].field if isinstance(a_vec[0], FieldElement) else None
    if field is None:
        raise ValueError("nodes must be field elements")
    nodes = tuple(_coerce(field, a) for a in a_vec)
    if len(set(nodes)) != len(nodes):
        raise ValueError("nodes must be pairwise distinct")
    R = sum(svec) + len(svec)
    if R > gamma_plus_1:
        raise ValueError(f"row overflow: R = {R} exceeds {gamma_plus_1} columns")
    rows = []
    for s_l, a in zip(svec, nodes):
        powers = [field.one()]
        for _ in range(gamma_plus_1 - 1):
            powers.append(powers[-1] * a)
        for s in range(s_l + 1):
            row = []
            for j in range(1, gamma_plus_1 + 1):
                fall = math.perm(j - 1, s)
                row.append(fall * powers[j - 1 - s] if fall else field.zero())
            rows.append(tuple(row))
    return EnrichedVandermonde(gamma_plus_1, svec, nodes, tuple(rows))


def nullspace(rows) -> tuple[tuple[FieldElement, ...], ...]:
    """A basis of the kernel {x : rows x = 0} of a nonempty matrix of field
    elements, one vector per free column."""
    m = len(rows)
    if m == 0:
        raise ValueError("empty matrix")
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("matrix rows must have equal length")
    col_of = list(range(ncols))  # col_of[j] = original index of current column j
    rank = 0
    while rank < min(m, ncols):
        best = None
        for i in range(rank, m):
            for j in range(rank, ncols):
                e = mat[i][j]
                if not e.is_zero():
                    size = sum(v.bit_length() for v in e.num) + e.den.bit_length()
                    if best is None or size < best[0]:
                        best = (size, i, j)
        if best is None:
            break
        _, pi, pj = best
        mat[rank], mat[pi] = mat[pi], mat[rank]
        if pj != rank:
            for row in mat:
                row[rank], row[pj] = row[pj], row[rank]
            col_of[rank], col_of[pj] = col_of[pj], col_of[rank]
        inv = mat[rank][rank].inverse()
        mat[rank] = [e * inv for e in mat[rank]]
        for i in range(m):
            if i != rank and not mat[i][rank].is_zero():
                f = mat[i][rank]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    if rank == ncols:
        return ()
    field = mat[0][0].field
    zero, one = field.zero(), field.one()
    basis = []
    for free in range(rank, ncols):
        vec = [zero] * ncols
        for i in range(rank):
            vec[col_of[i]] = -mat[i][free]
        vec[col_of[free]] = one
        basis.append(tuple(vec))
    return tuple(basis)


def exact_rank(rows) -> int:
    """Rank of a matrix of field elements by exact elimination.

    Each row is first scaled by the lcm of its coordinate denominators (a
    nonzero scaling keeps the rank and limits bignum growth)."""
    scaled = []
    for row in rows:
        lcm = math.lcm(*(e.den for e in row))
        scaled.append([e * lcm for e in row])
    return len(scaled[0]) - len(nullspace(scaled)) if scaled else 0
