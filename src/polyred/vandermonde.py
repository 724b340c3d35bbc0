"""Enriched Vandermonde matrices and exact rank.

An instance stacks, for each node a_l, the power row (1, a, ..., a^gamma)
followed by its first s_l formal derivatives in a.  Entries come from the
falling-factorial rule d^s/da^s a^(j-1) = (j-1)(j-2)...(j-s) a^(j-1-s), so no
symbolic differentiation is involved.  With R = sum(s_l + 1) <= gamma + 1 the
rank is always R; a kernel vector of the matrix is exactly a polynomial of
degree <= gamma having each a_l as a root of multiplicity >= s_l + 1.

nullspace is the package's one elimination kernel: exact Gauss-Jordan
elimination in column order, pivoting on the first nonzero entry of each
column.  Exactness means there is no stability concern, and the entries are
ratios of minors whatever the pivot order, so no pivot search is made.

exact_rank first ranks the matrix modulo the field's first split prime p:
reduction modulo a prime over p is a ring map on the elements whose
denominators p does not divide, so a minor that is nonzero mod p is nonzero,
and a mod-p rank equal to min(rows, cols), the most a rank can be, is the
exact rank.  Enriched Vandermonde matrices have full row rank R, so this
almost always decides; otherwise the rank is the column count minus the
dimension of nullspace's kernel.

Both take the field from the first field element of the matrix and coerce
rational entries into it; a matrix without a field element, an empty one,
ragged rows and mixed fields are rejected with ValueError (FieldMismatchError
for mixed fields).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .field import CyclotomicField, FieldElement
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
    if type(gamma_plus_1) is not int or gamma_plus_1 < 1:
        raise ValueError(f"column count must be an int >= 1, got {gamma_plus_1!r}")
    svec = tuple(s_vec)
    if not all(type(s) is int and s >= 0 for s in svec):
        raise ValueError(f"derivative counts must be ints >= 0, got {svec!r}")
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


def _field_matrix(rows) -> tuple[list[list[FieldElement]], CyclotomicField]:
    """The rows as lists of elements of one field, and the field: that of the
    first field element, into which rational entries are coerced."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        raise ValueError("empty matrix")
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("matrix rows must have equal length")
    field = next((e.field for r in mat for e in r if isinstance(e, FieldElement)),
                 None)
    if field is None:
        raise ValueError("matrix entries must include a field element")
    return [[_coerce(field, e) for e in r] for r in mat], field


def _rank_mod(mat: list[list[int]], p: int) -> int:
    """Rank of a matrix of residues modulo the prime p; mat is overwritten."""
    m, rank = len(mat), 0
    for col in range(len(mat[0])):
        pi = next((i for i in range(rank, m) if mat[i][col]), None)
        if pi is None:
            continue
        mat[rank], mat[pi] = mat[pi], mat[rank]
        pivot = mat[rank]
        inv = pow(pivot[col], -1, p)
        for i in range(rank + 1, m):
            f = mat[i][col] * inv % p
            if f:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], pivot)]
        rank += 1
        if rank == m:
            break
    return rank


def nullspace(rows) -> tuple[tuple[FieldElement, ...], ...]:
    """A basis of the kernel {x : rows x = 0} of a nonempty matrix of field
    elements, one vector per free column, in column order.

    Column-order Gauss-Jordan: each column pivots on its first nonzero entry
    below the rows already reduced.  No pivot is searched for: at every step
    each entry is a ratio of two minors of the input, whatever the pivot
    order (Bareiss, Math. Comp. 22, 1968), so every order keeps coefficients
    bounded by the input's minors.  A least-bit-size search measured 7-15 %
    slower on enriched Vandermonde matrices, the kernel's use here,
    though it can win on dense matrices with large denominators.  The basis
    is the one read off the reduced row echelon form, with a 1 at its free
    column; it equals sympy's Matrix.nullspace() vector for vector.
    """
    mat, field = _field_matrix(rows)
    m, ncols = len(mat), len(mat[0])
    pivots = []  # pivots[i] = the column of row i's leading one
    for col in range(ncols):
        rank = len(pivots)
        pi = next((i for i in range(rank, m) if not mat[i][col].is_zero()), None)
        if pi is None:
            continue
        mat[rank], mat[pi] = mat[pi], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [e * inv for e in mat[rank]]
        for i in range(m):
            f = mat[i][col]
            if i != rank and not f.is_zero():
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
    zero, one = field.zero(), field.one()
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [zero] * ncols
        for i, col in enumerate(pivots):
            vec[col] = -mat[i][free]
        vec[free] = one
        basis.append(tuple(vec))
    return tuple(basis)


def exact_rank(rows) -> int:
    """Rank of a matrix of field elements.

    The entries are reduced modulo the field's first split prime p.  When p
    divides no denominator and the rank mod p is min(rows, cols), that is
    the rank: reduction cannot raise a rank, and no rank exceeds
    min(rows, cols).  Otherwise the rank is the column count minus the
    dimension of the exact kernel.

    The rows are not scaled by the lcm of their denominators first.  A row
    scaled by c stays c times its unscaled self under elimination until it
    becomes a pivot row, where normalizing the pivot removes c, so the
    reduced form is the same, and the scaling only cost time."""
    mat, field = _field_matrix(rows)
    full = min(len(mat), len(mat[0]))
    prime = field.split_prime(0)
    residues = [[prime.residue(e) for e in row] for row in mat]
    if (all(None not in row for row in residues)
            and _rank_mod(residues, prime.p) == full):
        return full
    return len(mat[0]) - len(nullspace(mat))
