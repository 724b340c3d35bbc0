"""Reducibility across cardinalities.

A polynomial P witnesses A <= B when A = P^{-1}(B) exactly.  The certificate
used everywhere is factorization-free: P(A) = B as sets and, for every target
b, the root multiplicities of P - b at its preimages in A sum to deg P.  The
multiplicity sum equals the degree iff P - b has no roots outside A, so the
certificate is equivalent to exact preimage.  _fiber_certificate counts the
multiplicities by synthetic division, and every witness it is given is built
as b + c*prod(X - a)^e by Poly.from_roots.

find_reductions enumerates assignments of A's elements to B's elements fiber
by fiber, as an incremental Newton interpolation modulo a split prime
p = 1 (mod N), zeta -> w (field.split_prime), that is good for (A, B).  Only
the leaves that pass every test mod p build an exact P, from the roots of
one fiber, and certify it.  _search_degree proves that no witness is lost
and that P is the leaf's interpolant whenever either is a witness.  Equal
cardinalities are the window {1}: linear_maps_between, equivalent,
stabilizer and chi read the linear maps of A onto B off find_reductions.
Onto a 2-set {b0, b1} the mirror X -> b0 + b1 - X halves the tree.

successors walks the root data of a prospective witness (a support in A
with multiplicities) depth-first up to degree (m-1)/2, which forces n >= 3.
Two tests modulo a split prime good for A read one grouping of the points
by image residue; the survivors form exact images in (gamma, |I|, I, e)
order, and only a candidate of a new class is certified.  The 2-sets need
gamma >= m/2: there a witness search onto {0, 1} certifies the witness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import mul

from .classes import ClassInvariant, FiniteSubset, canonical_invariant
from .field import FieldElement, _check_same_field, _coerce
from .poly import LinearMap, Poly


@dataclass(frozen=True)
class DegreeWindow:
    """Admissible degrees for a reduction from m elements onto n."""

    m: int
    n: int
    gammas: tuple[int, ...]


def degree_bounds(m: int, n: int) -> DegreeWindow:
    """Integer degrees gamma with m/n <= gamma <= (m-1)/(n-1)."""
    if type(m) is not int or type(n) is not int or not 2 <= n < m:
        raise ValueError(f"degree bounds need ints 2 <= n < m, got m={m!r}, n={n!r}")
    lo = -(-m // n)
    hi = (m - 1) // (n - 1)
    return DegreeWindow(m, n, tuple(range(lo, hi + 1)))


@dataclass(frozen=True)
class Reduction:
    """Verified witness P with source = P^{-1}(target).

    fibers lists, for each target element b in ascending order, the pairs
    (a, e) of preimages with their root multiplicities in P - b; each fiber's
    multiplicities sum to gamma.
    """

    poly: Poly
    source: FiniteSubset
    target: FiniteSubset
    gamma: int
    fibers: tuple

    def to_json_obj(self) -> dict:
        return {
            "degree": self.gamma,
            "coeffs": self.poly.encode(),
            "fibers": [
                {
                    "target": b.encode(),
                    "preimages": [{"a": a.encode(), "multiplicity": e}
                                  for a, e in pre],
                }
                for b, pre in self.fibers
            ],
        }


def _fiber_certificate(P: Poly, A: FiniteSubset, B: FiniteSubset):
    """The fiber data proving A = P^{-1}(B), or None when it fails.

    Multiplicities are counted by synthetic division, as _divide_out does
    mod p: dividing P by X - a leaves P(a) as the remainder, and each further
    division of the quotient with remainder 0 adds one to the multiplicity
    of a in P - P(a).
    """
    groups = {}
    for a in A.elems:
        q, e = P.coeffs[::-1], 0  # descending
        while True:
            quot = [q[0]]
            for c in q[1:]:
                quot.append(quot[-1] * a + c)
            rem = quot.pop()
            if not e:
                if rem not in B:
                    return None
                v = rem
            elif not rem.is_zero():
                break
            q, e = quot, e + 1
        groups.setdefault(v, []).append((a, e))
    if len(groups) != len(B):
        return None
    fibers = tuple((b, tuple(groups[b])) for b in B.elems)
    if any(sum(e for _, e in pre) != P.degree for _, pre in fibers):
        return None
    return fibers


def check_exact_preimage(P, A: FiniteSubset, B: FiniteSubset) -> bool:
    """Whether P(A) = B with full multiplicity in every fiber (so A = P^{-1}(B))."""
    if isinstance(P, LinearMap):
        P = P.to_poly()
    _check_same_field(P, A)
    _check_same_field(P, B)
    if P.is_zero() or P.degree < 1:
        raise ValueError("constant polynomial cannot witness a reduction")
    return _fiber_certificate(P, A, B) is not None


def _split_residues(A: FiniteSubset, B: FiniteSubset):
    """(p, residues of A, residues of B) at the first split prime of the field
    that is good for (A, B): every denominator is prime to p, and the
    residues of A, and those of B, are pairwise distinct."""
    field = A.field
    index = 0
    while True:
        sp = field.split_prime(index)
        xr = [sp.residue(a) for a in A.elems]
        br = [sp.residue(b) for b in B.elems]
        if (None not in xr and None not in br
                and len(set(xr)) == len(xr) and len(set(br)) == len(br)):
            return sp.p, xr, br
        index += 1


def _divide_out(q: list, a: int, p: int) -> list:
    """q over F_p (ascending, nonzero) with every factor X - a divided out."""
    while len(q) > 1:
        acc, quot = 0, []
        for c in reversed(q):  # synthetic division: Horner's partial values
            acc = (acc * a + c) % p
            quot.append(acc)
        if acc:
            break
        quot.pop()
        q = quot[::-1]
    return q


def _fibers_full_mod_p(poly: list, fibers, p: int):
    """For every (w, points) in fibers, the multiplicities of the points in
    poly - w, counted by dividing out X - a as often as it goes; None unless
    each fiber's multiplicities sum to deg poly.  poly is ascending over F_p
    with a nonzero lead, and the points are pairwise distinct mod p."""
    out = []
    for w, points in fibers:
        q = poly[:]
        q[0] = (q[0] - w) % p
        mults = []
        for a in points:
            size = len(q)
            q = _divide_out(q, a, p)
            mults.append(size - len(q))
        if len(q) > 1:
            return None
        out.append(mults)
    return out


def _search_degree(A: FiniteSubset, B: FiniteSubset, gamma: int,
                   first_only: bool, residues) -> list:
    """Every degree-gamma reduction from A onto B, in tree order, as a list.

    rec assigns targets to the first gamma+1 elements of A, at most gamma to
    each target, carrying divided differences modulo the good split prime p
    of residues = (p, A mod p, B mod p); the other values are forced.  A leaf
    is rejected when, mod p, the leading coefficient vanishes, a forced value
    is not a residue of B, or some fiber's multiplicities (counted by
    synthetic division of P - b) do not sum to gamma.  Each survivor builds
    one exact P = b0 + c*prod(X - a)^e from the fiber of x_0's target b0,
    with the multiplicities e the leaf counted mod p and
    c = (b_t - b0)/prod(x_t - a)^e, x_t the first point outside that fiber
    and b_t its target; _fiber_certificate then accepts or rejects P.  The
    inverse of prod(x_t - a)^e is computed once per (t, fiber, e).

    The degree window m/n <= gamma <= (m-1)/(n-1) decides three checks, so
    they are not run.  No forced value overfills a fiber: with the lead
    nonzero mod p, P - b has at most gamma roots among A's distinct residues.
    Every leaf is onto: an empty fiber would need m <= (n-1)gamma <= m-1.
    No prefix leaves too few elements to reach every target: that needs
    more than m-n repeated targets, but a prefix (gamma+1 values, at most
    gamma per target) repeats at most gamma-1, and gamma-1 <= (gamma-1)(n-1)
    <= m-n.  A free prefix of gamma+1 values holds two targets, so x_t exists.

    This loses no witness.  For a witness P and b in B, P - b = c*prod(X - a)^e
    over the fiber of b, and c = (b' - b)/prod(a' - a)^e for a' in another
    fiber.  At a good p all these differences are p-units, so P is p-integral,
    its Newton coefficients reduce to the ones computed here, and P - b
    reduces to c*prod(X - a)^e with c nonzero and the a pairwise distinct:
    the reduction passes every test with the same fibers and multiplicities.
    find_reductions passes the first good prime (_split_residues): a bad one
    is skipped, never searched.

    The built P is the leaf's Newton interpolant N whenever either is a
    witness.  The leaf polynomial L mod p is b0 + lead*prod(X - a)^e, and P
    reduces to b0 + c*prod(X - a)^e with prod(x_t - a)^e a p-unit; both take
    b_t at x_t, so c = lead mod p and P reduces to L.  If P certifies, each
    P(x_i) is the target whose residue L(x_i) is, so P has the leaf's
    assignment; of degree gamma through gamma+1 assigned points, P = N.  If N
    is a witness, the argument above gives it, at x_0's fiber, exactly the
    multiplicities e counted mod p, so N - b0 = c'*prod(X - a)^e, and
    evaluating at x_t gives c' = c: N = P.  So the outputs, and the
    certificates run, are those of certifying N at every surviving leaf.

    Onto B = {b0, b1}, x_0 tries b0 only; without first_only each certified
    P is followed by its mirror b0 + b1 - P, fibers swapped.  X -> b0 + b1 - X
    swaps b0 and b1, so the mirror is a witness with P's fiber over b1 as its
    fiber over b0 (no certificate needed), and every witness sending x_0 to b1
    is the mirror of one found.  Under first_only the witness is the full
    tree's first, which sends x_0 to b0 whenever any witness exists.
    """
    field = A.field
    xs, targets = A.elems, B.elems
    m, nb = len(xs), len(targets)
    p, xr, br = residues
    k = gamma + 1  # free prefix; the remaining m - k values are forced
    invd = [[pow(xr[i] - xr[j], -1, p) for j in range(i)] for i in range(k)]
    # diffs[i - k][t] = x_i - x_t, for Newton evaluation at a forced element
    diffs = [[(xr[i] - xr[t]) % p for t in range(k - 1)] for i in range(k, m)]
    index = {b: j for j, b in enumerate(br)}
    counts = [0] * nb
    path = []  # target index of each free element
    inverses = {}  # 1/prod(x_t - a)^e by (t, fiber indices, multiplicities)
    out = []

    def rec(depth: int, dd: list, coeffs: list) -> None:
        if first_only and out:
            return
        if depth == k:
            lead = coeffs[-1]
            if not lead:
                return  # degree below gamma mod p; a witness's lead is a p-unit
            assign = path[:]
            for d in diffs:
                v = lead
                for t in range(k - 2, -1, -1):
                    v = (v * d[t] + coeffs[t]) % p
                j = index.get(v)
                if j is None:
                    return  # a forced value off B
                assign.append(j)
            poly = [lead]  # the Newton form expanded, descending
            for t in range(k - 2, -1, -1):
                xt = xr[t]
                nxt = poly + [coeffs[t]]
                for i in range(1, len(nxt)):
                    nxt[i] = (nxt[i] - xt * poly[i - 1]) % p
                poly = nxt
            poly.reverse()
            groups = [[] for _ in range(nb)]
            for i, j in enumerate(assign):
                groups[j].append(xr[i])
            mults = _fibers_full_mod_p(poly, zip(br, groups), p)
            if mults is None:
                return
            j0 = assign[0]
            fiber = [i for i, j in enumerate(assign) if j == j0]
            roots = [(xs[i], e) for i, e in zip(fiber, mults[j0])]
            t = next(i for i, j in enumerate(assign) if j != j0)
            key = (t, tuple(fiber), tuple(mults[j0]))
            if key not in inverses:
                inverses[key] = reduce(mul, [(xs[t] - a) ** e for a, e in roots]).inverse()
            b0 = targets[j0]
            c = (targets[assign[t]] - b0) * inverses[key]
            P = Poly.from_roots(field, roots) * c + Poly(field, [b0])
            fibers = _fiber_certificate(P, A, B)
            if fibers is not None:
                out.append(Reduction(P, A, B, gamma, fibers))
                if nb == 2 and not first_only:  # the mirror b0 + b1 - P
                    (b0, pre0), (b1, pre1) = fibers
                    out.append(Reduction(Poly(field, [b0 + b1]) - P, A, B, gamma,
                                         ((b0, pre1), (b1, pre0))))
            return
        row = invd[depth]
        for j, v in enumerate(br if depth or nb != 2 else br[:1]):
            if counts[j] >= gamma:
                continue  # a fiber of more than gamma elements
            ndd = [v]
            for t in range(depth):
                ndd.append((ndd[t] - dd[t]) * row[depth - 1 - t] % p)
            counts[j] += 1
            path.append(j)
            coeffs.append(ndd[-1])
            rec(depth + 1, ndd, coeffs)
            coeffs.pop()
            path.pop()
            counts[j] -= 1

    rec(0, [], [])
    return out


def find_reductions(A: FiniteSubset, B: FiniteSubset,
                    first_only: bool = False) -> list:
    """All reductions from A onto B, sorted by (degree, coefficients).

    Degrees run over the admissible window; with equal cardinalities only
    degree 1 is possible, so the window collapses to {1}.  first_only stops
    at the first verified witness (existence queries)."""
    _check_same_field(A.elems[0], B.elems[0])
    m, n = len(A), len(B)
    if n < 2 or m < n:
        raise ValueError("reduction search needs 2 <= |B| <= |A|")
    gammas = (1,) if m == n else degree_bounds(m, n).gammas
    out: list[Reduction] = []
    residues = _split_residues(A, B) if gammas else None
    for gamma in gammas:
        out += _search_degree(A, B, gamma, first_only, residues)
        if first_only and out:
            break
    out.sort(key=lambda r: (r.gamma, r.poly.coeffs))
    return out


def singleton_reduction(A: FiniteSubset, b) -> Reduction:
    """The product witness prod(X - a) + b mapping all of A onto {b}."""
    field = A.field
    b = _coerce(field, b)
    P = Poly.from_roots(field, [(a, 1) for a in A.elems]) + Poly(field, [b])
    target = FiniteSubset(field, [b])
    fibers = _fiber_certificate(P, A, target)
    if fibers is None:
        raise ArithmeticError("product witness failed exact verification")
    return Reduction(P, A, target, len(A), fibers)


def reduces(A: FiniteSubset, B: FiniteSubset) -> bool:
    """Decide A <= B across all cardinality cases."""
    _check_same_field(A.elems[0], B.elems[0])
    m, n = len(A), len(B)
    if m < n:
        return False
    if n == 1:
        return True
    return bool(find_reductions(A, B, first_only=True))


def linear_maps_between(A: FiniteSubset, B: FiniteSubset) -> list[LinearMap]:
    """All degree-1 maps with P(A) = B, sorted by (slope, intercept): the
    reductions from A onto B.  For n = 1 the family is a one-parameter one;
    the single translation X + (b - a) is returned as its representative."""
    _check_same_field(A.elems[0], B.elems[0])
    if len(B) != len(A):
        raise ValueError("cardinality mismatch")
    if len(A) == 1:
        return [LinearMap(A.field.one(), B[0] - A[0])]
    maps = [LinearMap(r.poly.coeffs[1], r.poly.coeffs[0])
            for r in find_reductions(A, B)]
    maps.sort(key=lambda f: (f.slope, f.intercept))
    return maps


def equivalent(A: FiniteSubset, B: FiniteSubset) -> bool:
    """Whether some degree-1 polynomial maps A onto B."""
    _check_same_field(A.elems[0], B.elems[0])
    if len(A) != len(B):
        return False
    return len(A) <= 2 or bool(find_reductions(A, B, first_only=True))


@dataclass(frozen=True)
class Stabilizer:
    """The group of degree-1 maps fixing a set, with their slopes (y_values)."""

    maps: tuple[LinearMap, ...]
    order: int
    y_values: tuple[FieldElement, ...]


def stabilizer(B: FiniteSubset) -> Stabilizer:
    """All degree-1 P with P(B) = B (the identity alone for a singleton);
    cyclic, order dividing n or n-1."""
    maps = tuple(linear_maps_between(B, B))
    return Stabilizer(maps, len(maps), tuple(f.slope for f in maps))


def chi(B: FiniteSubset) -> int:
    """Number of characteristic planes, n!/|G_B|."""
    n = len(B)
    if n < 3:
        raise ValueError("chi needs at least 3 elements")
    return math.factorial(n) // stabilizer(B).order


@dataclass(frozen=True)
class SuccessorClass:
    """One class reachable from A; trivial entries ([A] itself and the
    singleton class) carry no witness."""

    invariant: ClassInvariant
    witness: Reduction | None
    trivial: bool


def _root_order(gamma: int, roots) -> tuple:
    """The witness order (gamma, |I|, I, e) of root data [(a, e), ...], I
    ascending; A is sorted, so its indices and its elements order I alike."""
    return gamma, len(roots), [a for a, _ in roots], [e for _, e in roots]


def successors(A: FiniteSubset, max_degree: int | None = None) -> list:
    """The complete finite set of classes reachable from A.

    Candidates are the root data of a prospective witness: a support I of A
    with positive multiplicities e_i summing to gamma, normalized so the
    least element j outside I maps to 1 (other normalizations rescale the
    image linearly and cannot add classes).  The image of each x_t outside
    I is prod (x_t - x_i)^e_i, so a candidate needs no polynomial to be
    tested.  walk visits every (I, e) through gamma = (m-1)/2 (or
    max_degree) depth-first and carries, from parent to child, the image
    residues and base = prod (X - x_i)^e_i modulo a split prime q: a node
    costs one multiplication per point and one step of base by X - x_i.
    The nodes of gamma >= 2 that pass the window and fiber tests mod q meet,
    in (gamma, |I|, I, e) order, their exact images, the dedup by canonical
    invariant of W = {0} U images, and the exact preimage certificate.  So
    only a candidate of a new class is certified, and each class's witness
    is its certified candidate of least (gamma, |I|, I, e).  [A] and the
    singleton class are appended as trivial entries.

    Both tests run modulo the first split prime q that is good for A
    (_split_residues): every denominator is prime to q and A's residues are
    pairwise distinct.  The residue map zeta -> w is a ring homomorphism on
    the elements whose denominators are prime to q, so an image's residue
    is the product of its factors' residues, a nonzero function of the
    exact value, and the residues vanish exactly on I.  Both tests read one
    grouping of the points outside I by residue.

    The window gamma(n-1) <= m-1 on W (the excess multiplicities of the n
    fibers are roots of P', so gamma*n - m <= gamma-1; for gamma >= 2 it
    implies n < m) is tested on the groups: there are at most as many
    groups as distinct exact images, so more than (m-1)//gamma groups
    proves a rejection.

    The fiber test: dividing every point of its group out of base - r must
    leave a constant for each residue r (_fibers_full_mod_p, the leaf test
    of _search_degree).  If the certificate passes, then for each image w
    and each x_t in its exact fiber, (X - x_t)^e divides base - w over the
    q-integers, hence mod q; the mod-q group of w mod q contains the exact
    fiber, so its multiplicities sum to at least gamma, and to exactly
    gamma, since the monic base - w has at most gamma roots with
    multiplicity.  Residues that merge or multiplicities that rise mod q
    can only let a candidate through to the certificate, never reject a
    witness.  The certificate decides the rest: the exact window and a
    fiber cap of gamma elements follow from it, so neither is run.

    The window splits the classes between two routes: gamma <= (m-1)/2
    forces n >= 3, and n = 2 needs gamma >= m/2 (images are nonzero).  For
    m > 2, _search_degree onto {0, 1} runs at A's residues mod q for each
    gamma above (m-1)/2 up to the top, until one returns witnesses (each with
    its mirror).  A candidate (I, e) certifies with |W| = 2 exactly when it
    is a fiber of a degree-gamma reduction R onto {0, 1}: its witness c*base
    is such an R with 0-fiber (I, e); an R with 0-fiber (I, e) is c'*base
    with R(x_j) = 1, so c' = c; R's 1-fiber is the 0-fiber of 1 - R.  So the
    certified R with the least 0-fiber in the same order is the class's
    witness, and it is stored as the search built it.
    """
    m = len(A)
    if m < 2:
        raise ValueError("successor enumeration needs at least 2 elements")
    if max_degree is not None and (type(max_degree) is not int or max_degree < 1):
        raise ValueError(f"max_degree must be an int >= 1, got {max_degree!r}")
    out: dict[str, SuccessorClass] = {}
    self_inv = canonical_invariant(A)
    out[self_inv.key()] = SuccessorClass(self_inv, None, True)
    sigma1 = ClassInvariant(1, ())
    out[sigma1.key()] = SuccessorClass(sigma1, None, True)
    field, xs = A.field, A.elems
    top = m - 1 if max_degree is None else min(m - 1, max_degree)
    half = min(top, (m - 1) // 2)  # above it every candidate's W is a 2-set
    q, xr, _ = _split_residues(A, A)
    survivors = []  # (gamma, [(i, e_i), ...]) passing both tests mod q

    def walk(start: int, gamma: int, roots: list, res: list, base_q: list) -> None:
        # res[t] = prod (x_t - x_i)^e_i mod q; base_q = base mod q, ascending
        for i in range(start, m):
            r, b, x = res, base_q, xr[i]
            for e in range(1, half - gamma + 1):
                r = [v * (y - x) % q for v, y in zip(r, xr)]
                b = [(lo - x * hi) % q for lo, hi in zip([0, *b], [*b, 0])]
                node, g = [*roots, (i, e)], gamma + e
                if g >= 2:
                    groups = {}
                    for v, y in zip(r, xr):
                        if v:  # t outside I
                            groups.setdefault(v, []).append(y)
                    if (len(groups) <= (m - 1) // g
                            and _fibers_full_mod_p(b, groups.items(), q) is not None):
                        survivors.append((g, node))
                walk(i + 1, g, node, r, b)

    walk(0, 0, [], [1] * m, [1])
    for gamma, roots in sorted(survivors, key=lambda s: _root_order(*s)):
        support = {i for i, _ in roots}
        # c*base onto c*W, c = 1/base(x_j), unless W's class is in out
        values = [reduce(mul, [(x - xs[i]) ** e for i, e in roots])
                  for t, x in enumerate(xs) if t not in support]
        W = FiniteSubset(field, {field.zero(), *values})
        inv = canonical_invariant(W)
        key = inv.key()
        if key in out:
            continue
        c = values[0].inverse()
        P = Poly.from_roots(field, [(xs[i], e) for i, e in roots]) * c
        B = FiniteSubset(field, [c * w for w in W.elems])
        fibers = _fiber_certificate(P, A, B)
        if fibers is not None:
            out[key] = SuccessorClass(inv, Reduction(P, A, B, gamma, fibers), False)
    if m > 2:  # for m = 2 the 2-set class is [A]
        pair = FiniteSubset(field, [0, 1])
        for gamma in range(half + 1, top + 1):
            found = _search_degree(A, pair, gamma, False, (q, xr, [0, 1]))
            if found:
                two = ClassInvariant(2, ())
                witness = min(found, key=lambda r: _root_order(r.gamma, r.fibers[0][1]))
                out[two.key()] = SuccessorClass(two, witness, False)
                break
    return sorted(out.values(), key=lambda sc: (sc.invariant.n, sc.invariant.key()))


def normalize_to_contain_0_1(A: FiniteSubset):
    """Linear image of A containing 0 and 1, with the witnessing map.

    Identity when {0,1} is already inside; otherwise the two least elements
    go to 0 and 1."""
    if len(A) < 2:
        raise ValueError("normalization needs at least 2 elements")
    field = A.field
    if field.zero() in A and field.one() in A:
        return A, LinearMap.identity(field)
    a1, a2 = A.elems[0], A.elems[1]
    slope = (a2 - a1).inverse()
    f = LinearMap(slope, -a1 * slope)
    return A.map(f), f


def predecessor_2n_minus_1(B: FiniteSubset) -> FiniteSubset:
    """The unique (2n-1)-element class mapping onto [B] quadratically.

    B is first normalized to contain {0,1}; the result {0, +-1, +-sqrt(b)} is
    verified against X^2 before returning.  ``FieldElement.sqrt`` decides
    whether each b is a square, so a ValueError for a missing root proves
    that b is not a square in the working field."""
    n = len(B)
    if n < 2:
        raise ValueError("predecessor construction needs at least 2 elements")
    Bn, _ = normalize_to_contain_0_1(B)
    field = B.field
    elems = [field.zero(), field.one(), -field.one()]
    for b in Bn.elems:
        if b.is_zero() or b.is_one():
            continue
        root = b.sqrt()
        if root is None:
            raise ValueError(
                f"square root of {b} not found in working field: "
                f"it is not a square in Q(zeta_{field.order})")
        elems.extend([root, -root])
    A = FiniteSubset(field, elems)
    if _fiber_certificate(Poly(field, [0, 0, 1]), A, Bn) is None:
        raise ArithmeticError("quadratic preimage failed exact verification")
    return A
