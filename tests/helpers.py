"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately avoid the library's search strategies: the
reduction oracle enumerates raw value assignments and interpolates with
Fractions over Q, the successor oracle enumerates set partitions with
multiplicity vectors, the successor candidate oracle runs the candidate
loop at every degree, the linear-map oracle tries the n(n-1) maps that
send the two least source elements to an ordered pair of targets, the
inverse oracle multiplies all phi(N) - 1 Galois conjugates one by one, and
the invariant oracle takes the minimum over every full lambda-tuple, and
the certificate oracle reads multiplicities off derivatives, and the
top-degree pair oracle solves the Vandermonde kernel in closed form, and
the square-root oracle lifts every sign pattern of the root mod p alone.  The
oracles enumerate multiplicity vectors with their own helper, compositions.
Agreement between these and the package routines is what the dual-route
tests assert.
"""
import math
from fractions import Fraction
from itertools import combinations, product as cartesian

from polyred import FiniteSubset, Poly
from polyred.field import _sqrt_bound, _sqrt_prime


def compositions(total: int, parts: int):
    """Tuples of `parts` positive integers summing to `total`, lexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def rand_fraction(rng, span=12, den=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_rational_set(field, rng, n, span=12, den=6):
    vals = set()
    while len(vals) < n:
        vals.add(rand_fraction(rng, span, den))
    return FiniteSubset(field, vals)


def rand_element(field, rng, span=6):
    """Random element with small integer coordinates, nonzero if possible."""
    coords = [Fraction(rng.randint(-span, span)) for _ in range(field.degree)]
    return field.element(coords)


def rand_enriched_shape(field, rng):
    """(cols, s_vec, nodes) of a random enriched Vandermonde instance:
    1 <= cols <= 10, up to four distinct nodes, R = sum(s_l + 1) <= cols."""
    cols = rng.randint(1, 10)
    k = rng.randint(1, min(cols, 4))
    budget = cols - k
    svec = []
    for _ in range(k):
        s = rng.randint(0, min(2, budget))
        svec.append(s)
        budget -= s
    nodes = []
    while len(nodes) < k:
        a = rand_element(field, rng, span=3)
        if a not in nodes:
            nodes.append(a)
    return cols, svec, nodes


def rand_linear_map(field, rng):
    from polyred import LinearMap
    slope = field.zero()
    while slope.is_zero():
        slope = field.from_rational(rand_fraction(rng, 8, 4))
    return LinearMap(slope, field.from_rational(rand_fraction(rng, 8, 4)))


def rand_irrational_map(field, rng):
    """A random affine map whose slope and intercept are not rational."""
    from polyred import LinearMap
    c = c0 = field.zero()
    while c.is_rational():
        c = rand_element(field, rng, span=2)
    while c0.is_rational():
        c0 = rand_element(field, rng, span=2)
    return LinearMap(c, c0)


def set_partitions(items, k):
    """All partitions of items into exactly k nonempty blocks."""
    items = list(items)
    if k == 1:
        yield [list(items)]
        return
    if len(items) == k:
        yield [[x] for x in items]
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest, k - 1):
        yield [[first]] + part
    for part in set_partitions(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def successor_oracle(A):
    """Classes reachable from A, by exhaustive fiber-partition search.

    For every admissible (n, gamma), every partition of A into n blocks of
    size <= gamma and every positive multiplicity vector summing to gamma per
    block, the monic fiber products M_i must differ from M_1 by constants
    w_i; when they do (and the w_i are distinct), the reached class is the
    class of {w_i}.  Returns the set of canonical invariant keys, excluding
    the trivial [A] and singleton entries.
    """
    from polyred import canonical_invariant
    from polyred.reduction import degree_bounds

    field = A.field
    m = len(A)
    keys = set()
    for n in range(2, m):
        window = degree_bounds(m, n).gammas
        for gamma in window:
            for blocks in set_partitions(A.elems, n):
                if any(len(b) > gamma for b in blocks):
                    continue
                mult_choices = [list(compositions(gamma, len(b))) for b in blocks]

                def rec(i, monics):
                    if i == len(blocks):
                        w = []
                        base = monics[0]
                        ok = True
                        for M in monics:
                            D = base - M
                            if D.degree > 0:
                                ok = False
                                break
                            w.append(D.coeffs[0] if not D.is_zero()
                                     else field.zero())
                        if ok and len(set(w)) == len(w):
                            keys.add(canonical_invariant(
                                FiniteSubset(field, w)).key())
                        return
                    for mults in mult_choices[i]:
                        M = Poly.from_roots(field, zip(blocks[i], mults))
                        rec(i + 1, monics + [M])

                rec(0, [])
    return keys


def reduction_oracle_q(A_vals, B_vals):
    """All reducing polynomials from A onto B over Q, degrees 1..m-1.

    Independent of the package: raw value assignments, Lagrange interpolation
    and derivatives done directly with Fractions.  Returns a set of
    coefficient tuples (ascending).  Searches every degree, not just the
    admissible window, so it can certify window emptiness.
    """
    from itertools import product

    A_vals = sorted(Fraction(a) for a in A_vals)
    B_vals = sorted(Fraction(b) for b in B_vals)
    m = len(A_vals)

    def interp(pts):
        # Newton form built with Fractions, expanded to ascending coefficients
        xs = [p[0] for p in pts]
        dd = [p[1] for p in pts]
        for lvl in range(1, len(pts)):
            for i in range(len(pts) - 1, lvl - 1, -1):
                dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - lvl])
        coeffs = [dd[-1]]
        for t in range(len(pts) - 2, -1, -1):
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= xs[t] * coeffs[i + 1]
            coeffs[0] += dd[t]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    def ev(coeffs, a):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * a + c
        return acc

    def deriv(coeffs):
        return [k * c for k, c in enumerate(coeffs)][1:]

    found = set()
    for assign in product(range(len(B_vals)), repeat=m):
        if len(set(assign)) != len(B_vals):
            continue  # not onto
        pts = [(a, B_vals[idx]) for a, idx in zip(A_vals, assign)]
        coeffs = interp(pts)
        gamma = len(coeffs) - 1
        if gamma < 1:
            continue
        counts = {}
        for idx in assign:
            counts[idx] = counts.get(idx, 0) + 1
        if any(c > gamma for c in counts.values()):
            continue
        good = True
        for bidx in set(assign):
            fiber = [a for a, j in zip(A_vals, assign) if j == bidx]
            shifted = coeffs[:]
            shifted[0] -= B_vals[bidx]
            total = 0
            for a in fiber:
                e = 0
                D = shifted
                while ev(D, a) == 0:
                    e += 1
                    D = deriv(D)
                total += e
            if total != gamma:
                good = False
                break
        if good:
            found.add(tuple(coeffs))
    return found


def top_degree_pair_oracle(A):
    """Signed multiplicity vectors of the degree-(m-1) reductions of A onto
    {0, 1}, in closed form, with no search.

    A witness P is c*prod(X - a)^e_a over its 0-fiber I and
    1 + c*prod(X - a)^f_a over its 1-fiber J; the monic products differ by a
    constant, so (Newton's identities) x, with x_a = e_a on I and -f_a on J,
    is an integer point of the kernel of the (m-1) x m Vandermonde matrix
    (a^k), k < m-1, whose positive entries sum to m-1; conversely every such
    point is a witness's.  That kernel is the line x_a = 1/w'(a), w'(a) = prod over
    b != a of (a - b).  So with r_a = w'(a_0)/w'(a) there is no witness
    unless every r_a is rational and, for l = (m-1)/(sum of the positive
    r_a), every l*r_a is an integer; then x = l*r and its mirror -x are the
    two witnesses.  Returns [] or [x, -x], indexed like A.elems.
    """
    xs = A.elems
    dw = []
    for a in xs:
        d = A.field.one()
        for b in xs:
            if b != a:
                d = d * (a - b)
        dw.append(d)
    r = [dw[0] / d for d in dw]
    if not all(v.is_rational() for v in r):
        return []
    r = [v.as_fraction() for v in r]
    scale = Fraction(len(xs) - 1) / sum(v for v in r if v > 0)
    x = [scale * v for v in r]
    if any(v.denominator != 1 for v in x):
        return []
    return [tuple(int(v) for v in x), tuple(-int(v) for v in x)]

def linear_maps_oracle(A, B):
    """All degree-1 maps with P(A) = B for |A| = |B| >= 2, sorted by
    (slope, intercept).

    A linear map is determined by its values at two points, so anchoring on
    the two least elements of A makes the n(n-1) candidates exhaustive; each
    is kept when it sends A into B (injective with |A| = |B|, so onto B).
    """
    from polyred import LinearMap

    n = len(A)
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
                out.append(f)
    out.sort(key=lambda f: (f.slope, f.intercept))
    return out


def inverse_oracle(x):
    """1/x as the product P of the conjugates sigma_k(x), k != 1 in
    (Z/N)^*, divided by the rational norm x*P; each sigma_k(x) is summed
    from the powers zeta^(jk), and no FieldElement.inverse is called."""
    field = x.field
    N = field.order
    if x.is_zero():
        raise ZeroDivisionError("inverse of zero field element")
    P = field.one()
    for k in range(2, N):
        if math.gcd(k, N) == 1:
            conj = field.zero()
            for j, c in enumerate(x.coords):
                if c:
                    conj = conj + field.zeta(j * k) * c
            P = P * conj
    return P * (1 / (x * P).as_fraction())


def sqrt_oracle(x):
    """The larger square root of x in Q(zeta_N), or None, by one Hensel lift
    per sign pattern.  With x = v/c and B = c*v, a = 1/B comes from
    inverse_oracle and is read modulo the first sqrt prime p that does not
    divide its denominator.  In each copy F_q of F_p[zeta], q - 1 = 2^s t,
    the root of a is e_i * a^((t+1)/2) * sylow^j for some j < 2^s, found by
    trial; a copy with none makes x a non-square.  Each of the 2^(g-1) sums
    x_1 +- x_2 ... +- x_g is lifted on its own by Newton's step
    z <- z(3 - B z^2)/2 modulo p^2, ..., p^ceil(k/2), p^k, and Y = B z in
    symmetric residues mod p^k is accepted when within the coefficient bound
    and Y*Y == B."""
    if x.is_zero():
        return x
    field = x.field
    B = [x.den * v for v in x.num]
    inv = inverse_oracle(field.element(B))
    index = 0
    while inv.den % _sqrt_prime(field, index).p == 0:
        index += 1
    ring = _sqrt_prime(field, index)
    p, mul = ring.p, ring.mul
    a = [v * pow(inv.den, -1, p) % p for v in inv.num]
    x0, base, e = [1] + [0] * (field.degree - 1), a, (ring.odd_part + 1) // 2
    while e:
        if e & 1:
            x0 = mul(x0, base)
        base, e = mul(base, base), e >> 1
    terms = []
    for idem in ring.idempotents:
        target, r = mul(idem, a), mul(idem, x0)
        for _ in range(1 << ring.two_adic):
            if mul(r, r) == target:
                terms.append(r)
                break
            r = mul(r, ring.sylow)
        else:
            return None

    l1 = sum(map(abs, B))
    bound = math.ceil(_sqrt_bound(field) * (math.isqrt(l1) + 1))
    k = 1
    while p ** k <= 2 * bound:
        k += 1
    precisions = [k]
    while k > 1:
        k = (k + 1) // 2
        precisions.append(k)
    levels = [(p ** k, [v % p ** k for v in B]) for k in reversed(precisions)]
    top, B_top = levels[-1]
    product = field._product
    for signs in cartesian((1, -1), repeat=len(terms) - 1):
        z = [sum(s * t[j] for s, t in zip((1,) + signs, terms))
             for j in range(field.degree)]
        for m, B_m in levels[1:]:
            z2 = [v % m for v in product(z, z)]
            t = [-v % m for v in product(B_m, z2)]
            t[0] += 3
            z = [v * ((m + 1) // 2) % m for v in product(z, t)]
        Y = [v % top for v in product(B_top, z)]
        Y = [v - top if 2 * v > top else v for v in Y]
        if all(abs(v) <= bound for v in Y) and product(Y, Y) == B:
            y = field.element([Fraction(v, x.den) for v in Y])
            return max(y, -y)
    return None


def canonical_invariant_oracle(B):
    """The lexicographic minimum, over all n(n-1) ordered anchor pairs, of the
    sorted ratios (b_i1 - b_j)/(b_i1 - b_i2), divided by inverse_oracle."""
    from polyred import ClassInvariant

    n = len(B)
    if n <= 2:
        return ClassInvariant(n, ())
    best = None
    for i1 in range(n):
        for i2 in range(n):
            if i1 == i2:
                continue
            dinv = inverse_oracle(B[i1] - B[i2])
            lams = tuple(sorted((B[i1] - B[j]) * dinv for j in range(n)
                                if j != i1 and j != i2))
            if best is None or lams < best:
                best = lams
    return ClassInvariant(n, best)


def fiber_certificate_oracle(P, A, B):
    """The fiber data of _fiber_certificate by the derivative criterion.

    The multiplicity of a in P - P(a) is the least k >= 1 with the k-th
    derivative of P nonzero at a (characteristic 0).  Derivatives are taken
    on the coefficient list and evaluated by Horner, with no Poly method.
    None unless P(A) = B and each fiber's multiplicities sum to deg P;
    otherwise, per target of B in order, the (a, e) of its preimages in A's
    order.
    """
    def ev(coeffs, x):
        acc = x.field.zero()
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    coeffs = list(P.coeffs)
    derivs = []
    d = coeffs
    while len(d) > 1:
        d = [k * c for k, c in enumerate(d)][1:]
        derivs.append(d)
    fibers = {b: [] for b in B}
    for a in A:
        v = ev(coeffs, a)
        if v not in fibers:
            return None
        e = 1
        while ev(derivs[e - 1], a).is_zero():
            e += 1
        fibers[v].append((a, e))
    if any(sum(e for _, e in pre) != len(coeffs) - 1 for pre in fibers.values()):
        return None
    return tuple((b, tuple(fibers[b])) for b in B)


def successors_candidate_oracle(A, max_degree=None):
    """successors(A, max_degree) by the candidate loop over every degree.

    The same output as successors: the same survivors, certified in the same
    (gamma, |I|, I, e) order, after the same mod-q tests.  But every gamma
    through m - 1 (or max_degree) runs the loop, so the 2-set class comes
    from the first certified candidate with |W| = 2 instead of from a
    witness search onto {0, 1}.  Exponential in |A|: keep m <= 9.
    """
    from functools import reduce
    from operator import mul

    from polyred import ClassInvariant, canonical_invariant
    from polyred.reduction import (Reduction, SuccessorClass, _fiber_certificate,
                                   _fibers_full_mod_p, _split_residues)

    m = len(A)
    field = A.field
    xs = A.elems
    out: dict[str, SuccessorClass] = {}
    self_inv = canonical_invariant(A)
    out[self_inv.key()] = SuccessorClass(self_inv, None, True)
    sigma1 = ClassInvariant(1, ())
    out[sigma1.key()] = SuccessorClass(sigma1, None, True)
    top = m - 1 if max_degree is None else min(m - 1, max_degree)
    zero = field.zero()
    q, xr, _ = _split_residues(A, A)
    # rp[t][i][e - 1] = (x_t - x_i)^e mod q, nonzero for t != i at a good q
    rp = [[[pow(xr[t] - xr[i], e, q) for e in range(1, top + 1)]
           for i in range(m)] for t in range(m)]
    for gamma in range(2, top + 1):
        max_n = 1 + (m - 1) // gamma
        for size in range(1, min(gamma, m - 1) + 1):
            for I in combinations(range(m), size):
                in_support = set(I)
                others = [j for j in range(m) if j not in in_support]
                # The witness sends j = others[0] to 1 (c = 1/base(x_j)); the
                # choice of j only rescales the image, so one representative
                # per support suffices for classes.
                for mults in compositions(gamma, size):
                    roots = list(zip(I, mults))
                    residues = []  # image residues, in others order
                    for t in others:
                        row = rp[t]
                        r = 1
                        for i, e in roots:
                            r = r * row[i][e - 1] % q
                        residues.append(r)
                    if len(set(residues)) + 1 > max_n:
                        continue  # the exact images are at least as many
                    base_q = [1]  # base mod q, ascending
                    for i, e in roots:
                        for _ in range(e):  # times X - x_i
                            base_q = [(lo - xr[i] * hi) % q for lo, hi
                                      in zip([0, *base_q], [*base_q, 0])]
                    fibers_q = {}
                    for t, r in zip(others, residues):
                        fibers_q.setdefault(r, []).append(xr[t])
                    if _fibers_full_mod_p(base_q, fibers_q.items(), q) is None:
                        continue  # the exact certificate would fail too
                    values = [reduce(mul, [(xs[t] - xs[i]) ** e for i, e in roots])
                              for t in others]
                    W = FiniteSubset(field, {zero, *values})
                    inv = canonical_invariant(W)
                    key = inv.key()
                    if key in out:
                        continue
                    c = values[0].inverse()
                    P = Poly.from_roots(field, [(xs[i], e) for i, e in roots]) * c
                    B = FiniteSubset(field, [c * w for w in W.elems])
                    fibers = _fiber_certificate(P, A, B)
                    if fibers is not None:
                        out[key] = SuccessorClass(
                            inv, Reduction(P, A, B, gamma, fibers), False)
    return sorted(out.values(), key=lambda sc: (sc.invariant.n, sc.invariant.key()))
