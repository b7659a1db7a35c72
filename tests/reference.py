"""Reference builds shared by the test modules: the simple paths the
package's fast builds replaced, kept to check those builds against."""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, starmap
from operator import add, sub

from veronese import (
    Binomial2,
    ContractError,
    MultiIndex,
    PrimeField,
    ProjectivePoint,
    PropagationStep,
    RewriteChain,
    SymbolicMatrix,
    VeroneseContext,
    ZeroPropagationCertificate,
    enumerate_monomials,
    pure_power,
)
from veronese import certificates as certs
from veronese.matrix import _canonical_quad, _index_grid, _packed_codes, cached_minors, is_minor_quad
from veronese.multiindex import coordinate_index


def ref_toric_quadrics(ctx):
    """The canonicalizing build toric_quadrics replaced: every pair of
    pairs with one sum goes through Binomial2.canonical into a set."""
    monos = enumerate_monomials(ctx.n, ctx.d)
    by_sum = {}
    for idx, a in enumerate(monos):
        for b in monos[idx:]:
            by_sum.setdefault(tuple(map(add, a, b)), []).append((a, b))
    out = set()
    for pairs in by_sum.values():
        for p1, p2 in combinations(pairs, 2):
            b = Binomial2.canonical(p1, p2)
            if b is not None:
                out.add(b)
    return frozenset(out)


def ref_minors2(matrix):
    """The canonicalizing build minors2 replaced: every 2x2 candidate of
    the grid goes through Binomial2.canonical into a set."""
    nrows, ncols = matrix.shape
    out = set()
    for i, j in combinations(range(nrows), 2):
        ri, rj = matrix.entries[i], matrix.entries[j]
        for k, l in combinations(range(ncols), 2):
            b = Binomial2.canonical((ri[k], rj[l]), (ri[l], rj[k]))
            if b is not None:
                out.add(b)
    return frozenset(out)


def candidate_quads(grid):
    """_canonical_quad of every 2x2 candidate of a grid of coordinate
    indices, row pairs then column pairs in order, None for the
    identically zero ones: the per-candidate build that the leader rule of
    matrix._grid_binomials replaced."""
    return [_canonical_quad(ri[k], rj[l], ri[l], rj[k])
            for ri, rj in combinations(grid, 2) for k, l in combinations(range(len(ri)), 2)]


@cache
def reference_minor_table(ctx):
    """Every distinct minor as a (Binomial2, quad) pair in listing order:
    the sorted set of the index grid's canonical quads, each taken by
    _canonical_quad, with its binomial from the checked constructor.  The
    table failing_minor scanned before the flat quads of
    matrix._minor_quads, and the reference for morphism._minor_table."""
    monos = ctx.monomials()
    quads = sorted(set(filter(None, candidate_quads(_index_grid(ctx)))))
    return tuple((Binomial2((monos[a], monos[b]), (monos[c], monos[e])), (a, b, c, e))
                 for a, b, c, e in quads)


def reference_failing_minor(ctx, Q):
    """The first minor of reference_minor_table that does not vanish at Q,
    with its value in field arithmetic; None when all vanish.  The
    reference for failing_minor's scan of the flat quad table."""
    c = Q.coords
    for b, (ia, ib, ic, ie) in reference_minor_table(ctx):
        v = c[ia] * c[ib] - c[ic] * c[ie]
        if v:
            return b, v
    return None


def fraction_loop(ctx, Q):
    """Every minor tested in field arithmetic: the reference for the
    rank-one test of is_on_variety."""
    return reference_failing_minor(ctx, Q) is None


# the slotted binomial the tables built before Binomial2 became its
# (pos, neg) tuple, with the construction that filled its slots


class SlotBinomial2:
    __slots__ = ("pos", "neg")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pos == other.pos and self.neg == other.neg
        return NotImplemented

    def __hash__(self):
        return hash((self.pos, self.neg))


def slot_binomials(monos, quads):
    S = len(monos)
    codes = _packed_codes(len(monos[0]) - 1, sum(monos[0])) if S else []
    pairs = [None] * (S * S)
    new, set_pos, set_neg = object.__new__, SlotBinomial2.pos.__set__, SlotBinomial2.neg.__set__
    for a, b, c, e in quads:
        if codes[a] + codes[b] != codes[c] + codes[e]:
            raise ContractError(f"unbalanced binomial: {monos[a]}*{monos[b]} vs {monos[c]}*{monos[e]}")
        pos = pairs[a * S + b]
        if pos is None:
            pos = pairs[a * S + b] = (monos[a], monos[b])
        neg = pairs[c * S + e]
        if neg is None:
            neg = pairs[c * S + e] = (monos[c], monos[e])
        binomial = new(SlotBinomial2)
        set_pos(binomial, pos)
        set_neg(binomial, neg)
        yield binomial


def slot_minors2(matrix):
    idx = coordinate_index(matrix.ctx)
    grid = [[idx[m] for m in row] for row in matrix.entries]
    return frozenset(slot_binomials(matrix.ctx.monomials(), candidate_quads(grid)))


def slot_toric_quadrics(ctx):
    monos = enumerate_monomials(ctx.n, ctx.d)
    codes = _packed_codes(ctx.n, ctx.d)
    by_sum = {}
    for a, ca in enumerate(codes):
        for b, cb in enumerate(codes[a:], a):
            by_sum.setdefault(ca + cb, []).append((a, b))
    quads = chain.from_iterable(starmap(add, combinations(pairs, 2)) for pairs in by_sum.values())
    return frozenset(slot_binomials(monos, quads))


def reference_is_minor_quad(monos, a, b, c, e):
    """The test on exponent vectors matrix.is_minor_quad replaced: whether
    z_a z_b - z_c z_e, given by indices into monos = ctx.monomials(), is a
    canonical 2-minor.  Balanced, with an entry on one side a unit move
    from one on the other (matrix.is_minor_quad has the argument); entries
    of equal degree differ by a unit move iff their L1 distance is 2."""
    if not (0 <= a <= b < len(monos) and a < c <= e < len(monos)):
        return False
    A, B, C, E = monos[a], monos[b], monos[c], monos[e]
    return list(map(add, A, B)) == list(map(add, C, E)) and (
        sum(map(abs, map(sub, A, C))) == 2 or sum(map(abs, map(sub, A, E))) == 2
    )


def bump(m, j: int) -> MultiIndex:
    """m + e_j: the exponent vector of x^m * x_j."""
    return MultiIndex(e + (k == j) for k, e in enumerate(m))


def build_matrix_by_columns(ctx: VeroneseContext) -> SymbolicMatrix:
    """Column-wise construction, the reference for build_matrix: column k
    is the k-th degree-(d-1) vector bumped by each variable in turn."""
    bases = enumerate_monomials(ctx.n, ctx.d - 1)
    rows = tuple(
        tuple(bump(base, i) for base in bases) for i in range(ctx.n + 1)
    )
    return SymbolicMatrix(ctx, rows)


def moved(m, i, j):
    """m - e_i + e_j: one unit of weight moved from position i to j."""
    return MultiIndex(e - (k == i) + (k == j) for k, e in enumerate(m))


def forest_parent(ctx, i, m):
    """m + e_i - e_j, j the least index other than i with m_j > 0: the
    parent of m in chart i's forest; None for a root, d - m_i <= 1."""
    if ctx.d - m[i] <= 1:
        return None
    return moved(m, min(s for s in range(ctx.n + 1) if s != i and m[s] > 0), i)


def reference_forest(ctx, i, col):
    """The N - n edges (k, parent, quad) of chart i's forest as
    certificates._forest built them on exponent vectors, col =
    chart_indices(ctx, i): nodes by falling k_i after the n + 1 roots, the
    parent forest_parent(ctx, i, m) looked up as a vector, and the quad
    that of z_P z_k - z_parent z_{col_j}, j the position m gives up."""
    monos, idx = ctx.monomials(), coordinate_index(ctx)
    order = sorted(range(len(monos)), key=[m[i] for m in monos].__getitem__, reverse=True)
    edges = []
    for k in order[ctx.n + 1:]:
        parent = forest_parent(ctx, i, monos[k])
        j = next(s for s, (a, b) in enumerate(zip(monos[k], parent)) if a > b)
        edges.append((k, idx[parent], _canonical_quad(col[i], k, idx[parent], col[j])))
    return edges


def reference_edge_fault(ctx, at, col, i, k, q, parent):
    """The edge check certificates._sound_edge replaced: quad q runs as a
    one-step chain of chart i, col = chart_indices(ctx, i), through the
    telescoper of certificates._chain_fault, as (step, diagnostic template)
    of its first failing check, None when all pass.  The quad extends the
    parent's chain, and the product starts as that chain, if sound, leaves
    k's: z_P^(d-1) z_parent z_col^(k-parent), k's chart product on chart i
    (z_P != 0, and a root parent's product is its goal) unless a count is
    negative, which no step clears: a fault."""
    monos = ctx.monomials()
    P = col[i]
    state = dict(zip(col, map(sub, monos[k], monos[parent])))
    state[P] += ctx.d - 1
    state[parent] = state.get(parent, 0) + 1
    state = {f: e for f, e in state.items() if e}
    quads = (q,)
    for pos, q in enumerate(quads):
        if q is None or not is_minor_quad(at, *q):
            return pos, "{minor} is not a 2-minor of the matrix"
        if P not in q:
            return pos, "{minor} has no realization on row {i} and the column of {P}"
        a, b, c, e = q
        if state.get(c, 0) >= 2 if c == e else c in state and e in state:
            consumed, produced = (c, e), (a, b)
        elif state.get(a, 0) >= 2 if a == b else a in state and b in state:
            consumed, produced = (a, b), (c, e)
        else:
            return pos, "neither side of {minor} occurs in the running product"
        for f in consumed:
            state[f] -= 1
            if not state[f]:
                del state[f]
        for f in produced:
            state[f] = state.get(f, 0) + 1
    goal = {P: ctx.d - 1} if ctx.d > 1 else {}
    goal[k] = goal.get(k, 0) + 1
    return None if state == goal else (len(quads), "telescoping ended away from the claimed product")


def reference_proportional(u, v, p):
    """The cross-multiplying check projective._proportional replaced over
    Q: u_j v_k = v_j u_k for every j, k the first index of a nonzero v_k,
    with u_k and v_k as they stand; over F_p the same products mod p."""
    k = next(k for k, c in enumerate(v) if c)
    a, b = u[k], v[k]
    if p:
        return not any((s * b - t * a) % p for s, t in zip(u, v))
    return all(s * b == t * a for s, t in zip(u, v))


def reference_random_point(rng, field, dim, lead_zeros=0):
    """The seeded point drawn one field element at a time, a residue or a
    Fraction per coordinate: the reference for projective._random_ints."""
    if isinstance(field, PrimeField):
        p = field.p

        def draw(nonzero):
            return rng.randint(1 if nonzero else 0, p - 1)
    else:
        def draw(nonzero):
            num = rng.randint(1, 99) * rng.choice((1, -1)) if nonzero else rng.randint(-99, 99)
            den = rng.randint(1, 99) * rng.choice((1, -1))
            return Fraction(num, den)

    coords = [field.zero] * lead_zeros
    coords.append(draw(nonzero=True))
    coords.extend(draw(nonzero=False) for _ in range(dim - lead_zeros))
    return ProjectivePoint(field, tuple(coords))


# ---------------------------------------------------------------------------
# Reference paths.  The certificate generators and the chain verifier as they
# ran on MultiIndex and Binomial2 objects before the package moved them onto
# coordinate-index quads, with membership tested in the built minor set, as
# the verifiers did before the closed-form test.  They share no code with the
# index core beyond the value classes.

def reference_zero_propagation_certificate(ctx):
    if ctx.d < 2:
        return ZeroPropagationCertificate(ctx, ())
    known = set(ctx.pure_powers())
    steps = []
    for t in range(ctx.n):
        for j in ctx.monomials():
            if j[t] < 1 or any(j[s] for s in range(t)) or j == pure_power(ctx.n, ctx.d, t):
                continue
            k = max(s for s in range(ctx.n + 1) if j[s] > 0)
            first = moved(j, k, t)
            other = moved(j, t, k)
            minor = Binomial2.canonical((first, other), (j, j))
            prereqs = (first,) + ((other,) if other in known else ())
            steps.append(PropagationStep(j, minor, prereqs))
            known.add(j)
    return ZeroPropagationCertificate(ctx, tuple(steps))


def reference_chart_column(ctx, i):
    base = MultiIndex(ctx.d - 1 if k == i else 0 for k in range(ctx.n + 1))
    return tuple(bump(base, j) for j in range(ctx.n + 1))


def reference_rewrite_chain(ctx, i, m):
    column = reference_chart_column(ctx, i)
    P = column[i]
    steps = []
    w = None
    for j in range(ctx.n, -1, -1):
        if j == i or m[j] == 0:
            continue
        count = m[j]
        if w is None:
            w = column[j]
            count -= 1
        for _ in range(count):
            w_next = moved(w, i, j)
            steps.append(Binomial2.canonical((P, w_next), (w, column[j])))
            w = w_next
    return RewriteChain(ctx, i, m, tuple(steps))


def reference_chain_quads(ctx, col, i, m):
    """The steps of the chart-i chain of m as canonical index quads, built
    one chain at a time, col = chart_indices(ctx, i): the per-chain loop
    the package ran before it built each chart's chains as one forest."""
    monos, idx = ctx.monomials(), coordinate_index(ctx)
    quads = []
    w = None  # index of the working coordinate
    for j in range(ctx.n, -1, -1):
        if j == i or m[j] == 0:
            continue
        count = m[j]
        if w is None:
            w, count = col[j], count - 1
        for _ in range(count):
            moved_w = idx[moved(monos[w], i, j)]
            quads.append(_canonical_quad(col[i], moved_w, w, col[j]))
            w = moved_w
    return quads


def realizes_row_and_column(ctx, i, b):
    """Whether the minor has a 2x2 realization on row i and the column of
    z_{d e_i}, i.e. three of four entries in that row and column."""
    P = pure_power(ctx.n, ctx.d, i)
    if P in b.pos:
        p_pair, o_pair = b.pos, b.neg
    elif P in b.neg:
        p_pair, o_pair = b.neg, b.pos
    else:
        return False
    x = p_pair[1] if p_pair[0] == P else p_pair[0]
    for cj, y in ((o_pair[0], o_pair[1]), (o_pair[1], o_pair[0])):
        if cj[i] != ctx.d - 1:
            continue
        rest = [s for s in range(ctx.n + 1) if s != i and cj[s] > 0]
        if len(rest) != 1 or cj[rest[0]] != 1:
            continue
        j = rest[0]
        if y[i] >= 1 and x == moved(y, i, j):
            return True
    return False


def consumable(state, pair):
    a, b = pair
    if a == b:
        return state[a] >= 2
    return state[a] >= 1 and state[b] >= 1


def reference_verify_zero_propagation(ctx, cert):
    if cert.ctx != ctx:
        return certs.VerifyResult(False, f"certificate built for {cert.ctx}, verified against {ctx}")
    minors = cached_minors(ctx)
    known = set(ctx.pure_powers())
    for pos, step in enumerate(cert.steps):
        where = f"step {pos} (target {step.target.coordinate_name()})"
        if step.minor not in minors:
            return certs.VerifyResult(False, f"{where}: {step.minor} is not a 2-minor of the matrix")
        t = step.target
        in_pos, in_neg = t in step.minor.pos, t in step.minor.neg
        if in_pos == in_neg:
            return certs.VerifyResult(False, f"{where}: minor must contain the target on exactly one side")
        target_side, other_side = (
            (step.minor.pos, step.minor.neg) if in_pos else (step.minor.neg, step.minor.pos)
        )
        if other_side[0] not in known and other_side[1] not in known:
            pair = f"{{{other_side[0].coordinate_name()}, {other_side[1].coordinate_name()}}}"
            return certs.VerifyResult(False, f"{where}: no factor of {pair} is known zero")
        partner = target_side[1] if target_side[0] == t else target_side[0]
        if partner != t and partner in known:
            return certs.VerifyResult(
                False, f"{where}: partner {partner.coordinate_name()} is known zero, so the minor does not force "
                       "the target"
            )
        if partner != t:
            return certs.VerifyResult(
                False, f"{where}: partner {partner.coordinate_name()} is neither the target nor known zero"
            )
        for p in step.prerequisites:
            if p not in known:
                return certs.VerifyResult(False, f"{where}: prerequisite {p.coordinate_name()} not yet established")
        known.add(t)
    missing = [m for m in ctx.monomials() if m not in known]
    if missing:
        return certs.VerifyResult(
            False, f"coverage incomplete: {len(missing)} coordinates never zeroed, first {missing[0].coordinate_name()}"
        )
    return certs.VerifyResult(True)


def reference_chain_structure(ctx, chain):
    if chain.ctx != ctx:
        return certs.VerifyResult(False, f"chain built for {chain.ctx}, verified against {ctx}")
    i, m = chain.chart, chain.target
    if not 0 <= i <= ctx.n or len(m) != ctx.n + 1 or m.degree != ctx.d:
        return certs.VerifyResult(False, "chain chart, target or steps malformed for this context")
    minors = cached_minors(ctx)
    P = pure_power(ctx.n, ctx.d, i)
    column = reference_chart_column(ctx, i)
    state = Counter()
    for j in range(ctx.n + 1):
        if m[j]:
            state[column[j]] += m[j]
    for pos, minor in enumerate(chain.steps):
        where = f"step {pos}"
        if minor not in minors:
            return certs.VerifyResult(False, f"{where}: {minor} is not a 2-minor of the matrix")
        if not realizes_row_and_column(ctx, i, minor):
            return certs.VerifyResult(
                False, f"{where}: {minor} has no realization on row {i} and the column of {P.coordinate_name()}"
            )
        if consumable(state, minor.neg):
            consumed, produced = minor.neg, minor.pos
        elif consumable(state, minor.pos):
            consumed, produced = minor.pos, minor.neg
        else:
            return certs.VerifyResult(False, f"{where}: neither side of {minor} occurs in the running product")
        for f in consumed:
            state[f] -= 1
            if not state[f]:
                del state[f]
        for f in produced:
            state[f] += 1
    goal = Counter({P: ctx.d - 1})
    goal[m] += 1
    if +state != +goal:
        return certs.VerifyResult(False, "telescoping ended away from the claimed product")
    return certs.VerifyResult(True)


def reference_chain_identity(ctx, chain, Q):
    """The numeric check in field arithmetic, the reference for the check
    on integer coordinates."""
    if Q.dim != ctx.N:
        return certs.VerifyResult(False, f"point has dimension {Q.dim}, expected {ctx.N}")
    i, m = chain.chart, chain.target
    idx = coordinate_index(ctx)
    z = Q.coords
    column = reference_chart_column(ctx, i)
    zP = z[idx[column[i]]]
    if not zP:
        return certs.VerifyResult(False, f"precondition violated: chart {i} pure power is zero at the point")
    # powers as repeated products: field elements multiply, but have no **
    lhs = Q.field.one
    for j, e in enumerate(m):
        for _ in range(e):
            lhs = lhs * z[idx[column[j]]]
    rhs = z[idx[m]]
    for _ in range(ctx.d - 1):
        rhs = rhs * zP
    if lhs != rhs:
        return certs.VerifyResult(False, "claimed identity fails numerically at the supplied point")
    return certs.VerifyResult(True)


def reference_verify_rewrite_chain(ctx, chain, Q):
    res = reference_chain_structure(ctx, chain)
    if not res:
        return res
    return reference_chain_identity(ctx, chain, Q)
