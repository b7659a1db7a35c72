"""Reference builds shared by the test modules: the simple paths the
package's fast builds replaced, kept to check those builds against."""

from fractions import Fraction
from itertools import combinations
from operator import add, sub

from veronese import Binomial2, MultiIndex, PrimeField, ProjectivePoint, enumerate_monomials
from veronese.matrix import _canonical_quad
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


def candidate_quads(grid):
    """_canonical_quad of every 2x2 candidate of a grid of coordinate
    indices, row pairs then column pairs in order, None for the
    identically zero ones: the per-candidate build _grid_quads replaced."""
    return [_canonical_quad(ri[k], rj[l], ri[l], rj[k])
            for ri, rj in combinations(grid, 2) for k, l in combinations(range(len(ri)), 2)]


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
