"""Reference builds shared by the test modules: the simple paths the
package's fast builds replaced, kept to check those builds against."""

from fractions import Fraction
from itertools import combinations
from operator import add

from veronese import Binomial2, PrimeField, ProjectivePoint, enumerate_monomials
from veronese.matrix import _canonical_quad


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
