"""The certificates against sympy, an algebra system that shares none of
the package's conventions.

The package's own references reuse its MultiIndex, its rank order and its
coordinate matrix.  Here the catalecticant matrix is rebuilt as a sympy
Matrix of symbols from itertools, and every check is an identity of
expanded polynomials in the coordinates z, not a test at points:

* each rewrite chain telescopes: with R_0 the chart-column product and
  R_{s+1} = R_s v_s / u_s when step s consumes the side u_s of its minor
  and produces v_s, the sum of the terms (R_s / u_s)(u_s - v_s) is
  R_0 - R_last = prod_j z_{col_j}^{m_j} - z_P^(d-1) z_m;
* every minor a certificate uses is an expanded 2x2 determinant of the
  matrix, up to sign.

Membership is checked at points: the grid of a point's coordinates, laid
out as the catalecticant matrix, has rank at most one in sympy's
DomainMatrix exactly when the package calls the point a member.
"""

from functools import lru_cache
from itertools import combinations, product
from random import Random

import pytest
import sympy
from sympy.polys.domains import GF
from sympy.polys.domains import QQ as SYMPY_QQ
from sympy.polys.matrices import DomainMatrix

from veronese import (
    QQ,
    PrimeField,
    ProjectivePoint,
    VeroneseContext,
    failing_minor,
    is_on_variety,
    random_point,
    rewrite_chain,
    veronese_eval,
    zero_propagation_certificate,
)

CONTEXTS = [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4)]


def z(exps) -> sympy.Symbol:
    return sympy.Symbol("z_" + "_".join(map(str, exps)))


def vectors(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of degree d in n + 1 variables, lex-descending."""
    return sorted((v for v in product(range(d + 1), repeat=n + 1) if sum(v) == d), reverse=True)


@lru_cache(maxsize=None)
def catalecticant(n: int, d: int) -> sympy.Matrix:
    """Row i, column beta holds z_{beta + e_i}, for beta of degree d - 1."""
    bases = vectors(n, d - 1)
    return sympy.Matrix(n + 1, len(bases), lambda i, k: z(
        tuple(e + (s == i) for s, e in enumerate(bases[k]))))


@lru_cache(maxsize=None)
def signed_minors(n: int, d: int) -> frozenset:
    """Every expanded 2x2 determinant of the matrix and its negative."""
    M = catalecticant(n, d)
    out = set()
    for rows in combinations(range(M.rows), 2):
        for cols in combinations(range(M.cols), 2):
            det = sympy.expand(M.extract(list(rows), list(cols)).det())
            if det != 0:
                out.update((det, -det))
    return frozenset(out)


def side(pair) -> sympy.Expr:
    return z(pair[0]) * z(pair[1])


def minor_expr(b) -> sympy.Expr:
    return sympy.expand(side(b.pos) - side(b.neg))


@pytest.mark.parametrize("n,d", CONTEXTS)
def test_matrix_shape(n, d):
    M = catalecticant(n, d)
    assert M.shape == (n + 1, len(vectors(n, d - 1)))
    # every coordinate appears in the matrix
    assert M.free_symbols == {z(v) for v in vectors(n, d)}


@pytest.mark.parametrize("n,d", CONTEXTS)
def test_chains_telescope_as_polynomials(n, d):
    ctx = VeroneseContext(n, d)
    coords = vectors(n, d)
    zs = sorted(map(z, coords), key=str)
    minors = signed_minors(n, d)
    for i in range(n + 1):
        P = tuple(d if s == i else 0 for s in range(n + 1))
        column = [tuple(d - 1 + (s == j) if s == i else int(s == j) for s in range(n + 1))
                  for j in range(n + 1)]
        for m, target in zip(coords, ctx.monomials()):
            assert tuple(target) == m
            chain = rewrite_chain(ctx, i, target)
            start = sympy.Mul(*(z(column[j]) ** e for j, e in enumerate(m)))
            running, total = start, sympy.Integer(0)
            for step in chain.steps:
                assert minor_expr(step) in minors, step
                # running is a monomial: a side divides it iff the quotient
                # has no denominator
                for u, v in ((side(step.neg), side(step.pos)), (side(step.pos), side(step.neg))):
                    cofactor = running / u
                    if sympy.denom(cofactor) == 1:
                        break
                else:
                    pytest.fail(f"neither side of {step} divides the running product")
                total += cofactor * (u - v)
                running = cofactor * v
            claimed = start - z(P) ** (d - 1) * z(m)
            assert sympy.Poly(total, *zs) == sympy.Poly(claimed, *zs), (i, m)
            assert sympy.expand(running - z(P) ** (d - 1) * z(m)) == 0


@pytest.mark.parametrize("n,d", CONTEXTS)
def test_propagation_minors_are_determinants(n, d):
    cert = zero_propagation_certificate(VeroneseContext(n, d))
    minors = signed_minors(n, d)
    assert cert.steps
    for step in cert.steps:
        expr = minor_expr(step.minor)
        assert expr in minors, step.minor
        # the step forces its target: the minor is z_target^2 minus a
        # product with a factor already known zero
        t = z(step.target)
        assert sympy.Poly(expr, t).degree() == 2


def grid_rank(n: int, d: int, Q: ProjectivePoint) -> int:
    """Rank of the catalecticant matrix at Q, in sympy's QQ or GF(p): row i,
    column beta holds Q's coordinate at beta + e_i, the coordinates listed
    in the lex-descending order of vectors(n, d)."""
    position = {v: k for k, v in enumerate(vectors(n, d))}
    if Q.field == QQ:
        domain = SYMPY_QQ
        scalars = [SYMPY_QQ(c.numerator, c.denominator) for c in Q.coords]
    else:
        domain = GF(Q.field.p)
        scalars = [domain(c.value) for c in Q.coords]
    bases = vectors(n, d - 1)
    rows = [[scalars[position[tuple(e + (s == i) for s, e in enumerate(b))]] for b in bases]
            for i in range(n + 1)]
    return DomainMatrix(rows, (n + 1, len(bases)), domain).rank()


MEMBERSHIP_CONTEXTS = [(n, d) for n in range(5) for d in range(1, 5)]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)], ids=str)
@pytest.mark.parametrize("n,d", MEMBERSHIP_CONTEXTS)
def test_membership_is_rank_at_most_one(n, d, field):
    ctx = VeroneseContext(n, d)
    rng = Random(n * 10 + d)
    outcomes = set()
    for k in range(12):
        # leading zeros leave zero rows above the first nonzero row
        Q = veronese_eval(ctx, random_point(rng, field, n, lead_zeros=k % (n + 1)))
        if k % 2:
            coords = list(Q.coords)
            coords[rng.randrange(len(coords))] += field.one
            if not any(coords):
                continue
            Q = ProjectivePoint(field, tuple(coords))
        expected = grid_rank(n, d, Q) <= 1
        assert is_on_variety(ctx, Q) is expected, Q
        assert (failing_minor(ctx, Q) is None) is expected, Q
        outcomes.add(expected)
    # at d = 1, and for n = 0, the matrix has one column or one row
    assert outcomes == ({True} if d == 1 or n == 0 else {True, False})
