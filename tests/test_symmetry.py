"""Metamorphic relations: the package commutes with the symmetries of the
problem, so these tests need no reference build.

A permutation s of the source coordinates, s[j] the image of j, moves x
to y with y[s[j]] = x[j], and an exponent vector m likewise.  Since
(s x)^(s m) = x^m, it permutes the coordinates of P^N, maps 2-minors to
2-minors and chart i to chart s[i], and commutes with the embedding and
its inverse, and chart i's identities nu_d(psi_i(z)) = z_P^(d-1) z to
chart s[i]'s.  Scaling a point of P^N by a nonzero lambda fixes it, so
every yes/no answer and every preimage stays, and a minor's value scales
by lambda^2.  Reducing an integral point mod p commutes with the
embedding, whose coordinates are integer polynomials.
"""

from fractions import Fraction
from functools import cache

from hypothesis import given, settings, strategies as st

from veronese import (
    QQ,
    PrimeField,
    VeroneseContext,
    available_charts,
    failing_minor,
    inverse_map,
    is_on_variety,
    normalize,
    point,
    veronese_eval,
)
from veronese.certificates import _chart_failures
from veronese.matrix import CodeIndex, _canonical_quad, _minor_quads, _quads, _toric_quads
from veronese.multiindex import coordinate_index
from veronese.projective import integer_coords

FIELDS = [QQ, PrimeField(2), PrimeField(101)]


def moved(s, v):
    """v with entry j moved to position s[j]."""
    out = [None] * len(v)
    for j, c in enumerate(v):
        out[s[j]] = c
    return out


@cache
def coordinate_permutation(ctx, s):
    """pi with pi[k] the coordinate index of s applied to the k-th
    exponent vector: the permutation s induces on P^N."""
    idx = coordinate_index(ctx)
    return tuple(idx[tuple(moved(s, m))] for m in ctx.monomials())


def pushed(ctx, s, Q):
    """The point Q of P^N with its coordinates permuted by s."""
    return point(Q.field, moved(coordinate_permutation(ctx, s), Q.coords))


def scaled(Q, lam):
    return point(Q.field, [lam * c for c in Q.coords])


@cache
def code_index(ctx):
    return CodeIndex(ctx)


@cache
def canonical_quads(ctx, build):
    return frozenset(_quads(_minor_quads(ctx))) if build == "minor" else frozenset(_toric_quads(ctx))


# contexts up to (4, 5): 126 coordinates, 22,575 minors and 39,625 quadrics
contexts = st.builds(VeroneseContext, st.integers(0, 4), st.integers(1, 5))
small = st.integers(-30, 30)
rationals = st.builds(Fraction, small | st.integers(-(2**90), 2**90), st.integers(1, 50))


def scalars(field):
    """Field elements, zero included, as the ints or Fractions point coerces."""
    return rationals if field is QQ else st.integers(0, field.p - 1)


def nonzero(field):
    """Nonzero scalars; over Q also a tall integer or a tall denominator."""
    if field is QQ:
        tall = st.integers(2**200, 2**260)
        return st.builds(Fraction, small.filter(bool) | tall, st.integers(1, 9) | tall)
    return st.integers(1, field.p - 1)


@st.composite
def source_points(draw, ctx, field):
    """A point of P^n over field."""
    values = draw(st.lists(scalars(field), min_size=ctx.n + 1, max_size=ctx.n + 1).filter(any))
    return point(field, values)


@st.composite
def target_points(draw, ctx, field):
    """A point of P^N: the image of a source point, that image with one
    coordinate bent (often off the variety), or arbitrary coordinates."""
    kind = draw(st.sampled_from(["image", "bent", "any"]))
    if kind == "any":
        size = ctx.N + 1
        return point(field, draw(st.lists(scalars(field), min_size=size, max_size=size).filter(any)))
    Q = veronese_eval(ctx, draw(source_points(ctx, field)))
    if kind == "image":
        return Q
    coords = list(Q.coords)
    k = draw(st.integers(0, ctx.N))
    coords[k] += 1
    return point(field, coords) if any(coords) else Q


@st.composite
def cases(draw, make_point):
    """(ctx, s, field, point) with s a permutation of the n+1 source
    coordinates and the point drawn by make_point(ctx, field)."""
    ctx = draw(contexts)
    s = tuple(draw(st.permutations(range(ctx.n + 1))))
    field = draw(st.sampled_from(FIELDS))
    return ctx, s, field, draw(make_point(ctx, field))


@st.composite
def chart_points(draw, ctx, field, i):
    """The image of a source point with x_i set to 1 if drawn 0, so it lies
    on chart i, often with one coordinate bent off the variety."""
    coords = list(draw(source_points(ctx, field)).coords)
    if not coords[i]:
        coords[i] = field.one
    image = veronese_eval(ctx, point(field, coords))
    bent = list(image.coords)
    bent[draw(st.integers(0, ctx.N))] += field.one
    return point(field, bent) if draw(st.booleans()) and any(bent) else image


@st.composite
def chart_cases(draw):
    """(ctx, s, field, chart i, points of P^N on chart i or bent off it)."""
    ctx = draw(contexts)
    s = tuple(draw(st.permutations(range(ctx.n + 1))))
    field = draw(st.sampled_from(FIELDS))
    i = draw(st.integers(0, ctx.n))
    return ctx, s, field, i, draw(st.lists(chart_points(ctx, field, i), min_size=1, max_size=3))


class TestPermutations:
    @settings(deadline=None)
    @given(contexts, st.data(), st.sampled_from(["minor", "toric"]))
    def test_quads_are_invariant(self, ctx, data, build):
        s = tuple(data.draw(st.permutations(range(ctx.n + 1))))
        pi = coordinate_permutation(ctx, s)
        quads = canonical_quads(ctx, build)
        assert {_canonical_quad(pi[a], pi[b], pi[c], pi[e]) for a, b, c, e in quads} == quads

    @settings(deadline=None)
    @given(cases(source_points))
    def test_embedding_commutes(self, case):
        ctx, s, field, x = case
        image = veronese_eval(ctx, point(field, moved(s, x.coords)))
        assert image == normalize(pushed(ctx, s, veronese_eval(ctx, x)))

    @settings(deadline=None)
    @given(cases(source_points))
    def test_inverse_commutes(self, case):
        ctx, s, field, x = case
        Q = veronese_eval(ctx, x)
        preimage = inverse_map(ctx, pushed(ctx, s, Q))
        assert preimage == normalize(point(field, moved(s, inverse_map(ctx, Q).coords)))

    @settings(deadline=None)
    @given(cases(target_points))
    def test_membership_and_charts_commute(self, case):
        ctx, s, field, Q = case
        P = pushed(ctx, s, Q)
        assert is_on_variety(ctx, P) == is_on_variety(ctx, Q)
        assert available_charts(ctx, P) == tuple(sorted(s[i] for i in available_charts(ctx, Q)))


@st.composite
def scalings(draw):
    """(ctx, point of P^N, lambda), lambda a nonzero scalar of its field."""
    ctx = draw(contexts)
    field = draw(st.sampled_from(FIELDS))
    return ctx, draw(target_points(ctx, field)), field.coerce(draw(nonzero(field)))


class TestScaling:
    @settings(deadline=None)
    @given(scalings())
    def test_answers_are_unchanged(self, case):
        ctx, Q, lam = case
        P = scaled(Q, lam)
        assert is_on_variety(ctx, P) == is_on_variety(ctx, Q)
        assert available_charts(ctx, P) == available_charts(ctx, Q)
        if available_charts(ctx, Q):
            assert inverse_map(ctx, P) == inverse_map(ctx, Q)

    @settings(deadline=None)
    @given(scalings())
    def test_failing_value_scales_by_lambda_squared(self, case):
        ctx, Q, lam = case
        found = failing_minor(ctx, Q)
        assert (found is None) == is_on_variety(ctx, Q)
        if found is not None:
            minor, value = found
            assert failing_minor(ctx, scaled(Q, lam)) == (minor, lam * lam * value)


class TestChartIdentities:
    @settings(deadline=None)
    @given(chart_cases())
    def test_failures_commute(self, case):
        # chart s[i]'s identities at the pushed points are chart i's at the
        # points, though _edge's least j gives the two charts other forests
        ctx, s, field, i, points = case
        at = code_index(ctx)
        pushed_points = [integer_coords(pushed(ctx, s, Q)) for Q in points]
        assert (_chart_failures(ctx, at, s[i], pushed_points)
                == _chart_failures(ctx, at, i, [integer_coords(Q) for Q in points]))

    @settings(deadline=None)
    @given(chart_cases(), st.data())
    def test_failures_are_unchanged_by_scaling(self, case, data):
        ctx, _, field, i, points = case
        lam = field.coerce(data.draw(nonzero(field)))
        at = code_index(ctx)
        assert (_chart_failures(ctx, at, i, [integer_coords(scaled(Q, lam)) for Q in points])
                == _chart_failures(ctx, at, i, [integer_coords(Q) for Q in points]))

    @settings(deadline=None)
    @given(chart_cases())
    def test_points_are_read_once(self, case):
        ctx, _, _, i, points = case
        at = code_index(ctx)
        ints = [integer_coords(Q) for Q in points]
        assert _chart_failures(ctx, at, i, iter(ints)) == _chart_failures(ctx, at, i, ints)


class TestReduction:
    @settings(deadline=None)
    @given(contexts, st.sampled_from(FIELDS[1:]), st.data())
    def test_embedding_commutes_with_reduction(self, ctx, field, data):
        # an integral point of P^n over Q, nonzero mod p, and its residues
        ints = small | st.integers(-(2**90), 2**90)
        x = data.draw(st.lists(ints, min_size=ctx.n + 1, max_size=ctx.n + 1)
                      .filter(lambda v: any(c % field.p for c in v)))
        z, _ = integer_coords(veronese_eval(ctx, point(QQ, x)))
        assert normalize(point(field, z)) == veronese_eval(ctx, point(field, x))
