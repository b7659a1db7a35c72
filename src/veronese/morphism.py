"""The degree-d embedding, membership in its determinantal model, and the
chartwise inverse.

A source point [x_0 : ... : x_n] maps to the vector of all degree-d
monomial values, ordered lex-descending so that coordinate
coordinate_index(ctx)[m] holds x^m.  Membership in the model variety
means every canonical 2-minor vanishes exactly.  Points hold elements of
their field, coerced when the point is built; the embedding and the
membership test compute on projective.integer_coords, the point scaled to
plain ints over Q and its residues over F_p.  Both are homogeneous, so
the scaling changes neither the normalized image nor whether a minor
vanishes.  _integer_image is the embedding on those ints, the one
monomial kernel multiindex._monomial_values, and veronese_eval makes it
a point with projective._canonical.  _verify_point, the verify command's
per-point checks, takes a source point's ints as projective._random_ints
draws them, so it reads no point and builds none, nor any field
element.

The minors of the coordinate matrix M vanish at a point exactly when M
has rank at most one there, that is, when every row of M is a multiple
of its first nonzero row M[i0] (one exists: every coordinate is an
entry, and a point has a nonzero coordinate).  So is_on_variety tests
each row below i0 with projective._proportional instead of scanning
every minor; a zero row passes as 0 M[i0], and the rows above i0 are
zero.  With k0 the first nonzero column of M[i0], each cross-product
_proportional checks, M[i][k] M[i0][k0] = M[i0][k] M[i][k0], is the
minor on rows i0, i and columns k0, k.

failing_minor keeps field arithmetic on Q.coords over the minor table
matrix._minor_quads, because it reports the first failing minor in
listing order and its value in the field.  It decides each minor by
comparing its two products and subtracts them only for the minor it
returns, the one minor it makes a Binomial2 for.  The rank-one test reads
the same grid, matrix._index_grid.

The inverse reads off one matrix column: on the chart where z_{d e_i} is
nonzero, the column whose base is x_i^(d-1) lists
(x_0 x_i^(d-1) : ... : x_n x_i^(d-1)), a scalar multiple of the source
point.  Its coordinate indices are matrix.chart_indices, a column of the
index grid.  On ints that column is compared with a point by
projective._proportional, without normalizing either.  Conversely, nu_d
of the chart-i column of a variety point z is z_{d e_i}^(d-1) z: nu_d o
psi_i is the identity on chart i, which the rewrite chains prove.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ContractError, NoChartError
from .matrix import Binomial2, _index_grid, _minor_quads, _quads, chart_indices
# coordinate_index stays importable here: bench/workloads.py clears morphism.coordinate_index
from .multiindex import VeroneseContext, _monomial_values, coordinate_index
from .projective import ProjectivePoint, _canonical, _proportional, integer_coords, normalize

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

    from .projective import Fp


def _require_target(ctx: VeroneseContext, Q: ProjectivePoint) -> None:
    if Q.dim != ctx.N:
        raise ContractError(f"expected a point of P^{ctx.N}, got dimension {Q.dim}")


@lru_cache(maxsize=None)
def _minor_table(ctx: VeroneseContext) -> tuple[tuple[Binomial2, tuple[int, int, int, int]], ...]:
    """_minor_quads as (Binomial2, quad) pairs, for the benchmark's tracer
    only: a per-quad view with no pair table, each minor balanced by
    construction and made with tuple.__new__; the package never calls it."""
    monos, new = ctx.monomials(), tuple.__new__
    return tuple((new(Binomial2, ((monos[a], monos[b]), (monos[c], monos[e]))), (a, b, c, e))
                 for a, b, c, e in _quads(_minor_quads(ctx)))


def veronese_eval(ctx: VeroneseContext, x: ProjectivePoint) -> ProjectivePoint:
    """Image of x under the degree-d embedding, normalized.

    Coordinate coordinate_index(ctx)[m] of the result is the monomial
    value x^m.
    """
    if x.dim != ctx.n:
        raise ContractError(f"expected a point of P^{ctx.n}, got dimension {x.dim}")
    # x_j^d is nonzero for a nonzero x_j, so the image has a nonzero entry;
    # over F_p a product of residues is 0 mod p only when a factor is 0
    return _canonical(x.field, *_integer_image(ctx, *integer_coords(x)))


def _integer_image(ctx: VeroneseContext, v: list[int], p: int) -> tuple[list[int], int]:
    """The image of the point of P^n with ints (v, p), as
    projective.integer_coords gives a point, in the same form for P^N:
    the values v^m, reduced mod p if p."""
    return _monomial_values(v, ctx.d, p), p


def is_on_variety(ctx: VeroneseContext, Q: ProjectivePoint) -> bool:
    """True iff every canonical 2-minor vanishes exactly at Q, decided as
    the rank-one test of the module docstring."""
    _require_target(ctx, Q)
    return _rank_one(ctx, *integer_coords(Q))


def _rank_one(ctx: VeroneseContext, z: list[int], p: int) -> bool:
    """The rank-one test on the ints (z, p) of a point of P^N, as
    projective.integer_coords or _integer_image give them."""
    M = [[z[a] for a in row] for row in _index_grid(ctx)]
    i0 = next(i for i, row in enumerate(M) if any(row))
    return all(_proportional(row, M[i0], p) for row in M[i0 + 1:])


def failing_minor(ctx: VeroneseContext, Q: ProjectivePoint) -> tuple[Binomial2, Fraction | Fp] | None:
    """First minor (in listing order) that does not vanish at Q, with its
    value, an element of Q.field; None when Q is on the variety."""
    _require_target(ctx, Q)
    c = Q.coords
    for ia, ib, ic, ie in _quads(_minor_quads(ctx)):
        if c[ia] * c[ib] != c[ic] * c[ie]:
            monos = ctx.monomials()
            minor = Binomial2((monos[ia], monos[ib]), (monos[ic], monos[ie]))
            return minor, c[ia] * c[ib] - c[ic] * c[ie]
    return None


def chart_select(ctx: VeroneseContext, Q: ProjectivePoint) -> int:
    """Smallest i whose pure-power coordinate z_{d e_i} is nonzero at Q.

    For a point satisfying all minors that index always exists; its absence
    certifies the input was no projective point of the variety at all.
    """
    return _first_chart(available_charts(ctx, Q))


def _first_chart(charts: tuple[int, ...]) -> int:
    if not charts:
        raise NoChartError("every pure-power coordinate vanishes; no chart contains the point")
    return charts[0]


def _column(ctx: VeroneseContext, z, i: int) -> list:
    """The chart-i inverse of the point z of P^N before normalizing: its
    entries on the column based at x_i^(d-1)."""
    return [z[k] for k in chart_indices(ctx, i)]


def inverse_on_chart(ctx: VeroneseContext, Q: ProjectivePoint, i: int) -> ProjectivePoint:
    """The chart-i inverse: reads the matrix column based at x_i^(d-1).

    Requires the chart to be available (z_{d e_i} nonzero at Q).
    """
    if not 0 <= i <= ctx.n:
        raise ContractError(f"chart index {i} out of range for n={ctx.n}")
    _require_target(ctx, Q)
    column = _column(ctx, Q.coords, i)
    if not column[i]:
        raise NoChartError(f"chart {i} unavailable: coordinate z_{{d e_{i}}} is zero")
    return normalize(ProjectivePoint(Q.field, tuple(column)))


def inverse_map(ctx: VeroneseContext, Q: ProjectivePoint) -> ProjectivePoint:
    """Preimage of a variety point under the embedding.

    Trusts the caller that Q is on the variety: off it, the result is the
    column of the first available chart and means nothing.  A caller that
    does not know tests is_on_variety first, as the invert command does.
    """
    return inverse_on_chart(ctx, Q, chart_select(ctx, Q))


def available_charts(ctx: VeroneseContext, Q: ProjectivePoint) -> tuple[int, ...]:
    """All i with the pure-power coordinate z_{d e_i} nonzero at Q."""
    _require_target(ctx, Q)
    return _charts(ctx, Q.coords)


def _charts(ctx: VeroneseContext, z) -> tuple[int, ...]:
    """available_charts on the coordinates z of a point of P^N: field
    elements, or ints reduced mod p as _integer_image gives them."""
    return tuple(i for i in range(ctx.n + 1) if z[chart_indices(ctx, i)[i]])


def _verify_point(ctx: VeroneseContext, v: list[int], p: int) -> tuple[bool, int, bool]:
    """The verify command's checks at the image of the point of P^n with
    ints (v, p), as projective.integer_coords or projective._random_ints
    give them, on the ints of _integer_image: whether the round trip holds
    (the image has rank one and the column of its first chart is v again),
    how many charts are available, and whether their columns are one
    point.  Like chart_select, a rank-one image with no chart raises
    NoChartError."""
    z, p = _integer_image(ctx, v, p)
    charts = _charts(ctx, z)
    ok = _rank_one(ctx, z, p) and _proportional(_column(ctx, z, _first_chart(charts)), v, p)
    columns = [_column(ctx, z, i) for i in charts]
    return ok, len(charts), all(_proportional(c, columns[0], p) for c in columns[1:])
