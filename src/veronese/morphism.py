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
vanishes.  _integer_image is the embedding on those ints, and
veronese_eval normalizes it into a point; _verify_point, the verify
command's per-point checks, keeps the ints and builds no point.

The minors of the coordinate matrix M vanish at a point exactly when M
has rank at most one there, so is_on_variety tests rank one through a
pivot instead of scanning every minor.  Let piv = M[i0][k0] be the first
nonzero entry in row-major order (one exists: every coordinate is an
entry, and a point has a nonzero coordinate).  The test checks

    M[i][k] * piv == M[i][k0] * M[i0][k]        for every i and k.

Each check is the minor on rows i0, i and columns k0, k, or identically
true when i = i0 or k = k0, so a point on the variety passes.
Conversely, if every check holds then M = (column k0)(row i0) / piv,
since piv is nonzero in an integral domain (Z, or F_p), so M has rank
one and every minor vanishes.  Rows above i0 are zero and row i0 holds
trivially, so only the rows below it are read.

failing_minor keeps field arithmetic over the minor table, the sorted
distinct quads of the index grid's 2x2 candidates, because it reports
the first failing minor in listing order and its value in the field.
The inverse reads off one matrix column: on the chart where z_{d e_i} is
nonzero, the column whose base is x_i^(d-1) lists
(x_0 x_i^(d-1) : ... : x_n x_i^(d-1)), a scalar multiple of the source
point.  On ints that column is compared with a point by
projective._proportional, without normalizing either.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ContractError, NoChartError
from .matrix import Binomial2, _grid_quads, _quad_binomials, build_matrix
from .multiindex import VeroneseContext, coordinate_index
from .projective import Fp, ProjectivePoint, Scalar, _proportional, integer_coords, normalize


def _require_target(ctx: VeroneseContext, Q: ProjectivePoint) -> None:
    if Q.dim != ctx.N:
        raise ContractError(f"expected a point of P^{ctx.N}, got dimension {Q.dim}")


@lru_cache(maxsize=None)
def _minor_table(ctx: VeroneseContext) -> tuple[tuple[Binomial2, tuple[int, int, int, int]], ...]:
    """The distinct minors as (Binomial2, quad) pairs, built once per
    context from the index grid, in listing order: ascending quads, since
    ranks reverse the lex order that sorted_binomials lists descending."""
    quads = sorted(set(_grid_quads(_index_grid(ctx))))
    return tuple(zip(_quad_binomials(ctx.monomials(), quads), quads))


def veronese_eval(ctx: VeroneseContext, x: ProjectivePoint) -> ProjectivePoint:
    """Image of x under the degree-d embedding, normalized.

    Coordinate coordinate_index(ctx)[m] of the result is the monomial
    value x^m.
    """
    coords, p = _integer_image(ctx, x)
    # x_j^d is nonzero for a nonzero x_j, so the image has a nonzero entry;
    # over F_p a product of residues is 0 mod p only when a factor is 0
    lead = next(c for c in coords if c)
    if p:
        inv = pow(lead, -1, p)
        image = tuple(Fp(c * inv, p) for c in coords)
    else:
        image = tuple(Fraction(c, lead) for c in coords)
    return ProjectivePoint(x.field, image)


def _integer_image(ctx: VeroneseContext, x: ProjectivePoint) -> tuple[list[int], int]:
    """The image of x as projective.integer_coords gives a point of P^N:
    the values v^m at (v, p) = integer_coords(x), reduced mod p if p."""
    if x.dim != ctx.n:
        raise ContractError(f"expected a point of P^{ctx.n}, got dimension {x.dim}")
    v, p = integer_coords(x)
    # power table: pows[j][e] = v_j^e, reduced mod p over F_p
    pows = []
    for c in v:
        row = [1]
        for _ in range(ctx.d):
            row.append(row[-1] * c % p if p else row[-1] * c)
        pows.append(row)
    coords = []
    for m in ctx.monomials():
        c = 1
        for j, e in enumerate(m):
            if e:
                c *= pows[j][e]
        coords.append(c % p if p else c)
    return coords, p


@lru_cache(maxsize=None)
def _index_grid(ctx: VeroneseContext) -> tuple[tuple[int, ...], ...]:
    """G[i][k] = coordinate_index(ctx)[beta_k + e_i]: the flat coordinate
    index of each entry of the coordinate matrix, beta_k the base of
    column k."""
    idx = coordinate_index(ctx)
    return tuple(tuple(idx[m] for m in row) for row in build_matrix(ctx).entries)


def is_on_variety(ctx: VeroneseContext, Q: ProjectivePoint) -> bool:
    """True iff every canonical 2-minor vanishes exactly at Q, decided as
    the rank-one test of the module docstring."""
    _require_target(ctx, Q)
    return _rank_one(ctx, *integer_coords(Q))


def _rank_one(ctx: VeroneseContext, z: list[int], p: int) -> bool:
    """The rank-one test on the ints (z, p) of a point of P^N, as
    projective.integer_coords or _integer_image give them."""
    M = [[z[a] for a in row] for row in _index_grid(ctx)]
    i0, k0 = next((i, k) for i, row in enumerate(M) for k, v in enumerate(row) if v)
    top = M[i0]
    piv = top[k0]
    for row in M[i0 + 1:]:
        c = row[k0]
        if p:
            if any((a * piv - c * b) % p for a, b in zip(row, top)):
                return False
        elif any(a * piv != c * b for a, b in zip(row, top)):
            return False
    return True


def failing_minor(ctx: VeroneseContext, Q: ProjectivePoint) -> tuple[Binomial2, Scalar] | None:
    """First minor (in listing order) that does not vanish at Q, with its
    value, an element of Q.field; None when Q is on the variety."""
    _require_target(ctx, Q)
    c = Q.coords
    for b, (ia, ib, ic, ie) in _minor_table(ctx):
        v = c[ia] * c[ib] - c[ic] * c[ie]
        if v:
            return b, v
    return None


@lru_cache(maxsize=None)
def chart_indices(ctx: VeroneseContext, i: int) -> tuple[int, ...]:
    """Coordinate indices of the entries (d-1)e_i + e_j, j = 0..n, of the
    column based at x_i^(d-1); entry i is the pure power z_{d e_i}."""
    idx = coordinate_index(ctx)
    base = [ctx.d - 1 if s == i else 0 for s in range(ctx.n + 1)]
    return tuple(idx[tuple(e + (s == j) for s, e in enumerate(base))] for j in range(ctx.n + 1))


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


def _verify_point(ctx: VeroneseContext, x: ProjectivePoint) -> tuple[bool, int, bool]:
    """The verify command's checks at the image of x, on the ints of
    _integer_image: whether the round trip holds (the image has rank one
    and the column of its first chart is x again), how many charts are
    available, and whether their columns are one point.  Like
    chart_select, a rank-one image with no chart raises NoChartError."""
    z, p = _integer_image(ctx, x)
    charts = _charts(ctx, z)
    ok = _rank_one(ctx, z, p) and _proportional(
        _column(ctx, z, _first_chart(charts)), integer_coords(x)[0], p)
    columns = [_column(ctx, z, i) for i in charts]
    return ok, len(charts), all(_proportional(c, columns[0], p) for c in columns[1:])
