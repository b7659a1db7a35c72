"""The degree-d embedding, membership in its determinantal model, and the
chartwise inverse.

A source point [x_0 : ... : x_n] maps to the vector of all degree-d
monomial values, ordered lex-descending so that coordinate rank(m) holds
x^m.  Membership in the model variety means every canonical 2-minor
vanishes exactly.  Points hold elements of their field, coerced when the
point is built.  is_on_variety tests the minors on plain ints: over Q on
the point scaled by the lcm of its denominators, over F_p on the residues.
failing_minor keeps field arithmetic, because it reports the minor's value
in the field.  The inverse reads off one matrix column: on the chart
where z_{d e_i} is nonzero, the column whose base is x_i^(d-1) lists
(x_0 x_i^(d-1) : ... : x_n x_i^(d-1)), a scalar multiple of the source
point.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .errors import ContractError, NoChartError
from .matrix import Binomial2, cached_minors, sorted_binomials
from .multiindex import MultiIndex, VeroneseContext, pure_power
from .projective import PrimeField, ProjectivePoint, Scalar, normalize


def _require_target(ctx: VeroneseContext, Q: ProjectivePoint) -> None:
    if Q.dim != ctx.N:
        raise ContractError(f"expected a point of P^{ctx.N}, got dimension {Q.dim}")


@lru_cache(maxsize=None)
def coordinate_index(ctx: VeroneseContext) -> dict[MultiIndex, int]:
    """Flat coordinate index of each degree-d exponent vector (its rank)."""
    return {m: k for k, m in enumerate(ctx.monomials())}


def indexed_binomials(
    ctx: VeroneseContext, binomials: frozenset[Binomial2]
) -> tuple[tuple[Binomial2, tuple[int, int, int, int]], ...]:
    """Binomials paired with the flat indices of their four coordinates, in
    the deterministic listing order."""
    idx = coordinate_index(ctx)
    return tuple(
        (b, (idx[b.pos[0]], idx[b.pos[1]], idx[b.neg[0]], idx[b.neg[1]]))
        for b in sorted_binomials(binomials)
    )


@lru_cache(maxsize=None)
def _minor_table(ctx: VeroneseContext) -> tuple[tuple[Binomial2, tuple[int, int, int, int]], ...]:
    """The minors as indexed_binomials, built once per context."""
    return indexed_binomials(ctx, cached_minors(ctx))


def veronese_eval(ctx: VeroneseContext, x: ProjectivePoint) -> ProjectivePoint:
    """Image of x under the degree-d embedding, normalized.

    Coordinate rank(m) of the result is the monomial value x^m.
    """
    if x.dim != ctx.n:
        raise ContractError(f"expected a point of P^{ctx.n}, got dimension {x.dim}")
    one = x.field.one
    # power table: pows[j][e] = x_j^e
    pows = []
    for c in x.coords:
        row = [one]
        for _ in range(ctx.d):
            row.append(row[-1] * c)
        pows.append(row)
    coords = []
    for m in ctx.monomials():
        v = one
        for j, e in enumerate(m):
            if e:
                v = v * pows[j][e]
        coords.append(v)
    return normalize(ProjectivePoint(x.field, tuple(coords)))


def is_on_variety(ctx: VeroneseContext, Q: ProjectivePoint) -> bool:
    """True iff every canonical 2-minor vanishes exactly at Q."""
    _require_target(ctx, Q)
    return _minors_vanish(_minor_table(ctx), Q)


def _minors_vanish(table, Q: ProjectivePoint) -> bool:
    """Whether every quad of table vanishes at Q, tested on plain ints.

    A 2-minor is a homogeneous quadric, so over Q scaling the point by L,
    the lcm of its denominators, leaves its vanishing unchanged; over F_p
    the residues are tested mod p.
    """
    if isinstance(Q.field, PrimeField):
        p = Q.field.p
        z = [c.value for c in Q.coords]
        for _, (ia, ib, ic, ie) in table:
            if (z[ia] * z[ib] - z[ic] * z[ie]) % p:
                return False
        return True
    L = lcm(*(v.denominator for v in Q.coords))
    z = [v.numerator * (L // v.denominator) for v in Q.coords]
    for _, (ia, ib, ic, ie) in table:
        if z[ia] * z[ib] != z[ic] * z[ie]:
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


def chart_column(ctx: VeroneseContext, i: int) -> tuple[MultiIndex, ...]:
    """Entries (d-1)e_i + e_j, j = 0..n, of the column based at x_i^(d-1);
    entry i is the pure power d e_i."""
    base = MultiIndex(ctx.d - 1 if k == i else 0 for k in range(ctx.n + 1))
    return tuple(base.bump(j) for j in range(ctx.n + 1))


def chart_select(ctx: VeroneseContext, Q: ProjectivePoint) -> int:
    """Smallest i whose pure-power coordinate z_{d e_i} is nonzero at Q.

    For a point satisfying all minors that index always exists; its absence
    certifies the input was no projective point of the variety at all.
    """
    charts = available_charts(ctx, Q)
    if not charts:
        raise NoChartError("every pure-power coordinate vanishes; no chart contains the point")
    return charts[0]


def inverse_on_chart(ctx: VeroneseContext, Q: ProjectivePoint, i: int) -> ProjectivePoint:
    """The chart-i inverse: reads the matrix column based at x_i^(d-1).

    Requires the chart to be available (z_{d e_i} nonzero at Q).
    """
    if not 0 <= i <= ctx.n:
        raise ContractError(f"chart index {i} out of range for n={ctx.n}")
    _require_target(ctx, Q)
    idx = coordinate_index(ctx)
    column = [Q.coords[idx[m]] for m in chart_column(ctx, i)]
    if not column[i]:
        raise NoChartError(f"chart {i} unavailable: coordinate z_{{d e_{i}}} is zero")
    return normalize(ProjectivePoint(Q.field, tuple(column)))


def inverse_map(ctx: VeroneseContext, Q: ProjectivePoint, check: bool = False) -> ProjectivePoint:
    """Preimage of a variety point under the embedding.

    Trusts the caller that Q is on the variety unless check=True (the
    membership test costs one pass over all minors, which oracle loops have
    already paid).
    """
    if check and not is_on_variety(ctx, Q):
        raise ContractError("point is not on the variety; no preimage exists")
    return inverse_on_chart(ctx, Q, chart_select(ctx, Q))


def available_charts(ctx: VeroneseContext, Q: ProjectivePoint) -> tuple[int, ...]:
    """All i with the pure-power coordinate z_{d e_i} nonzero at Q."""
    _require_target(ctx, Q)
    idx = coordinate_index(ctx)
    return tuple(i for i in range(ctx.n + 1) if Q.coords[idx[pure_power(ctx.n, ctx.d, i)]])
