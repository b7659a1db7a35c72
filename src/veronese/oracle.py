"""Exhaustive finite-field comparison of the minor variety with the image.

Desk-scale evidence for the set equality V(2-minors) = image of the
embedding: find every canonical point of P^N(F_q) where all minors
vanish, and compare with the image of P^n(F_q).  The same
machinery compares the minor set against the full balanced-quadric
generating set.

The minor-vanishing derivations behind the equality use only field axioms,
so a check over F_q exercises the identical algebra as any other field;
the reports say so explicitly to keep the evidence honest.

Both sides rest on projective._search, the package's one enumeration of
the canonical points of P^m(F_q): the minor variety is that depth-first
search over z_0, ..., z_N pruned by the quadrics, read as index quads by
matrix.binomial_quad and sorted into listing order, and the image
applies the embedding to every point of P^n(F_q) it streams.

Every search is bounded before it starts.  brute_force_variety refuses a
context whose 2-minor candidate count C(n+1, 2) * C(cols, 2) exceeds the
budget before it builds the minor table, the guard every command applies;
vanishing_set then refuses a search whose estimate, points x quadrics,
exceeds it.
"""

from __future__ import annotations

from .errors import BudgetError, ContractError, Frozen
from .matrix import (
    DEFAULT_BUDGET,
    Binomial2,
    binomial_quad,
    cached_minors,
    check_minor_budget,
    toric_quadrics,
)
from .morphism import veronese_eval
from .multiindex import VeroneseContext
from .projective import (
    PrimeField,
    ProjectivePoint,
    _search,
    count_projective_points,
    enumerate_projective_points,
)

FIELD_NOTE = (
    "exhaustive check over a prime field; the minor-vanishing algebra it "
    "exercises is field-agnostic, so this is desk-scale evidence for the "
    "set equality, not a proof over every field"
)


class EqualityReport(Frozen):
    """Outcome of one exhaustive comparison over F_q.

    image_count is the cardinality of whichever set the variety was
    compared against (the embedding image, or the vanishing set of the
    balanced quadrics); kind names the comparison.
    """

    __slots__ = ("ctx", "q", "kind", "variety_count", "image_count", "expected_count", "equal",
                 "witnesses")

    def __init__(self, ctx: VeroneseContext, q: int, kind: str, variety_count: int, image_count: int,
                 expected_count: int, equal: bool, witnesses: tuple[ProjectivePoint, ...]):
        self._assign(ctx, q, kind, variety_count, image_count, expected_count, equal, witnesses)


def vanishing_set(
    ctx: VeroneseContext,
    q: int,
    binomials: frozenset[Binomial2],
    budget: int = DEFAULT_BUDGET,
) -> set[ProjectivePoint]:
    """All canonical points of P^N(F_q) where every given quadric vanishes.

    The budget is checked against the up-front estimate points x quadrics;
    a quadric with an entry that is no degree-d coordinate raises ContractError."""
    field = PrimeField(q)
    npoints = count_projective_points(ctx.N, q)
    cost = npoints * max(1, len(binomials))
    if cost > budget:
        raise BudgetError(cost, budget)
    quads = []
    for b in binomials:
        quad = binomial_quad(ctx, b)
        if quad is None:
            raise ContractError(f"quadric {b} has an entry that is no degree-{ctx.d} coordinate of {ctx}")
        quads.append(quad)
    quads.sort()
    return {ProjectivePoint(field, v) for v in _search(ctx.N, q, quads)}


def brute_force_variety(ctx: VeroneseContext, q: int, budget: int = DEFAULT_BUDGET) -> set[ProjectivePoint]:
    """V(2-minors)(F_q) as a set of canonical points; the 2-minor candidate
    guard runs before the minor table is built."""
    check_minor_budget(ctx, budget)
    return vanishing_set(ctx, q, cached_minors(ctx), budget)


def brute_force_image(ctx: VeroneseContext, q: int) -> set[ProjectivePoint]:
    """The embedding image of P^n(F_q), canonical and deduplicated."""
    return {veronese_eval(ctx, x) for x in enumerate_projective_points(ctx.n, q)}


def _sorted_witnesses(points) -> tuple[ProjectivePoint, ...]:
    return tuple(sorted(points, key=lambda p: tuple(c.value for c in p.coords)))


def _image_report(ctx: VeroneseContext, q: int, variety: set[ProjectivePoint]) -> EqualityReport:
    return _report(ctx, q, "veronese-image", variety, brute_force_image(ctx, q))


def _toric_report(ctx: VeroneseContext, q: int, variety: set[ProjectivePoint], budget: int) -> EqualityReport:
    toric = vanishing_set(ctx, q, toric_quadrics(ctx), budget)
    return _report(ctx, q, "toric-quadrics", variety, toric)


def _report(
    ctx: VeroneseContext, q: int, kind: str, variety: set[ProjectivePoint], other: set[ProjectivePoint]
) -> EqualityReport:
    return EqualityReport(
        ctx=ctx,
        q=q,
        kind=kind,
        variety_count=len(variety),
        image_count=len(other),
        expected_count=count_projective_points(ctx.n, q),
        equal=variety == other,
        witnesses=_sorted_witnesses(variety ^ other),
    )


def check_set_equality(ctx: VeroneseContext, q: int, budget: int = DEFAULT_BUDGET) -> EqualityReport:
    """Compare V(2-minors)(F_q) with the embedding image; equality expected."""
    return _image_report(ctx, q, brute_force_variety(ctx, q, budget))


def check_toric_equality(ctx: VeroneseContext, q: int, budget: int = DEFAULT_BUDGET) -> EqualityReport:
    """Compare V(2-minors)(F_q) with the vanishing set of all balanced
    quadrics; the latter generator set is larger, so its variety can only
    be smaller, and equality is the content."""
    return _toric_report(ctx, q, brute_force_variety(ctx, q, budget), budget)


def census(
    ctx: VeroneseContext, q: int, budget: int = DEFAULT_BUDGET
) -> tuple[EqualityReport, EqualityReport]:
    """check_set_equality and check_toric_equality, in that order, sharing
    one search for V(2-minors)(F_q)."""
    variety = brute_force_variety(ctx, q, budget)
    return _image_report(ctx, q, variety), _toric_report(ctx, q, variety, budget)


def report_to_doc(report: EqualityReport) -> dict:
    """JSON-ready report; at most 10 witnesses, deterministic order."""
    return {
        "n": report.ctx.n,
        "d": report.ctx.d,
        "q": report.q,
        "comparison": report.kind,
        "variety_count": report.variety_count,
        "image_count": report.image_count,
        "expected_count": report.expected_count,
        "equal": report.equal,
        "witnesses": [str(w) for w in report.witnesses[:10]],
        "note": FIELD_NOTE,
    }
