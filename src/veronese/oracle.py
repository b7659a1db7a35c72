"""Exhaustive finite-field comparison of the minor variety with the image.

Desk-scale evidence for the set equality V(2-minors) = image of the
embedding: find every canonical point of P^N(F_q) where all minors
vanish, and compare with the image of P^n(F_q).  The same
machinery compares the minor set against the full balanced-quadric
generating set.  census is the one comparison: a caller who wants one
of its two reports reads census(...)[0], the image, or [1], the toric.

The minor-vanishing derivations behind the equality use only field axioms,
so a check over F_q exercises the identical algebra as any other field;
the reports say so explicitly to keep the evidence honest.

A point is held as its residue code: the canonical point v of P^m(F_q)
is the int sum_j v_j q^(m-j), its first coordinate the most significant
digit, so int order is the listing order of the points.  Both searches
are projective._search, the package's one enumeration of the canonical
points of P^m(F_q).  census runs it once over P^n(F_q), then once over
P^N(F_q), and holds only the image:

- the image is multiindex._monomial_values of every canonical x the
  search streams for P^n(F_q), held as a set of codes.  Each image is
  canonical as it stands: its first nonzero coordinate is x_k^d = 1, for
  x_k = 1 the first nonzero coordinate of x;
- the minor variety streams past it once, from the depth-first search
  over z_0, ..., z_N pruned by the quads of matrix._minor_quads, the
  minor table.  A variety point in the image is removed from the set, and
  one that is not is listed; what stays in the set is the image off the
  variety, and the two together are the symmetric difference;
- the toric variety is the minor variety cut by the quads of
  matrix._toric_quads (those of toric_quadrics, from the same code-sum
  grouping) that are no quads of the minor table.  Every minor quad is a
  toric quad, so a variety point at which one of the rest fails is listed
  as off the toric side; for d <= 3 there are none.

census builds a ProjectivePoint only for a witness; brute_force_variety
makes the points of the minor variety straight from the search.

Every search is bounded before any starts.  The 2-minor candidate guard,
C(n+1, 2) * C(cols, 2) against the budget, runs before the minor table
is built, the guard every command applies; then a search of P^N(F_q)
whose estimate, points x quadrics, exceeds the budget is refused, by the
minor quads and then by all toric quads.  The toric side runs no search
of its own, but refuses exactly where such a search would.
"""

from __future__ import annotations

from .errors import BudgetError, FrozenTuple
from .matrix import DEFAULT_BUDGET, _minor_quads, _quads, _toric_quads, check_minor_budget
from .multiindex import VeroneseContext, _monomial_values
from .projective import PrimeField, ProjectivePoint, _search, count_projective_points

FIELD_NOTE = (
    "exhaustive check over a prime field; the minor-vanishing algebra it "
    "exercises is field-agnostic, so this is desk-scale evidence for the "
    "set equality, not a proof over every field"
)


class EqualityReport(FrozenTuple):
    """Outcome of one exhaustive comparison over F_q.

    image_count is the cardinality of whichever set the variety was
    compared against (the embedding image, or the vanishing set of the
    balanced quadrics); kind names the comparison.
    """

    __slots__ = ()
    _fields = ("ctx", "q", "kind", "variety_count", "image_count", "expected_count", "equal", "witnesses")

    def __new__(cls, ctx: VeroneseContext, q: int, kind: str, variety_count: int, image_count: int,
                expected_count: int, equal: bool, witnesses: tuple[ProjectivePoint, ...]):
        return tuple.__new__(cls, (ctx, q, kind, variety_count, image_count, expected_count, equal, witnesses))


def _code(v, q: int) -> int:
    """The residue code of the residue vector v, its first entry the most
    significant base-q digit."""
    code = 0
    for c in v:
        code = code * q + c
    return code


def _vector(code: int, q: int, m: int) -> list[int]:
    """The residue vector of P^m(F_q) whose residue code is given."""
    v = [0] * (m + 1)
    for j in range(m, -1, -1):
        code, v[j] = divmod(code, q)
    return v


def _points(field: PrimeField, m: int, codes) -> list[ProjectivePoint]:
    """The points of P^m(field) whose residue codes are given, in listing
    order."""
    return [ProjectivePoint(field, _vector(code, field.p, m)) for code in sorted(codes)]


def _check_search_budget(ctx: VeroneseContext, q: int, count: int, budget: int) -> None:
    """Refuse a search of P^N(F_q) by count quads whose estimate, points x
    quadrics, exceeds the budget."""
    cost = count_projective_points(ctx.N, q) * max(1, count)
    if cost > budget:
        raise BudgetError(cost, budget)


def _image_codes(ctx: VeroneseContext, q: int) -> set[int]:
    """The embedding image of P^n(F_q) as codes, q a prime (module
    docstring)."""
    d = ctx.d
    return {_code(_monomial_values(x, d, q), q) for x in _search(ctx.n, q)}


def brute_force_variety(ctx: VeroneseContext, q: int, budget: int = DEFAULT_BUDGET) -> set[ProjectivePoint]:
    """V(2-minors)(F_q) as a set of canonical points; the 2-minor candidate
    guard runs before the minor table is built."""
    check_minor_budget(ctx, budget)
    field = PrimeField(q)
    table = _minor_quads(ctx)
    _check_search_budget(ctx, field.p, len(table) // 4, budget)
    return {ProjectivePoint(field, v) for v in _search(ctx.N, field.p, _quads(table))}


def census(
    ctx: VeroneseContext, q: int, budget: int = DEFAULT_BUDGET
) -> tuple[EqualityReport, EqualityReport]:
    """V(2-minors)(F_q) against the embedding image, then against the a
    priori smaller vanishing set of all balanced quadrics, from one stream
    past the held image codes (module docstring); all guards run first."""
    check_minor_budget(ctx, budget)
    field = PrimeField(q)
    q = field.p
    table = _minor_quads(ctx)
    _check_search_budget(ctx, q, len(table) // 4, budget)
    toric = _toric_quads(ctx)
    _check_search_budget(ctx, q, len(toric), budget)
    # T - M for M the quads of the table searched: they cut V(T) out of V(M)
    minors = set(_quads(table))
    extra = [t for t in toric if t not in minors]
    image = _image_codes(ctx, q)
    image_count = len(image)
    off_image, cut = [], []
    for v in _search(ctx.N, q, _quads(table)):
        code = _code(v, q)
        if code in image:
            image.remove(code)
        else:
            off_image.append(code)
        if extra and any((v[a] * v[b] - v[c] * v[e]) % q for a, b, c, e in extra):
            cut.append(code)
    # image now holds the image points off the variety
    variety_count = image_count - len(image) + len(off_image)
    expected = count_projective_points(ctx.n, q)
    return (
        EqualityReport(ctx, q, "veronese-image", variety_count, image_count, expected,
                       not (off_image or image), tuple(_points(field, ctx.N, off_image + list(image)))),
        EqualityReport(ctx, q, "toric-quadrics", variety_count, variety_count - len(cut), expected,
                       not cut, tuple(_points(field, ctx.N, cut))),
    )


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
