"""Exhaustive finite-field comparison of the minor variety with the image.

Desk-scale evidence for the set equality V(2-minors) = image of the
embedding: find every canonical point of P^N(F_q) where all minors
vanish, and compare with the image of P^n(F_q).  The same
machinery compares the minor set against the full balanced-quadric
generating set.

The minor-vanishing derivations behind the equality use only field axioms,
so a check over F_q exercises the identical algebra as any other field;
the reports say so explicitly to keep the evidence honest.

Each side is a set of residue codes: the canonical point v of P^m(F_q) is
the int sum_j v_j q^(m-j), its first coordinate the most significant
digit, so int order is the listing order of the points.  All sides rest
on projective._search, the package's one enumeration of the canonical
points of P^m(F_q), which census runs once over P^N(F_q) and once over
P^n(F_q):

- the minor variety is that depth-first search over z_0, ..., z_N pruned
  by the quads of matrix._minor_quads, the minor table;
- the toric variety is the minor variety filtered by the quads of
  matrix._toric_quads (those of toric_quadrics, from the same code-sum
  grouping) that are no minors.  Every minor quad is a toric quad, so the
  rest cut the toric variety out of the minor variety; for d <= 3 there
  are none, and the minor variety is reused as it stands;
- the image is multiindex._monomial_values of every canonical x the
  search streams for P^n(F_q).  Each image is canonical as it stands: its
  first nonzero coordinate is x_k^d = 1, for x_k = 1 the first nonzero
  coordinate of x.

census compares code sets and builds a ProjectivePoint only for a
witness; brute_force_variety turns the codes of the minor variety into
points.  _vanishing_codes is the one search that takes arbitrary quads.

Every search is bounded before it starts.  The minor variety's search
refuses a context whose 2-minor candidate count C(n+1, 2) * C(cols, 2)
exceeds the budget before it builds the minor table, the guard every
command applies; each search of P^N(F_q) then refuses an estimate,
points x quadrics, that exceeds it.  The toric side only filters, but
checks the estimate of a search by its quads, so it refuses exactly where
such a search would.
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


def _codes(vectors, q: int) -> set[int]:
    """The residue code of each residue vector, its first entry the most
    significant base-q digit."""
    out = set()
    for v in vectors:
        code = 0
        for c in v:
            code = code * q + c
        out.add(code)
    return out


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


def _vanishing_codes(ctx: VeroneseContext, q: int, quads, count: int, budget: int) -> set[int]:
    """The codes of the canonical points of P^N(F_q), q a prime, at which
    the count given quads vanish, refused when points x quadrics exceeds
    the budget; the quads are read only once the estimate passes."""
    _check_search_budget(ctx, q, count, budget)
    return _codes(_search(ctx.N, q, quads), q)


def _variety_codes(ctx: VeroneseContext, q: int, budget: int) -> set[int]:
    """V(2-minors)(F_q) as codes; the 2-minor candidate guard runs before
    the minor table is built."""
    check_minor_budget(ctx, budget)
    q = PrimeField(q).p
    table = _minor_quads(ctx)
    return _vanishing_codes(ctx, q, _quads(table), len(table) // 4, budget)


def _image_codes(ctx: VeroneseContext, q: int) -> set[int]:
    """The embedding image of P^n(F_q) as codes, q a prime (module
    docstring)."""
    d = ctx.d
    return _codes((_monomial_values(x, d, q) for x in _search(ctx.n, q)), q)


def brute_force_variety(ctx: VeroneseContext, q: int, budget: int = DEFAULT_BUDGET) -> set[ProjectivePoint]:
    """V(2-minors)(F_q) as a set of canonical points; the 2-minor candidate
    guard runs before the minor table is built."""
    codes = _variety_codes(ctx, q, budget)
    return set(_points(PrimeField(q), ctx.N, codes))


def _report(ctx: VeroneseContext, q: int, kind: str, variety: set[int], other: set[int]) -> EqualityReport:
    return EqualityReport(
        ctx=ctx,
        q=q,
        kind=kind,
        variety_count=len(variety),
        image_count=len(other),
        expected_count=count_projective_points(ctx.n, q),
        equal=variety == other,
        witnesses=tuple(_points(PrimeField(q), ctx.N, variety ^ other)),
    )


def _image_report(ctx: VeroneseContext, q: int, variety: set[int]) -> EqualityReport:
    return _report(ctx, q, "veronese-image", variety, _image_codes(ctx, q))


def _toric_report(ctx: VeroneseContext, q: int, variety: set[int], budget: int) -> EqualityReport:
    """The toric comparison for the codes of the minor variety V(M), M the
    minor quads and T the toric quads.  M is a subset of T, so V(T) is V(M)
    cut by the quads of T - M: the variety filtered by them, or the variety
    as it stands when there are none, as for d <= 3.  The estimate of a
    search by T, points x |T|, is checked first."""
    quads = _toric_quads(ctx)
    _check_search_budget(ctx, q, len(quads), budget)
    minors = set(_quads(_minor_quads(ctx)))
    extra = [t for t in quads if t not in minors]
    codes = {c for c in variety if _vanishes(_vector(c, q, ctx.N), extra, q)} if extra else variety
    return _report(ctx, q, "toric-quadrics", variety, codes)


def _vanishes(v: list[int], quads, q: int) -> bool:
    """Whether every quad (a, b, c, e) vanishes at the residue vector v,
    v_a v_b = v_c v_e mod q."""
    return not any((v[a] * v[b] - v[c] * v[e]) % q for a, b, c, e in quads)


def check_set_equality(ctx: VeroneseContext, q: int, budget: int = DEFAULT_BUDGET) -> EqualityReport:
    """Compare V(2-minors)(F_q) with the embedding image; equality expected."""
    return _image_report(ctx, q, _variety_codes(ctx, q, budget))


def check_toric_equality(ctx: VeroneseContext, q: int, budget: int = DEFAULT_BUDGET) -> EqualityReport:
    """Compare V(2-minors)(F_q) with the vanishing set of all balanced
    quadrics; the latter generator set is larger, so its variety can only
    be smaller, and equality is the content."""
    return _toric_report(ctx, q, _variety_codes(ctx, q, budget), budget)


def census(
    ctx: VeroneseContext, q: int, budget: int = DEFAULT_BUDGET
) -> tuple[EqualityReport, EqualityReport]:
    """check_set_equality and check_toric_equality, in that order, sharing
    one search for V(2-minors)(F_q), which the toric side filters."""
    variety = _variety_codes(ctx, q, budget)
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
