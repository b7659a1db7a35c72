"""Exhaustive finite-field comparisons."""

import tracemalloc
from array import array
from itertools import chain, product
from random import Random

import pytest

from veronese import (
    BudgetError,
    PrimeField,
    VeroneseContext,
    brute_force_variety,
    census,
    count_projective_points,
    format_point,
    normalize,
    point,
    report_to_doc,
    veronese_eval,
)
from veronese import oracle
from veronese.matrix import (
    DEFAULT_BUDGET,
    _minor_quads,
    _quads,
    _toric_quads,
    binomial_quad,
    cached_minors,
    check_minor_budget,
    sorted_binomials,
    toric_quadrics,
)
from veronese.multiindex import coordinate_index
from veronese.oracle import EqualityReport
from veronese.projective import ProjectivePoint, _search, enumerate_projective_points

# frozen by an independent brute-force enumeration over all residue vectors
FROZEN_VARIETY_COUNTS = {
    (1, 2, 2): 3, (1, 2, 3): 4, (1, 2, 5): 6,
    (1, 3, 2): 3, (1, 3, 3): 4,
    (1, 4, 2): 3, (1, 4, 3): 4,
    (2, 2, 2): 7, (2, 2, 3): 13, (2, 2, 5): 31,
    (2, 3, 2): 7, (2, 3, 3): 13,
}


def _product_filter(N, q, lead, quads):
    """Reference filter: scan every residue vector with leading 1 at `lead`."""
    head = (0,) * lead + (1,)
    out = []
    for tail in product(range(q), repeat=N - lead):
        v = head + tail
        for ia, ib, ic, ie in quads:
            if (v[ia] * v[ib] - v[ic] * v[ie]) % q:
                break
        else:
            out.append(v)
    return out


GENERATOR_SETS = {
    "minors": cached_minors,
    "toric": toric_quadrics,
    "one-minor": lambda ctx: frozenset(sorted_binomials(cached_minors(ctx))[:1]),
}


def _product_reference(N, q, quads):
    """The partitions of _product_filter concatenated, leading 1 at N first."""
    return [v for lead in range(N, -1, -1) for v in _product_filter(N, q, lead, quads)]


class TestSearchAgainstProductReference:
    @pytest.mark.parametrize("gens", sorted(GENERATOR_SETS))
    @pytest.mark.parametrize("n,d,q", sorted(FROZEN_VARIETY_COUNTS) + [(3, 2, 3), (3, 3, 2)])
    def test_identical_partitions(self, n, d, q, gens):
        ctx = VeroneseContext(n, d)
        quads = sorted(binomial_quad(ctx, b) for b in GENERATOR_SETS[gens](ctx))
        assert list(_search(ctx.N, q, quads)) == _product_reference(ctx.N, q, quads)

    @pytest.mark.parametrize("seed", range(6))
    def test_identical_partitions_for_arbitrary_quads(self, seed):
        # unbalanced quads; some seeds draw one that fails on the leading-1 head alone
        rng = Random(seed)
        N, q = 4, 3
        quads = [tuple(rng.randrange(N + 1) for _ in range(4)) for _ in range(rng.randrange(1, 4))]
        assert list(_search(N, q, quads)) == _product_reference(N, q, quads)

    @pytest.mark.parametrize("m,q", [(0, 2), (1, 2), (2, 3), (3, 2), (2, 5), (4, 3), (1, 7)])
    def test_enumeration_is_the_search_without_quadrics(self, m, q):
        points = [tuple(c.value for c in P) for P in enumerate_projective_points(m, q)]
        assert points == _product_reference(m, q, [])


class TestBruteForceVariety:
    def test_conic_over_f3(self):
        pts = brute_force_variety(VeroneseContext(1, 2), 3)
        assert len(pts) == 4

    def test_no_minors_means_everything(self):
        pts = brute_force_variety(VeroneseContext(1, 1), 2)
        assert len(pts) == 3  # all of the projective line over F_2

    def test_plane_conic_over_f2(self):
        pts = brute_force_variety(VeroneseContext(2, 2), 2)
        assert len(pts) == 7  # all of P^2(F_2), embedded

    def test_budget_refusal(self):
        ctx = VeroneseContext(2, 3)
        with pytest.raises(BudgetError) as err:
            brute_force_variety(ctx, 5, budget=1000)
        assert err.value.estimated > err.value.budget


def image_points(ctx, q):
    """The embedding image of P^n(F_q) as census makes it, its residue
    codes read back as canonical points."""
    return set(oracle._points(PrimeField(q), ctx.N, oracle._image_codes(ctx, q)))


class TestBruteForceImage:
    def test_conic_image_over_f2(self):
        pts = image_points(VeroneseContext(1, 2), 2)
        assert {format_point(p) for p in pts} == {"[0 : 0 : 1]", "[1 : 0 : 0]", "[1 : 1 : 1]"}

    def test_point_source(self):
        pts = image_points(VeroneseContext(0, 3), 5)
        assert {format_point(p) for p in pts} == {"[1]"}

    def test_twisted_cubic_injective_over_f3(self):
        pts = image_points(VeroneseContext(1, 3), 3)
        assert len(pts) == 4

    @pytest.mark.parametrize("n,d,q", [(1, 2, 3), (1, 3, 2), (2, 2, 3)])
    def test_cardinality_is_source_count(self, n, d, q):
        assert len(image_points(VeroneseContext(n, d), q)) == count_projective_points(n, q)

    @pytest.mark.parametrize("n,d,q", [(1, 2, 3), (1, 4, 2), (2, 2, 2)])
    def test_image_inside_variety(self, n, d, q):
        ctx = VeroneseContext(n, d)
        assert image_points(ctx, q) <= brute_force_variety(ctx, q)

    def test_image_points_are_canonical(self):
        F = PrimeField(3)
        for p in image_points(VeroneseContext(1, 2), 3):
            assert normalize(p) == p
            assert p == point(F, [c.value for c in p.coords])


class TestSetEquality:
    @pytest.mark.parametrize("n,d,q", sorted(FROZEN_VARIETY_COUNTS))
    def test_equal_with_frozen_counts(self, n, d, q):
        rep = census(VeroneseContext(n, d), q)[0]
        assert rep.equal
        assert rep.witnesses == ()
        assert rep.variety_count == rep.image_count == rep.expected_count
        assert rep.variety_count == FROZEN_VARIETY_COUNTS[(n, d, q)]

    def test_degree_one_trivial(self):
        for q in (2, 5):
            rep = census(VeroneseContext(1, 1), q)[0]
            assert rep.equal and rep.variety_count == q + 1

    def test_report_document(self):
        doc = report_to_doc(census(VeroneseContext(1, 2), 3)[0])
        assert doc["equal"] is True
        assert doc["witnesses"] == []
        assert doc["comparison"] == "veronese-image"
        assert doc["variety_count"] == doc["image_count"] == doc["expected_count"] == 4
        assert "field-agnostic" in doc["note"]


class TestFrontier:
    # P^34(F_3) has about 2.5e16 points; only the pruned search reaches it
    @pytest.mark.parametrize("n,d,count", [(3, 4, 40), (4, 3, 121)])
    def test_beyond_brute_force(self, n, d, count):
        ctx = VeroneseContext(n, d)
        for rep in census(ctx, 3, budget=10**30):
            assert rep.equal
            assert rep.variety_count == rep.image_count == rep.expected_count == count


class TestToricEquality:
    @pytest.mark.parametrize("n,d,q", [(1, 3, 2), (1, 3, 3), (2, 2, 2), (2, 2, 3), (1, 4, 3)])
    def test_equal_vanishing_sets(self, n, d, q):
        rep = census(VeroneseContext(n, d), q)[1]
        assert rep.equal
        assert rep.variety_count == count_projective_points(n, q)

    def test_identical_generators_for_the_conic(self):
        rep = census(VeroneseContext(1, 2), 5)[1]
        assert rep.equal and rep.variety_count == rep.image_count == 6


class TestCensus:
    @pytest.mark.parametrize("n,d,q", [(1, 2, 3), (2, 2, 3), (1, 4, 3), (2, 3, 3)])
    def test_both_reports_from_one_minor_search(self, n, d, q, monkeypatch):
        # two searches: the source points of the image, then the minor
        # variety once; the toric variety filters the minor variety
        ctx = VeroneseContext(n, d)
        expected = census(ctx, q)
        searched = []
        search = oracle._search

        def counted(N, q, quads=()):
            quads = list(quads)
            searched.append((N, len(quads)))
            return search(N, q, quads)

        monkeypatch.setattr(oracle, "_search", counted)
        assert census(ctx, q) == expected
        assert searched == [(ctx.n, 0), (ctx.N, len(cached_minors(ctx)))]

    def test_image_points_off_the_variety_are_witnesses(self, monkeypatch):
        # the (1,2) table and one more quad, z_{2,0}^2 - z_{1,1} z_{0,2},
        # that fails at some image points: those are the image side alone
        ctx, q = VeroneseContext(1, 2), 3
        idx = coordinate_index(ctx)
        a, b, c, e = idx[(2, 0)], idx[(2, 0)], idx[(1, 1)], idx[(0, 2)]
        table = array("I", chain(_minor_quads(ctx), (a, b, c, e)))
        monkeypatch.setattr(oracle, "_minor_quads", lambda ctx: table)
        report, _ = census(ctx, q)
        failing = sorted((P for P in reference_image(ctx, q) if P[a] * P[b] != P[c] * P[e]),
                         key=lambda P: tuple(x.value for x in P.coords))
        assert [format_point(P) for P in failing] == ["[1 : 0 : 0]", "[1 : 2 : 1]"]
        assert report.witnesses == tuple(failing)
        assert report.variety_count == report.image_count - len(failing)
        assert not report.equal

    def test_only_the_image_is_held(self):
        # the variety streams past the image codes, so census peaks no
        # higher than building those codes alone, up to a margin
        ctx, q, budget = VeroneseContext(3, 1), 31, 10**15
        census(ctx, q, budget)  # builds the tables and every cache first

        def peak(fn, *args):
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(census, ctx, q, budget) <= 1.25 * peak(oracle._image_codes, ctx, q)

    def test_toric_search_still_budgeted(self):
        ctx, q = VeroneseContext(1, 4), 3
        points = count_projective_points(ctx.N, q)
        with pytest.raises(BudgetError) as exc:
            census(ctx, q, budget=points * len(cached_minors(ctx)))
        assert exc.value.estimated == points * len(toric_quadrics(ctx))


def search_codes(N, q, quads):
    """The residue codes of the canonical points of P^N(F_q) at which the
    quads vanish, read straight from the search."""
    return {oracle._code(v, q) for v in _search(N, q, quads)}


class TestVanishingSet:
    def test_empty_generators(self):
        ctx = VeroneseContext(1, 1)
        codes = search_codes(ctx.N, 3, [])
        assert len(codes) == count_projective_points(ctx.N, 3)

    def test_fewer_generators_grow_the_locus(self):
        ctx = VeroneseContext(1, 4)
        quads = list(_quads(_minor_quads(ctx)))
        full = search_codes(ctx.N, 3, quads)
        pruned = search_codes(ctx.N, 3, quads[:1])
        assert full <= pruned
        assert len(pruned) > len(full)

    def test_variety_points_satisfy_all_minors(self):
        ctx = VeroneseContext(1, 3)
        idx = {m: k for k, m in enumerate(ctx.monomials())}
        for P in brute_force_variety(ctx, 3):
            for b in cached_minors(ctx):
                (a, b2), (c, e) = b.pos, b.neg
                assert P[idx[a]] * P[idx[b2]] == P[idx[c]] * P[idx[e]]

    def test_roundtrip_on_variety_points(self):
        # every brute-force variety point comes back to itself
        from veronese import inverse_map, proj_eq
        for (n, d, q) in [(1, 3, 3), (2, 2, 3)]:
            ctx = VeroneseContext(n, d)
            for Q in brute_force_variety(ctx, q):
                assert proj_eq(veronese_eval(ctx, inverse_map(ctx, Q)), Q)


def reference_vanishing_set(ctx, q, binomials, budget=DEFAULT_BUDGET):
    """The vanishing set of the binomials on points: each vector of the
    search becomes a ProjectivePoint, refused when points x binomials
    exceeds the budget."""
    field = PrimeField(q)
    cost = count_projective_points(ctx.N, q) * max(1, len(binomials))
    if cost > budget:
        raise BudgetError(cost, budget)
    quads = sorted(binomial_quad(ctx, b) for b in binomials)
    return {ProjectivePoint(field, v) for v in _search(ctx.N, q, quads)}


def reference_image(ctx, q):
    """The embedding image of P^n(F_q), one veronese_eval per source point."""
    return {veronese_eval(ctx, x) for x in enumerate_projective_points(ctx.n, q)}


def reference_report(ctx, q, kind, variety, other):
    return EqualityReport(
        ctx=ctx, q=q, kind=kind, variety_count=len(variety), image_count=len(other),
        expected_count=count_projective_points(ctx.n, q), equal=variety == other,
        witnesses=tuple(sorted(variety ^ other, key=lambda p: tuple(c.value for c in p.coords))),
    )


def reference_census(ctx, q, budget=DEFAULT_BUDGET, minors=cached_minors, toric=toric_quadrics):
    """census on sets of ProjectivePoints, with the guards in the same
    order: the candidate guard, the minor search, the image, the toric
    search."""
    check_minor_budget(ctx, budget)
    variety = reference_vanishing_set(ctx, q, minors(ctx), budget)
    image = reference_report(ctx, q, "veronese-image", variety, reference_image(ctx, q))
    toric_set = reference_vanishing_set(ctx, q, toric(ctx), budget)
    return image, reference_report(ctx, q, "toric-quadrics", variety, toric_set)


def outcome(fn, *args):
    """fn(*args), or the text of the BudgetError it raises."""
    try:
        return fn(*args)
    except BudgetError as exc:
        return "refused", str(exc)


CENSUS_GRID = [(n, d, q) for n in range(4) for d in range(1, 5) for q in (2, 3, 5, 7)]

BENT_CASES = list(product([(1, 2, 3), (1, 4, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2)], range(3)))


def bent_binomials(ctx, seed):
    """Bent minor and toric tables, listed: one minor dropped and, where one
    exists, one balanced non-minor quadric added; a toric quadric dropped
    if it is no minor of that table, so every minor stays a toric quadric,
    as in every table of the package."""
    rng = Random(seed)
    minors = sorted_binomials(cached_minors(ctx))
    minors.pop(rng.randrange(len(minors)))
    extra = sorted_binomials(toric_quadrics(ctx) - cached_minors(ctx))
    if extra:
        minors.append(rng.choice(extra))
    toric = sorted_binomials(toric_quadrics(ctx))
    k = rng.randrange(len(toric))
    if toric[k] not in minors:
        toric.pop(k)
    return minors, toric


class TestCensusAgainstPointReference:
    """The residue-code census against the census on ProjectivePoints."""

    @pytest.mark.parametrize("n,d,q", CENSUS_GRID)
    def test_same_reports_or_refusal(self, n, d, q):
        ctx = VeroneseContext(n, d)
        expected = outcome(reference_census, ctx, q)
        assert outcome(census, ctx, q) == expected

    @pytest.mark.parametrize("n,d,q", [(2, 3, 5), (3, 3, 3), (1, 4, 7), (3, 2, 7)])
    def test_same_reports_past_the_default_budget(self, n, d, q):
        ctx = VeroneseContext(n, d)
        assert census(ctx, q, 10**30) == reference_census(ctx, q, 10**30)

    @pytest.mark.parametrize("n,d,q", [(n, d, q) for n, d, q in CENSUS_GRID if n + d <= 5 and q <= 5])
    def test_same_point_sets(self, n, d, q):
        ctx = VeroneseContext(n, d)
        assert outcome(brute_force_variety, ctx, q) == outcome(reference_vanishing_set, ctx, q, cached_minors(ctx))

    @pytest.mark.parametrize("budget", [0, 30, 300, 800, 3000, 30000])
    def test_same_refusal_text(self, budget):
        # small budgets refuse at the candidate guard, the minor search or,
        # at (1,4,3) with budget 800, the toric search
        for n, d, q in [(1, 2, 3), (1, 4, 3), (2, 2, 5), (2, 3, 2)]:
            ctx = VeroneseContext(n, d)
            assert outcome(census, ctx, q, budget) == outcome(reference_census, ctx, q, budget)

    def test_same_reports_for_bent_quad_sets(self, monkeypatch):
        # witnesses appear, and come in the same order
        witnesses = {"veronese-image": 0, "toric-quadrics": 0}
        for (n, d, q), seed in BENT_CASES:
            ctx = VeroneseContext(n, d)
            minors, toric = bent_binomials(ctx, seed)
            minor_quads = sorted(binomial_quad(ctx, b) for b in minors)
            toric_quads = [binomial_quad(ctx, b) for b in toric]
            monkeypatch.setattr(oracle, "_minor_quads", lambda ctx: array("I", chain.from_iterable(minor_quads)))
            monkeypatch.setattr(oracle, "_toric_quads", lambda ctx: list(toric_quads))
            reports = census(ctx, q)
            assert reports == reference_census(ctx, q, minors=lambda ctx: frozenset(minors),
                                               toric=lambda ctx: frozenset(toric))
            for r in reports:
                witnesses[r.kind] += len(r.witnesses)
        assert all(witnesses.values())


# |T - M| for T the toric quads and M the minor quads, by n and then by
# d = 1..5; M is a subset of T in every context
EXTRA_TORIC_QUADS = {
    0: [0, 0, 0, 0, 0],
    1: [0, 0, 0, 1, 3],
    2: [0, 0, 0, 21, 117],
    3: [0, 0, 0, 231, 1890],
    4: [0, 0, 0, 1540, 17050],
}

# past every estimate of CENSUS_GRID, whose pruned searches are all small
UNBOUNDED = 10**40


def bent_tables():
    """The contexts and bent minor and toric tables of
    test_same_reports_for_bent_quad_sets, as lists of quads."""
    for (n, d, q), seed in BENT_CASES:
        ctx = VeroneseContext(n, d)
        minors, toric = bent_binomials(ctx, seed)
        yield (ctx, q, sorted(binomial_quad(ctx, b) for b in minors),
               [binomial_quad(ctx, b) for b in toric])


def point_codes(points, q):
    return {oracle._code([c.value for c in P.coords], q) for P in points}


def census_toric_codes(ctx, q):
    """The toric residue codes census compares the minor variety with: the
    minor variety less the toric report's witnesses, which it keeps in
    full; and the number of searches census ran, the source points of the
    image and the minor variety."""
    searches = []
    search = oracle._search

    def counted(*args):
        searches.append(args)
        return search(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_search", counted)
        _, toric = census(ctx, q, UNBOUNDED)
    variety = point_codes(brute_force_variety(ctx, q, UNBOUNDED), q)
    return variety - point_codes(toric.witnesses, q), len(searches)


class TestToricReuse:
    """The toric side filters the minor variety by the toric quads that are
    no minors, against a search of P^N(F_q) by all toric quads."""

    @pytest.mark.parametrize("n", sorted(EXTRA_TORIC_QUADS))
    def test_minor_quads_are_toric_quads(self, n):
        for d, extra in enumerate(EXTRA_TORIC_QUADS[n], 1):
            ctx = VeroneseContext(n, d)
            toric, minors = set(_toric_quads(ctx)), set(_quads(_minor_quads(ctx)))
            assert minors <= toric
            assert len(toric - minors) == extra, (n, d)

    @pytest.mark.parametrize("n,d,q", CENSUS_GRID)
    def test_same_codes_as_a_toric_search(self, n, d, q):
        ctx = VeroneseContext(n, d)
        codes, searches = census_toric_codes(ctx, q)
        quads = _toric_quads(ctx)
        assert codes == search_codes(ctx.N, q, quads)
        assert searches == 2

    def test_same_codes_for_bent_quad_sets(self, monkeypatch):
        for ctx, q, minor_quads, toric_quads in bent_tables():
            assert set(minor_quads) <= set(toric_quads)
            monkeypatch.setattr(oracle, "_minor_quads", lambda ctx: array("I", chain.from_iterable(minor_quads)))
            monkeypatch.setattr(oracle, "_toric_quads", lambda ctx: list(toric_quads))
            codes, searches = census_toric_codes(ctx, q)
            assert codes == search_codes(ctx.N, q, toric_quads)
            assert searches == 2

    @pytest.mark.parametrize("n,d,q", [(1, 2, 3), (1, 4, 3), (2, 2, 3), (2, 3, 2)])
    def test_filter_alone_for_an_empty_minor_table(self, n, d, q, monkeypatch):
        # the minor variety is then all of P^N(F_q), and the filter by every
        # toric quad alone cuts the toric variety out of it
        ctx = VeroneseContext(n, d)
        monkeypatch.setattr(oracle, "_minor_quads", lambda ctx: array("I"))
        codes, searches = census_toric_codes(ctx, q)
        quads = _toric_quads(ctx)
        assert codes == search_codes(ctx.N, q, quads)
        assert len(codes) < count_projective_points(ctx.N, q)
        assert searches == 2
