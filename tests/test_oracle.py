"""Exhaustive finite-field comparisons."""

from itertools import product
from random import Random

import pytest

from veronese import (
    BudgetError,
    ContractError,
    PrimeField,
    VeroneseContext,
    brute_force_image,
    brute_force_variety,
    census,
    check_set_equality,
    check_toric_equality,
    count_projective_points,
    format_point,
    normalize,
    parse_binomial,
    point,
    report_to_doc,
    vanishing_set,
    veronese_eval,
)
from veronese import oracle
from veronese.matrix import binomial_quad, cached_minors, sorted_binomials, toric_quadrics
from veronese.projective import _search, enumerate_projective_points

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


class TestBruteForceImage:
    def test_conic_image_over_f2(self):
        pts = brute_force_image(VeroneseContext(1, 2), 2)
        assert {format_point(p) for p in pts} == {"[0 : 0 : 1]", "[1 : 0 : 0]", "[1 : 1 : 1]"}

    def test_point_source(self):
        pts = brute_force_image(VeroneseContext(0, 3), 5)
        assert {format_point(p) for p in pts} == {"[1]"}

    def test_twisted_cubic_injective_over_f3(self):
        pts = brute_force_image(VeroneseContext(1, 3), 3)
        assert len(pts) == 4

    @pytest.mark.parametrize("n,d,q", [(1, 2, 3), (1, 3, 2), (2, 2, 3)])
    def test_cardinality_is_source_count(self, n, d, q):
        assert len(brute_force_image(VeroneseContext(n, d), q)) == count_projective_points(n, q)

    @pytest.mark.parametrize("n,d,q", [(1, 2, 3), (1, 4, 2), (2, 2, 2)])
    def test_image_inside_variety(self, n, d, q):
        ctx = VeroneseContext(n, d)
        assert brute_force_image(ctx, q) <= brute_force_variety(ctx, q)

    def test_image_points_are_canonical(self):
        F = PrimeField(3)
        for p in brute_force_image(VeroneseContext(1, 2), 3):
            assert normalize(p) == p
            assert p == point(F, [c.value for c in p.coords])


class TestSetEquality:
    @pytest.mark.parametrize("n,d,q", sorted(FROZEN_VARIETY_COUNTS))
    def test_equal_with_frozen_counts(self, n, d, q):
        rep = check_set_equality(VeroneseContext(n, d), q)
        assert rep.equal
        assert rep.witnesses == ()
        assert rep.variety_count == rep.image_count == rep.expected_count
        assert rep.variety_count == FROZEN_VARIETY_COUNTS[(n, d, q)]

    def test_degree_one_trivial(self):
        for q in (2, 5):
            rep = check_set_equality(VeroneseContext(1, 1), q)
            assert rep.equal and rep.variety_count == q + 1

    def test_report_document(self):
        doc = report_to_doc(check_set_equality(VeroneseContext(1, 2), 3))
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
        for check in (check_set_equality, check_toric_equality):
            rep = check(ctx, 3, budget=10**30)
            assert rep.equal
            assert rep.variety_count == rep.image_count == rep.expected_count == count


class TestToricEquality:
    @pytest.mark.parametrize("n,d,q", [(1, 3, 2), (1, 3, 3), (2, 2, 2), (2, 2, 3), (1, 4, 3)])
    def test_equal_vanishing_sets(self, n, d, q):
        rep = check_toric_equality(VeroneseContext(n, d), q)
        assert rep.equal
        assert rep.variety_count == count_projective_points(n, q)

    def test_identical_generators_for_the_conic(self):
        rep = check_toric_equality(VeroneseContext(1, 2), 5)
        assert rep.equal and rep.variety_count == rep.image_count == 6


class TestCensus:
    @pytest.mark.parametrize("n,d,q", [(1, 2, 3), (2, 2, 3), (1, 4, 3), (2, 3, 3)])
    def test_both_reports_from_one_minor_search(self, n, d, q, monkeypatch):
        ctx = VeroneseContext(n, d)
        expected = (check_set_equality(ctx, q), check_toric_equality(ctx, q))
        searched = []
        search = oracle.vanishing_set

        def counted(*args):
            searched.append(args[2])
            return search(*args)

        monkeypatch.setattr(oracle, "vanishing_set", counted)
        assert census(ctx, q) == expected
        assert searched == [cached_minors(ctx), toric_quadrics(ctx)]

    def test_toric_search_still_budgeted(self):
        ctx, q = VeroneseContext(1, 4), 3
        points = count_projective_points(ctx.N, q)
        with pytest.raises(BudgetError) as exc:
            census(ctx, q, budget=points * len(cached_minors(ctx)))
        assert exc.value.estimated == points * len(toric_quadrics(ctx))


class TestVanishingSet:
    def test_empty_generators(self):
        ctx = VeroneseContext(1, 1)
        pts = vanishing_set(ctx, 3, frozenset())
        assert len(pts) == count_projective_points(ctx.N, 3)

    @pytest.mark.parametrize("text", [
        "z_{3,0,0} z_{1,1,0} - z_{2,1,0} z_{2,0,0}",  # degree 3 in a degree-2 context
        "z_{2,0} z_{0,2} - z_{1,1}^2",  # two variables in a three-variable context
    ])
    def test_foreign_quadric_refused(self, text):
        b = parse_binomial(text)
        with pytest.raises(ContractError) as exc:
            vanishing_set(VeroneseContext(2, 2), 3, frozenset({b}))
        assert str(exc.value) == (f"quadric {b} has an entry that is no degree-2 coordinate "
                                  "of VeroneseContext(n=2, d=2)")

    def test_fewer_generators_grow_the_locus(self):
        ctx = VeroneseContext(1, 4)
        full = vanishing_set(ctx, 3, cached_minors(ctx))
        pruned = vanishing_set(ctx, 3, frozenset(list(cached_minors(ctx))[:1]))
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
