"""The coordinate matrix, its 2-minors, and the balanced quadric set."""

from itertools import combinations, product
from math import comb
from operator import add

import pytest

from veronese import (
    DEFAULT_BUDGET,
    Binomial2,
    ContractError,
    MultiIndex,
    VeroneseContext,
    build_matrix,
    enumerate_monomials,
    minors2,
    parse_binomial,
    sorted_binomials,
    toric_quadrics,
)
from veronese.matrix import binomial_quad, check_minor_budget

from reference import build_matrix_by_columns, bump, ref_toric_quadrics

# golden fixture: the 3x6 grid of the degree-3 embedding of the plane
PLANE_CUBIC_GRID = [
    [(3,0,0),(2,1,0),(2,0,1),(1,2,0),(1,1,1),(1,0,2)],
    [(2,1,0),(1,2,0),(1,1,1),(0,3,0),(0,2,1),(0,1,2)],
    [(2,0,1),(1,1,1),(1,0,2),(0,2,1),(0,1,2),(0,0,3)],
]


def minors_by_brute_force(n: int, d: int) -> set[frozenset]:
    """Independent oracle: every 2x2 subdeterminant, deduplicated by the
    orientation-free encoding {pos pair, neg pair} as a set of two pairs."""
    grid = [
        [t for t in sorted(
            (t for t in product(range(d + 1), repeat=n + 1) if sum(t) == d and t[i] >= 1),
            reverse=True)]
        for i in range(n + 1)
    ]
    out = set()
    for i, j in combinations(range(len(grid)), 2):
        for k, l in combinations(range(len(grid[0])), 2):
            diag = tuple(sorted((grid[i][k], grid[j][l])))
            anti = tuple(sorted((grid[i][l], grid[j][k])))
            if diag != anti:
                out.add(frozenset((diag, anti)))
    return out


def as_orientation_free(bs) -> set[frozenset]:
    return {
        frozenset((tuple(sorted(map(tuple, b.pos))), tuple(sorted(map(tuple, b.neg)))))
        for b in bs
    }


class TestBuildMatrix:
    def test_plane_cubic_fixture(self):
        m = build_matrix(VeroneseContext(2, 3))
        assert m.shape == (3, 6)
        assert [[tuple(e) for e in row] for row in m.entries] == PLANE_CUBIC_GRID

    def test_single_column(self):
        m = build_matrix(VeroneseContext(1, 1))
        assert [[tuple(e) for e in row] for row in m.entries] == [[(1, 0)], [(0, 1)]]

    def test_two_by_three(self):
        m = build_matrix(VeroneseContext(1, 3))
        assert [[tuple(e) for e in row] for row in m.entries] == [
            [(3, 0), (2, 1), (1, 2)],
            [(2, 1), (1, 2), (0, 3)],
        ]

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("d", range(1, 6))
    def test_shape_law(self, n, d):
        m = build_matrix(VeroneseContext(n, d))
        assert m.shape == (n + 1, comb(n + d - 1, n))

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_row_structure(self, n, d):
        m = build_matrix(VeroneseContext(n, d))
        bases = enumerate_monomials(n, d - 1)
        for i, row in enumerate(m.entries):
            assert all(e[i] >= 1 for e in row)
            assert list(row) == sorted(row, reverse=True)
            assert sorted(row) == sorted(bump(b, i) for b in bases)

    def test_serialization_document(self):
        doc = build_matrix(VeroneseContext(1, 2)).to_doc()
        assert doc == {"n": 1, "d": 2, "rows": [[[2, 0], [1, 1]], [[1, 1], [0, 2]]]}


class TestColumnConstruction:
    def test_first_column_of_plane_cubic(self):
        m = build_matrix_by_columns(VeroneseContext(2, 3))
        assert [tuple(row[0]) for row in m.entries] == [(3, 0, 0), (2, 1, 0), (2, 0, 1)]

    def test_conic_columns(self):
        m = build_matrix_by_columns(VeroneseContext(1, 2))
        assert [tuple(row[0]) for row in m.entries] == [(2, 0), (1, 1)]
        assert [tuple(row[1]) for row in m.entries] == [(1, 1), (0, 2)]

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("d", range(1, 6))
    def test_agrees_with_row_construction(self, n, d):
        ctx = VeroneseContext(n, d)
        assert build_matrix_by_columns(ctx).entries == build_matrix(ctx).entries


class TestMinors:
    def test_single_minor_of_conic(self):
        ms = minors2(build_matrix(VeroneseContext(1, 2)))
        assert len(ms) == 1
        (b,) = ms
        assert str(b) == "z_{2,0} z_{0,2} - z_{1,1}^2"

    def test_twisted_cubic_minors(self):
        ms = minors2(build_matrix(VeroneseContext(1, 3)))
        assert {str(b) for b in ms} == {
            "z_{3,0} z_{1,2} - z_{2,1}^2",
            "z_{3,0} z_{0,3} - z_{2,1} z_{1,2}",
            "z_{2,1} z_{0,3} - z_{1,2}^2",
        }

    def test_plane_conic_dedup(self):
        # 9 raw 2x2 submatrices collapse to 6 distinct binomials
        ms = minors2(build_matrix(VeroneseContext(2, 2)))
        assert len(ms) == 6

    @pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)])
    def test_against_brute_force_oracle(self, n, d):
        ms = minors2(build_matrix(VeroneseContext(n, d)))
        assert as_orientation_free(ms) == minors_by_brute_force(n, d)

    def test_small_matrices_have_no_minors(self):
        assert minors2(build_matrix(VeroneseContext(1, 1))) == frozenset()
        assert minors2(build_matrix(VeroneseContext(0, 3))) == frozenset()

    @pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_balance_invariant(self, n, d):
        for b in minors2(build_matrix(VeroneseContext(n, d))):
            assert list(map(add, *b.pos)) == list(map(add, *b.neg))
            assert set(b.pos) != set(b.neg) or b.pos != b.neg


class TestToricQuadrics:
    def test_conic(self):
        ts = toric_quadrics(VeroneseContext(1, 2))
        assert {str(b) for b in ts} == {"z_{2,0} z_{0,2} - z_{1,1}^2"}

    def test_degree_one_empty(self):
        assert toric_quadrics(VeroneseContext(1, 1)) == frozenset()

    @pytest.mark.parametrize("n", range(1, 4))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_contains_minors(self, n, d):
        ctx = VeroneseContext(n, d)
        assert minors2(build_matrix(ctx)) <= toric_quadrics(ctx)

    def test_proper_containment_happens(self):
        ctx = VeroneseContext(1, 4)
        ms, ts = minors2(build_matrix(ctx)), toric_quadrics(ctx)
        assert ms < ts and len(ms) == 6 and len(ts) == 7

    @pytest.mark.parametrize("n", range(0, 5))
    @pytest.mark.parametrize("d", range(1, 6))
    def test_direct_build_equals_canonicalizing_reference(self, n, d):
        ctx = VeroneseContext(n, d)
        check_minor_budget(ctx, DEFAULT_BUDGET)
        assert toric_quadrics(ctx) == ref_toric_quadrics(ctx)


class TestBinomialCanonicalForm:
    def test_negation_identified(self):
        a, b = MultiIndex((2, 0)), MultiIndex((0, 2))
        c = MultiIndex((1, 1))
        assert Binomial2.canonical((a, b), (c, c)) == Binomial2.canonical((c, c), (a, b))

    def test_identically_zero_dropped(self):
        a, b = MultiIndex((2, 0)), MultiIndex((0, 2))
        assert Binomial2.canonical((a, b), (b, a)) is None

    def test_unbalanced_rejected(self):
        with pytest.raises(ContractError):
            Binomial2((MultiIndex((2, 0)), MultiIndex((2, 0))), (MultiIndex((1, 1)), MultiIndex((0, 2))))

    @pytest.mark.parametrize("text", [
        "z_{3,0,0} z_{1,1,0} - z_{2,1,0} z_{2,0,0}",  # degree 3 in a degree-2 context
        "z_{2,0} z_{0,2} - z_{1,1}^2",  # two variables in a three-variable context
    ])
    def test_foreign_quadric_has_no_quad(self, text):
        assert binomial_quad(VeroneseContext(2, 2), parse_binomial(text)) is None

    def test_string_roundtrip(self):
        for ctx in (VeroneseContext(1, 3), VeroneseContext(2, 2)):
            for b in sorted_binomials(minors2(build_matrix(ctx))):
                assert parse_binomial(str(b)) == b

    def test_listing_is_deterministic(self):
        ctx = VeroneseContext(2, 2)
        once = [str(b) for b in sorted_binomials(minors2(build_matrix(ctx)))]
        again = [str(b) for b in sorted_binomials(minors2(build_matrix_by_columns(ctx)))]
        assert once == again
