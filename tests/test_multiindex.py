"""Exponent vectors, the monomial order, and enumeration/ranking."""

from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from veronese import (
    ContractError,
    MultiIndex,
    VeroneseContext,
    enumerate_monomials,
    parse_coordinate_name,
    pure_power,
)
from veronese.multiindex import coordinate_index


def pascal(a: int, b: int) -> int:
    """Independent oracle: Pascal-triangle recurrence."""
    if b < 0 or b > a:
        return 0
    if b == 0 or b == a:
        return 1
    return pascal(a - 1, b - 1) + pascal(a - 1, b)


def monomials_by_filter(n: int, d: int) -> list[MultiIndex]:
    """Independent oracle: generate-then-sort, no successor function."""
    all_tuples = [t for t in product(range(d + 1), repeat=n + 1) if sum(t) == d]
    return [MultiIndex(t) for t in sorted(all_tuples, reverse=True)]


def rank(m: MultiIndex) -> int:
    """Independent oracle for coordinate_index: the 0-based position of m
    in enumerate_monomials(len(m)-1, m.degree), counted in O((n+d) * n)
    from the block of monomials sharing each leading exponent."""
    r = 0
    d = m.degree
    nvars = len(m)  # variables still unassigned
    for e in m[:-1]:
        nvars -= 1
        # monomials whose current exponent exceeds e come earlier
        for c in range(e + 1, d + 1):
            r += comb(d - c + nvars - 1, nvars - 1)
        d -= e
    return r


class TestBinom:
    """A context's binomial counts: N + 1 = C(n+d, n) coordinates and
    cols = C(n+d-1, n) matrix columns."""

    def test_dimension_example(self):
        ctx = VeroneseContext(2, 3)
        assert (ctx.num_coords, ctx.N, ctx.cols) == (10, 9, 6)

    def test_edge_zero(self):
        for d in range(1, 8):
            ctx = VeroneseContext(0, d)
            assert ctx.num_coords == ctx.cols == 1

    def test_against_pascal(self):
        for n in range(8):
            for d in range(1, 8):
                ctx = VeroneseContext(n, d)
                assert ctx.num_coords == pascal(n + d, n)
                assert ctx.cols == pascal(n + d - 1, n)


class TestEnumeration:
    def test_displayed_coordinate_order(self):
        expected = [(3,0,0),(2,1,0),(2,0,1),(1,2,0),(1,1,1),(1,0,2),(0,3,0),(0,2,1),(0,1,2),(0,0,3)]
        assert [tuple(m) for m in enumerate_monomials(2, 3)] == expected

    def test_degree_one(self):
        assert [tuple(m) for m in enumerate_monomials(1, 1)] == [(1, 0), (0, 1)]

    def test_n3_d2_against_independent_generation(self):
        seq = enumerate_monomials(3, 2)
        assert len(seq) == 10
        assert list(seq) == monomials_by_filter(3, 2)

    @pytest.mark.parametrize("n", range(0, 7))
    @pytest.mark.parametrize("d", range(0, 7))
    def test_count_and_strict_descent(self, n, d):
        seq = enumerate_monomials(n, d)
        assert len(seq) == comb(n + d, n)
        assert all(m.degree == d for m in seq)
        for a, b in zip(seq, seq[1:]):
            assert a > b

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("d", range(7))
    def test_vectors_are_what_the_checked_constructor_makes(self, n, d):
        # each vector is made with tuple.__new__, skipping MultiIndex's checks
        for v in enumerate_monomials(n, d):
            assert type(v) is MultiIndex
            assert v == MultiIndex(list(v))
            assert all(type(e) is int for e in v)

    def test_degenerate(self):
        assert [tuple(m) for m in enumerate_monomials(2, 0)] == [(0, 0, 0)]
        assert [tuple(m) for m in enumerate_monomials(0, 5)] == [(5,)]

    @given(st.integers(0, 4), st.integers(0, 5))
    def test_matches_filter_oracle(self, n, d):
        assert list(enumerate_monomials(n, d)) == monomials_by_filter(n, d)

    def test_matches_sorted_compositions(self):
        def compositions(d, parts):
            if parts == 1:
                yield (d,)
                return
            for first in range(d + 1):
                for rest in compositions(d - first, parts - 1):
                    yield (first, *rest)

        for n in range(7):
            for d in range(8):
                expected = sorted(compositions(d, n + 1), reverse=True)
                assert [tuple(m) for m in enumerate_monomials(n, d)] == expected


class TestRank:
    def test_spec_examples(self):
        assert rank(MultiIndex((1, 1, 1))) == 4
        assert rank(MultiIndex((3, 0, 0))) == 0
        assert rank(MultiIndex((0, 0, 3))) == 9

    @pytest.mark.parametrize("n,d", [(0, 3), (1, 4), (2, 3), (3, 2), (4, 2)])
    def test_listing_position_and_order_reversal(self, n, d):
        seq = enumerate_monomials(n, d)
        index = coordinate_index(VeroneseContext(n, d))
        for k, m in enumerate(seq):
            assert rank(m) == index[m] == k
        # lex-larger monomial has the smaller rank
        for a, b in zip(seq, seq[1:]):
            assert rank(a) < rank(b)


class TestMultiIndex:
    def test_invariants(self):
        m = MultiIndex((2, 1, 0))
        assert len(m) == 3
        assert m.degree == 3

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            MultiIndex((1, -1))

    def test_textual_forms(self):
        m = MultiIndex((2, 1, 0))
        assert str(m) == "(2,1,0)"
        assert m.coordinate_name() == "z_{2,1,0}"
        assert m.monomial_name() == "x0^2*x1"
        assert MultiIndex((0, 0)).monomial_name() == "1"
        assert parse_coordinate_name("z_{2,1,0}") == m

    def test_pure_power(self):
        assert tuple(pure_power(2, 3, 1)) == (0, 3, 0)


class TestContext:
    def test_derived_dimensions(self):
        ctx = VeroneseContext(2, 3)
        assert ctx.N == 9
        assert ctx.cols == 6
        assert ctx.num_coords == len(ctx.monomials())

    def test_degenerate_allowed(self):
        assert VeroneseContext(0, 3).num_coords == 1
        assert VeroneseContext(0, 3).cols == 1
        assert VeroneseContext(2, 1).cols == 1

    # d = 0 has no coordinate matrix, and a bool passes isinstance(_, int)
    @given(st.integers(0, 3), st.integers(max_value=0))
    def test_context_needs_d_at_least_one_and_no_bools(self, n, d):
        with pytest.raises(ContractError, match=f"^d must be >= 1, got {d}$"):
            VeroneseContext(n, d)
        for bad in ((True, 1), (False, 1), (n, True), (n, False)):
            with pytest.raises(ContractError, match="^n and d must be ints"):
                VeroneseContext(*bad)
        assert VeroneseContext(0, 1).N == 0
        assert VeroneseContext(n, 1).N == n

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            VeroneseContext(-1, 2)
        with pytest.raises(ContractError):
            VeroneseContext(1, -2)

    # a float or text size was stored as given and failed later, e.g. in .N
    @pytest.mark.parametrize("n,d", [(2.5, 2), ("3", 2), (2, 2.0), (1, None)])
    def test_non_int_sizes_rejected(self, n, d):
        with pytest.raises(ContractError, match="^n and d must be ints"):
            VeroneseContext(n, d)

    def test_int_sizes_unchanged(self):
        assert (VeroneseContext(2, 3).n, VeroneseContext(2, 3).d) == (2, 3)
        assert VeroneseContext(10**30, 1).n == 10**30

    @given(st.integers(0, 5), st.integers(1, 5))
    def test_column_count_is_smaller_enumeration(self, n, d):
        ctx = VeroneseContext(n, d)
        assert ctx.cols == len(enumerate_monomials(n, d - 1))
