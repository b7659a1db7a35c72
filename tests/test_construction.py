"""The table construction path against the generator-based reference it
replaced, and the construction checks that must keep firing.

The reference primitives below are the earlier MultiIndex construction,
Binomial2 balance check and canonical ordering, and the earlier
minors2/toric_quadrics; componentwise sums are tuple(map(add, a, b)).  The
certificates and chains of the reference come from the object-based
generators kept in test_certificates, which run on these primitives; the
package generates them on coordinate indices.
"""

import ast
import gc
import re
from array import array
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import chain, combinations, starmap
from math import comb
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from veronese import (
    Binomial2,
    ContractError,
    MultiIndex,
    VeroneseContext,
    all_rewrite_chains,
    build_matrix,
    enumerate_monomials,
    minors2,
    SymbolicMatrix,
    parse_binomial,
    sorted_binomials,
    toric_quadrics,
    zero_propagation_certificate,
)
from veronese import matrix as matrix_module
from veronese import morphism
from veronese.multiindex import coordinate_index

from test_certificates import reference_rewrite_chain, reference_zero_propagation_certificate

CONTEXTS = [(1, 1), (0, 3), (1, 4), (2, 5), (3, 4), (4, 4)]


# ---------------------------------------------------------------------------
# reference primitives


def ref_new(cls, exponents):
    self = tuple.__new__(cls, (int(e) for e in exponents))
    if len(self) == 0:
        raise ContractError("a MultiIndex needs at least one exponent")
    if any(e < 0 for e in self):
        raise ContractError(f"negative exponent in {tuple(self)}")
    return self


def ref_ordered_pair(a, b):
    return (a, b) if tuple(a) >= tuple(b) else (b, a)


def ref_post_init(self):
    a, b = self.pos
    c, e = self.neg
    if not (len(a) == len(b) == len(c) == len(e)):
        raise ContractError("mixed-length multi-indices in a binomial")
    if tuple(map(add, a, b)) != tuple(map(add, c, e)):
        raise ContractError(f"unbalanced binomial: {a}*{b} vs {c}*{e}")


def ref_canonical(pair1, pair2):
    p1 = ref_ordered_pair(*pair1)
    p2 = ref_ordered_pair(*pair2)
    if p1 == p2:
        return None
    if tuple(p1[0]) > tuple(p2[0]):
        return Binomial2(p1, p2)
    return Binomial2(p2, p1)


def ref_minors2(matrix):
    nrows, ncols = matrix.shape
    out = set()
    for i, j in combinations(range(nrows), 2):
        ri, rj = matrix.entries[i], matrix.entries[j]
        for k, l in combinations(range(ncols), 2):
            b = Binomial2.canonical((ri[k], rj[l]), (ri[l], rj[k]))
            if b is not None:
                out.add(b)
    return frozenset(out)


def ref_toric_quadrics(ctx):
    monos = enumerate_monomials(ctx.n, ctx.d)
    by_sum = {}
    for idx, a in enumerate(monos):
        for b in monos[idx:]:
            by_sum.setdefault(tuple(map(add, a, b)), []).append((a, b))
    out = set()
    for pairs in by_sum.values():
        for p1, p2 in combinations(pairs, 2):
            b = Binomial2.canonical(p1, p2)
            if b is not None:
                out.add(b)
    return frozenset(out)


def clear_caches():
    for cache in (enumerate_monomials, matrix_module.cached_matrix, matrix_module.cached_minors,
                  morphism.coordinate_index, morphism._minor_quads, morphism._minor_table,
                  morphism.chart_indices):
        cache.cache_clear()


def plain_binomial(b):
    return (tuple(map(tuple, b.pos)), tuple(map(tuple, b.neg)))


def reference_chains(ctx):
    return [reference_rewrite_chain(ctx, i, m) for i in range(ctx.n + 1) for m in ctx.monomials()]


def plain_tables(ctx, build_minors, build_quadrics, build_cert, build_chains):
    """Every table as plain tuples, built from empty caches."""
    clear_caches()
    minors = build_minors(build_matrix(ctx))
    quadrics = build_quadrics(ctx)
    cert = build_cert(ctx)
    chains = list(build_chains(ctx))
    clear_caches()
    return {
        "minors": sorted(map(plain_binomial, minors)),
        "quadrics": sorted(map(plain_binomial, quadrics)),
        "cert": [(tuple(s.target), plain_binomial(s.minor), tuple(map(tuple, s.prerequisites)))
                 for s in cert.steps],
        "chains": [(c.chart, tuple(c.target), [plain_binomial(b) for b in c.steps]) for c in chains],
    }


@pytest.fixture
def reference_primitives(monkeypatch):
    monkeypatch.setattr(MultiIndex, "__new__", staticmethod(ref_new))
    monkeypatch.setattr(Binomial2, "__post_init__", ref_post_init)
    monkeypatch.setattr(Binomial2, "canonical", staticmethod(ref_canonical))
    monkeypatch.setattr(matrix_module, "_ordered_pair", ref_ordered_pair)
    yield
    monkeypatch.undo()
    clear_caches()


class TestAgainstReference:
    @pytest.mark.parametrize("n,d", CONTEXTS)
    def test_tables_equal(self, n, d, reference_primitives, monkeypatch):
        ctx = VeroneseContext(n, d)
        reference = plain_tables(ctx, ref_minors2, ref_toric_quadrics,
                                 reference_zero_propagation_certificate, reference_chains)
        monkeypatch.undo()
        fast = plain_tables(ctx, minors2, toric_quadrics, zero_propagation_certificate,
                            all_rewrite_chains)
        assert fast == reference
        assert sum(map(len, reference.values())) > 0

    @pytest.mark.parametrize("n,d", [(2, 3), (3, 4)])
    def test_fast_path_keeps_types(self, n, d):
        ctx = VeroneseContext(n, d)
        for b in minors2(build_matrix(ctx)) | toric_quadrics(ctx):
            assert all(type(m) is MultiIndex for m in (*b.pos, *b.neg))


TABLE_CONTEXTS = [(n, d) for n in range(5) for d in range(1, 6)] + [(5, 3), (6, 2)]


def listing(binomials):
    return [str(b) for b in sorted_binomials(binomials)]


class TestTablesOnTheIndexGrid:
    """minors2 and toric_quadrics build on coordinate-index quads.  Balance
    holds on packed exponent codes: toric_quadrics groups pairs by code
    sum, and matrix._require_balanced checks a grid once before
    matrix._quad_binomials turns its quads into binomials."""

    @pytest.mark.parametrize("n,d", TABLE_CONTEXTS)
    def test_tables_equal_reference(self, n, d, reference_primitives, monkeypatch):
        ctx = VeroneseContext(n, d)
        clear_caches()
        reference = ref_minors2(build_matrix(ctx)), ref_toric_quadrics(ctx)
        expected = [listing(table) for table in reference]
        monkeypatch.undo()
        clear_caches()
        fast = minors2(build_matrix(ctx)), toric_quadrics(ctx)
        assert fast == reference
        assert [listing(table) for table in fast] == expected

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)])
    def test_balance_on_codes_is_exact(self, n, d):
        # every quad a <= b, c <= e, a <= c: the packed code sums agree
        # exactly on the balanced ones, including the pure-power squares
        # whose pair sum 2d e_j has the digit 2d, the largest a pair sum can
        # hold.  The 2x2 grid ((a, c), (e, b)) has the one candidate
        # z_a z_b - z_c z_e, so the grid check and minors2 accept exactly
        # the balanced quads and name the others.
        ctx = VeroneseContext(n, d)
        monos = ctx.monomials()
        codes = matrix_module._packed_codes(monos)
        pairs = [(a, b) for a in range(len(monos)) for b in range(a, len(monos))]
        digits = Counter()
        for (a, b), (c, e) in combinations(pairs, 2):
            A, B, C, E = monos[a], monos[b], monos[c], monos[e]
            balanced = tuple(map(add, A, B)) == tuple(map(add, C, E))
            assert (codes[a] + codes[b] == codes[c] + codes[e]) is balanced
            grid = SymbolicMatrix(ctx, ((A, C), (E, B)))
            if balanced:
                matrix_module._require_balanced(monos, [[a, c], [e, b]])
                assert minors2(grid) == {Binomial2((A, B), (C, E))}
            else:
                # a == c leaves the canonical form with the pairs swapped
                named = f"{A}*{B} vs {C}*{E}" if a < c else f"{C}*{E} vs {A}*{B}"
                message = f"^unbalanced binomial: {re.escape(named)}$"
                with pytest.raises(ContractError, match=message):
                    matrix_module._require_balanced(monos, [[a, c], [e, b]])
                with pytest.raises(ContractError, match=message):
                    minors2(grid)
            digits[max(map(add, A, B))] += 1
        assert digits[2 * d] > 0

    @pytest.mark.parametrize("n", range(7))
    def test_pair_codes_are_the_pair_sums(self, n):
        # toric_quadrics groups pairs by code sum without a check, so for
        # d <= 7 code(A) + code(B) must depend on A + B alone and differ for
        # different sums: the packed codes are additive and injective on
        # degree-2d vectors.  ref packs a vector in base 100, a digit no
        # pair sum reaches, so it is both by construction.
        for d in range(1, 8):
            monos = enumerate_monomials(n, d)
            codes = matrix_module._packed_codes(monos)
            ref = [sum(e * 100 ** j for j, e in enumerate(m)) for m in monos]
            sums = {(ra + rb, ca + cb) for a, (ra, ca) in enumerate(zip(ref, codes))
                    for rb, cb in zip(ref[a:], codes[a:])}
            assert len({r for r, _ in sums}) == len({c for _, c in sums}) == len(sums), d
            assert len(sums) == comb(n + 2 * d, n)  # every degree-2d vector

    def test_unbalanced_quad_rejected(self):
        # the grid ((0, 1), (2, 0)) has the one candidate z_0 z_0 - z_1 z_2
        ctx = VeroneseContext(2, 2)
        monos = ctx.monomials()
        message = r"^unbalanced binomial: \(2,0,0\)\*\(2,0,0\) vs \(1,1,0\)\*\(1,0,1\)$"
        with pytest.raises(ContractError, match=message):
            matrix_module._require_balanced(monos, [[0, 1], [2, 0]])
        with pytest.raises(ContractError, match=message):
            minors2(SymbolicMatrix(ctx, ((monos[0], monos[1]), (monos[2], monos[0]))))

    @pytest.mark.parametrize("row", [0, 1])
    def test_ragged_grid_rejected(self, row):
        # the zip of two rows in _grid_quads would drop a longer row's tail
        ctx = VeroneseContext(2, 3)
        rows = [list(r) for r in build_matrix(ctx).entries]
        rows[row] = rows[row][:3]
        lengths = [6, 6, 6]
        lengths[row] = 3
        with pytest.raises(ContractError, match=re.escape(f"ragged grid: row lengths {lengths}")):
            SymbolicMatrix(ctx, tuple(map(tuple, rows)))

    def test_pairs_are_shared(self):
        ctx = VeroneseContext(3, 3)
        by_pair = {}
        for b in toric_quadrics(ctx):
            for pair in (b.pos, b.neg):
                assert by_pair.setdefault(pair, pair) is pair

    @pytest.mark.parametrize("entry", [(4, 0, 0), (1, 1, 0, 1), (0, 2, 0)])
    def test_foreign_grid_entry_rejected(self, entry):
        ctx = VeroneseContext(2, 3)
        rows = [list(row) for row in build_matrix(ctx).entries]
        rows[1][2] = MultiIndex(entry)
        foreign = SymbolicMatrix(ctx, tuple(map(tuple, rows)))
        with pytest.raises(ContractError, match=r"^grid entry .* is not a degree-3 coordinate of "
                                                r"VeroneseContext\(n=2, d=3\)$"):
            minors2(foreign)

    def test_identically_zero_candidates_dropped(self):
        # two equal rows: every candidate z_x z_y - z_y z_x is identically zero
        ctx = VeroneseContext(2, 3)
        row = build_matrix(ctx).entries[0]
        twin_rows = SymbolicMatrix(ctx, (row, row))
        assert minors2(twin_rows) == frozenset() == ref_minors2(twin_rows)
        assert matrix_module._canonical_quad(4, 2, 2, 4) is None

    @pytest.mark.parametrize("n", range(5))
    def test_minor_quads_are_the_sorted_distinct_grid_quads(self, n):
        # one flat array of canonical quads, built a leader at a time,
        # equals the sorted set of the grid's 2x2 candidates; the collector
        # finds no object in it but its type (an array is tracked from
        # Python 3.11 on, as an instance of a heap type)
        for d in range(1, 6):
            ctx = VeroneseContext(n, d)
            table = morphism._minor_quads(ctx)
            assert type(table) is array and table.typecode == "I" and len(table) % 4 == 0
            assert gc.get_referents(table) in ([], [array])
            quads = list(morphism._quads(table))
            assert quads == sorted(set(quads))
            assert all(a <= b and c <= e and a < c for a, b, c, e in quads)
            assert quads == sorted(set(matrix_module._grid_quads(morphism._index_grid(ctx))))
            assert len(quads) == len(minors2(build_matrix(ctx)))
            assert (not table) == (n == 0 or d == 1)

    @pytest.mark.parametrize("n", range(5))
    def test_minor_table_follows_the_listing_order(self, n):
        # ascending canonical quads are the lex-descending listing order:
        # the minor table, the benchmark's view of _minor_quads, holds
        # (Binomial2, quad) pairs in that order, the shape bench/tracer.py
        # reads, and sorting the quads of a table, as the oracle does,
        # lists it in that order too
        for d in range(1, 6):
            ctx = VeroneseContext(n, d)
            table = morphism._minor_table(ctx)
            assert all(type(b) is Binomial2 and type(q) is tuple and len(q) == 4 for b, q in table)
            quads = [q for _, q in table]
            assert quads == sorted(set(quads))
            assert all(q == matrix_module.binomial_quad(ctx, b) for b, q in table)
            assert [b for b, _ in table] == sorted_binomials(matrix_module.cached_minors(ctx))
            toric = sorted_binomials(toric_quadrics(ctx))
            toric_quads = [matrix_module.binomial_quad(ctx, b) for b in toric]
            assert toric_quads == sorted(toric_quads)

    def test_misplaced_grid_entry_is_unbalanced(self):
        # a degree-d coordinate in the wrong cell makes some candidate unbalanced
        ctx = VeroneseContext(2, 3)
        rows = [list(row) for row in build_matrix(ctx).entries]
        rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
        with pytest.raises(ContractError, match="^unbalanced binomial"):
            minors2(SymbolicMatrix(ctx, tuple(map(tuple, rows))))

    def test_builds_make_no_multiindex_once_monomials_are_cached(self, monkeypatch):
        # the tables make their binomials with tuple.__new__, in C for the
        # toric quadrics, so no public construction of either class runs
        ctx = VeroneseContext(3, 4)
        clear_caches()
        ctx.monomials()
        counts = Counter()
        new_index, new_binomial = MultiIndex.__new__, Binomial2.__new__

        def counting_index(cls, exponents):
            counts["MultiIndex"] += 1
            return new_index(cls, exponents)

        def counting_binomial(cls, pos, neg):
            counts["Binomial2"] += 1
            return new_binomial(cls, pos, neg)

        monkeypatch.setattr(MultiIndex, "__new__", staticmethod(counting_index))
        monkeypatch.setattr(Binomial2, "__new__", staticmethod(counting_binomial))
        quadrics = toric_quadrics(ctx)
        minors = minors2(build_matrix(ctx))
        assert counts == Counter()
        assert (len(minors), len(quadrics)) == (990, 1221)
        assert all(type(b) is Binomial2 for b in minors | quadrics)
        monkeypatch.undo()
        clear_caches()


# ---------------------------------------------------------------------------
# the grid rule against the per-candidate check it replaced


def candidate_quads(grid):
    """_canonical_quad of every 2x2 candidate, in _grid_quads order, None
    for the identically zero ones."""
    return [matrix_module._canonical_quad(ri[k], rj[l], ri[l], rj[k])
            for ri, rj in combinations(grid, 2) for k, l in combinations(range(len(ri)), 2)]


def reference_balance(monos, grid):
    """The message of the first unbalanced candidate, checked one by one on
    the vectors; None when every candidate balances."""
    for q in filter(None, candidate_quads(grid)):
        A, B, C, E = (monos[x] for x in q)
        if tuple(map(add, A, B)) != tuple(map(add, C, E)):
            return f"unbalanced binomial: {A}*{B} vs {C}*{E}"
    return None


def balance_message(check, *args):
    try:
        check(*args)
    except ContractError as exc:
        return str(exc)
    return None


@st.composite
def perturbed_grids(draw):
    """A build_matrix index grid, n <= 4 and d <= 5, with one or two
    entries swapped with another cell or replaced by another coordinate."""
    ctx = VeroneseContext(draw(st.integers(0, 4)), draw(st.integers(1, 5)))
    grid = [list(row) for row in morphism._index_grid(ctx)]
    rows, cols = len(grid), len(grid[0])
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for _ in range(draw(st.integers(1, 2))):
        i, k = draw(cells)
        if draw(st.booleans()):
            j, l = draw(cells)
            grid[i][k], grid[j][l] = grid[j][l], grid[i][k]
        else:
            grid[i][k] = draw(st.integers(0, len(ctx.monomials()) - 1))
    return ctx, grid


class TestGridRule:
    @settings(deadline=None)
    @given(perturbed_grids())
    def test_grid_check_agrees_with_the_candidates(self, case):
        ctx, grid = case
        monos = ctx.monomials()
        expected = reference_balance(monos, grid)
        assert balance_message(matrix_module._require_balanced, monos, grid) == expected
        entries = tuple(tuple(monos[x] for x in row) for row in grid)
        assert balance_message(minors2, SymbolicMatrix(ctx, entries)) == expected
        assert list(matrix_module._grid_quads(grid)) == list(filter(None, candidate_quads(grid)))


# ---------------------------------------------------------------------------
# the slotted binomial the tables built before Binomial2 became its
# (pos, neg) tuple, with the construction that filled its slots


class SlotBinomial2:
    __slots__ = ("pos", "neg")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pos == other.pos and self.neg == other.neg
        return NotImplemented

    def __hash__(self):
        return hash((self.pos, self.neg))


def slot_quad_binomials(monos, quads):
    S = len(monos)
    codes = matrix_module._packed_codes(monos) if S else []
    pairs = [None] * (S * S)
    new, set_pos, set_neg = object.__new__, SlotBinomial2.pos.__set__, SlotBinomial2.neg.__set__
    for a, b, c, e in quads:
        if codes[a] + codes[b] != codes[c] + codes[e]:
            raise ContractError(f"unbalanced binomial: {monos[a]}*{monos[b]} vs {monos[c]}*{monos[e]}")
        pos = pairs[a * S + b]
        if pos is None:
            pos = pairs[a * S + b] = (monos[a], monos[b])
        neg = pairs[c * S + e]
        if neg is None:
            neg = pairs[c * S + e] = (monos[c], monos[e])
        binomial = new(SlotBinomial2)
        set_pos(binomial, pos)
        set_neg(binomial, neg)
        yield binomial


def slot_minors2(matrix):
    idx = coordinate_index(matrix.ctx)
    grid = [[idx[m] for m in row] for row in matrix.entries]
    return frozenset(slot_quad_binomials(matrix.ctx.monomials(), matrix_module._grid_quads(grid)))


def slot_toric_quadrics(ctx):
    monos = enumerate_monomials(ctx.n, ctx.d)
    codes = matrix_module._packed_codes(monos)
    by_sum = {}
    for a, ca in enumerate(codes):
        for b, cb in enumerate(codes[a:], a):
            by_sum.setdefault(ca + cb, []).append((a, b))
    quads = chain.from_iterable(starmap(add, combinations(pairs, 2)) for pairs in by_sum.values())
    return frozenset(slot_quad_binomials(monos, quads))


def tables_cold_counts():
    """TablesCold.FULL and its (minors, quadrics) counts, read from
    bench/workloads.py as literals, without importing the harness."""
    source = (Path(__file__).resolve().parents[1] / "bench" / "workloads.py").read_text(encoding="utf-8")
    (cls,) = [node for node in ast.parse(source).body
              if isinstance(node, ast.ClassDef) and node.name == "TablesCold"]
    values = {node.targets[0].id: ast.literal_eval(node.value) for node in cls.body
              if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("EXPECTED", "FULL")}
    return {ctx: values["EXPECTED"][ctx][:2] for ctx in values["FULL"]}


class TestTupleTablesAgainstSlotTables:
    """The tuple-backed tables against the slot-filling construction they
    replaced: the same elements, hashes and set iteration order."""

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(5) for d in range(1, 6)])
    def test_same_sets_hashes_and_order(self, n, d):
        ctx = VeroneseContext(n, d)
        clear_caches()
        fast = minors2(build_matrix(ctx)), toric_quadrics(ctx)
        reference = slot_minors2(build_matrix(ctx)), slot_toric_quadrics(ctx)
        for table, ref in zip(fast, reference):
            assert [tuple(b) for b in table] == [(r.pos, r.neg) for r in ref]
            assert list(map(hash, table)) == list(map(hash, ref))
            assert set(map(tuple, table)) == {(r.pos, r.neg) for r in ref}
            for b in table:
                assert type(b) is Binomial2
                assert tuple(map(add, *b.pos)) == tuple(map(add, *b.neg))
        clear_caches()

    @pytest.mark.parametrize("ctx,counts", sorted(tables_cold_counts().items()))
    def test_tables_cold_counts(self, ctx, counts):
        ctx = VeroneseContext(*ctx)
        assert (len(minors2(build_matrix(ctx))), len(toric_quadrics(ctx))) == counts

    def test_tables_cold_contexts_are_read(self):
        assert tables_cold_counts()[4, 5] == (22575, 39625)
        assert len(tables_cold_counts()) == 7


class TestChecksStillFire:
    @pytest.mark.parametrize("exps", [(), [], iter(())])
    def test_empty_multiindex(self, exps):
        with pytest.raises(ContractError) as exc:
            MultiIndex(exps)
        assert str(exc.value) == "a MultiIndex needs at least one exponent"

    @pytest.mark.parametrize("exps,shown", [((1, -1), "(1, -1)"), ((-3,), "(-3,)"),
                                            (("2", -1.5, 0), "(2, -1, 0)")])
    def test_negative_multiindex(self, exps, shown):
        with pytest.raises(ContractError) as exc:
            MultiIndex(exps)
        assert str(exc.value) == f"negative exponent in {shown}"

    def test_mixed_length_binomial(self):
        a, b = MultiIndex((1, 1)), MultiIndex((2, 0))
        c, e = MultiIndex((1, 1, 0)), MultiIndex((2, 0, 0))
        with pytest.raises(ContractError) as exc:
            Binomial2((a, b), (c, e))
        assert str(exc.value) == "mixed-length multi-indices in a binomial"
        with pytest.raises(ContractError):
            Binomial2.canonical((a, b), (c, e))

    def test_unbalanced_binomial(self):
        a, b = MultiIndex((2, 0)), MultiIndex((1, 1))
        c, e = MultiIndex((2, 0)), MultiIndex((2, 0))
        with pytest.raises(ContractError) as exc:
            Binomial2((a, b), (c, e))
        assert str(exc.value) == "unbalanced binomial: (2,0)*(1,1) vs (2,0)*(2,0)"
        with pytest.raises(ContractError, match="^unbalanced binomial"):
            parse_binomial("z_{2,0} z_{1,1} - z_{2,0}^2")

    def test_slots_binomial_keeps_value_semantics(self):
        b = parse_binomial("z_{2,0,0} z_{0,1,1} - z_{1,1,0} z_{1,0,1}")
        twin = Binomial2.canonical(
            (MultiIndex((1, 0, 1)), MultiIndex((1, 1, 0))),
            (MultiIndex((0, 1, 1)), MultiIndex((2, 0, 0))),
        )
        assert b == twin and b is not twin
        assert hash(b) == hash(twin)
        assert len({b, twin}) == 1
        assert str(b) == "z_{2,0,0} z_{0,1,1} - z_{1,1,0} z_{1,0,1}"
        assert parse_binomial(str(b)) == b
        assert not hasattr(b, "__dict__")
        with pytest.raises(FrozenInstanceError):
            b.pos = twin.neg
