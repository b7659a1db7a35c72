"""The symbolic coordinate matrix and its 2-minor binomial quadrics.

One grid of MultiIndex entries serves two readings: as L (each entry is the
monomial x^m) and as M (each entry is the coordinate z_m).  Row i holds all
degree-d exponent vectors with a positive i-th component, lex-decreasing,
so the grid is (n+1) x C(n+d-1, n).

Every 2x2 subdeterminant of M is the balanced binomial quadric
z_a z_b - z_c z_e with a + b = c + e; these generate the ideal whose
vanishing locus the rest of the package studies.  Binomials are kept in a
canonical form so that generator sets deduplicate by plain equality.

The tables are built on coordinate indices (ranks): a quadric is the quad
(a, b, c, e) of z_a z_b - z_c z_e.  minors2 takes its binomials from one
generator, _grid_binomials, which takes the canonical quad of each 2x2
candidate of the index grid and makes its Binomial2 in the same step, one
pair tuple per index pair from a 2-D table.  toric_quadrics groups pairs
on packed exponent codes, code(m) = sum_j m_j (2d+1)^j.  A digit of a
pair sum is at most 2d < 2d+1, so adding codes never carries: code(A) +
code(B) is the base-(2d+1) numeral of A + B, and code(A) + code(B) ==
code(C) + code(E) iff A + B == C + E.  _pair_groups groups pairs by code
sum, so toric_quadrics needs no check, and makes its binomials from pairs
of pairs in C; _toric_quads takes the same pairs of pairs as quads, for the
oracle.  A Binomial2 is the tuple (pos, neg), so the tables hash and free
them in C too.  Quadrics flow one way, from quads to Binomial2;
binomial_quad reads a binomial from outside back as a quad.

Codes also decide unit moves.  A digit of a difference A - C of degree-d
vectors lies in [-d, d], and base 2d+1 with digits in [-d, d] writes each
integer one way only: if two such numerals differ, their lowest differing
digit differs by 1 to 2d, not a multiple of 2d+1.  So code(A) - code(C)
== w_i - w_j, w_j = (2d+1)^j, iff A - C == e_i - e_j.  CodeIndex holds a
context's codes, its n(n+1) unit-move codes w_i - w_j (i != j), and the
dict code -> index, made once per call that needs them, never cached:
is_minor_quad tests a quad with two sums and two lookups, and the
certificates find the coordinate k - e_i + e_j as at[code(k) - w_i + w_j].

The minor table _minor_quads holds the distinct canonical minors of the
index grid _index_grid in listing order, as one flat array of quads with
no per-minor object: morphism scans it for a failing minor, and the
minors command and the oracle read it.  Each grid row ascends in index
(ranks reverse lex order), so a candidate on rows i < j and columns
k < l, based at beta and gamma, leads with its top-left entry A = G[i][k]
= beta + e_i: the others are A + (e_j - e_i), A + (gamma - beta) and
their sum, both moves are lex-negative, and lex order respects addition.
So no candidate is identically zero, and its canonical quad is (G[i][k],
G[j][l]) with the other two entries sorted, one comparison:
_grid_binomials takes it so, and the table is built one leader at a
time, each leader a's quads deduplicated and sorted as the index
triples (b, c, e), c <= e, behind it.  Every candidate of the grid
balances by construction, and only this grid has minors: minors2
refuses any other.

The inverse's chart columns are grid columns: chart_indices finds the
one based at x_i^(d-1) by counting bases, building no exponent vector.
"""

from __future__ import annotations

import re
from array import array
from collections import defaultdict
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, repeat
from math import comb
from operator import add

from .errors import BudgetError, ContractError, FrozenTuple
from .multiindex import (
    MultiIndex,
    VeroneseContext,
    coordinate_index,
    enumerate_monomials,
    parse_coordinate_name,
)

Pair = tuple[MultiIndex, MultiIndex]


class SymbolicMatrix(FrozenTuple):
    """The (n+1) x cols grid of exponent vectors realizing both L and M.
    Only build_matrix's grid has minors: minors2 refuses any other."""

    __slots__ = ()
    _fields = ("ctx", "entries")

    def __new__(cls, ctx: VeroneseContext, entries: tuple[tuple[MultiIndex, ...], ...]):
        if len(set(map(len, entries))) > 1:
            raise ContractError(f"ragged grid: row lengths {[len(row) for row in entries]}")
        return tuple.__new__(cls, (ctx, entries))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), len(self.entries[0]) if self.entries else 0)

    def to_doc(self) -> dict:
        """JSON-ready document {n, d, rows} with entries as exponent lists."""
        return {
            "n": self.ctx.n,
            "d": self.ctx.d,
            "rows": [[list(m) for m in row] for row in self.entries],
        }


def build_matrix(ctx: VeroneseContext) -> SymbolicMatrix:
    """Row-wise construction: row i filters the degree-d enumeration down to
    vectors divisible by x_i, preserving the lex-descending order."""
    all_monos = enumerate_monomials(ctx.n, ctx.d)
    rows = tuple(
        tuple(m for m in all_monos if m[i] >= 1) for i in range(ctx.n + 1)
    )
    return SymbolicMatrix(ctx, rows)


def _ordered_pair(a: MultiIndex, b: MultiIndex) -> Pair:
    return (a, b) if a >= b else (b, a)


class Binomial2(FrozenTuple):
    """Canonical balanced binomial quadric z_pos0 z_pos1 - z_neg0 z_neg1.

    Each pair is stored lex-descending and pos is the pair with the
    lex-larger leading vector, so a binomial and its negation share one
    representation.  Balanced distinct pairs never share a leading vector
    (equal leaders force equal partners), making the choice well defined.

    A binomial is the FrozenTuple (pos, neg), so a table build of tens of
    thousands hashes, makes and frees them in C: the tables, cascades and
    rewrite chains make each with tuple.__new__, balanced by a check on
    packed codes or by construction.  The public constructor runs
    __post_init__, the check on the vectors.
    """

    __slots__ = ()
    _fields = ("pos", "neg")

    def __new__(cls, pos: Pair, neg: Pair):
        self = tuple.__new__(cls, (pos, neg))
        self.__post_init__()
        return self

    def __post_init__(self):
        a, b = self.pos
        c, e = self.neg
        if not (len(a) == len(b) == len(c) == len(e)):
            raise ContractError("mixed-length multi-indices in a binomial")
        if list(map(add, a, b)) != list(map(add, c, e)):
            raise ContractError(f"unbalanced binomial: {a}*{b} vs {c}*{e}")

    @staticmethod
    def canonical(pair1: Pair, pair2: Pair) -> "Binomial2 | None":
        """Canonicalize {pair1} - {pair2}; None when the minor is identically
        zero (equal multisets)."""
        p1 = _ordered_pair(*pair1)
        p2 = _ordered_pair(*pair2)
        if p1 == p2:
            return None
        if p1[0] > p2[0]:
            return Binomial2(p1, p2)
        return Binomial2(p2, p1)

    def __str__(self) -> str:
        a, b, c, e = (m.coordinate_name() for pair in self for m in pair)
        return f"{_product_str(a, b)} - {_product_str(c, e)}"


def _product_str(a: str, b: str) -> str:
    """z_a z_b from the two coordinate names, z_a^2 when they agree."""
    return f"{a}^2" if a == b else f"{a} {b}"


# compiled on the first parse, by re's own cache, not at import
_BINOMIAL_RE = r"(z_\{[\d,]+\})(?:\^2| (z_\{[\d,]+\}))\s*-\s*(z_\{[\d,]+\})(?:\^2| (z_\{[\d,]+\}))"


def parse_binomial(text: str) -> Binomial2:
    """Inverse of str(Binomial2); accepts the "z_{a} z_{b} - z_{c} z_{e}"
    form with ^2 for repeated factors."""
    m = re.fullmatch(_BINOMIAL_RE, text.strip()) if isinstance(text, str) else None
    if not m:
        raise ContractError(f"not a binomial quadric: {text!r}")
    a = parse_coordinate_name(m.group(1))
    b = parse_coordinate_name(m.group(2)) if m.group(2) else a
    c = parse_coordinate_name(m.group(3))
    e = parse_coordinate_name(m.group(4)) if m.group(4) else c
    out = Binomial2.canonical((a, b), (c, e))
    if out is None:
        raise ContractError(f"identically zero binomial: {text!r}")
    return out


def minors2(matrix: SymbolicMatrix) -> frozenset[Binomial2]:
    """All distinct canonical 2-minors of build_matrix(matrix.ctx), the one
    grid with minors; ContractError for any other grid."""
    ctx = matrix.ctx
    if matrix != build_matrix(ctx):
        raise ContractError(f"not the coordinate matrix of {ctx}")
    idx = coordinate_index(ctx)
    grid = [[idx[m] for m in row] for row in matrix.entries]
    return frozenset(_grid_binomials(ctx.monomials(), grid))


def _grid_binomials(monos, grid):
    """The Binomial2 of every 2x2 candidate of the index grid, repeats
    kept: the candidate on rows ri, rj and columns k < l is
    z_a z_b - z_x z_y with (a, x) = (ri[k], rj[k]) and (y, b) = (ri[l],
    rj[l]), a its least entry (module docstring).  Pair tuples are shared
    through an S-row 2-D list, and each binomial is one tuple.__new__."""
    pairs = [[None] * len(monos) for _ in monos]
    new = tuple.__new__
    for ri, rj in combinations(grid, 2):
        for (a, x), (y, b) in combinations(tuple(zip(ri, rj)), 2):
            if x > y:
                x, y = y, x
            pos = pairs[a][b]
            if pos is None:
                pos = pairs[a][b] = (monos[a], monos[b])
            neg = pairs[x][y]
            if neg is None:
                neg = pairs[x][y] = (monos[x], monos[y])
            yield new(Binomial2, (pos, neg))


def _canonical_quad(a: int, b: int, c: int, e: int) -> tuple[int, int, int, int] | None:
    """Canonical quad of +-(z_a z_b - z_c z_e) on coordinate indices:
    a <= b, c <= e and a < c.  Ranks reverse lex order, so this is
    Binomial2.canonical; None when the pairs are equal (identically zero)."""
    if a > b:
        a, b = b, a
    if c > e:
        c, e = e, c
    if a < c:
        return a, b, c, e
    return None if a == c and b == e else (c, e, a, b)


def _packed_codes(n: int, d: int) -> list[int]:
    """code(m) = sum_j m_j w_j, w_j = (2d+1)^j, of each m of
    enumerate_monomials(n, d), in order: m counts the indices of one
    multiset of combinations_with_replacement(range(n + 1), d), so code(m)
    is the sum of w_j over that multiset."""
    return list(map(sum, combinations_with_replacement(_code_weights(n, d), d)))


def _code_weights(n: int, d: int) -> list[int]:
    """w_j = (2d+1)^j, j = 0..n."""
    return [(2 * d + 1) ** j for j in range(n + 1)]


class CodeIndex(dict):
    """The dict code -> index of ctx's coordinates, with codes[k] the code
    of coordinate k, the weights w[j] = (2d+1)^j, and moves, the set of
    the n(n+1) unit-move codes w_i - w_j, i != j (module docstring).  Made
    once per call that needs it and never cached, it costs O(N) to make,
    so a call that builds one chain pays for every coordinate."""

    __slots__ = ("codes", "w", "moves")

    def __init__(self, ctx: VeroneseContext):
        self.w = w = _code_weights(ctx.n, ctx.d)
        self.moves = {u - v for u in w for v in w if u != v}
        self.codes = _packed_codes(ctx.n, ctx.d)
        super().__init__(zip(self.codes, range(len(self.codes))))


@lru_cache(maxsize=None)
def _index_grid(ctx: VeroneseContext) -> tuple[tuple[int, ...], ...]:
    """G[i][k] = coordinate_index(ctx)[beta_k + e_i]: the flat coordinate
    index of each entry of the coordinate matrix, beta_k the base of
    column k."""
    idx = coordinate_index(ctx)
    return tuple(tuple(idx[m] for m in row) for row in build_matrix(ctx).entries)


@lru_cache(maxsize=None)
def chart_indices(ctx: VeroneseContext, i: int) -> tuple[int, ...]:
    """Column (d-1)e_i of the index grid: entry j is (d-1)e_i + e_j, entry
    i the pure power z_{d e_i}.  Column bases are the degree-(d-1) vectors
    lex-descending, and (d-1)e_i leads the C(n-i+d-1, n-i) supported on
    x_i..x_n, which come last."""
    c = ctx.cols - comb(ctx.n - i + ctx.d - 1, ctx.n - i)
    return tuple(row[c] for row in _index_grid(ctx))


@lru_cache(maxsize=None)
def _minor_quads(ctx: VeroneseContext) -> array:
    """The distinct canonical minors of the index grid as one flat array
    of quads, four indices each, in listing order: ascending quads, since
    ranks reverse the lex order that sorted_binomials lists descending.
    Leaders ascend, and each leader's quads are deduplicated and sorted
    as index triples (module docstring); no per-minor object is kept."""
    grid = _index_grid(ctx)
    positions: list[list[tuple[int, int]]] = [[] for _ in range(ctx.N + 1)]
    for i, row in enumerate(grid):
        for k, a in enumerate(row):
            positions[a].append((i, k))
    quads = array("I")
    for a, cells in enumerate(positions):
        triples = set()
        for i, k in cells:
            tail = grid[i][k + 1:]
            for rj in grid[i + 1:]:
                c = rj[k]
                triples.update([(b, c, e) if c <= e else (b, e, c) for b, e in zip(rj[k + 1:], tail)])
        for b, c, e in sorted(triples):
            quads.extend((a, b, c, e))
    return quads


def _quads(table: array):
    """The quads of a flat table, four indices at a time."""
    it = iter(table)
    return zip(it, it, it, it)


def minor_candidates(ctx: VeroneseContext) -> int:
    """C(n+1, 2) * C(cols, 2): the 2x2 submatrices minors2 visits, in closed
    form, so a caller can bound the cost before building anything."""
    return comb(ctx.n + 1, 2) * comb(ctx.cols, 2)


# the cost limit every command applies when none is given: check_minor_budget
# bounds the 2-minor candidates with it, the oracle also points x quadrics
DEFAULT_BUDGET = 5_000_000


def check_minor_budget(ctx: VeroneseContext, budget: int) -> None:
    """Refuse, before any table is built, a context whose 2-minor candidate
    count, or C(d, 2) or C(n+1, 2) if larger, exceeds the budget.  The
    floors bound the grids without minors whose tables still grow: C(d, 2)
    the one-row grid of n = 0, C(n+1, 2) the one-column grid of d = 1.  For
    n >= 1 and d >= 2, cols >= max(d, 2), so the candidate count is never
    below either."""
    estimate = max(minor_candidates(ctx), comb(ctx.d, 2), comb(ctx.n + 1, 2))
    if estimate > budget:
        raise BudgetError(estimate, budget, "2-minor candidates")


def binomial_quad(ctx: VeroneseContext, binomial: Binomial2) -> tuple[int, int, int, int] | None:
    """The coordinate indices of binomial's entries, pos then neg; None
    when an entry is not a degree-d coordinate of ctx."""
    (a, b), (c, e) = binomial
    index = coordinate_index(ctx)
    try:
        return index[a], index[b], index[c], index[e]
    except KeyError:
        return None


def is_minor_quad(at: CodeIndex, a: int, b: int, c: int, e: int) -> bool:
    """Whether z_a z_b - z_c z_e, given by indices into monos =
    ctx.monomials() and at = CodeIndex(ctx), is a canonical 2-minor of
    the matrix.

    Column beta (a degree-(d-1) vector) holds z_{beta+e_i} on row i, so the
    minor on rows i, j and columns beta, gamma is

        z_{beta+e_i} z_{gamma+e_j} - z_{gamma+e_i} z_{beta+e_j},

    whose entries beta+e_i and beta+e_j, on opposite sides, differ by the
    unit move e_i - e_j.  Conversely, if z_A z_B - z_C z_E is balanced with
    degree-d entries and A - C = e_i - e_j, i != j, then beta = A - e_i =
    C - e_j and gamma = E - e_i are degree-(d-1) vectors (A_i = C_i + 1, and
    B = E - e_i + e_j >= 0 gives E_i > 0), and the minor on rows i, j and
    columns beta, gamma is z_A z_B - z_C z_E.  So a balanced binomial with
    degree-d entries is a 2-minor iff an entry on one side and one on the
    other differ by a unit move (M. Pucci, "The Veronese variety and
    catalecticant matrices", J. Algebra 202, 1998).

    The minor set holds canonical forms only: A >= B, C >= E, A > C in lex
    order, so a <= b, c <= e, a < c for indices (ranks reverse lex order),
    and the minor is not identically zero.  Balance gives A - C = E - B and
    A - E = C - B, so testing A against C and E covers all four pairings.
    On codes, balance is code(A) + code(B) == code(C) + code(E) (no carry)
    and a unit move is a difference in at.moves (balanced digits), so the
    test is exact (module docstring).
    """
    if not (0 <= a <= b < len(at) and a < c <= e < len(at)):
        return False
    codes = at.codes
    A, C, E = codes[a], codes[c], codes[e]
    return A + codes[b] == C + E and (A - C in at.moves or A - E in at.moves)


def toric_quadrics(ctx: VeroneseContext) -> frozenset[Binomial2]:
    """Every canonical balanced quadric z_a z_b - z_c z_e on the degree-d
    coordinates: the full catalecticant-style generating set the minors are
    compared against.  Each pair of pairs of one _pair_groups group is a
    canonical binomial (p1 leads), and none repeats.
    """
    monos = enumerate_monomials(ctx.n, ctx.d)
    groups = (map(tuple.__new__, repeat(Binomial2), combinations(pairs, 2))
              for pairs in _pair_groups(ctx, monos))
    return frozenset(chain.from_iterable(groups))


def _toric_quads(ctx: VeroneseContext) -> list[tuple[int, int, int, int]]:
    """The quads of toric_quadrics(ctx), from the same grouping on
    coordinate indices, so no Binomial2 is made or read back."""
    monos = ctx.monomials()
    return [p1 + p2 for pairs in _pair_groups(ctx, range(len(monos)))
            for p1, p2 in combinations(pairs, 2)]


def _pair_groups(ctx: VeroneseContext, tags):
    """The pairs (tags[a], tags[b]), a <= b, of the coordinates a, b of
    ctx, grouped by the sum of their packed codes, which is the code of
    monos[a] + monos[b] (module docstring): two pairs share a group iff
    they balance.  A group receives its pairs in rising order of a, and no
    two pairs with one sum share a leader, so in each pair of pairs of a
    group the first leads."""
    codes = _packed_codes(ctx.n, ctx.d)
    by_sum: defaultdict[int, list] = defaultdict(list)
    for a, (ta, ca) in enumerate(zip(tags, codes)):
        for tb, cb in zip(tags[a:], codes[a:]):
            by_sum[ca + cb].append((ta, tb))
    return by_sum.values()


def sorted_binomials(binomials: frozenset[Binomial2]) -> list[Binomial2]:
    """Deterministic listing order: lex-descending leading coordinates."""
    return sorted(binomials, key=tuple, reverse=True)


@lru_cache(maxsize=None)
def cached_matrix(ctx: VeroneseContext) -> SymbolicMatrix:
    return build_matrix(ctx)


@lru_cache(maxsize=None)
def cached_minors(ctx: VeroneseContext) -> frozenset[Binomial2]:
    return minors2(cached_matrix(ctx))
