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
(a, b, c, e) of z_a z_b - z_c z_e.  _grid_quads canonicalizes the 2x2
candidates of a grid of indices inline, for minors2, and _quad_binomials
turns quads into Binomial2 values for it and for morphism's listing, one
pair tuple per index pair from a 2-D table.  Balance is checked on packed
exponent codes, code(m) = sum_j m_j (2d+1)^j.  A digit of a pair sum is
at most 2d < 2d+1, so adding codes never carries: code(A) + code(B) is
the base-(2d+1) numeral of A + B, and code(A) + code(B) == code(C) +
code(E) iff A + B == C + E.  _require_balanced checks a grid once, not
per candidate: every candidate balances iff each row minus row 0 is
constant in codes.  toric_quadrics groups pairs by code sum, so it needs
no check, and makes its binomials from pairs of pairs in C.  A Binomial2
is the tuple (pos, neg), so the tables hash and free them in C too.
Quadrics flow one way, from quads to Binomial2; binomial_quad reads a
binomial from outside back as a quad.
"""

from __future__ import annotations

import re
from collections import defaultdict
from functools import lru_cache
from itertools import chain, combinations, repeat
from math import comb
from operator import add, itemgetter, mul, sub

from .errors import BudgetError, ContractError, Frozen
from .multiindex import (
    MultiIndex,
    VeroneseContext,
    coordinate_index,
    enumerate_monomials,
    parse_coordinate_name,
)

Pair = tuple[MultiIndex, MultiIndex]


class SymbolicMatrix(Frozen):
    """The (n+1) x cols grid of exponent vectors realizing both L and M."""

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: VeroneseContext, entries: tuple[tuple[MultiIndex, ...], ...]):
        if len(set(map(len, entries))) > 1:
            raise ContractError(f"ragged grid: row lengths {[len(row) for row in entries]}")
        self._assign(ctx, entries)

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


class Binomial2(tuple):
    """Canonical balanced binomial quadric z_pos0 z_pos1 - z_neg0 z_neg1.

    Each pair is stored lex-descending and pos is the pair with the
    lex-larger leading vector, so a binomial and its negation share one
    representation.  Balanced distinct pairs never share a leading vector
    (equal leaders force equal partners), making the choice well defined.

    A binomial is the tuple (pos, neg), its fields named by _fields, so a
    table build of tens of thousands hashes, makes and frees them in C: the
    hash is hash((pos, neg)), and the tables and rewrite chains make each
    with tuple.__new__, balanced by a check on packed codes or by
    construction.  The public constructor runs __post_init__, the check on
    the vectors.  Otherwise it behaves as a frozen dataclass
    (errors.Frozen): equal only to another Binomial2, never to a tuple,
    unordered, immutable, shown as Binomial2(pos=..., neg=...), and
    pickled by calling the class on its fields.
    """

    __slots__ = ()
    _fields = ("pos", "neg")
    pos = property(itemgetter(0))
    neg = property(itemgetter(1))
    __hash__ = tuple.__hash__
    __setattr__, __delattr__ = Frozen.__setattr__, Frozen.__delattr__

    def __new__(cls, pos: Pair, neg: Pair):
        self = tuple.__new__(cls, (pos, neg))
        self.__post_init__()
        return self

    def __eq__(self, other):
        # False, not NotImplemented: the reflected tuple.__eq__ would say True
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):  # unordered: tuple's order would compare the fields
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(pos={self[0]!r}, neg={self[1]!r})"

    def __reduce__(self):
        return self.__class__, tuple(self)

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
        return f"{_product_str(self.pos)} - {_product_str(self.neg)}"


def _product_str(pair: Pair) -> str:
    a, b = pair
    if a == b:
        return f"{a.coordinate_name()}^2"
    return f"{a.coordinate_name()} {b.coordinate_name()}"


_BINOMIAL_RE = re.compile(
    r"(z_\{[\d,]+\})(?:\^2| (z_\{[\d,]+\}))\s*-\s*(z_\{[\d,]+\})(?:\^2| (z_\{[\d,]+\}))"
)


def parse_binomial(text: str) -> Binomial2:
    """Inverse of str(Binomial2); accepts the "z_{a} z_{b} - z_{c} z_{e}"
    form with ^2 for repeated factors."""
    m = _BINOMIAL_RE.fullmatch(text.strip()) if isinstance(text, str) else None
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
    """All distinct canonical 2-minors of the grid, canonicalized on the
    coordinate indices of matrix.ctx (ContractError for an entry that is no
    degree-d coordinate, or for an unbalanced candidate); identically-zero
    minors are dropped."""
    ctx = matrix.ctx
    idx = coordinate_index(ctx)
    try:
        grid = [[idx[m] for m in row] for row in matrix.entries]
    except KeyError as exc:
        raise ContractError(f"grid entry {exc.args[0]} is not a degree-{ctx.d} coordinate of {ctx}") from None
    monos = ctx.monomials()
    _require_balanced(monos, grid)
    return frozenset(_quad_binomials(monos, _grid_quads(grid)))


def _grid_quads(grid):
    """The canonical quad of every 2x2 candidate of a grid of coordinate
    indices, repeats kept, identically-zero candidates skipped: the
    candidate on rows ri, rj and columns k < l is z_a z_b - z_c z_e with
    (a, e) = (ri[k], rj[k]) and (c, b) = (ri[l], rj[l]), canonicalized
    inline as _canonical_quad does."""
    for ri, rj in combinations(grid, 2):
        for (a, e), (c, b) in combinations(tuple(zip(ri, rj)), 2):
            if a > b:
                a, b = b, a
            if c > e:
                c, e = e, c
            if a < c:
                yield a, b, c, e
            elif a != c or b != e:
                yield c, e, a, b


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


def _packed_codes(monos) -> list[int]:
    """code(m) = sum_j m_j (2d+1)^j of each degree-d vector in monos."""
    base = 2 * sum(monos[0]) + 1
    weights = [base ** j for j in range(len(monos[0]))]
    return [sum(map(mul, m, weights)) for m in monos]


def _require_balanced(monos, grid) -> None:
    """ContractError naming the first unbalanced 2x2 candidate of a grid of
    indices into monos, a table of same-degree vectors, in _grid_quads
    order.  The candidate on rows ri, rj and columns k, l balances iff
    code(rj[k]) - code(ri[k]) == code(rj[l]) - code(ri[l]), so every
    candidate balances iff each row minus row 0 is constant in packed
    codes: O(rows * cols), and candidates are scanned only when it fails."""
    if len(grid) < 2:
        return
    codes = _packed_codes(monos)
    first = [codes[a] for a in grid[0]]
    if all(len(set(map(sub, map(codes.__getitem__, row), first))) <= 1 for row in grid[1:]):
        return
    for a, b, c, e in _grid_quads(grid):
        if codes[a] + codes[b] != codes[c] + codes[e]:
            raise ContractError(f"unbalanced binomial: {monos[a]}*{monos[b]} vs {monos[c]}*{monos[e]}")


def _quad_binomials(monos, quads):
    """Yield the Binomial2 of each canonical quad of indices into monos,
    whose balance the caller has checked with _require_balanced.  Each
    index pair gets one (monos[a], monos[b]) tuple, shared through an S-row
    2-D list, and each binomial is one tuple.__new__."""
    pairs = [[None] * len(monos) for _ in monos]
    new = tuple.__new__
    for a, b, c, e in quads:
        pos = pairs[a][b]
        if pos is None:
            pos = pairs[a][b] = (monos[a], monos[b])
        neg = pairs[c][e]
        if neg is None:
            neg = pairs[c][e] = (monos[c], monos[e])
        yield new(Binomial2, (pos, neg))


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


def is_minor_quad(monos: tuple[MultiIndex, ...], a: int, b: int, c: int, e: int) -> bool:
    """Whether z_a z_b - z_c z_e, given by indices into monos =
    ctx.monomials(), is a canonical 2-minor of the matrix.

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
    A - E = C - B, so testing A against C and E covers all four pairings;
    entries of equal degree differ by a unit move iff their L1 distance is 2.
    """
    if not (0 <= a <= b < len(monos) and a < c <= e < len(monos)):
        return False
    A, B, C, E = monos[a], monos[b], monos[c], monos[e]
    return list(map(add, A, B)) == list(map(add, C, E)) and (
        sum(map(abs, map(sub, A, C))) == 2 or sum(map(abs, map(sub, A, E))) == 2
    )


def toric_quadrics(ctx: VeroneseContext) -> frozenset[Binomial2]:
    """Every canonical balanced quadric z_a z_b - z_c z_e on the degree-d
    coordinates: the full catalecticant-style generating set the minors are
    compared against.  Pairs (monos[a], monos[b]), a <= b, are grouped by
    the sum of their packed codes, which is the code of A + B (module
    docstring), so two pairs share a group iff they balance.  A group
    receives its pairs in rising order of a, and no two pairs with one sum
    share a leader, so each (p1, p2) of combinations is a canonical
    binomial (p1 leads), and none repeats.
    """
    monos = enumerate_monomials(ctx.n, ctx.d)
    codes = _packed_codes(monos)
    by_sum: defaultdict[int, list[Pair]] = defaultdict(list)
    for a, (A, ca) in enumerate(zip(monos, codes)):
        for B, cb in zip(monos[a:], codes[a:]):
            by_sum[ca + cb].append((A, B))
    groups = (map(tuple.__new__, repeat(Binomial2), combinations(pairs, 2)) for pairs in by_sum.values())
    return frozenset(chain.from_iterable(groups))


def sorted_binomials(binomials: frozenset[Binomial2]) -> list[Binomial2]:
    """Deterministic listing order: lex-descending leading coordinates."""
    return sorted(binomials, key=tuple, reverse=True)


@lru_cache(maxsize=None)
def cached_matrix(ctx: VeroneseContext) -> SymbolicMatrix:
    return build_matrix(ctx)


@lru_cache(maxsize=None)
def cached_minors(ctx: VeroneseContext) -> frozenset[Binomial2]:
    return minors2(cached_matrix(ctx))
