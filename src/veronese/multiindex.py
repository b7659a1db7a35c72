"""Exponent vectors, the induced monomial order, and degree-d enumeration.

A monomial x_0^{i_0} ... x_n^{i_n} is represented by its exponent vector
(i_0, ..., i_n), a MultiIndex.  The same vector names the coordinate
z_{i_0,...,i_n} of the target projective space, so one type serves both
readings.  Monomials of a fixed degree are ordered lexicographically with
x_0 > x_1 > ... > x_n, which for equal-degree exponent tuples coincides
with plain tuple comparison; MultiIndex therefore subclasses tuple and
inherits its ordering.

_monomial_values, the one monomial evaluator, lists its values in this order.

All values are immutable and every function here is pure, so the module is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from .errors import ContractError, FrozenTuple


class MultiIndex(tuple):
    """Exponent vector of a monomial in n+1 variables.

    Component j is the power of x_j.  Comparison operators implement the
    lexicographic monomial order induced by x_0 > x_1 > ... > x_n (larger
    tuple = lex-larger monomial).  ``+`` keeps tuple concatenation; a
    componentwise sum is map(add, a, b).
    """

    __slots__ = ()

    def __new__(cls, exponents) -> "MultiIndex":
        self = super().__new__(cls, map(int, exponents))
        if not self:
            raise ContractError("a MultiIndex needs at least one exponent")
        if min(self) < 0:
            raise ContractError(f"negative exponent in {tuple(self)}")
        return self

    @property
    def degree(self) -> int:
        return sum(self)

    def coordinate_name(self) -> str:
        """Name of the coordinate this vector indexes, e.g. "z_{2,1,0}"."""
        return "z_{%s}" % ",".join(str(e) for e in self)

    def monomial_name(self) -> str:
        """Monomial reading, e.g. "x0^2*x1"; "1" for the zero vector."""
        parts = []
        for j, e in enumerate(self):
            if e == 1:
                parts.append(f"x{j}")
            elif e > 1:
                parts.append(f"x{j}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return "(%s)" % ",".join(str(e) for e in self)

    def __repr__(self) -> str:
        return f"MultiIndex({tuple(self)})"


def pure_power(n: int, d: int, i: int) -> MultiIndex:
    """Exponent vector of x_i^d in n+1 variables."""
    if not 0 <= i <= n:
        raise ContractError(f"variable index {i} out of range for n={n}")
    return MultiIndex(d if k == i else 0 for k in range(n + 1))


# compiled on the first parse, by re's own cache, not at import
_COORD_RE = r"z_\{(-?\d+(?:,-?\d+)*)\}"


def parse_coordinate_name(text: str) -> MultiIndex:
    """Inverse of :meth:`MultiIndex.coordinate_name`."""
    m = re.fullmatch(_COORD_RE, text.strip()) if isinstance(text, str) else None
    if not m:
        raise ContractError(f"not a coordinate name: {text!r}")
    try:
        return MultiIndex(m.group(1).split(","))
    except ValueError as exc:  # an exponent past int()'s digit limit
        raise ContractError(f"not a coordinate name: {text!r}: {exc}") from None


@lru_cache(maxsize=None)
def enumerate_monomials(n: int, d: int) -> tuple[MultiIndex, ...]:
    """All C(n+d, n) degree-d exponent vectors in n+1 variables, strictly
    lex-decreasing.

    Each vector counts the variable indices of one sorted multiset of d
    indices; combinations_with_replacement lists those multisets in
    ascending order, which is lex-descending order of the vectors.  The
    counts are valid exponents by construction, so each vector is one
    tuple.__new__, without MultiIndex's checks.
    """
    if n < 0 or d < 0:
        raise ContractError(f"enumerate_monomials requires n, d >= 0, got ({n}, {d})")
    out, new = [], tuple.__new__
    for indices in combinations_with_replacement(range(n + 1), d):
        exponents = [0] * (n + 1)
        for j in indices:
            exponents[j] += 1
        out.append(new(MultiIndex, exponents))
    return tuple(out)


def _monomial_values(v, d: int, p: int) -> list[int]:
    """The values v^m at the ints v of the m of enumerate_monomials(len(v) - 1, d),
    in order, reduced mod p if p.  By suffix products, the degree-k values in
    x_j..x_n are x_j times the degree-(k-1) ones in x_j..x_n, then the degree-k
    ones in x_(j+1)..x_n, as combinations_with_replacement lists multisets.  They
    give row[k] over x_1..x_n; x_0's exponent leads, so the result is x_0^(d-k)
    row[k], k = 0..d, as a step on x_0 would also build every lower degree."""
    row = [[1]] + [[]] * d
    for c in reversed(v[1:]):
        for k in range(1, d + 1):
            row[k] = ([c * t % p for t in row[k - 1]] if p else [c * t for t in row[k - 1]]) + row[k]
    powers = [1]  # x_0^0 .. x_0^d, paired with row highest first
    for _ in range(d):
        powers.append(powers[-1] * v[0] % p if p else powers[-1] * v[0])
    if p:
        return [w * t % p for w, values in zip(reversed(powers), row) for t in values]
    return [w * t for w, values in zip(reversed(powers), row) for t in values]


class VeroneseContext(FrozenTuple):
    """The pair (n, d) of ints: source space P^n and embedding degree d.

    Derived quantities: N = C(n+d, n) - 1 is the target dimension, cols =
    C(n+d-1, n) is the column count of the coordinate matrix.  A context
    needs n >= 0 and d >= 1, so every context has a coordinate matrix.
    """

    __slots__ = ()
    _fields = ("n", "d")

    def __new__(cls, n: int, d: int):
        if not (isinstance(n, int) and isinstance(d, int)) or bool in (type(n), type(d)):
            raise ContractError(f"n and d must be ints, got n={n!r}, d={d!r}")
        if n < 0:
            raise ContractError(f"n must be >= 0, got {n}")
        if d < 1:
            raise ContractError(f"d must be >= 1, got {d}")
        return tuple.__new__(cls, (n, d))

    @property
    def num_coords(self) -> int:
        """Number of degree-d monomials, N + 1."""
        return comb(self.n + self.d, self.n)

    @property
    def N(self) -> int:
        return self.num_coords - 1

    @property
    def cols(self) -> int:
        return comb(self.n + self.d - 1, self.n)

    def monomials(self) -> tuple[MultiIndex, ...]:
        return enumerate_monomials(self.n, self.d)

    def pure_powers(self) -> tuple[MultiIndex, ...]:
        """Exponent vectors of x_0^d, ..., x_n^d."""
        return tuple(pure_power(self.n, self.d, i) for i in range(self.n + 1))


@lru_cache(maxsize=None)
def coordinate_index(ctx: VeroneseContext) -> dict[MultiIndex, int]:
    """Flat coordinate index (rank) of each degree-d exponent vector or tuple."""
    return {m: k for k, m in enumerate(ctx.monomials())}
